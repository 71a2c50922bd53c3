#!/usr/bin/env python3
"""Compare two sets of saved benchmark results, same host only.

    python3 perfbench/compare.py BASE_OUT_DIR HEAD_OUT_DIR

Each directory holds results saved by perfbench/run.py (.bench_build/out
of a checkout). Comparison is refused, with exit status 3, when any two
results differ in host or build provenance: CPU model, nproc, compiler,
build type or benchmark digest. A different host is then never read as
a regression. Otherwise the script prints, per workload and metric, the
median of each side, the base's quartile spread and the change. Each
end-to-end metric is judged against its bound in BENCHMARK.json:
"REGRESSED" if it got worse by more than the bound, "unresolved" if the
base's own spread exceeds the bound (unless every head run beats every
base run), "ok" otherwise. Exit status 1 if anything regressed or any
run failed its correctness gate, else 0.
"""

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
HOST_KEYS = ("cpu_model", "nproc", "compiler", "build_type",
             "benchmark_digest")


def load(directory):
    runs = []
    for path in sorted(Path(directory).glob("*.json")):
        doc = json.loads(path.read_text())
        if isinstance(doc, dict) and "provenance" in doc and "result" in doc:
            runs.append(doc)
    if not runs:
        sys.exit(f"compare: no results in {directory}")
    return runs


def group(runs):
    out = {}
    for r in runs:
        key = (r["workload"], r["trace"])
        for name, m in r["result"]["metrics"].items():
            out.setdefault(key, {}).setdefault(name, []).append(m["value"])
    return out


def spread(values):
    if len(values) < 2:
        return float("nan")
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, head = load(sys.argv[1]), load(sys.argv[2])

    ref = base[0]["provenance"]
    bad = [(k, r["provenance"].get(k), ref.get(k))
           for r in base + head for k in HOST_KEYS
           if r["provenance"].get(k) != ref.get(k)]
    if bad:
        for k, got, want in sorted(set(bad)):
            print(f"provenance differs: {k}: {got!r} vs {want!r}")
        print("refusing to compare results from different hosts or builds")
        return 3
    print("base: " + ", ".join(sorted({r["provenance"]["git_describe"]
                                       for r in base})))
    print("head: " + ", ".join(sorted({r["provenance"]["git_describe"]
                                       for r in head})))

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layers = {m["name"]: m for m in bench["per_layer"]}
    moves = json.loads((HERE / "metric_map.json").read_text())["per_layer"]

    failed = [r for r in base + head if not r["result"]["correct"]]
    for r in failed:
        print(f"FAILED RUN: {r['workload']} seed {r['seed']} "
              f"({r['provenance']['git_describe']})")
    status = 1 if failed else 0
    gb, gh = group(base), group(head)
    for key in sorted(set(gb) & set(gh)):
        print(f"\n{key[0]} ({'traced' if key[1] else 'untraced'})")
        for name in sorted(set(gb[key]) & set(gh[key])):
            spec = e2e.get(name) or layers.get(name, {})
            b = statistics.median(gb[key][name])
            h = statistics.median(gh[key][name])
            change = (h - b) / b if b else float("nan")
            worse = change if spec.get("better") == "lower" else -change
            s = spread(gb[key][name])
            verdict = ""
            if name in e2e:
                bound = e2e[name]["bound"]
                lower = spec["better"] == "lower"
                if s > bound:
                    # Too noisy to judge, unless every head run beats
                    # every base run.
                    clear = (max(gh[key][name]) < min(gb[key][name])
                             if lower else
                             min(gh[key][name]) > max(gb[key][name]))
                    verdict = "better" if clear else "unresolved"
                elif worse > bound:
                    verdict, status = "REGRESSED", 1
                else:
                    verdict = "ok"
            elif name in moves and moves[name]["moves"] and abs(change) > s:
                verdict = "-> " + "; ".join(
                    f"{m} on {','.join(w)}"
                    for m, w in moves[name]["moves"].items())
            print(f"  {name:38s} {b:12.5g} -> {h:12.5g} {change:+7.1%} "
                  f"(base spread {s:.3f}) {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main())
