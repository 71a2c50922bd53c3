#!/usr/bin/env python3
"""Validate a ddsim run manifest, sweep manifest, grid spec, farm
manifest, spooled job spec / result record / claim lease, crash black
box, or ddlint verdict export.

Stdlib-only. Checks schema identifiers, required fields, and internal
consistency (IPC = committed/cycles, per-stream counts are integers,
stat tree shape, degraded-sweep job tables, black-box error reports,
dense grid-spec job ids, engine selectors and sampled-engine plans /
error-bar blocks, farm shard provenance covering every job id exactly
once, lint verdict enums and mix totals vs the per-program verdict
arrays). CRC-sealed spool artifacts (ddsim-job-v2,
ddsim-job-result-v2) additionally have their seal recomputed from the
raw bytes, so a bit flip anywhere in the payload is flagged even when
the damaged document still parses as JSON. Exits non-zero with a
message on the first problem.

Usage: validate_manifest.py <manifest.json> [more.json ...]
"""

import binascii
import json
import sys

RUN_SCHEMA = "ddsim-manifest-v1"
SWEEP_SCHEMA = "ddsim-sweep-manifest-v1"
STATS_SCHEMA = "ddsim-stats-v1"
BLACKBOX_SCHEMA = "ddsim-blackbox-v1"
GRID_SCHEMA = "ddsim-grid-v1"
FARM_SCHEMA = "ddsim-farm-manifest-v1"
LINT_SCHEMA = "ddsim-lint-v1"
JOB_SCHEMA = "ddsim-job-v2"
JOB_RESULT_SCHEMA = "ddsim-job-result-v2"
CLAIM_SCHEMA = "ddsim-claim-v1"

JOB_STATUSES = ("ok", "recovered", "quarantined")
VERDICTS = ("local", "nonlocal", "ambiguous")
SEVERITIES = ("error", "warning", "note")
ANNOTATE_POLICIES = ("safe", "speculative", "hybrid")
# What a grid spec may request (auto is the implicit default and never
# written).
GRID_ENGINES = ("auto", "live", "replay", "sampled")
# What a run manifest records actually drove the run.
RUN_ENGINES = ("live", "replay", "sampled")
# Provenance tags an external-trace run may carry (see docs/TRACES.md).
TRACE_FORMATS = ("xtrace", "text", "workload")


class Invalid(Exception):
    pass


def need(obj, key, types, where):
    if key not in obj:
        raise Invalid(f"{where}: missing '{key}'")
    if not isinstance(obj[key], types):
        raise Invalid(
            f"{where}.{key}: expected {types}, got {type(obj[key]).__name__}")
    return obj[key]


def check_stat_group(node, where):
    need(node, "name", str, where)
    for stat in need(node, "stats", list, where):
        sname = need(stat, "name", str, f"{where}.stats[]")
        need(stat, "value", (int, float, type(None)),
             f"{where}.stats.{sname}")
        if "buckets" in stat:
            if not all(isinstance(b, int) for b in stat["buckets"]):
                raise Invalid(f"{where}.stats.{sname}: non-integer bucket")
            need(stat, "bucket_width", int, f"{where}.stats.{sname}")
            need(stat, "overflow", int, f"{where}.stats.{sname}")
    for group in need(node, "groups", list, where):
        check_stat_group(group, f"{where}.{group.get('name', '?')}")


def check_run_manifest(doc, where):
    if need(doc, "schema", str, where) != RUN_SCHEMA:
        raise Invalid(f"{where}: schema is {doc['schema']!r}, "
                      f"expected {RUN_SCHEMA!r}")
    gen = need(doc, "generator", dict, where)
    for key in ("name", "version", "git"):
        need(gen, key, str, f"{where}.generator")

    run = need(doc, "run", dict, where)
    need(run, "workload", str, f"{where}.run")
    cfg = need(run, "config", dict, f"{where}.run")
    need(cfg, "notation", str, f"{where}.run.config")
    for cache in ("l1",):
        geom = need(cfg, cache, dict, f"{where}.run.config")
        for key in ("size_bytes", "assoc", "line_bytes", "hit_latency",
                    "ports"):
            need(geom, key, int, f"{where}.run.config.{cache}")
    need(run, "wall_seconds", (int, float), f"{where}.run")
    engine = None
    opts = run.get("options")
    if opts is not None:
        engine = need(opts, "engine", str, f"{where}.run.options")
        if engine not in RUN_ENGINES:
            raise Invalid(f"{where}.run.options.engine: unknown "
                          f"engine {engine!r}")

    # External-trace provenance: present only for runs driven by an
    # ingested trace, which has nothing the live engine could execute.
    trace_source = run.get("trace_source")
    if trace_source is not None:
        tw = f"{where}.run.trace_source"
        fmt = need(trace_source, "format", str, tw)
        if fmt not in TRACE_FORMATS:
            raise Invalid(f"{tw}.format: unknown format {fmt!r}")
        need(trace_source, "path", str, tw)
        if need(trace_source, "insts", int, tw) < 1:
            raise Invalid(f"{tw}: insts {trace_source['insts']} < 1")
        need(trace_source, "hints_valid", bool, tw)
        if engine == "live":
            raise Invalid(f"{where}: live engine on an external-trace "
                          f"run")

    res = need(doc, "result", dict, where)
    cycles = need(res, "cycles", int, f"{where}.result")
    committed = need(res, "committed", int, f"{where}.result")
    ipc = need(res, "ipc", (int, float), f"{where}.result")
    if cycles > 0 and abs(ipc - committed / cycles) > 1e-6:
        raise Invalid(f"{where}.result: ipc {ipc} != committed/cycles "
                      f"{committed / cycles}")
    streams = need(res, "streams", dict, f"{where}.result")
    for stream in ("lsq", "lvaq"):
        s = need(streams, stream, dict, f"{where}.result.streams")
        for key in ("loads", "stores"):
            if need(s, key, int, f"{where}.result.streams.{stream}") < 0:
                raise Invalid(f"{where}: negative {stream}.{key}")

    # The sampled engine's error-bar block: present exactly when the
    # run records engine "sampled", with a self-consistent plan.
    sampling = res.get("sampling")
    if sampling is not None:
        sw = f"{where}.result.sampling"
        period = need(sampling, "period", int, sw)
        detail = need(sampling, "detail", int, sw)
        warmup = need(sampling, "warmup", int, sw)
        if period < 1 or detail < 1:
            raise Invalid(f"{sw}: period {period} / detail {detail} "
                          f"must be >= 1")
        if warmup + detail > period:
            raise Invalid(f"{sw}: warmup {warmup} + detail {detail} "
                          f"exceed period {period}")
        windows = need(sampling, "windows", int, sw)
        if windows < 0:
            raise Invalid(f"{sw}: negative windows")
        for key in ("detail_insts", "detail_cycles"):
            if need(sampling, key, int, sw) < 0:
                raise Invalid(f"{sw}: negative {key}")
        # A confidence interval needs a sample variance, which needs
        # at least two windows: ipc_ci95 is present exactly then.
        if windows >= 2:
            if need(sampling, "ipc_ci95", (int, float), sw) < 0:
                raise Invalid(f"{sw}: negative ipc_ci95")
        elif "ipc_ci95" in sampling:
            raise Invalid(f"{sw}: ipc_ci95 with only {windows} "
                          f"window(s) (needs >= 2 for a variance)")
    if engine is not None and (engine == "sampled") != \
            (sampling is not None):
        raise Invalid(f"{where}: engine {engine!r} disagrees with the "
                      f"presence of result.sampling")

    stats = doc.get("stats")
    if stats is not None:
        check_stat_group(stats, f"{where}.stats")


def check_error(err, where):
    need(err, "kind", str, where)
    need(err, "message", str, where)
    need(err, "transient", bool, where)


def check_job_table(doc, where):
    """Fault-isolated sweeps carry a per-job status table; its counts
    must agree with the "degraded" flag and the runs array."""
    jobs = need(doc, "jobs", list, where)
    if len(jobs) != len(doc["runs"]):
        raise Invalid(f"{where}: {len(jobs)} jobs for "
                      f"{len(doc['runs'])} runs")
    quarantined = recovered = 0
    for i, job in enumerate(jobs):
        jw = f"{where}.jobs[{i}]"
        if need(job, "index", int, jw) != i:
            raise Invalid(f"{jw}: index {job['index']} != position {i}")
        status = need(job, "status", str, jw)
        if status not in JOB_STATUSES:
            raise Invalid(f"{jw}: unknown status {status!r}")
        attempts = need(job, "attempts", int, jw)
        if attempts < 1:
            raise Invalid(f"{jw}: attempts {attempts} < 1")
        err = need(job, "error", (dict, type(None)), jw)
        if status == "ok":
            if err is not None:
                raise Invalid(f"{jw}: ok job carries an error")
        else:
            if err is None:
                raise Invalid(f"{jw}: {status} job without an error")
            check_error(err, f"{jw}.error")
        if status == "quarantined":
            quarantined += 1
            if doc["runs"][i] is not None:
                raise Invalid(f"{jw}: quarantined but runs[{i}] holds "
                              f"a manifest")
        if status == "recovered":
            recovered += 1
    if need(doc, "num_quarantined", int, where) != quarantined:
        raise Invalid(f"{where}: num_quarantined "
                      f"{doc['num_quarantined']} != {quarantined} "
                      f"quarantined jobs")
    if need(doc, "num_recovered", int, where) != recovered:
        raise Invalid(f"{where}: num_recovered {doc['num_recovered']} "
                      f"!= {recovered} recovered jobs")
    if need(doc, "degraded", bool, where) != (quarantined > 0):
        raise Invalid(f"{where}: degraded flag disagrees with "
                      f"{quarantined} quarantined jobs")


def check_sweep_manifest(doc, where):
    gen = need(doc, "generator", dict, where)
    for key in ("name", "version", "git"):
        need(gen, key, str, f"{where}.generator")
    runs = need(doc, "runs", list, where)
    if need(doc, "num_runs", int, where) != len(runs):
        raise Invalid(f"{where}: num_runs {doc['num_runs']} != "
                      f"len(runs) {len(runs)}")
    if "jobs" in doc or "degraded" in doc:
        check_job_table(doc, where)
    checked = 0
    for i, run in enumerate(runs):
        if run is None:
            continue  # grid point that didn't capture a manifest
        check_run_manifest(run, f"{where}.runs[{i}]")
        checked += 1
    return checked


def check_grid_job(job, jw, expect_id=None):
    """One grid-job object, as embedded in a ddsim-grid-v1 spec or a
    spooled ddsim-job-v2 document."""
    jid = need(job, "id", int, jw)
    if expect_id is not None and jid != expect_id:
        raise Invalid(f"{jw}: id {jid} != position {expect_id} "
                      f"(ids must be dense and ordered)")
    if jid < 0:
        raise Invalid(f"{jw}: negative id")
    if not need(job, "workload", str, jw):
        raise Invalid(f"{jw}: empty workload")
    if need(job, "scale", int, jw) < 1:
        raise Invalid(f"{jw}: scale {job['scale']} < 1")
    need(job, "seed", int, jw)
    for key in ("max_insts", "warmup_insts"):
        if need(job, key, int, jw) < 0:
            raise Invalid(f"{jw}: negative {key}")
    # Optional static-partitioning pass; absent = stock program.
    if "annotate" in job:
        annotate = need(job, "annotate", str, jw)
        if annotate not in ANNOTATE_POLICIES:
            raise Invalid(f"{jw}: unknown annotate policy "
                          f"{annotate!r}")
    # Optional external-trace point: the program comes from the
    # file, hints were burned at conversion time, and there is
    # nothing for the live engine to execute.
    if "trace_path" in job:
        if not need(job, "trace_path", str, jw):
            raise Invalid(f"{jw}: empty trace_path")
        if "annotate" in job:
            raise Invalid(f"{jw}: trace_path combined with an "
                          f"annotate policy")
        if job.get("engine") == "live":
            raise Invalid(f"{jw}: live engine on an "
                          f"external-trace point")
    # Optional engine selector; absent = auto. A sampled point
    # must carry its plan (and no whole-run warmup); no other
    # engine may.
    engine = None
    if "engine" in job:
        engine = need(job, "engine", str, jw)
        if engine not in GRID_ENGINES:
            raise Invalid(f"{jw}: unknown engine {engine!r}")
    if "sampling" in job:
        if engine != "sampled":
            raise Invalid(f"{jw}: sampling plan on engine "
                          f"{engine!r} (only 'sampled' takes one)")
        s = need(job, "sampling", dict, jw)
        sjw = f"{jw}.sampling"
        period = need(s, "period", int, sjw)
        detail = need(s, "detail", int, sjw)
        warmup = need(s, "warmup", int, sjw)
        if period < 1 or detail < 1:
            raise Invalid(f"{sjw}: period {period} / detail "
                          f"{detail} must be >= 1")
        if warmup + detail > period:
            raise Invalid(f"{sjw}: warmup {warmup} + detail "
                          f"{detail} exceed period {period}")
    elif engine == "sampled":
        raise Invalid(f"{jw}: engine 'sampled' without a "
                      f"sampling plan")
    if engine == "sampled" and job["warmup_insts"] != 0:
        raise Invalid(f"{jw}: sampled engine combined with a "
                      f"whole-run warmup")
    cfg = need(job, "config", dict, jw)
    if not need(cfg, "notation", str, f"{jw}.config"):
        raise Invalid(f"{jw}.config: empty notation")


def check_grid_spec(doc, where):
    """A ddsim-grid-v1 spec: dense ids 0..n-1 in order, each job
    carrying a workload, resolved generator parameters, and a machine
    config with its notation."""
    need(doc, "title", str, where)
    jobs = need(doc, "jobs", list, where)
    if not jobs:
        raise Invalid(f"{where}: empty grid")
    if need(doc, "num_jobs", int, where) != len(jobs):
        raise Invalid(f"{where}: num_jobs {doc['num_jobs']} != "
                      f"len(jobs) {len(jobs)}")
    for i, job in enumerate(jobs):
        check_grid_job(job, f"{where}.jobs[{i}]", expect_id=i)
    return len(jobs)


def crc_payload(raw, payload_key, where):
    """Byte range of the '"<key>": {...}' payload, mirroring the C++
    writer: the payload is the wrapper's last member, so its closing
    brace is the second-to-last '}' of the document."""
    marker = f'"{payload_key}": '
    pos = raw.find(marker)
    if pos < 0:
        raise Invalid(f"{where}: no {payload_key!r} payload")
    begin = pos + len(marker)
    if begin >= len(raw) or raw[begin] != "{":
        raise Invalid(f"{where}: {payload_key!r} payload is not an "
                      f"object")
    outer = raw.rfind("}")
    inner = raw.rfind("}", 0, outer) if outer > 0 else -1
    if inner < begin:
        raise Invalid(f"{where}: truncated {payload_key!r} payload")
    return raw[begin:inner + 1]


def check_crc_seal(raw, payload_key, where):
    """Recompute the artifact's CRC32 seal from its raw bytes. The
    first '"crc32": "' in the document is the seal (the record's
    manifest_crc32 key cannot match: it is preceded by '_')."""
    payload = crc_payload(raw, payload_key, where)
    marker = '"crc32": "'
    pos = raw.find(marker)
    if pos < 0 or pos + len(marker) + 8 > len(raw):
        raise Invalid(f"{where}: no crc32 seal")
    stated = raw[pos + len(marker):pos + len(marker) + 8]
    actual = f"{binascii.crc32(payload.encode()) & 0xffffffff:08x}"
    if stated != actual:
        raise Invalid(f"{where}: crc32 seal {stated!r} does not match "
                      f"the payload ({actual!r}) — the artifact is "
                      f"corrupt")


def is_crc_hex(value):
    return (isinstance(value, str) and len(value) == 8
            and all(c in "0123456789abcdef" for c in value))


def check_job_v2(doc, raw, where):
    """A spooled ddsim-job-v2 spec: a CRC-sealed grid job."""
    check_crc_seal(raw, "job", where)
    check_grid_job(need(doc, "job", dict, where), f"{where}.job")


def check_job_result_v2(doc, raw, where, path=None):
    """A spooled ddsim-job-result-v2 record: CRC-sealed bookkeeping
    for one executed point, carrying the CRC its sibling manifest must
    hash to. When the sibling is on disk next to @p path, its bytes
    are verified too."""
    check_crc_seal(raw, "record", where)
    rec = need(doc, "record", dict, where)
    rw = f"{where}.record"
    if need(rec, "id", int, rw) < 0:
        raise Invalid(f"{rw}: negative id")
    status = need(rec, "status", str, rw)
    if status not in JOB_STATUSES:
        raise Invalid(f"{rw}: unknown status {status!r}")
    if need(rec, "attempts", int, rw) < 1:
        raise Invalid(f"{rw}: attempts {rec['attempts']} < 1")
    err = need(rec, "error", (dict, type(None)), rw)
    if status == "ok":
        if err is not None:
            raise Invalid(f"{rw}: ok record carries an error")
    elif err is None:
        raise Invalid(f"{rw}: {status} record without an error")
    else:
        check_error(err, f"{rw}.error")
    if not need(rec, "worker", str, rw):
        raise Invalid(f"{rw}: empty worker")
    need(rec, "shard", int, rw)
    need(rec, "wall_seconds", (int, float), rw)
    mcrc = need(rec, "manifest_crc32", (str, type(None)), rw)
    if status == "quarantined":
        if mcrc is not None:
            raise Invalid(f"{rw}: quarantined record promises a "
                          f"manifest")
    elif not is_crc_hex(mcrc):
        raise Invalid(f"{rw}: manifest_crc32 {mcrc!r} is not 8 hex "
                      f"digits")
    if mcrc is not None and path is not None \
            and path.endswith(".json"):
        sibling = path[:-len(".json")] + ".manifest.json"
        try:
            with open(sibling, "rb") as f:
                bytes_ = f.read()
        except OSError:
            return  # validated standalone; the spool may be elsewhere
        actual = f"{binascii.crc32(bytes_) & 0xffffffff:08x}"
        if actual != mcrc:
            raise Invalid(f"{rw}: sibling manifest {sibling!r} hashes "
                          f"to {actual!r}, record promises {mcrc!r} "
                          f"(manifest is corrupt)")


def check_claim_v1(doc, where):
    """A ddsim-claim-v1 lease document (lives in claims/ while a
    worker holds the point)."""
    if need(doc, "id", int, where) < 0:
        raise Invalid(f"{where}: negative id")
    if need(doc, "shard", int, where) < 0:
        raise Invalid(f"{where}: negative shard")
    if not need(doc, "worker", str, where):
        raise Invalid(f"{where}: empty worker")
    if need(doc, "pid", int, where) < 1:
        raise Invalid(f"{where}: pid {doc['pid']} < 1")
    if need(doc, "acquired_unix", int, where) < 0:
        raise Invalid(f"{where}: negative acquired_unix")
    if not is_crc_hex(need(doc, "job_crc32", str, where)):
        raise Invalid(f"{where}: job_crc32 {doc['job_crc32']!r} is "
                      f"not 8 hex digits")


def check_farm_manifest(doc, where):
    """A ddsim-farm-manifest-v1 provenance document: every grid job id
    appears in exactly one shard, attributed to a known worker, with a
    valid status (and an error when the status demands one)."""
    need(doc, "title", str, where)
    gen = need(doc, "generator", dict, where)
    for key in ("name", "version", "git"):
        need(gen, key, str, f"{where}.generator")
    num_jobs = need(doc, "num_jobs", int, where)
    workers = need(doc, "workers", list, where)
    if not all(isinstance(w, str) and w for w in workers):
        raise Invalid(f"{where}.workers: non-string or empty worker id")

    seen = {}
    for s, shard in enumerate(need(doc, "shards", list, where)):
        sw = f"{where}.shards[{s}]"
        if need(shard, "shard", int, sw) != s:
            raise Invalid(f"{sw}: shard {shard['shard']} != "
                          f"position {s}")
        jobs = need(shard, "jobs", list, sw)
        if need(shard, "num_jobs", int, sw) != len(jobs):
            raise Invalid(f"{sw}: num_jobs {shard['num_jobs']} != "
                          f"len(jobs) {len(jobs)}")
        for j, job in enumerate(jobs):
            jw = f"{sw}.jobs[{j}]"
            jid = need(job, "id", int, jw)
            if jid in seen:
                raise Invalid(f"{jw}: job id {jid} already reported "
                              f"by shard {seen[jid]}")
            seen[jid] = s
            worker = need(job, "worker", str, jw)
            if worker not in workers:
                raise Invalid(f"{jw}: worker {worker!r} not in the "
                              f"workers list")
            status = need(job, "status", str, jw)
            if status not in JOB_STATUSES:
                raise Invalid(f"{jw}: unknown status {status!r}")
            if need(job, "attempts", int, jw) < 1:
                raise Invalid(f"{jw}: attempts {job['attempts']} < 1")
            need(job, "wall_seconds", (int, float), jw)
            if status == "ok":
                if "error" in job:
                    raise Invalid(f"{jw}: ok job carries an error")
            else:
                check_error(need(job, "error", dict, jw), f"{jw}.error")
    if len(seen) != num_jobs or sorted(seen) != list(range(num_jobs)):
        missing = sorted(set(range(num_jobs)) - set(seen))
        extra = sorted(set(seen) - set(range(num_jobs)))
        raise Invalid(f"{where}: shards must cover job ids "
                      f"0..{num_jobs - 1} exactly once "
                      f"(missing {missing}, unexpected {extra})")
    return num_jobs


def check_lint_program(prog, where):
    """One per-program object of a ddsim-lint-v1 document: verdict
    enum values, dense ordinal ids over strictly increasing
    instruction indices, and load/store mixes that re-total from the
    verdicts array."""
    name = need(prog, "program", str, where)
    if not name:
        raise Invalid(f"{where}: empty program name")
    for key in ("errors", "warnings", "notes"):
        if need(prog, key, int, where) < 0:
            raise Invalid(f"{where}: negative {key}")
    mixes = {}
    for mix in ("loads", "stores"):
        m = need(prog, mix, dict, where)
        for v in VERDICTS:
            if need(m, v, int, f"{where}.{mix}") < 0:
                raise Invalid(f"{where}.{mix}.{v}: negative count")
        mixes[mix] = m

    counted = {mix: dict.fromkeys(VERDICTS, 0)
               for mix in ("loads", "stores")}
    prev_inst = -1
    for i, v in enumerate(need(prog, "verdicts", list, where)):
        vw = f"{where}.verdicts[{i}]"
        if need(v, "id", int, vw) != i:
            raise Invalid(f"{vw}: id {v['id']} != position {i} "
                          f"(ids must be dense and ordered)")
        inst = need(v, "inst", int, vw)
        if inst <= prev_inst:
            raise Invalid(f"{vw}: inst {inst} not strictly "
                          f"increasing (previous {prev_inst})")
        prev_inst = inst
        load = need(v, "load", bool, vw)
        verdict = need(v, "verdict", str, vw)
        if verdict not in VERDICTS:
            raise Invalid(f"{vw}: unknown verdict {verdict!r}")
        need(v, "annotated", bool, vw)
        counted["loads" if load else "stores"][verdict] += 1
    for mix in ("loads", "stores"):
        for v in VERDICTS:
            if mixes[mix][v] != counted[mix][v]:
                raise Invalid(
                    f"{where}.{mix}.{v}: mix says {mixes[mix][v]}, "
                    f"verdicts array totals {counted[mix][v]}")

    sev_counts = dict.fromkeys(SEVERITIES, 0)
    for i, d in enumerate(need(prog, "diagnostics", list, where)):
        dw = f"{where}.diagnostics[{i}]"
        sev = need(d, "severity", str, dw)
        if sev not in SEVERITIES:
            raise Invalid(f"{dw}: unknown severity {sev!r}")
        if not need(d, "id", str, dw):
            raise Invalid(f"{dw}: empty diagnostic id")
        need(d, "inst", int, dw)
        need(d, "message", str, dw)
        sev_counts[sev] += 1
    for sev, key in (("error", "errors"), ("warning", "warnings"),
                     ("note", "notes")):
        if prog[key] != sev_counts[sev]:
            raise Invalid(f"{where}.{key}: says {prog[key]}, "
                          f"diagnostics array holds {sev_counts[sev]}")
    return mixes


def check_lint_document(doc, where):
    """A ddsim-lint-v1 document: generator provenance, well-formed
    per-program objects, and a summary block that is the element-wise
    total of the programs."""
    gen = need(doc, "generator", dict, where)
    for key in ("name", "version", "git"):
        need(gen, key, str, f"{where}.generator")
    totals = {"errors": 0, "warnings": 0, "notes": 0,
              "loads": dict.fromkeys(VERDICTS, 0),
              "stores": dict.fromkeys(VERDICTS, 0)}
    seen = set()
    programs = need(doc, "programs", list, where)
    for i, prog in enumerate(programs):
        pw = f"{where}.programs[{i}]"
        mixes = check_lint_program(prog, pw)
        name = prog["program"]
        if name in seen:
            raise Invalid(f"{pw}: duplicate program {name!r}")
        seen.add(name)
        for key in ("errors", "warnings", "notes"):
            totals[key] += prog[key]
        for mix in ("loads", "stores"):
            for v in VERDICTS:
                totals[mix][v] += mixes[mix][v]

    summary = need(doc, "summary", dict, where)
    if need(summary, "programs", int, f"{where}.summary") \
            != len(programs):
        raise Invalid(f"{where}.summary.programs: says "
                      f"{summary['programs']}, document holds "
                      f"{len(programs)}")
    for key in ("errors", "warnings", "notes"):
        if need(summary, key, int, f"{where}.summary") != totals[key]:
            raise Invalid(f"{where}.summary.{key}: says "
                          f"{summary[key]}, programs total "
                          f"{totals[key]}")
    for mix in ("loads", "stores"):
        m = need(summary, mix, dict, f"{where}.summary")
        for v in VERDICTS:
            if need(m, v, int, f"{where}.summary.{mix}") \
                    != totals[mix][v]:
                raise Invalid(f"{where}.summary.{mix}.{v}: says "
                              f"{m[v]}, programs total "
                              f"{totals[mix][v]}")
    return len(programs)


def check_blackbox(doc, where):
    gen = need(doc, "generator", dict, where)
    for key in ("name", "version", "git"):
        need(gen, key, str, f"{where}.generator")
    run = need(doc, "run", dict, where)
    need(run, "workload", str, f"{where}.run")
    cfg = need(run, "config", dict, f"{where}.run")
    need(cfg, "notation", str, f"{where}.run.config")

    err = need(doc, "error", dict, where)
    check_error(err, f"{where}.error")
    need(err, "context", dict, f"{where}.error")

    pipe = need(doc, "pipeline", dict, where)
    cycle = need(pipe, "cycle", int, f"{where}.pipeline")
    last = need(pipe, "last_commit_cycle", int, f"{where}.pipeline")
    if last > cycle:
        raise Invalid(f"{where}.pipeline: last_commit_cycle {last} "
                      f"after cycle {cycle}")
    for q in ("rob", "lsq"):
        geom = need(pipe, q, dict, f"{where}.pipeline")
        occ = need(geom, "occupancy", int, f"{where}.pipeline.{q}")
        size = need(geom, "size", int, f"{where}.pipeline.{q}")
        if not 0 <= occ <= size:
            raise Invalid(f"{where}.pipeline.{q}: occupancy {occ} "
                          f"outside [0, {size}]")
    commits = need(pipe, "last_commits", list, f"{where}.pipeline")
    prev = -1
    for i, c in enumerate(commits):
        cw = f"{where}.pipeline.last_commits[{i}]"
        seq = need(c, "seq", int, cw)
        need(c, "disasm", str, cw)
        if need(c, "cycle", int, cw) < prev:
            raise Invalid(f"{cw}: commit cycles run backwards")
        prev = c["cycle"]
        del seq

    stats = doc.get("stats")
    if stats is not None:
        check_stat_group(stats, f"{where}.stats")


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for path in argv[1:]:
        try:
            with open(path) as f:
                raw = f.read()
            doc = json.loads(raw)
        except (OSError, json.JSONDecodeError) as e:
            print(f"{path}: {e}", file=sys.stderr)
            return 1
        try:
            schema = doc.get("schema")
            if schema == SWEEP_SCHEMA:
                n = check_sweep_manifest(doc, "sweep")
                note = " (degraded)" if doc.get("degraded") else ""
                print(f"{path}: OK ({n} run manifests in a sweep of "
                      f"{doc['num_runs']}){note}")
            elif schema == RUN_SCHEMA:
                check_run_manifest(doc, "run")
                print(f"{path}: OK (run manifest, workload "
                      f"{doc['run']['workload']!r})")
            elif schema == BLACKBOX_SCHEMA:
                check_blackbox(doc, "blackbox")
                print(f"{path}: OK (black box, workload "
                      f"{doc['run']['workload']!r}, error "
                      f"{doc['error']['kind']!r})")
            elif schema == GRID_SCHEMA:
                n = check_grid_spec(doc, "grid")
                print(f"{path}: OK (grid spec, {n} jobs, "
                      f"{doc['title']!r})")
            elif schema == FARM_SCHEMA:
                n = check_farm_manifest(doc, "farm")
                print(f"{path}: OK (farm manifest, {n} jobs across "
                      f"{len(doc['shards'])} shards)")
            elif schema == LINT_SCHEMA:
                n = check_lint_document(doc, "lint")
                print(f"{path}: OK (lint export, {n} programs, "
                      f"{doc['summary']['errors']} error(s))")
            elif schema == JOB_SCHEMA:
                check_job_v2(doc, raw, "job")
                print(f"{path}: OK (spooled job {doc['job']['id']}, "
                      f"workload {doc['job']['workload']!r}, "
                      f"CRC seal verified)")
            elif schema == JOB_RESULT_SCHEMA:
                check_job_result_v2(doc, raw, "result", path)
                print(f"{path}: OK (result record for job "
                      f"{doc['record']['id']}, status "
                      f"{doc['record']['status']!r}, CRC seal "
                      f"verified)")
            elif schema == CLAIM_SCHEMA:
                check_claim_v1(doc, "claim")
                print(f"{path}: OK (claim on job {doc['id']} held by "
                      f"{doc['worker']!r}, pid {doc['pid']})")
            else:
                raise Invalid(f"unknown schema {schema!r}")
        except Invalid as e:
            print(f"{path}: INVALID: {e}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
