/**
 * @file
 * ddbench: the program behind the ddsim benchmark. perfbench/run.py builds it and
 * calls it; see perfbench/README.md.
 *
 *   ddbench reference --workload=W --seed=N --ref-dir=D --work-dir=D
 *                     --bin-dir=D
 *   ddbench measure   ... --seconds=S
 *   ddbench trace     ... --trace-out=F
 *
 * Exit status: 0 when every output matched its reference, 1 on any
 * mismatch, 2 on a usage or run error.
 */

#include <cstdio>
#include <exception>

#include "common.hh"
#include "config/cli.hh"
#include "util/log.hh"

using namespace perfbench;

int
main(int argc, char **argv)
{
    try {
        ddsim::config::CliArgs cli(argc, argv);
        if (cli.positional().size() != 1)
            ddsim::raise(ddsim::ConfigError(
                "mode", "usage: ddbench reference|measure|trace "
                        "--workload=W --seed=N ..."));
        Args args;
        args.mode = cli.positional()[0];
        args.workload = workloadFromName(cli.get("workload"));
        std::int64_t seed = cli.getInt("seed", 0);
        if (seed < 0)
            ddsim::raise(ddsim::ConfigError("seed", "must be >= 0"));
        args.seed = static_cast<std::uint64_t>(seed);
        args.seconds = cli.getDouble("seconds", 10.0);
        args.binDir = cli.get("bin-dir", ".");
        args.refDir = cli.get("ref-dir");
        args.workDir = cli.get("work-dir");
        args.traceOut = cli.get("trace-out");
        cli.rejectUnknown();
        if (args.refDir.empty() || args.workDir.empty())
            ddsim::raise(ddsim::ConfigError(
                "ref-dir", "--ref-dir and --work-dir are required"));
        ddsim::setQuiet(true);

        if (args.mode == "reference")
            return runReference(args);
        if (args.mode == "measure")
            return runMeasure(args);
        if (args.mode == "trace")
            return runTraced(args);
        ddsim::raise(ddsim::ConfigError("mode",
                                        "unknown mode '" + args.mode + "'"));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ddbench: %s\n", e.what());
        return 2;
    }
}
