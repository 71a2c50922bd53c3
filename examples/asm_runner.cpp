/**
 * @file
 * Assemble and run a MISA assembly file through the full simulator:
 * functional execution (PRINT output) plus cycle-accurate timing on a
 * chosen configuration.
 *
 * Usage: asm_runner [file.s] [--config=3+2] [--opt] [--stats]
 *                   [--trace]
 *
 * With no file argument a built-in demo program is run. --trace
 * streams a per-instruction timing log (dispatch/ready/commit cycles
 * and memory-queue placement).
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "config/cli.hh"
#include "config/presets.hh"
#include "cpu/pipeline.hh"
#include "prog/asm_parser.hh"
#include "sim/runner.hh"
#include "util/main_guard.hh"
#include "vm/executor.hh"

using namespace ddsim;

namespace {

const char *demoSource = R"(# Demo: sum the squares 1..20 through a
# spill-heavy helper function.
        .data
count:  .word 20
        .text
main:
        lw   s0, 0(gp)          # count
        addi s1, zero, 0        # sum
loop:
        move a0, s0
        jal  square
        add  s1, s1, v0
        addi s0, s0, -1
        bgtz s0, loop
        print s1
        halt

square:                          # v0 = a0 * a0, via frame slots
        addi sp, sp, -8
        sw   a0, 0(sp) !local
        lw   t0, 0(sp) !local
        mul  v0, t0, t0
        sw   v0, 4(sp) !local
        lw   v0, 4(sp) !local
        addi sp, sp, 8
        ret
)";

} // namespace

namespace {

int
runMain(int argc, char **argv)
{
    config::CliArgs args(argc, argv);

    std::string source;
    std::string name = "demo";
    if (!args.positional().empty()) {
        name = args.positional()[0];
        std::ifstream in(name);
        if (!in) {
            std::fprintf(stderr, "cannot open '%s'\n", name.c_str());
            return 1;
        }
        std::stringstream ss;
        ss << in.rdbuf();
        source = ss.str();
    } else {
        source = demoSource;
        std::printf("(no file given; running the built-in demo)\n");
    }

    prog::Program program = prog::assemble(source, name);
    std::printf("assembled '%s': %zu instructions\n", name.c_str(),
                program.textSize());

    // Functional pass: correctness and PRINT output.
    vm::Executor exec(program);
    exec.run(1'000'000'000ull);
    if (!exec.halted()) {
        std::fprintf(stderr, "program did not halt within the "
                             "instruction budget\n");
        return 1;
    }
    std::printf("executed %llu instructions\n",
                (unsigned long long)exec.instsExecuted());
    for (Word w : exec.printed())
        std::printf("  print: %u (0x%08x)\n", w, w);

    // Timing pass.
    config::MachineConfig cfg =
        config::fromNotation(args.get("config", "3+2"));
    if (args.getBool("opt") && cfg.lvcEnabled) {
        cfg.fastForward = true;
        cfg.combining = 2;
    }
    args.markKnown("trace");
    args.markKnown("stats"); // queried below, in branches
    args.rejectUnknown();
    std::printf("\n%s\n", cfg.describe().c_str());

    if (args.getBool("trace")) {
        // Trace mode drives the pipeline directly so the per-
        // instruction log can stream to stdout.
        stats::Group root(nullptr, "");
        vm::Executor timedExec(program);
        cpu::Pipeline pipe(&root, cfg, timedExec);
        std::printf("\n     seq  pc       Dispatch Ready   Commit\n");
        pipe.setTrace(&std::cout);
        pipe.run();
        std::printf("\n%llu insts, %llu cycles, IPC %.3f\n",
                    (unsigned long long)pipe.committedInsts.value(),
                    (unsigned long long)pipe.numCycles.value(),
                    pipe.ipc());
        return 0;
    }

    sim::RunOptions opts;
    opts.captureStats = args.getBool("stats");
    sim::SimResult r = sim::run(program, cfg, opts);
    std::printf("%s\n", r.summary().c_str());
    if (opts.captureStats)
        std::printf("\n%s", r.statsText.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return guardedMain(argc, argv, runMain);
}
