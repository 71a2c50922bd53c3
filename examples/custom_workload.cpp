/**
 * @file
 * Building a custom workload with the ProgramBuilder API: a small
 * "image blur" kernel that keeps a sliding window of pixels in stack
 * slots (spill-style local traffic) while streaming a heap image —
 * then measuring how the decoupled memory system treats it.
 *
 * This is the API a user would reach for to test their own access
 * patterns against the data-decoupled architecture.
 */

#include <cstdio>

#include "config/cli.hh"
#include "config/presets.hh"
#include "prog/builder.hh"
#include "sim/runner.hh"
#include "util/main_guard.hh"
#include "vm/executor.hh"

using namespace ddsim;
using namespace ddsim::prog;
namespace reg = ddsim::isa::reg;

namespace {

Program
buildBlurKernel(int rows)
{
    ProgramBuilder b("blur");
    constexpr int Width = 256;
    const Addr image = layout::HeapBase;

    Label main = b.newLabel("main");
    Label blurRow = b.newLabel("blur_row");

    b.bind(main);
    // Fill one image row region with a ramp.
    b.li(reg::t0, 0);
    b.la(reg::t1, image);
    b.li(reg::t2, Width * (rows + 2));
    Label fill = b.here();
    b.sw(reg::t0, 0, reg::t1);
    b.addi(reg::t1, reg::t1, 4);
    b.addi(reg::t0, reg::t0, 1);
    b.slt(reg::t3, reg::t0, reg::t2);
    b.bne(reg::t3, reg::zero, fill);

    b.li(reg::s0, rows);
    b.li(reg::s1, 0);                   // checksum
    b.la(reg::s2, image);
    Label loop = b.here();
    b.move(reg::a0, reg::s2);
    b.jal(blurRow);
    b.add(reg::s1, reg::s1, reg::v0);
    b.addi(reg::s2, reg::s2, Width * 4);
    b.addi(reg::s0, reg::s0, -1);
    b.bgtz(reg::s0, loop);
    b.print(reg::s1);
    b.halt();

    // blur_row(rowPtr): 3-tap horizontal blur with the sliding
    // window spilled to frame slots (local traffic with short reuse).
    b.bind(blurRow);
    FrameSpec f;
    f.localWords = 4;
    f.savedRegs = {reg::s3};
    b.prologue(f);
    b.lw(reg::t0, 0, reg::a0);          // window[0]
    b.lw(reg::t1, 4, reg::a0);          // window[1]
    b.storeLocal(reg::t0, 0);
    b.storeLocal(reg::t1, 1);
    b.li(reg::s3, Width - 2);
    b.li(reg::v0, 0);
    Label cell = b.here();
    b.lw(reg::t2, 8, reg::a0);          // incoming pixel
    b.loadLocal(reg::t0, 0);            // spilled window taps
    b.loadLocal(reg::t1, 1);
    b.add(reg::t3, reg::t0, reg::t1);
    b.add(reg::t3, reg::t3, reg::t2);
    b.sw(reg::t3, 4, reg::a0);          // blurred pixel
    b.add(reg::v0, reg::v0, reg::t3);
    b.storeLocal(reg::t1, 0);           // slide the window
    b.storeLocal(reg::t2, 1);
    b.addi(reg::a0, reg::a0, 4);
    b.addi(reg::s3, reg::s3, -1);
    b.bgtz(reg::s3, cell);
    b.epilogue(f);

    return b.finish();
}

int
runMain(int argc, char **argv)
{
    config::CliArgs(argc, argv).rejectUnknown(); // Takes no options.

    Program program = buildBlurKernel(400);
    std::printf("built '%s': %zu instructions of text\n",
                program.name().c_str(), program.textSize());

    // Check the kernel functionally first.
    vm::Executor exec(program);
    exec.run(100'000'000);
    std::printf("functional run: %llu instructions, checksum %u\n",
                (unsigned long long)exec.instsExecuted(),
                exec.printed().empty() ? 0u : exec.printed()[0]);

    // Now time it on three machines.
    struct
    {
        const char *label;
        config::MachineConfig cfg;
    } machines[] = {
        {"(2+0) conventional", config::baseline(2)},
        {"(2+2) decoupled", config::decoupled(2, 2)},
        {"(2+2) + fastfwd + combining",
         config::decoupledOptimized(2, 2)},
    };
    for (auto &[label, cfg] : machines) {
        sim::SimResult r = sim::run(program, cfg);
        std::printf("%-30s IPC %.3f  (LVAQ-satisfied loads: %.0f%%, "
                    "fast forwards: %llu)\n",
                    label, r.ipc, r.lvaqSatisfiedFrac * 100.0,
                    (unsigned long long)r.lvaqFastForwards);
    }
    std::printf("\nThe spilled sliding window is exactly the pattern "
                "fast data forwarding targets:\nthe store and reload "
                "share the frame slot offset within one sp-epoch.\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return guardedMain(argc, argv, runMain);
}
