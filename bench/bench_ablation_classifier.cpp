/**
 * @file
 * Ablation (Section 2.2.3): how does the classification scheme affect
 * performance and accuracy? Compares, under optimized (3+2):
 *   oracle      - perfect separation (the paper's evaluation default)
 *   annotation  - trust the compiler's per-instruction bit
 *   spbase      - hardware heuristic: base register is sp/fp
 *   predictor   - annotation hint + 1-bit last-region table
 *
 * Paper: compiler+predictor classification reaches ~99.9% accuracy,
 * so assuming perfect separation is harmless; the sp/fp heuristic
 * misses <5% of stack references.
 */

#include <cstdio>
#include <iostream>

#include "bench_common.hh"
#include "config/presets.hh"
#include "util/main_guard.hh"

using namespace ddsim;
using namespace ddsim::bench;

namespace {

int
runMain(int argc, char **argv)
{
    Options opts(argc, argv);
    banner("Ablation: classification scheme under optimized (3+2)",
           "all schemes should be near-oracle (paper: ~99.9% dynamic "
           "accuracy with annotation+predictor)");

    using config::ClassifierKind;
    const ClassifierKind kinds[] = {
        ClassifierKind::Oracle, ClassifierKind::Annotation,
        ClassifierKind::SpBase, ClassifierKind::Predictor,
        ClassifierKind::Replicate};

    sim::Table table({"program", "oracle IPC", "annotation",
                      "spbase", "predictor", "replicate",
                      "pred. accuracy", "pred. missteers"});

    std::vector<sim::SweepJob> jobs;
    for (const auto *info : opts.programs) {
        auto program = buildProgramShared(*info, opts);
        for (ClassifierKind kind : kinds) {
            config::MachineConfig cfg =
                config::decoupledOptimized(3, 2);
            cfg.classifier = kind;
            jobs.push_back({program, cfg});
        }
    }
    std::vector<sim::SimResult> results = runGrid(opts, jobs, "Ablation: classifier sweep");

    std::size_t k = 0;
    for (const auto *info : opts.programs) {
        std::vector<std::string> row{info->paperName};
        double accuracy = 0;
        std::uint64_t missteers = 0;
        double oracleIpc = 0;
        for (ClassifierKind kind : kinds) {
            sim::SimResult r = results[k++];
            if (kind == ClassifierKind::Oracle) {
                oracleIpc = r.ipc;
                row.push_back(sim::Table::num(r.ipc, 3));
            } else {
                row.push_back(
                    sim::Table::num(r.ipc / oracleIpc, 3));
            }
            if (kind == ClassifierKind::Predictor) {
                accuracy = r.classifierAccuracy;
                missteers = r.missteered;
            }
        }
        row.push_back(sim::Table::pct(accuracy, 2));
        row.push_back(std::to_string(missteers));
        table.addRow(row);
    }
    table.print(std::cout);
    std::printf("\n(annotation/spbase/predictor columns are relative "
                "to the oracle IPC)\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return guardedMain(argc, argv, runMain);
}
