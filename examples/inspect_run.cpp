/**
 * @file
 * Deep-dive diagnostic: run one (machine, benchmark) pair stepwise
 * through sim::Session and dump every counter the simulator keeps —
 * the full self-describing stats registry, not a hand-picked subset.
 * Useful when calibrating workload profiles or debugging pipeline
 * behaviour.
 *
 *     ./inspect_run <benchmark> <machine> [mem] [--interval N]
 *
 * machine: r10-64 | r10-256 | r10-768 | kilo | dkip
 *          (sim::MachineConfig::byName)
 * mem:     l1 | l2-11 | l2-21 | mem-100 | mem-400 | mem-1000
 *          (mem::MemConfig::byName)
 *
 * --interval N samples the run every N committed instructions and
 * prints the IPC-over-time series plus the per-interval JSONL rows
 * (sim::writeIntervalRows) — the interval performance-counter view
 * HPC methodology papers build their characterisations on.
 */

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "src/sim/session.hh"
#include "src/sim/sweep_engine.hh"
#include "src/util/parse.hh"

using namespace kilo;

int
main(int argc, char **argv)
{
    // --interval consumes its value wherever it appears; everything
    // else is positional, so any prefix of the positionals may be
    // omitted (e.g. `inspect_run swim --interval 1000`).
    uint64_t interval = 0;
    std::vector<std::string> pos;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--interval") == 0 && i + 1 < argc) {
            interval = util::parseFlagU64("--interval", argv[++i]);
            continue;
        }
        pos.push_back(argv[i]);
    }
    std::string bench = pos.size() > 0 ? pos[0] : "swim";
    std::string machine = pos.size() > 1 ? pos[1] : "dkip";
    std::string memname = pos.size() > 2 ? pos[2] : "mem-400";

    sim::RunConfig rc;
    rc.intervalInsts = interval;

    sim::Session session(sim::MachineConfig::byName(machine), bench,
                         mem::MemConfig::byName(memname), rc);
    session.warmup();
    // Advance in bounded steps rather than one shot — bit-identical
    // to Simulator::run, but the loop is where a caller would splice
    // in sampling or a wall-clock deadline.
    while (!session.finished())
        session.step(50000);
    auto res = session.finish();
    const auto &s = res.stats;

    std::printf("run        : %s on %s, %s%s\n", bench.c_str(),
                machine.c_str(), memname.c_str(),
                res.aborted ? "  [ABORTED]" : "");
    std::printf("IPC        : %.3f (%lu insts / %lu cycles)\n",
                res.ipc, (unsigned long)s.committed,
                (unsigned long)s.cycles);
    std::printf("issue lat  : mean %.1f cycles, %%<100: %.1f  "
                "%%<300: %.1f\n",
                s.issueLatency.mean(),
                100.0 * s.issueLatency.fractionBelow(100),
                100.0 * s.issueLatency.fractionBelow(300));

    // Everything else comes straight from the registry snapshot: each
    // stat prints itself, so a counter added anywhere in the model
    // shows up here without touching this tool.
    std::printf("\n%-22s %14s  %s\n", "stat", "value", "description");
    const auto &defs = session.core().statsRegistry().defs();
    for (const auto &def : defs) {
        const auto *entry = res.snapshot.find(def.name);
        if (!entry)
            continue;
        if (entry->value.real) {
            std::printf("%-22s %14.6f  %s\n", def.name.c_str(),
                        entry->value.d, def.description.c_str());
        } else {
            std::printf("%-22s %14lu  %s\n", def.name.c_str(),
                        (unsigned long)entry->value.u,
                        def.description.c_str());
        }
    }

    if (!res.intervals.empty()) {
        std::printf("\nIPC over time (every %lu committed insts):\n",
                    (unsigned long)interval);
        for (const auto &iv : res.intervals) {
            int bar = int(iv.intervalIpc() * 12.0);
            std::printf("  [%3lu] cyc %8lu  ipc %.3f %.*s\n",
                        (unsigned long)iv.index,
                        (unsigned long)iv.cycles, iv.intervalIpc(),
                        bar > 48 ? 48 : bar,
                        "################################"
                        "################");
        }
        std::printf("\nper-interval JSONL rows:\n");
        sim::writeIntervalRows(std::cout, res);
    }
    return 0;
}
