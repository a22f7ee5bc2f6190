/**
 * @file
 * Host-side simulator-throughput harness (not a paper figure).
 *
 * Runs a fixed workload set under each engine configuration and
 * reports how fast the *simulator itself* executes on the host, in
 * millions of simulated instructions per host second (Minstr/s).
 * Results are written to BENCH_throughput.json (or --out PATH) so
 * successive PRs can track the host-performance trajectory of the
 * per-cycle SPT machinery.
 *
 * Every configuration is measured twice: ticking every cycle, and
 * with fast-forward (CoreParams::fast_forward) skipping provably
 * quiescent periods. The ff runs appear as separate "<config>+ff"
 * entries in the artifact so the regression gate tracks both, and
 * the table prints the per-config speedup (the PR-6 acceptance
 * lever: >= 3x on at least one SPT config).
 *
 * The grid runs on the parallel experiment runner. Simulated
 * results (instructions, cycles) are --jobs-independent; the host
 * timings are per-job wall-clock, so with --jobs > 1 on a busy or
 * oversubscribed host the Minstr/s figures degrade from
 * contention — use --jobs 1 for comparable trajectory numbers.
 *
 * Usage: bench_sim_throughput [--jobs N] [--out PATH].
 * Set SPT_BENCH_QUICK=1 to run a reduced workload subset (CI).
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/engine_factory.h"

using namespace spt;
using namespace spt::bench;

namespace {

std::vector<NamedConfig>
benchConfigs()
{
    std::vector<NamedConfig> configs;

    EngineConfig unsafe;
    unsafe.scheme = ProtectionScheme::kUnsafeBaseline;
    configs.push_back({"Unsafe", unsafe});

    // Delay-of-memory style baseline: every load/store waits for the
    // visibility point.
    EngineConfig dom;
    dom.scheme = ProtectionScheme::kSecureBaseline;
    configs.push_back({"SecureBaseline", dom});

    for (UntaintMethod m : {UntaintMethod::kNone, UntaintMethod::kForward,
                            UntaintMethod::kBackward}) {
        EngineConfig spt;
        spt.scheme = ProtectionScheme::kSpt;
        spt.spt.method = m;
        spt.spt.shadow = ShadowKind::kShadowL1;
        configs.push_back({engineConfigName(spt), spt});
    }
    return configs;
}

double
minstrPerSec(uint64_t instructions, double seconds)
{
    return seconds <= 0.0
               ? 0.0
               : static_cast<double>(instructions) / seconds / 1e6;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    return toolMain("bench_sim_throughput", [&] {
    const BenchOptions opt =
        parseBenchArgs(argc, argv, "BENCH_throughput.json");
    const bool quick = std::getenv("SPT_BENCH_QUICK") != nullptr;

    std::vector<std::string> names = {"pchase",  "interp", "hashtab",
                                      "stream",  "spmv",   "ct-chacha20"};
    if (quick)
        names = {"pchase", "hashtab", "ct-chacha20"};

    const std::vector<NamedConfig> configs = benchConfigs();

    // Per config: one block ticking every cycle, one fast-forwarding
    // quiescent periods (distinct memo keys, so both really run).
    std::vector<RunJob> grid;
    for (const NamedConfig &spec : configs) {
        for (bool ff : {false, true}) {
            for (const std::string &name : names) {
                RunJob job;
                job.program = &workloadByName(name).program;
                job.engine = spec.engine;
                job.attack_model = AttackModel::kFuturistic;
                job.fast_forward = ff;
                grid.push_back(job);
            }
        }
    }

    ExpRunner runner(opt.jobs);
    const std::vector<RunOutcome> outcomes = runner.run(grid);
    reportSweep(runner);

    printf("=== Simulator host throughput (Minstr/s = simulated "
           "Minstr per host second) ===\n\n");
    printf("%-20s %-12s %12s %12s %10s\n", "config", "workload",
           "sim-instrs", "host-ms", "Minstr/s");

    JsonWriter json;
    json.beginObject();
    json.field("unit", "Minstr/s");
    json.field("sweep_jobs", static_cast<uint64_t>(runner.workers()));
    json.key("configs").beginArray();

    size_t slot = 0;
    for (const NamedConfig &spec : configs) {
        double agg_by_mode[2] = {0.0, 0.0};
        for (int mode = 0; mode < 2; ++mode) {
            const bool ff = mode == 1;
            const std::string label =
                ff ? spec.name + "+ff" : spec.name;
            uint64_t total_instrs = 0;
            json.beginObject();
            json.field("name", label);
            const size_t first = slot;
            for (const std::string &name : names) {
                const RunOutcome &out = outcomes[slot++];
                if (!out.result.halted)
                    SPT_FATAL("workload " << name
                                          << " did not halt under "
                                          << label);
                total_instrs += out.result.instructions;
                printf("%-24s %-12s %12llu %12.1f %10.3f\n",
                       label.c_str(), name.c_str(),
                       static_cast<unsigned long long>(
                           out.result.instructions),
                       out.host_seconds * 1e3,
                       minstrPerSec(out.result.instructions,
                                    out.host_seconds));
            }
            const double total_seconds =
                uniqueHostSeconds(outcomes, first, names.size());
            const double agg =
                minstrPerSec(total_instrs, total_seconds);
            agg_by_mode[mode] = agg;
            printf("%-24s %-12s %12llu %12.1f %10.3f\n",
                   label.c_str(), "TOTAL",
                   static_cast<unsigned long long>(total_instrs),
                   total_seconds * 1e3, agg);

            json.field("minstr_per_sec", agg);
            hostSecondsField(json, total_seconds);
            if (ff && agg_by_mode[0] > 0.0)
                json.field("ff_speedup", agg / agg_by_mode[0], 3);
            json.key("workloads").beginArray();
            for (size_t wi = 0; wi < names.size(); ++wi) {
                const RunOutcome &out = outcomes[first + wi];
                json.beginObject();
                json.field("name", names[wi]);
                json.field("instructions", out.result.instructions);
                json.field("cycles", out.result.cycles);
                hostSecondsField(json, out.host_seconds);
                json.field("minstr_per_sec",
                           minstrPerSec(out.result.instructions,
                                        out.host_seconds));
                json.endObject();
            }
            json.endArray();
            json.endObject();
        }
        if (agg_by_mode[0] > 0.0)
            printf("%-24s fast-forward speedup: %.2fx\n\n",
                   spec.name.c_str(),
                   agg_by_mode[1] / agg_by_mode[0]);
        else
            printf("\n");
    }
    json.endArray();
    json.endObject();
    writeReportFile(opt.out_path, json.str());
    printf("wrote %s\n", opt.out_path.c_str());
    return 0;
    });
}
