/**
 * @file
 * Regenerates tests/golden_untaint_stats.inc: runs the golden suite
 * (workloads/golden_suite.h) under SPT{Bwd,ShadowL1} and emits the
 * untaint.* counters of every case as a C++ initializer consumed by
 * tests/test_golden_stats.cpp.
 *
 * Usage: build/tools/record_golden_stats [--jobs N] \
 *            > tests/golden_untaint_stats.inc
 *
 * The cases run on the parallel experiment runner; the emitted
 * initializer is in fixed suite order, byte-identical for any
 * --jobs value.
 *
 * --full-stats prints tests/golden_full_stats.inc instead: one row
 * per golden case x table2Configs() entry (STT included) with the
 * cycles, the instructions and Simulator::countersFingerprint — the
 * FNV-1a of every counter spt_run's stats.txt prints (core, engine,
 * memory and bpu sets). It pins cycle-level timing of every config,
 * which the untaint table alone does not.
 *
 *   build/tools/record_golden_stats --full-stats \
 *       > tests/golden_full_stats.inc
 *
 * --fingerprints runs nothing: it prints one line per golden case
 * with the FNV-1a hash of its canonical result-cache key
 * (sim/result_cache.h) — stable across builds, changing exactly
 * when the case's program content or job descriptor changes. CI
 * keys its persisted result cache on this listing, so a semantic
 * change invalidates the cache and a pure refactor keeps it warm.
 *
 * Only re-record when an intentional semantic change shifts the
 * counters (for --full-stats: any cycle or counter), and justify
 * the delta in the PR description; pure performance work on the
 * simulator must leave both tables untouched.
 *
 * Exits through toolMain: 2 on a malformed flag, 1 if a golden case
 * does not halt.
 */

#include <cstdio>
#include <string>

#include "common/binio.h"
#include "common/cli.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "sim/exp_runner.h"
#include "sim/result_cache.h"
#include "sim/simulator.h"
#include "workloads/golden_suite.h"

using namespace spt;

namespace {

/** The full-stats table (see the file comment); 1 if a run does
 *  not halt. Rows are in suite order, configs in table2Configs()
 *  order, whatever the worker count. */
int
recordFullStats(unsigned jobs)
{
    struct Row {
        SimResult result;
        uint64_t fingerprint = 0;
    };
    const std::vector<GoldenCase> &suite = goldenSuite();
    const std::vector<NamedConfig> configs = table2Configs();
    std::vector<Row> rows(suite.size() * configs.size());
    parallelFor(rows.size(), jobs, [&](std::size_t i) {
        const GoldenCase &c = suite[i / configs.size()];
        SimConfig cfg;
        cfg.engine = configs[i % configs.size()].engine;
        cfg.core.attack_model = c.model;
        Simulator sim(c.program, cfg);
        rows[i].result = sim.run();
        rows[i].fingerprint = sim.countersFingerprint();
    });

    printf("// Golden cycles, instructions and counter fingerprint "
           "(FNV-1a of\n// every stats.txt counter) per golden case "
           "x Table-2 config.\n");
    printf("// Generated by tools/record_golden_stats --full-stats; "
           "do not edit by hand.\n");
    printf("// Regenerate: build/tools/record_golden_stats "
           "--full-stats > tests/golden_full_stats.inc\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const GoldenCase &c = suite[i / configs.size()];
        const std::string &config = configs[i % configs.size()].name;
        const Row &row = rows[i];
        if (!row.result.halted) {
            fprintf(stderr, "golden case %s under %s did not halt\n",
                    c.name.c_str(), config.c_str());
            return 1;
        }
        printf("{\"%s\", \"%s\", %lluull, %lluull, 0x%016llxull},\n",
               c.name.c_str(), config.c_str(),
               static_cast<unsigned long long>(row.result.cycles),
               static_cast<unsigned long long>(
                   row.result.instructions),
               static_cast<unsigned long long>(row.fingerprint));
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    return toolMain("record_golden_stats", [&] {
    bool fingerprints = false;
    bool full_stats = false;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--fingerprints")
            fingerprints = true;
        if (std::string(argv[i]) == "--full-stats")
            full_stats = true;
    }
    const unsigned jobs = jobsFromArgs(argc, argv);
    if (full_stats)
        return recordFullStats(jobs);

    EngineConfig engine;
    engine.scheme = ProtectionScheme::kSpt;
    engine.spt.method = UntaintMethod::kBackward;
    engine.spt.shadow = ShadowKind::kShadowL1;

    const std::vector<GoldenCase> &suite = goldenSuite();
    std::vector<RunJob> grid;
    for (const GoldenCase &c : suite) {
        RunJob job;
        job.program = &c.program;
        job.engine = engine;
        job.attack_model = c.model;
        grid.push_back(job);
    }

    if (fingerprints) {
        // No simulation: one line per case, hashing the canonical
        // result-cache key so the listing is short but changes iff
        // the cached outcome for that case could change.
        printf("# golden-suite result-cache fingerprints "
               "(FNV-1a of ResultCache::canonicalKey)\n");
        for (size_t i = 0; i < suite.size(); ++i)
            printf("%s %016llx\n", suite[i].name.c_str(),
                   static_cast<unsigned long long>(
                       fnv1a(ResultCache::canonicalKey(grid[i]))));
        return 0;
    }

    ExpRunner runner(jobs);
    const std::vector<RunOutcome> outcomes = runner.run(grid);

    printf("// Golden untaint.* counters, SPT{Bwd,ShadowL1}.\n");
    printf("// Generated by tools/record_golden_stats; do not edit "
           "by hand.\n");
    printf("// Regenerate: build/tools/record_golden_stats > "
           "tests/golden_untaint_stats.inc\n");
    for (size_t i = 0; i < suite.size(); ++i) {
        const GoldenCase &c = suite[i];
        const RunOutcome &out = outcomes[i];
        if (!out.result.halted) {
            fprintf(stderr, "golden case %s did not halt\n",
                    c.name.c_str());
            return 1;
        }
        printf("{\"%s\",\n {\n", c.name.c_str());
        size_t recorded = 0;
        for (const auto &[name, value] : out.engine_counters) {
            if (name.rfind("untaint.", 0) != 0)
                continue;
            printf("  {\"%s\", %lluull},\n", name.c_str(),
                   static_cast<unsigned long long>(value));
            ++recorded;
        }
        printf(" }},\n");
        fprintf(stderr, "recorded %s (%zu counters)\n",
                c.name.c_str(), recorded);
    }
    return 0;
    });
}
