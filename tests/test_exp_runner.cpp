/**
 * @file
 * Parallel experiment runner (sim/exp_runner.h + common/parallel.h):
 * determinism across worker counts, memoization accounting,
 * exception-in-job propagation, the memo-key sensitivity that
 * keeps distinct design points from merging, and the on-disk result
 * cache, including resume after a killed sweep.
 */

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

#include "common/binio.h"
#include "common/parallel.h"
#include "core/knowledge_map.h"
#include "sim/exp_runner.h"
#include "sim/report.h"
#include "workloads/workloads.h"

namespace spt {
namespace {

// Reduced-size programs so the whole file stays in the test tier.
struct TestPrograms {
    Program pchase = makePointerChase(256, 1);
    Program hashtab = makeHashTable(300, 300);
    Program chacha = makeChaCha20(2);
};

std::vector<RunJob>
mixedGrid(const TestPrograms &p)
{
    std::vector<EngineConfig> engines(3);
    engines[0].scheme = ProtectionScheme::kUnsafeBaseline;
    engines[1].scheme = ProtectionScheme::kSecureBaseline;
    engines[2].scheme = ProtectionScheme::kSpt;
    engines[2].spt.method = UntaintMethod::kBackward;
    engines[2].spt.shadow = ShadowKind::kShadowL1;

    std::vector<RunJob> grid;
    for (const Program *prog :
         {&p.pchase, &p.hashtab, &p.chacha}) {
        for (const EngineConfig &e : engines) {
            for (AttackModel m : {AttackModel::kFuturistic,
                                  AttackModel::kSpectre}) {
                RunJob job;
                job.program = prog;
                job.engine = e;
                job.attack_model = m;
                grid.push_back(job);
            }
        }
    }
    return grid;
}

void
expectSameOutcome(const RunOutcome &a, const RunOutcome &b,
                  size_t slot)
{
    EXPECT_EQ(a.result.cycles, b.result.cycles) << "slot " << slot;
    EXPECT_EQ(a.result.instructions, b.result.instructions)
        << "slot " << slot;
    EXPECT_EQ(a.result.halted, b.result.halted) << "slot " << slot;
    // Full engine counter maps must be identical, untaint.* included.
    EXPECT_EQ(a.engine_counters, b.engine_counters)
        << "slot " << slot;
    ASSERT_EQ(a.engine_histograms.size(), b.engine_histograms.size())
        << "slot " << slot;
    auto ita = a.engine_histograms.begin();
    auto itb = b.engine_histograms.begin();
    for (; ita != a.engine_histograms.end(); ++ita, ++itb) {
        EXPECT_EQ(ita->first, itb->first);
        ASSERT_EQ(ita->second.numBuckets(),
                  itb->second.numBuckets());
        EXPECT_EQ(ita->second.samples(), itb->second.samples());
        EXPECT_EQ(ita->second.maxSample(), itb->second.maxSample());
        for (size_t i = 0; i < ita->second.numBuckets(); ++i)
            EXPECT_EQ(ita->second.bucket(i), itb->second.bucket(i))
                << ita->first << " bucket " << i;
    }
}

TEST(ExpRunner, DeterministicAcrossWorkerCounts)
{
    const TestPrograms programs;
    const std::vector<RunJob> grid = mixedGrid(programs);

    ExpRunner serial(1);
    ExpRunner pooled(4);
    const std::vector<RunOutcome> a = serial.run(grid);
    const std::vector<RunOutcome> b = pooled.run(grid);
    EXPECT_EQ(serial.lastSweep().workers, 1u);
    EXPECT_EQ(pooled.lastSweep().workers, 4u);

    ASSERT_EQ(a.size(), grid.size());
    ASSERT_EQ(b.size(), grid.size());
    uint64_t untaint_events = 0;
    for (size_t i = 0; i < grid.size(); ++i) {
        expectSameOutcome(a[i], b[i], i);
        EXPECT_TRUE(a[i].result.halted) << "slot " << i;
        untaint_events += a[i].counter("untaint.forward") +
                          a[i].counter("untaint.backward");
    }
    // The SPT columns must actually exercise the untaint machinery,
    // or counter equality would be vacuous.
    EXPECT_GT(untaint_events, 0u);
}

TEST(ExpRunner, MemoizesDuplicateJobs)
{
    const TestPrograms programs;
    RunJob base;
    base.program = &programs.pchase;
    base.engine.scheme = ProtectionScheme::kSpt;

    RunJob other = base;
    other.attack_model = AttackModel::kSpectre;

    // 5 slots, 2 unique design points.
    const std::vector<RunJob> grid = {base, other, base, base,
                                      other};
    ExpRunner runner(2);
    const std::vector<RunOutcome> out = runner.run(grid);
    EXPECT_EQ(runner.lastSweep().unique_jobs, 2u);
    EXPECT_EQ(runner.lastSweep().memo_hits, 3u);
    expectSameOutcome(out[0], out[2], 2);
    expectSameOutcome(out[0], out[3], 3);
    expectSameOutcome(out[1], out[4], 4);
    // The two design points genuinely differ.
    EXPECT_NE(out[0].result.cycles, out[1].result.cycles);
}

TEST(ExpRunner, MemoHitsCarryNoHostTime)
{
    const TestPrograms programs;
    RunJob base;
    base.program = &programs.pchase;
    base.engine.scheme = ProtectionScheme::kSpt;

    // 4 slots, 1 unique design point: summing host_seconds across
    // the sweep must bill the single simulation once, not 4x —
    // the former memo behavior copied the unique run's timing into
    // every duplicate slot and inflated per-config totals.
    const std::vector<RunJob> grid = {base, base, base, base};
    const std::vector<RunOutcome> out = ExpRunner(2).run(grid);
    EXPECT_FALSE(out[0].memoized);
    EXPECT_GT(out[0].host_seconds, 0.0);
    double total = 0.0;
    unsigned memo_hits = 0;
    for (const RunOutcome &o : out) {
        total += o.host_seconds;
        if (o.memoized) {
            ++memo_hits;
            EXPECT_EQ(o.host_seconds, 0.0);
        }
    }
    EXPECT_EQ(memo_hits, 3u);
    EXPECT_EQ(total, out[0].host_seconds);
}

TEST(ExpRunner, JobKeyCoversEveryDescriptorField)
{
    const TestPrograms programs;
    RunJob job;
    job.program = &programs.pchase;
    job.engine.scheme = ProtectionScheme::kSpt;

    EXPECT_EQ(jobKey(job), jobKey(job));

    std::set<std::string> keys;
    keys.insert(jobKey(job));
    auto expect_fresh = [&](const RunJob &j, const char *what) {
        EXPECT_TRUE(keys.insert(jobKey(j)).second)
            << what << " not reflected in jobKey";
    };

    RunJob j = job;
    j.program = &programs.hashtab;
    expect_fresh(j, "program");
    j = job;
    j.engine.scheme = ProtectionScheme::kStt;
    expect_fresh(j, "scheme");
    j = job;
    j.engine.spt.method = UntaintMethod::kIdeal;
    expect_fresh(j, "untaint method");
    j = job;
    j.engine.spt.shadow = ShadowKind::kShadowMem;
    expect_fresh(j, "shadow kind");
    j = job;
    j.engine.spt.broadcast_width = 7;
    expect_fresh(j, "broadcast width");
    j = job;
    j.attack_model = AttackModel::kSpectre;
    expect_fresh(j, "attack model");
    j = job;
    j.seed = 1;
    expect_fresh(j, "seed");
    j = job;
    j.max_cycles = 12345;
    expect_fresh(j, "max_cycles");
    j = job;
    j.trace = true;
    expect_fresh(j, "trace");
    j = job;
    j.profile = true;
    expect_fresh(j, "profile");
    j = job;
    j.interval_stats = 1000;
    expect_fresh(j, "interval_stats");
    j = job;
    j.fast_forward = true;
    expect_fresh(j, "fast_forward");
    j = job;
    j.checkpoint_at = 1000;
    expect_fresh(j, "checkpoint_at");
    j = job;
    j.checkpoint = "/tmp/somewhere.bin";
    expect_fresh(j, "checkpoint path");
    j = job;
    static const KnowledgeMap kMap;
    j.engine.spt.knowledge_map = &kMap;
    expect_fresh(j, "knowledge map");
}

TEST(ExpRunner, NullProgramFailsTheSweep)
{
    RunJob job; // program left null
    ExpRunner runner(2);
    EXPECT_THROW(runner.run({job}), FatalError);
}

TEST(ExpRunner, ThrowingJobFailsSweepCleanly)
{
    const TestPrograms programs;
    std::vector<RunJob> grid;
    for (int i = 0; i < 6; ++i) {
        RunJob job;
        job.program = &programs.pchase;
        job.engine.scheme = ProtectionScheme::kUnsafeBaseline;
        job.seed = static_cast<uint64_t>(i); // distinct: no memo
        grid.push_back(job);
    }
    // An out-of-range scheme makes the engine factory panic inside
    // the worker; the sweep must rethrow after the pool has joined
    // (no deadlock, no crash), for any worker count.
    grid[3].engine.scheme = static_cast<ProtectionScheme>(0xee);
    EXPECT_THROW(ExpRunner(1).run(grid), PanicError);
    EXPECT_THROW(ExpRunner(4).run(grid), PanicError);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    constexpr size_t kN = 257;
    for (unsigned jobs : {1u, 3u, 8u}) {
        std::vector<std::atomic<int>> hits(kN);
        parallelFor(kN, jobs,
                    [&](size_t i) { hits[i].fetch_add(1); });
        for (size_t i = 0; i < kN; ++i)
            EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
    // Degenerate sizes.
    parallelFor(0, 4, [](size_t) { FAIL() << "fn called for n=0"; });
    std::atomic<int> once{0};
    parallelFor(1, 8, [&](size_t) { once.fetch_add(1); });
    EXPECT_EQ(once.load(), 1);
}

TEST(ParallelFor, PropagatesFirstExceptionAndStops)
{
    std::atomic<size_t> ran{0};
    try {
        parallelFor(1000, 4, [&](size_t i) {
            if (i == 10)
                throw std::runtime_error("job 10 failed");
            ran.fetch_add(1);
        });
        FAIL() << "exception did not propagate";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "job 10 failed");
    }
    // Workers stop claiming new indices once a job has thrown; with
    // 4 workers at most a handful of in-flight jobs finish after
    // the failure.
    EXPECT_LT(ran.load(), 1000u);
}

// --------------------------------------------------------------------
// On-disk result cache (sim/result_cache.h)
// --------------------------------------------------------------------

std::string
freshCacheDir(const char *name)
{
    const std::string dir = testing::TempDir() + name;
    std::filesystem::remove_all(dir);
    return dir;
}

TEST(ResultCache, ColdThenWarmOutcomesAreByteIdentical)
{
    const TestPrograms programs;
    const std::vector<RunJob> grid = mixedGrid(programs);
    RunnerPolicy policy;
    policy.cache_dir = freshCacheDir("spt_cache_coldwarm");

    ExpRunner cold(1);
    const std::vector<RunOutcome> a = cold.run(grid, policy);
    EXPECT_EQ(cold.lastSweep().cache_mode, "read_write");
    EXPECT_EQ(cold.lastSweep().cache.hits, 0u);
    EXPECT_EQ(cold.lastSweep().cache.misses, grid.size());
    EXPECT_GT(cold.lastSweep().cache.bytes_written, 0u);

    // Different process would behave identically; here a different
    // runner at a different worker count stands in for it.
    ExpRunner warm(4);
    const std::vector<RunOutcome> b = warm.run(grid, policy);
    EXPECT_EQ(warm.lastSweep().cache.hits, grid.size());
    EXPECT_EQ(warm.lastSweep().cache.misses, 0u);
    EXPECT_EQ(warm.lastSweep().cache.bytes_written, 0u);
    EXPECT_GT(warm.lastSweep().cache.host_seconds_saved, 0.0);

    ASSERT_EQ(b.size(), a.size());
    for (size_t i = 0; i < a.size(); ++i) {
        expectSameOutcome(a[i], b[i], i);
        // The full wire encoding — untaint counters, histograms,
        // and the *replayed* host_seconds — must match, which is
        // what makes warm JSON artifacts cmp-identical to cold.
        EXPECT_EQ(ResultCache::encodeOutcome(a[i]),
                  ResultCache::encodeOutcome(b[i]))
            << "slot " << i;
        EXPECT_EQ(a[i].job_desc, b[i].job_desc) << "slot " << i;
    }

    // The SPTRES01 payload bytes of a fixed outcome are pinned, and
    // decode inverts encode.
    RunOutcome o;
    o.result.cycles = 1234;
    o.result.instructions = 567;
    o.result.halted = true;
    o.result.ipc = 0.5;
    o.result.termination = Termination::kMaxCycles;
    o.host_seconds = 1.25;
    o.error = "e";
    o.diagnostics_json = "[]";
    o.engine_counters = {{"untaint.a", 3}, {"untaint.b", 0}};
    Histogram h(4);
    h.record(1);
    h.record(9, 2);
    o.engine_histograms.emplace("lat", h);
    o.trace_text = "t";
    o.trace_pipeview = "p";
    o.profile_json = "{}";
    o.intervals_json = "[1]";
    o.fault_counters = {{"fault.x.draws", 7}};
    o.arch_regs[1] = 42;
    o.arch_regs[31] = ~uint64_t{0};
    o.evidence_trace = "ev";
    o.reproduced = true;
    const std::string wire = ResultCache::encodeOutcome(o);
    EXPECT_EQ(wire.size(), 538u);
    EXPECT_EQ(fnv1a(wire), 0x4e0b7566af60e205ull);
    EXPECT_EQ(ResultCache::encodeOutcome(ResultCache::decodeOutcome(wire)),
              wire);
}

TEST(ResultCache, CorruptedEntryFallsBackToSimulation)
{
    const TestPrograms programs;
    RunJob job;
    job.program = &programs.pchase;
    job.engine.scheme = ProtectionScheme::kSpt;
    const std::vector<RunJob> grid = {job};
    RunnerPolicy policy;
    policy.cache_dir = freshCacheDir("spt_cache_corrupt");

    ExpRunner runner(1);
    const std::vector<RunOutcome> a = runner.run(grid, policy);

    ResultCache cache(policy.cache_dir, CacheMode::kReadWrite);
    const std::string key = ResultCache::canonicalKey(grid[0]);
    ASSERT_FALSE(key.empty());
    const std::string path = cache.entryPath(key);
    ASSERT_TRUE(std::filesystem::exists(path));

    // Truncation: decode must degrade to a miss, the job
    // re-simulates to the same outcome, and read_write repairs the
    // entry.
    std::filesystem::resize_file(
        path, std::filesystem::file_size(path) / 2);
    const std::vector<RunOutcome> b = runner.run(grid, policy);
    EXPECT_EQ(runner.lastSweep().cache.hits, 0u);
    EXPECT_EQ(runner.lastSweep().cache.misses, 1u);
    EXPECT_GT(runner.lastSweep().cache.bytes_written, 0u);
    // The re-simulation pays fresh host time; everything
    // deterministic is identical.
    EXPECT_EQ(ResultCache::encodeOutcomeDeterministic(a[0]),
              ResultCache::encodeOutcomeDeterministic(b[0]));

    // Bit rot: flip one byte mid-record; the content-hash trailer
    // must reject it.
    {
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        f.seekp(static_cast<std::streamoff>(
            std::filesystem::file_size(path) / 2));
        f.put('\xa5');
    }
    const std::vector<RunOutcome> c = runner.run(grid, policy);
    EXPECT_EQ(runner.lastSweep().cache.hits, 0u);
    EXPECT_EQ(runner.lastSweep().cache.misses, 1u);
    EXPECT_EQ(ResultCache::encodeOutcomeDeterministic(a[0]),
              ResultCache::encodeOutcomeDeterministic(c[0]));

    // And after the repair, a clean hit again — byte-identical to
    // the run that repaired the entry, recorded timing included.
    const std::vector<RunOutcome> d = runner.run(grid, policy);
    EXPECT_EQ(runner.lastSweep().cache.hits, 1u);
    EXPECT_EQ(ResultCache::encodeOutcome(c[0]),
              ResultCache::encodeOutcome(d[0]));
}

TEST(ResultCache, VerifyModeDetectsPoisonedEntry)
{
    const TestPrograms programs;
    RunJob job;
    job.program = &programs.pchase;
    job.engine.scheme = ProtectionScheme::kSpt;
    const std::vector<RunJob> grid = {job};
    RunnerPolicy policy;
    policy.cache_dir = freshCacheDir("spt_cache_poison");

    ExpRunner runner(1);
    const std::vector<RunOutcome> a = runner.run(grid, policy);

    // Poison the entry with a *well-formed* record whose payload
    // lies about the outcome — only verify mode can catch this.
    RunOutcome tampered = a[0];
    tampered.result.cycles += 1;
    {
        ResultCache cache(policy.cache_dir, CacheMode::kReadWrite);
        cache.store(ResultCache::canonicalKey(grid[0]), tampered);
    }

    // A plain warm run trusts the poisoned record...
    const std::vector<RunOutcome> p = runner.run(grid, policy);
    EXPECT_EQ(p[0].result.cycles, a[0].result.cycles + 1);

    // ...verify mode re-simulates, counts the mismatch, and the
    // fresh outcome wins.
    RunnerPolicy verify = policy;
    verify.cache_mode = CacheMode::kVerify;
    const std::vector<RunOutcome> v = runner.run(grid, verify);
    EXPECT_EQ(runner.lastSweep().cache_mode, "verify");
    EXPECT_EQ(runner.lastSweep().cache.hits, 1u);
    EXPECT_EQ(runner.lastSweep().cache.verify_mismatches, 1u);
    EXPECT_EQ(runner.lastSweep().cache.bytes_written, 0u);
    EXPECT_EQ(v[0].result.cycles, a[0].result.cycles);

    // A clean cache verifies silently.
    {
        ResultCache cache(policy.cache_dir, CacheMode::kReadWrite);
        cache.store(ResultCache::canonicalKey(grid[0]), a[0]);
    }
    runner.run(grid, verify);
    EXPECT_EQ(runner.lastSweep().cache.verify_mismatches, 0u);
}

TEST(ResultCache, CanonicalKeyIsContentAddressed)
{
    // Two content-identical programs at distinct addresses: the
    // pointer-based memo key must separate them, the
    // content-addressed key must merge them.
    const Program a = makePointerChase(256, 1);
    const Program b = makePointerChase(256, 1);
    const Program c = makePointerChase(300, 1);
    RunJob ja, jb, jc;
    ja.program = &a;
    jb.program = &b;
    jc.program = &c;
    EXPECT_NE(jobKey(ja), jobKey(jb));
    EXPECT_EQ(ResultCache::canonicalKey(ja),
              ResultCache::canonicalKey(jb));
    EXPECT_NE(ResultCache::canonicalKey(ja),
              ResultCache::canonicalKey(jc));

    // The exact key of one fixed job is pinned: existing caches (and
    // the CI cache keyed on record_golden_stats --fingerprints) stay
    // warm only while these bytes hold.
    RunJob fixed = ja;
    fixed.engine.scheme = ProtectionScheme::kSpt;
    fixed.engine.spt.method = UntaintMethod::kBackward;
    fixed.engine.spt.shadow = ShadowKind::kShadowMem;
    fixed.attack_model = AttackModel::kSpectre;
    fixed.seed = 3;
    fixed.max_cycles = 100000;
    fixed.faults.seed = 9;
    fixed.faults.rate_ppm[1] = 250;
    fixed.fast_forward = true;
    EXPECT_EQ(ResultCache::canonicalKey(fixed),
              "resv1|prog=93315c7f8c4097d4|sch=3|m=2|sh=2|bw=3|st=0"
              "|mut=0|km=0000000000000000|am=0|seed=3|mc=100000|tr=0"
              "|pf=0|iv=0|inv=0|wd=0|ff=1|ca=0|fs=9|f0=0|f1=250|f2=0"
              "|f3=0|f4=0|f5=0|ck=0");

    // Uncacheable descriptors produce no key: wall-clock-capped
    // jobs (schedule-dependent outcome) and unreadable checkpoints.
    RunJob capped = ja;
    capped.wall_timeout_seconds = 5.0;
    EXPECT_EQ(ResultCache::canonicalKey(capped), "");
    RunJob missing = ja;
    missing.checkpoint = "/nonexistent/spt-no-such-snapshot.bin";
    EXPECT_EQ(ResultCache::canonicalKey(missing), "");
}

TEST(ResultCache, CanonicalKeyCoversEveryDescriptorField)
{
    const TestPrograms programs;
    RunJob job;
    job.program = &programs.pchase;
    job.engine.scheme = ProtectionScheme::kSpt;

    EXPECT_EQ(ResultCache::canonicalKey(job),
              ResultCache::canonicalKey(job));

    std::set<std::string> keys;
    keys.insert(ResultCache::canonicalKey(job));
    auto expect_fresh = [&](const RunJob &j, const char *what) {
        const std::string key = ResultCache::canonicalKey(j);
        ASSERT_FALSE(key.empty()) << what;
        EXPECT_TRUE(keys.insert(key).second)
            << what << " not reflected in canonicalKey";
    };

    RunJob j = job;
    j.program = &programs.hashtab;
    expect_fresh(j, "program content");
    j = job;
    j.engine.scheme = ProtectionScheme::kStt;
    expect_fresh(j, "scheme");
    j = job;
    j.engine.spt.method = UntaintMethod::kIdeal;
    expect_fresh(j, "untaint method");
    j = job;
    j.engine.spt.shadow = ShadowKind::kShadowMem;
    expect_fresh(j, "shadow kind");
    j = job;
    j.engine.spt.broadcast_width = 7;
    expect_fresh(j, "broadcast width");
    j = job;
    j.engine.spt.mutation = SptConfig::Mutation::kLeakyMemGate;
    expect_fresh(j, "mutation");
    j = job;
    static const KnowledgeMap kMap;
    j.engine.spt.knowledge_map = &kMap;
    expect_fresh(j, "knowledge map");
    j = job;
    j.attack_model = AttackModel::kSpectre;
    expect_fresh(j, "attack model");
    j = job;
    j.seed = 1;
    expect_fresh(j, "seed");
    j = job;
    j.max_cycles = 12345;
    expect_fresh(j, "max_cycles");
    j = job;
    j.trace = true;
    expect_fresh(j, "trace");
    j = job;
    j.profile = true;
    expect_fresh(j, "profile");
    j = job;
    j.interval_stats = 1000;
    expect_fresh(j, "interval_stats");
    j = job;
    j.faults.seed = 7;
    expect_fresh(j, "fault seed");
    j = job;
    j.faults.rate_ppm[0] = 100;
    expect_fresh(j, "fault rate");
    j = job;
    j.invariants = true;
    expect_fresh(j, "invariants");
    j = job;
    j.watchdog_cycles = 4096;
    expect_fresh(j, "watchdog");
    j = job;
    j.fast_forward = true;
    expect_fresh(j, "fast_forward");
    j = job;
    j.checkpoint_at = 1000;
    expect_fresh(j, "checkpoint_at");
    // label is documentation, not identity — same key.
    j = job;
    j.label = "a pretty name";
    EXPECT_EQ(ResultCache::canonicalKey(j),
              ResultCache::canonicalKey(job));
}

TEST(ResultCache, FailedOutcomesAreNotStored)
{
    const TestPrograms programs;
    RunJob job;
    job.program = &programs.pchase;
    job.engine.scheme = static_cast<ProtectionScheme>(0xee);
    const std::vector<RunJob> grid = {job};
    RunnerPolicy policy;
    policy.cache_dir = freshCacheDir("spt_cache_failed");
    policy.keep_going = true;

    ExpRunner runner(1);
    const std::vector<RunOutcome> a = runner.run(grid, policy);
    EXPECT_EQ(a[0].status, RunStatus::kCrash);
    EXPECT_EQ(runner.lastSweep().cache.bytes_written, 0u);

    // The rerun must re-simulate (and still rethrow under the
    // default fail-fast policy): a failure is never frozen into
    // the cache.
    const std::vector<RunOutcome> b = runner.run(grid, policy);
    EXPECT_EQ(runner.lastSweep().cache.hits, 0u);
    EXPECT_EQ(runner.lastSweep().cache.misses, 1u);
    EXPECT_EQ(b[0].status, RunStatus::kCrash);
    RunnerPolicy fail_fast = policy;
    fail_fast.keep_going = false;
    EXPECT_THROW(runner.run(grid, fail_fast), PanicError);
}

/** Finished records in @p dir; in-flight `*.tmp*` files excluded. */
size_t
countCacheRecords(const std::string &dir)
{
    size_t n = 0;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec))
        if (entry.path().extension() == ".sptres")
            ++n;
    return n;
}

// The runner stores each outcome as its job finishes, so a sweep
// killed mid-run and rerun on the same cache re-simulates exactly the
// slots it had not finished, and the resumed outcomes are identical
// to an uncached run's. This is the crash-resume guarantee of the
// cache (DESIGN.md §14).
TEST(ResultCache, Kill9MidSweepResumesOnlyUnfinishedSlots)
{
    const TestPrograms programs;
    std::vector<RunJob> grid = mixedGrid(programs);
    grid.resize(12); // pchase and hashtab: 12 distinct jobs
    const std::string dir = freshCacheDir("spt_cache_kill9");
    RunnerPolicy policy;
    policy.cache_dir = dir;

    const pid_t child = fork();
    ASSERT_GE(child, 0) << "fork failed";
    if (child == 0) {
        // Never return into the test framework from the child.
        try {
            ExpRunner(1).run(grid, policy);
        } catch (...) {
            _exit(1);
        }
        _exit(0);
    }
    bool killed = false;
    while (!killed) {
        if (countCacheRecords(dir) >= 3) {
            kill(child, SIGKILL);
            killed = true;
        } else if (waitpid(child, nullptr, WNOHANG) == child) {
            FAIL() << "the sweep exited before 3 records appeared";
        } else {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }
    int status = 0;
    ASSERT_EQ(waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        << "the sweep finished before SIGKILL landed; the resume "
           "check would be vacuous";
    const size_t records_before = countCacheRecords(dir);
    ASSERT_GE(records_before, 3u);
    ASSERT_LT(records_before, grid.size());

    ExpRunner resumed(2);
    const std::vector<RunOutcome> got = resumed.run(grid, policy);
    EXPECT_EQ(resumed.lastSweep().cache.hits, records_before);
    EXPECT_EQ(resumed.lastSweep().cache.misses,
              grid.size() - records_before);

    RunnerPolicy uncached;
    uncached.cache_dir = dir;
    uncached.cache_mode = CacheMode::kOff;
    ExpRunner reference(2);
    const std::vector<RunOutcome> want = reference.run(grid, uncached);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(ResultCache::encodeOutcomeDeterministic(got[i]),
                  ResultCache::encodeOutcomeDeterministic(want[i]))
            << "slot " << i;
}

TEST(JsonWriter, StableFormattingAndEscaping)
{
    JsonWriter json;
    json.beginObject();
    json.field("name", "a\"b\\c\nd");
    json.field("count", uint64_t{42});
    json.field("ratio", 1.0 / 3.0, 3);
    json.field("flag", true);
    json.key("list").beginArray();
    json.value(uint64_t{1}).value(uint64_t{2});
    json.endArray();
    json.endObject();
    EXPECT_EQ(json.str(),
              "{\n"
              "  \"name\": \"a\\\"b\\\\c\\nd\",\n"
              "  \"count\": 42,\n"
              "  \"ratio\": 0.333,\n"
              "  \"flag\": true,\n"
              "  \"list\": [\n"
              "    1,\n"
              "    2\n"
              "  ]\n"
              "}");
}

} // namespace
} // namespace spt
