/**
 * @file
 * Simulator checkpointing (sim/snapshot.h): the byte-identity
 * contract behind checkpoint-forked sweeps.
 *
 * A cold run with the drain barrier armed executes the *same*
 * trajectory as a snapshot-writing run, so a run restored from that
 * snapshot must finish with a byte-identical stats.json. Pinned
 * here:
 *
 *  - cold-with-barrier vs. save vs. restore: identical SimResult
 *    and identical stats.json text,
 *  - snapshot byte-determinism (two saves of the same run match,
 *    and their hash is pinned),
 *  - header introspection (Snapshotter::info),
 *  - restore rejection on scheme/program mismatch, truncation, and
 *    the deleted legacy taint storage,
 *  - ExpRunner sweeps forked from one snapshot file are identical
 *    to cold barrier runs, at any worker count.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/binio.h"
#include "common/json.h"
#include "common/logging.h"
#include "sim/exp_runner.h"
#include "sim/simulator.h"
#include "sim/snapshot.h"
#include "workloads/workloads.h"

namespace spt {
namespace {

// Big enough to warm caches/predictors before the barrier, small
// enough that the workload retires well past it (asserted below).
constexpr uint64_t kBarrier = 600;

EngineConfig
sptEngine()
{
    EngineConfig e;
    e.scheme = ProtectionScheme::kSpt;
    e.spt.method = UntaintMethod::kBackward;
    e.spt.shadow = ShadowKind::kShadowL1;
    return e;
}

SimConfig
barrierConfig()
{
    SimConfig cfg;
    cfg.engine = sptEngine();
    cfg.core.attack_model = AttackModel::kFuturistic;
    cfg.checkpoint_at_retires = kBarrier;
    return cfg;
}

/** The exact stats.json text the tools emit (spt_run/spt_ckpt). */
std::string
statsJson(const Simulator &sim, const SimResult &r)
{
    JsonWriter jw;
    jw.beginObject();
    jw.field("numCycles", r.cycles);
    jw.key("stats");
    sim.dumpStatsJson(jw);
    jw.endObject();
    return jw.str();
}

void
expectSameResult(const SimResult &a, const SimResult &b,
                 const char *what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.instructions, b.instructions) << what;
    EXPECT_EQ(a.halted, b.halted) << what;
    EXPECT_EQ(a.termination, b.termination) << what;
}

TEST(Checkpoint, RestoreMatchesColdBarrierRunByteForByte)
{
    const Program program = makeHashTable(300, 300);

    // A: cold run that passes through the (hook-less) barrier.
    Simulator cold(program, barrierConfig());
    const SimResult ra = cold.run();
    ASSERT_TRUE(ra.halted);
    ASSERT_GT(ra.instructions, kBarrier)
        << "barrier past end of workload — test is vacuous";
    const std::string json_a = statsJson(cold, ra);

    // B: identical run, but serializing a snapshot at the barrier.
    std::ostringstream snap;
    Simulator saver(program, barrierConfig());
    saver.writeSnapshotTo(&snap);
    const SimResult rb = saver.run();
    expectSameResult(ra, rb, "cold vs save");
    EXPECT_EQ(json_a, statsJson(saver, rb));
    ASSERT_FALSE(snap.str().empty());

    // C: fresh machine resumed from B's snapshot.
    Simulator resumed(program, barrierConfig());
    std::istringstream in(snap.str());
    resumed.restoreSnapshot(in);
    EXPECT_TRUE(resumed.restored());
    const SimResult rc = resumed.run();
    expectSameResult(ra, rc, "cold vs restore");
    EXPECT_EQ(json_a, statsJson(resumed, rc));
}

TEST(Checkpoint, SnapshotBytesAreDeterministic)
{
    const Program program = makeHashTable(300, 300);
    std::string bytes[2];
    for (std::string &b : bytes) {
        std::ostringstream snap;
        Simulator sim(program, barrierConfig());
        sim.writeSnapshotTo(&snap);
        ASSERT_TRUE(sim.run().halted);
        b = snap.str();
    }
    ASSERT_FALSE(bytes[0].empty());
    EXPECT_EQ(bytes[0], bytes[1]);
    // The wire bytes themselves are pinned: a change here changes
    // the checkpoint format (bump kVersion) or the simulation.
    EXPECT_EQ(bytes[0].size(), 1025348u);
    EXPECT_EQ(fnv1a(bytes[0]), 0xb6ae170467165349ull);
}

TEST(Checkpoint, InfoReadsTheHeader)
{
    const Program program = makeHashTable(300, 300);
    std::ostringstream snap;
    Simulator sim(program, barrierConfig());
    sim.writeSnapshotTo(&snap);
    ASSERT_TRUE(sim.run().halted);

    std::istringstream in(snap.str());
    const SnapshotInfo info = Snapshotter::info(in);
    EXPECT_EQ(info.version, 2u);
    // Retirement continues while the pipeline drains, so the barrier
    // count is a floor, not the exact capture point.
    EXPECT_GE(info.retired, kBarrier);
    EXPECT_GT(info.cycle, 0u);
    EXPECT_FALSE(info.engine_name.empty());
    EXPECT_EQ(info.code_size, static_cast<uint64_t>(program.size()));
    EXPECT_EQ(info.entry, static_cast<uint64_t>(program.entry()));
}

TEST(Checkpoint, RestoreRejectsMismatchesAndTruncation)
{
    const Program program = makeHashTable(300, 300);
    std::ostringstream snap;
    Simulator sim(program, barrierConfig());
    sim.writeSnapshotTo(&snap);
    ASSERT_TRUE(sim.run().halted);
    const std::string bytes = snap.str();

    { // Different protection scheme.
        SimConfig cfg = barrierConfig();
        cfg.engine = EngineConfig{};
        cfg.engine.scheme = ProtectionScheme::kStt;
        Simulator other(program, cfg);
        std::istringstream in(bytes);
        EXPECT_THROW(other.restoreSnapshot(in), FatalError);
    }
    { // Different program (fingerprint mismatch).
        const Program other_prog = makePointerChase(256, 1);
        Simulator other(other_prog, barrierConfig());
        std::istringstream in(bytes);
        EXPECT_THROW(other.restoreSnapshot(in), FatalError);
    }
    { // Truncated stream.
        Simulator other(program, barrierConfig());
        std::istringstream in(bytes.substr(0, bytes.size() / 2));
        EXPECT_THROW(other.restoreSnapshot(in), FatalError);
    }
    { // Garbage magic.
        Simulator other(program, barrierConfig());
        std::istringstream in(std::string(64, '\xee'));
        EXPECT_THROW(other.restoreSnapshot(in), FatalError);
    }
    { // Nonzero taint-storage byte: the deleted legacy storage.
        std::istringstream header(bytes);
        const SnapshotInfo info = Snapshotter::info(header);
        // magic, version, cycle, retired, engine name, fingerprint,
        // scheme, shadow kind
        const size_t storage_at =
            8 + 4 + 8 + 8 + 8 + info.engine_name.size() + 32 + 2;
        std::string legacy = bytes;
        ASSERT_EQ(legacy.at(storage_at), '\0');
        legacy[storage_at] = 1;
        Simulator other(program, barrierConfig());
        std::istringstream in(legacy);
        try {
            other.restoreSnapshot(in);
            ADD_FAILURE() << "legacy storage byte accepted";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("legacy"),
                      std::string::npos)
                << e.what();
        }
    }
}

// The sweep-level contract: grid cells forked from one snapshot file
// are indistinguishable from cold runs that pass through the same
// barrier — for every worker count, fast-forward on or off.
TEST(Checkpoint, ExpRunnerForksMatchColdRuns)
{
    const Program program = makeHashTable(300, 300);
    const std::string path =
        testing::TempDir() + "spt_test_fork_snapshot.bin";

    { // Produce the shared warmed-up snapshot.
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.is_open());
        Simulator sim(program, barrierConfig());
        sim.writeSnapshotTo(&out);
        ASSERT_TRUE(sim.run().halted);
        out.close();
        ASSERT_FALSE(out.fail());
    }

    // Grid: {fork, cold} x {ff off, ff on}.
    std::vector<RunJob> grid;
    for (bool ff : {false, true}) {
        RunJob fork;
        fork.program = &program;
        fork.engine = sptEngine();
        fork.fast_forward = ff;
        fork.checkpoint = path;
        grid.push_back(fork);

        RunJob cold = fork;
        cold.checkpoint.clear();
        cold.checkpoint_at = kBarrier;
        grid.push_back(cold);
    }

    const std::vector<RunOutcome> serial = ExpRunner(1).run(grid);
    const std::vector<RunOutcome> pooled = ExpRunner(4).run(grid);
    ASSERT_EQ(serial.size(), grid.size());
    ASSERT_EQ(pooled.size(), grid.size());

    auto expect_equal = [](const RunOutcome &a, const RunOutcome &b,
                           const std::string &what) {
        expectSameResult(a.result, b.result, what.c_str());
        EXPECT_EQ(a.status, b.status) << what;
        EXPECT_EQ(a.engine_counters, b.engine_counters) << what;
        EXPECT_EQ(a.arch_regs, b.arch_regs) << what;
        ASSERT_EQ(a.engine_histograms.size(),
                  b.engine_histograms.size())
            << what;
        auto ita = a.engine_histograms.begin();
        auto itb = b.engine_histograms.begin();
        for (; ita != a.engine_histograms.end(); ++ita, ++itb) {
            EXPECT_EQ(ita->first, itb->first) << what;
            ASSERT_EQ(ita->second.numBuckets(),
                      itb->second.numBuckets())
                << what << " " << ita->first;
            EXPECT_EQ(ita->second.samples(), itb->second.samples())
                << what << " " << ita->first;
            for (size_t i = 0; i < ita->second.numBuckets(); ++i)
                EXPECT_EQ(ita->second.bucket(i),
                          itb->second.bucket(i))
                    << what << " " << ita->first << " bucket " << i;
        }
    };

    for (size_t i = 0; i < grid.size(); ++i) {
        EXPECT_TRUE(serial[i].result.halted) << "slot " << i;
        expect_equal(serial[i], pooled[i],
                     "jobs=1 vs jobs=4, slot " + std::to_string(i));
    }
    // Forked slot == its cold sibling (pairs are adjacent).
    expect_equal(serial[0], serial[1], "fork vs cold (ff off)");
    expect_equal(serial[2], serial[3], "fork vs cold (ff on)");

    std::remove(path.c_str());
}

} // namespace
} // namespace spt
