/**
 * @file
 * Knowledge-map artifact (core/knowledge_map.h + the
 * analysis-side emitter): lowering the KnowledgeAnalysis fixpoint
 * into the serialized per-PC robust-register map the SPT engine
 * consumes at rename (DESIGN.md §13). Pinned here:
 *
 *  - the emitted map matches the analysis fact-for-fact,
 *  - binary round-trip (stream and file) is identity,
 *  - the wire bytes of a fixed map are pinned,
 *  - corrupted / truncated / foreign artifacts are rejected, as is
 *    a count the input cannot hold (before allocating for it),
 *  - validateFor refuses stale fingerprints and mismatched VP
 *    models (the Simulator runs it at construction),
 *  - the relaxed engine pre-declassifies without ever diverging
 *    from vanilla SPT's architectural results, and the map-claimed
 *    operands retire untainted under the unrelaxed ideal engine,
 *  - the invariant watchdog stays clean with a map installed,
 *  - snapshots record the map identity: restore under a different
 *    map configuration is refused, restore under the same one is
 *    byte-identical.
 */

#include <cstdio>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "analysis/cfg.h"
#include "analysis/differential.h"
#include "analysis/knowledge_analysis.h"
#include "analysis/knowledge_map.h"
#include "common/json.h"
#include "common/logging.h"
#include "sim/exp_runner.h"
#include "sim/simulator.h"
#include "workloads/attack_programs.h"
#include "workloads/workloads.h"

namespace spt {
namespace {

KnowledgeMap
mapFor(const Program &p,
       KnowledgeVpModel model = KnowledgeVpModel::kAny)
{
    const Cfg cfg(p);
    const KnowledgeAnalysis analysis(cfg);
    return emitKnowledgeMap(analysis, model);
}

// ---------------------------------------------------------------
// Emitter
// ---------------------------------------------------------------

TEST(KnowledgeMap, EmitterMatchesTheAnalysisFixpoint)
{
    const Program p = makePointerChase(256, 1);
    const Cfg cfg(p);
    const KnowledgeAnalysis analysis(cfg);
    const KnowledgeMap map = emitKnowledgeMap(analysis);

    ASSERT_EQ(map.size(), p.size());
    EXPECT_EQ(map.programFingerprint(),
              KnowledgeMap::fingerprintOf(p));
    uint64_t facts = 0;
    for (uint64_t pc = 0; pc < p.size(); ++pc) {
        const KnowledgeState *st = analysis.inState(pc);
        const uint32_t mask = map.robustRegsAt(pc);
        for (unsigned r = 0; r < kNumArchRegs; ++r) {
            const bool robust =
                st && st->of(r) == Knowledge::kRobust;
            EXPECT_EQ((mask >> r & 1) != 0, robust)
                << "pc " << pc << " x" << r;
            facts += robust;
        }
    }
    EXPECT_EQ(map.totalFacts(), facts);
    EXPECT_GT(facts, 0u) << "emitter test is vacuous";
    // Out-of-range lookups must be the empty set, not UB.
    EXPECT_EQ(map.robustRegsAt(p.size() + 1000), 0u);
}

// ---------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------

TEST(KnowledgeMap, BinaryRoundTripIsIdentity)
{
    const KnowledgeMap map = mapFor(makePointerChase(256, 1),
                                    KnowledgeVpModel::kSpectre);
    std::ostringstream os;
    map.save(os);
    std::istringstream is(os.str());
    const KnowledgeMap loaded = KnowledgeMap::load(is);
    EXPECT_EQ(map, loaded);
    EXPECT_EQ(map.contentHash(), loaded.contentHash());
    EXPECT_EQ(loaded.vpModel(), KnowledgeVpModel::kSpectre);

    // The SPTKMAP1 wire bytes of a fixed map are pinned.
    const KnowledgeMap fixed(0x0123456789abcdefull,
                             KnowledgeVpModel::kFuturistic,
                             {0u, 5u, 0x80000001u});
    std::ostringstream fixed_os;
    fixed.save(fixed_os);
    std::string hex;
    for (const char c : fixed_os.str()) {
        char b[3];
        std::snprintf(b, sizeof b, "%02x", static_cast<uint8_t>(c));
        hex += b;
    }
    EXPECT_EQ(hex, "3150414d4b54505301efcdab896745230101010103000000"
                   "0000000000000000050000000100008025441a175b344601");
}

TEST(KnowledgeMap, FileRoundTripIsIdentity)
{
    const KnowledgeMap map = mapFor(makeHashTable(300, 300));
    const std::string path =
        testing::TempDir() + "spt_test_km.bin";
    map.saveToFile(path);
    const KnowledgeMap loaded = KnowledgeMap::loadFromFile(path);
    EXPECT_EQ(map, loaded);
    std::remove(path.c_str());
}

TEST(KnowledgeMap, RejectsBadMagic)
{
    std::istringstream is(std::string(64, '\0'));
    EXPECT_THROW(KnowledgeMap::load(is), FatalError);
}

TEST(KnowledgeMap, RejectsTruncation)
{
    const KnowledgeMap map = mapFor(makePointerChase(256, 1));
    std::ostringstream os;
    map.save(os);
    const std::string bytes = os.str();
    // Every proper prefix must be refused, never misparsed. Step 7
    // keeps the loop fast while still crossing every field boundary.
    for (size_t len = 0; len < bytes.size(); len += 7) {
        std::istringstream is(bytes.substr(0, len));
        EXPECT_THROW(KnowledgeMap::load(is), FatalError)
            << "prefix length " << len;
    }
}

TEST(KnowledgeMap, RejectsACountPastTheInput)
{
    // A bare header announcing 2^32 pcs: refused before the 16 GiB
    // table is allocated.
    std::ostringstream os;
    KnowledgeMap().save(os);
    std::string bytes = os.str().substr(0, 20);
    for (int i = 0; i < 8; ++i)
        bytes.push_back(i == 4 ? '\x01' : '\0');
    ASSERT_EQ(bytes.size(), 28u);
    std::istringstream is(bytes);
    EXPECT_THROW(KnowledgeMap::load(is), FatalError);
}

TEST(KnowledgeMap, RejectsBitrot)
{
    const KnowledgeMap map = mapFor(makePointerChase(256, 1));
    std::ostringstream os;
    map.save(os);
    std::string bytes = os.str();
    // Flip one payload bit (inside the robust-regs table, past the
    // fixed header): the content-hash trailer must catch it.
    bytes[bytes.size() / 2] ^= 0x10;
    std::istringstream is(bytes);
    EXPECT_THROW(KnowledgeMap::load(is), FatalError);
}

// ---------------------------------------------------------------
// Validation against a run
// ---------------------------------------------------------------

TEST(KnowledgeMap, ValidateForRejectsAForeignProgram)
{
    const Program pchase = makePointerChase(256, 1);
    const Program hashtab = makeHashTable(300, 300);
    const KnowledgeMap map = mapFor(pchase);
    EXPECT_NO_THROW(
        map.validateFor(pchase, AttackModel::kSpectre));
    EXPECT_THROW(map.validateFor(hashtab, AttackModel::kSpectre),
                 FatalError);
}

TEST(KnowledgeMap, ValidateForChecksTheVpModel)
{
    const Program p = makePointerChase(256, 1);
    const KnowledgeMap spectre_map =
        mapFor(p, KnowledgeVpModel::kSpectre);
    EXPECT_NO_THROW(
        spectre_map.validateFor(p, AttackModel::kSpectre));
    EXPECT_THROW(
        spectre_map.validateFor(p, AttackModel::kFuturistic),
        FatalError);
    const KnowledgeMap any_map = mapFor(p, KnowledgeVpModel::kAny);
    EXPECT_NO_THROW(any_map.validateFor(p, AttackModel::kSpectre));
    EXPECT_NO_THROW(
        any_map.validateFor(p, AttackModel::kFuturistic));
}

TEST(KnowledgeMap, SimulatorRefusesAStaleMapAtConstruction)
{
    const Program pchase = makePointerChase(256, 1);
    const KnowledgeMap foreign = mapFor(makeHashTable(300, 300));
    SimConfig cfg;
    cfg.engine.scheme = ProtectionScheme::kSpt;
    cfg.engine.spt.method = UntaintMethod::kBackward;
    cfg.engine.spt.knowledge_map = &foreign;
    EXPECT_THROW(Simulator(pchase, cfg), FatalError);
}

TEST(KnowledgeMap, JsonDumpCarriesTheMapIdentity)
{
    const Program p = makePointerChase(256, 1);
    const KnowledgeMap map = mapFor(p);
    const std::string json = map.toJson(&p);
    EXPECT_NE(json.find("\"artifact\": \"knowledge_map\""),
              std::string::npos);
    EXPECT_NE(json.find("\"vp_model\": \"any\""),
              std::string::npos);
    EXPECT_NE(json.find("\"robust_facts\": " +
                        std::to_string(map.totalFacts())),
              std::string::npos);
    // Deterministic: same map, same bytes.
    EXPECT_EQ(json, map.toJson(&p));
}

TEST(KnowledgeMap, EngineConfigNameMarksTheMap)
{
    EngineConfig cfg;
    cfg.scheme = ProtectionScheme::kSpt;
    cfg.spt.method = UntaintMethod::kBackward;
    cfg.spt.shadow = ShadowKind::kShadowL1;
    EXPECT_EQ(engineConfigName(cfg), "SPT{Bwd,ShadowL1}");
    const KnowledgeMap map;
    cfg.spt.knowledge_map = &map;
    EXPECT_EQ(engineConfigName(cfg), "SPT{Bwd,ShadowL1}+KMap");
}

// ---------------------------------------------------------------
// Engine consumption: relaxation fires and stays sound
// ---------------------------------------------------------------

TEST(KnowledgeMap, PreclearsFireWithoutArchDivergence)
{
    const Program p = workloadByName("pchase").program;
    const KnowledgeMap map = mapFor(p);
    MapDifferentialConfig config;
    config.attack_model = AttackModel::kSpectre;
    const MapDifferentialResult res =
        runMapDifferential(p, map, config);
    EXPECT_TRUE(res.halted);
    EXPECT_GT(res.map_facts, 0u);
    EXPECT_GT(res.robust_checked, 0u);
    EXPECT_EQ(res.robust_denied, 0u) << [&] {
        std::string joined;
        for (const std::string &line : res.log)
            joined += line + "\n";
        return joined;
    }();
    EXPECT_FALSE(res.arch_divergence);
    // Non-vacuity: the map actually relaxed something on this
    // workload (pointer-chase keeps tainted loads in flight).
    EXPECT_GT(res.precleared_ops, 0u);
    EXPECT_GT(res.map_lookups, 0u);
}

TEST(KnowledgeMap, InvariantWatchdogStaysCleanWithMap)
{
    const Program program = makeSpectreV1().program;
    const KnowledgeMap map = mapFor(program);
    RunJob job;
    job.program = &program;
    job.engine.scheme = ProtectionScheme::kSpt;
    job.engine.spt.method = UntaintMethod::kBackward;
    job.engine.spt.shadow = ShadowKind::kShadowL1;
    job.engine.spt.knowledge_map = &map;
    job.attack_model = AttackModel::kSpectre;
    job.invariants = true;
    const std::vector<RunOutcome> out = ExpRunner(1).run({job});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].status, RunStatus::kOk) << out[0].error;
    EXPECT_EQ(out[0].diagnostics_json, "[]");
    EXPECT_TRUE(out[0].result.halted);
}

// ---------------------------------------------------------------
// Snapshot integration
// ---------------------------------------------------------------

TEST(KnowledgeMap, SnapshotRecordsTheMapIdentity)
{
    const Program program = makeHashTable(300, 300);
    const KnowledgeMap map = mapFor(program);
    SimConfig cfg;
    cfg.engine.scheme = ProtectionScheme::kSpt;
    cfg.engine.spt.method = UntaintMethod::kBackward;
    cfg.engine.spt.shadow = ShadowKind::kShadowL1;
    cfg.engine.spt.knowledge_map = &map;
    cfg.core.attack_model = AttackModel::kFuturistic;
    cfg.checkpoint_at_retires = 600;

    std::ostringstream snap;
    Simulator saver(program, cfg);
    saver.writeSnapshotTo(&snap);
    const SimResult saved = saver.run();
    ASSERT_TRUE(saved.halted);
    ASSERT_FALSE(snap.str().empty());

    // Same config restores and finishes identically.
    {
        Simulator resumed(program, cfg);
        std::istringstream in(snap.str());
        resumed.restoreSnapshot(in);
        const SimResult r = resumed.run();
        EXPECT_EQ(r.cycles, saved.cycles);
        EXPECT_EQ(r.instructions, saved.instructions);
    }
    // Dropping the map from the config is a different machine: the
    // restore must refuse rather than silently diverge.
    {
        SimConfig no_map = cfg;
        no_map.engine.spt.knowledge_map = nullptr;
        Simulator resumed(program, no_map);
        std::istringstream in(snap.str());
        EXPECT_THROW(resumed.restoreSnapshot(in), FatalError);
    }
}

} // namespace
} // namespace spt
