/**
 * @file
 * Golden-stats invariance: the untaint.* counters of the golden
 * workload suite under SPT{Backward,ShadowL1} must match the
 * recorded baseline exactly. The SPT untaint machinery is specified
 * cycle-accurately (Section 7.3's phase ordering and arbitration),
 * so any implementation or performance change that shifts these
 * counters changed observable behavior — either a bug or a semantic
 * change that must be justified and re-recorded
 * (tools/record_golden_stats, see golden_untaint_stats.inc).
 *
 * The full-stats table widens the gate to cycle-level timing: for
 * every golden case under every Table-2 config (STT included) the
 * cycles, the instructions and the fingerprint of every counter
 * stats.txt prints must match golden_full_stats.inc exactly.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/sim_config.h"
#include "sim/simulator.h"
#include "workloads/golden_suite.h"

namespace spt {
namespace {

using CounterMap = std::map<std::string, uint64_t>;

const std::vector<std::pair<std::string, CounterMap>> &
goldenCounters()
{
    static const std::vector<std::pair<std::string, CounterMap>> g = {
#include "golden_untaint_stats.inc"
    };
    return g;
}

CounterMap
runCase(const GoldenCase &c)
{
    SimConfig cfg;
    cfg.engine.scheme = ProtectionScheme::kSpt;
    cfg.engine.spt.method = UntaintMethod::kBackward;
    cfg.engine.spt.shadow = ShadowKind::kShadowL1;
    cfg.core.attack_model = c.model;
    Simulator sim(c.program, cfg);
    const SimResult res = sim.run();
    EXPECT_TRUE(res.halted) << c.name;
    CounterMap out;
    for (const auto &[name, value] :
         sim.core().engine().stats().counters()) {
        if (name.rfind("untaint.", 0) == 0)
            out[name] = value;
    }
    return out;
}

class GoldenStatsTest : public testing::TestWithParam<size_t>
{
};

TEST_P(GoldenStatsTest, UntaintCountersMatchBaseline)
{
    const GoldenCase &c = goldenSuite().at(GetParam());
    const auto &expected = goldenCounters().at(GetParam());
    ASSERT_EQ(expected.first, c.name)
        << "golden_untaint_stats.inc is out of sync with the suite; "
           "regenerate with tools/record_golden_stats";
    const CounterMap actual = runCase(c);
    // Compare complete maps: a counter appearing or disappearing is
    // as much a divergence as a changed value.
    EXPECT_EQ(actual, expected.second) << c.name;
}

std::string
caseName(const testing::TestParamInfo<size_t> &info)
{
    std::string n = goldenSuite().at(info.param).name;
    for (char &ch : n)
        if (ch == '/' || ch == '-')
            ch = '_';
    return n;
}

INSTANTIATE_TEST_SUITE_P(
    All, GoldenStatsTest,
    testing::Range<size_t>(0, goldenSuite().size()), caseName);

TEST(GoldenStats, BaselineCoversWholeSuite)
{
    ASSERT_EQ(goldenCounters().size(), goldenSuite().size());
}

struct FullStatsRow {
    const char *name;
    const char *config;
    uint64_t cycles;
    uint64_t instructions;
    uint64_t fingerprint;
};

const std::vector<FullStatsRow> &
goldenFullStats()
{
    static const std::vector<FullStatsRow> g = {
#include "golden_full_stats.inc"
    };
    return g;
}

class GoldenFullStatsTest : public testing::TestWithParam<size_t>
{
};

TEST_P(GoldenFullStatsTest, CyclesAndCountersMatchBaseline)
{
    const std::vector<NamedConfig> configs = table2Configs();
    const GoldenCase &c = goldenSuite().at(GetParam() / configs.size());
    const NamedConfig &nc = configs.at(GetParam() % configs.size());
    const FullStatsRow &expected = goldenFullStats().at(GetParam());
    ASSERT_EQ(expected.name, c.name)
        << "golden_full_stats.inc is out of sync with the suite; "
           "regenerate with tools/record_golden_stats --full-stats";
    ASSERT_EQ(expected.config, nc.name);
    SimConfig cfg;
    cfg.engine = nc.engine;
    cfg.core.attack_model = c.model;
    Simulator sim(c.program, cfg);
    const SimResult res = sim.run();
    EXPECT_TRUE(res.halted);
    EXPECT_EQ(res.cycles, expected.cycles);
    EXPECT_EQ(res.instructions, expected.instructions);
    EXPECT_EQ(sim.countersFingerprint(), expected.fingerprint);
}

std::string
fullStatsName(const testing::TestParamInfo<size_t> &info)
{
    std::string n = goldenFullStats().at(info.param).name;
    n += "_";
    n += goldenFullStats().at(info.param).config;
    std::string out;
    for (const char ch : n)
        if (std::isalnum(static_cast<unsigned char>(ch)) || ch == '_')
            out += ch;
        else if (ch == '/' || ch == '-' || ch == ',')
            out += '_';
    return out;
}

INSTANTIATE_TEST_SUITE_P(
    All, GoldenFullStatsTest,
    testing::Range<size_t>(0, goldenFullStats().size()),
    fullStatsName);

TEST(GoldenStats, FullStatsCoverEveryCaseAndConfig)
{
    ASSERT_EQ(goldenFullStats().size(),
              goldenSuite().size() * table2Configs().size());
}

} // namespace
} // namespace spt
