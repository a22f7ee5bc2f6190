/**
 * @file
 * Unit tests for src/common: bit utilities, deterministic RNG,
 * statistics, the sparse byte memory, and leveled logging.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/binio.h"
#include "common/bit_util.h"
#include "common/byte_memory.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/stats.h"
#include "sim/simulator.h"
#include "workloads/workloads.h"

namespace spt {
namespace {

// --------------------------------------------------------------------
// bit_util
// --------------------------------------------------------------------

TEST(BitUtil, PowerOfTwo)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_TRUE(isPowerOfTwo(1ull << 40));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_FALSE(isPowerOfTwo(6));
}

TEST(BitUtil, Log2Floor)
{
    EXPECT_EQ(log2Floor(1), 0u);
    EXPECT_EQ(log2Floor(2), 1u);
    EXPECT_EQ(log2Floor(1024), 10u);
    EXPECT_EQ(log2Floor(1ull << 50), 50u);
}

TEST(BitUtil, Bits)
{
    EXPECT_EQ(bits(0xdeadbeef, 15, 8), 0xbeu);
    EXPECT_EQ(bits(0xff, 3, 0), 0xfu);
    EXPECT_EQ(bits(~uint64_t{0}, 63, 0), ~uint64_t{0});
}

TEST(BitUtil, SignExtend)
{
    EXPECT_EQ(signExtend(0x80, 8), -128);
    EXPECT_EQ(signExtend(0x7f, 8), 127);
    EXPECT_EQ(signExtend(0xffff, 16), -1);
    EXPECT_EQ(signExtend(0x8000, 16), -32768);
    EXPECT_EQ(signExtend(0x1234, 16), 0x1234);
    EXPECT_EQ(signExtend(0xffffffff, 32), -1);
}

TEST(BitUtil, Align)
{
    EXPECT_EQ(alignDown(100, 64), 64u);
    EXPECT_EQ(alignUp(100, 64), 128u);
    EXPECT_EQ(alignUp(128, 64), 128u);
    EXPECT_EQ(alignDown(128, 64), 128u);
}

TEST(BitUtil, PopCountAndRotl)
{
    EXPECT_EQ(popCount(0), 0u);
    EXPECT_EQ(popCount(0xf0f0), 8u);
    EXPECT_EQ(rotl32(0x80000001, 1), 0x00000003u);
    EXPECT_EQ(rotl32(0x12345678, 0), 0x12345678u);
    EXPECT_EQ(rotl32(0x12345678, 32), 0x12345678u);
}

// --------------------------------------------------------------------
// rng
// --------------------------------------------------------------------

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.nextBelow(17), 17u);
}

TEST(Rng, NextBelowCoversRange)
{
    Rng r(9);
    std::vector<int> seen(8, 0);
    for (int i = 0; i < 4000; ++i)
        ++seen[r.nextBelow(8)];
    for (int count : seen)
        EXPECT_GT(count, 300); // roughly uniform
}

TEST(Rng, NextRangeInclusive)
{
    Rng r(11);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        const int64_t v = r.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo = saw_lo || v == -3;
        saw_hi = saw_hi || v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng r(13);
    for (int i = 0; i < 1000; ++i) {
        const double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

// --------------------------------------------------------------------
// stats
// --------------------------------------------------------------------

TEST(Stats, CountersBasics)
{
    StatSet s;
    EXPECT_EQ(s.get("missing"), 0u);
    s.inc("a");
    s.inc("a", 4);
    s.set("b", 10);
    EXPECT_EQ(s.get("a"), 5u);
    EXPECT_EQ(s.get("b"), 10u);
    s.reset();
    EXPECT_EQ(s.get("a"), 0u);
}

TEST(Stats, UntouchedHandleIsInvisible)
{
    // Registering a name must not create the counter: every reader
    // sees exactly the names that were written.
    StatSet s;
    s.counter("quiet");
    s.histogramHandle("quiet_hist", 8);
    s.inc("loud");
    EXPECT_EQ(s.counters(),
              (std::map<std::string, uint64_t>{{"loud", 1}}));
    EXPECT_TRUE(s.histograms().empty());
    std::ostringstream text;
    s.dump(text);
    EXPECT_EQ(text.str(), "loud 1\n");
    JsonWriter jw;
    s.dumpJson(jw);
    EXPECT_EQ(jw.str().find("quiet"), std::string::npos) << jw.str();
}

TEST(Stats, IncByZeroCreatesTheKey)
{
    StatSet s;
    const StatSet::Counter c = s.counter("zero");
    s.inc(c, 0);
    EXPECT_EQ(s.counters(),
              (std::map<std::string, uint64_t>{{"zero", 0}}));
}

TEST(Stats, HandleAndStringIncSumIntoOneCounter)
{
    StatSet s;
    const StatSet::Counter c = s.counter("mixed");
    s.inc(c);
    s.inc("mixed", 2);
    s.inc(c, 4);
    EXPECT_EQ(s.get("mixed"), 7u);
    EXPECT_EQ(s.counters().size(), 1u);
    // A name first written by string and interned later resolves to
    // the same slot.
    s.inc("late", 3);
    s.inc(s.counter("late"));
    EXPECT_EQ(s.get("late"), 4u);

    const StatSet::HistogramHandle h = s.histogramHandle("lat", 8);
    s.histogram(h).record(2);
    s.histogram("lat").record(5);
    EXPECT_EQ(s.histograms().at("lat").samples(), 2u);
    EXPECT_EQ(s.histograms().at("lat").numBuckets(), 8u);
}

TEST(Stats, HandlesSurviveResetAndCopyAssignment)
{
    StatSet s;
    const StatSet::Counter a = s.counter("a");
    const StatSet::Counter b = s.counter("b");
    s.inc(a, 5);
    s.reset();
    EXPECT_TRUE(s.counters().empty());
    s.inc(b);
    EXPECT_EQ(s.counters(), (std::map<std::string, uint64_t>{{"b", 1}}));

    // Assigning another set's contents keeps this set's handles
    // pointing at their own names, whatever the other set's layout.
    StatSet other;
    other.inc("z", 9);
    other.inc("a", 2);
    s = other;
    EXPECT_EQ(s.counters(),
              (std::map<std::string, uint64_t>{{"a", 2}, {"z", 9}}));
    s.inc(a);
    s.inc(b);
    EXPECT_EQ(s.get("a"), 3u);
    EXPECT_EQ(s.get("b"), 1u);
    EXPECT_EQ(s.get("z"), 9u);

    // A fresh set assigned from s takes s's layout, so s's handles
    // work on it too (as they do on a copy-constructed set).
    StatSet fresh;
    fresh = s;
    fresh.inc(a);
    EXPECT_EQ(fresh.get("a"), 4u);
    StatSet copy(s);
    copy.inc(b, 2);
    EXPECT_EQ(copy.get("b"), 3u);
    EXPECT_EQ(s.get("b"), 1u);
}

TEST(Stats, HandlesSurviveSnapshotRestore)
{
    // A restored machine keeps counting through the handles its
    // components interned at construction: the resumed run's
    // counters end where the uninterrupted run's do.
    const Program program = makeHashTable(200, 200);
    SimConfig cfg;
    cfg.engine.scheme = ProtectionScheme::kSpt;
    cfg.checkpoint_at_retires = 500;

    Simulator cold(program, cfg);
    ASSERT_TRUE(cold.run().halted);

    std::ostringstream snap;
    Simulator saver(program, cfg);
    saver.writeSnapshotTo(&snap);
    saver.run();

    Simulator resumed(program, cfg);
    std::istringstream in(snap.str());
    resumed.restoreSnapshot(in);
    const uint64_t at_barrier =
        resumed.core().stats().get("fetch.instructions");
    EXPECT_GT(at_barrier, 0u);
    ASSERT_TRUE(resumed.run().halted);
    EXPECT_GT(resumed.core().stats().get("fetch.instructions"),
              at_barrier);
    EXPECT_EQ(resumed.core().stats().counters(),
              cold.core().stats().counters());
    EXPECT_EQ(resumed.core().engine().stats().counters(),
              cold.core().engine().stats().counters());
    EXPECT_EQ(resumed.core().memorySystem().stats().counters(),
              cold.core().memorySystem().stats().counters());
}

TEST(Stats, HistogramWireRoundTripAndBucketBounds)
{
    Histogram h(4);
    h.record(1);
    h.record(9, 2);
    BinWriter w;
    h.encode(w);
    BinReader r(w.data(), "test");
    const Histogram back = Histogram::decode(r);
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(back.numBuckets(), 4u);
    EXPECT_EQ(back.bucket(1), 1u);
    EXPECT_EQ(back.bucket(3), 2u);
    EXPECT_EQ(back.samples(), 3u);
    EXPECT_EQ(back.sum(), 19u);
    EXPECT_EQ(back.maxSample(), 9u);

    // Crafted records: a bucket count of 0 or over 2^20, or buckets
    // the input does not hold, is corrupt input (FatalError) — never
    // an assertion (PanicError) or an allocation sized by the count.
    for (const uint64_t buckets :
         {uint64_t{0}, (uint64_t{1} << 20) + 1, uint64_t{1} << 20,
          ~uint64_t{0}}) {
        BinWriter bad;
        bad.u64(buckets);
        for (int i = 0; i < 4; ++i)
            bad.u64(0);
        BinReader br(bad.data(), "test");
        EXPECT_THROW(Histogram::decode(br), FatalError)
            << buckets << " buckets";
    }
}

TEST(Stats, StatMapDecodersRejectImplausibleCounts)
{
    BinWriter w;
    w.u64(uint64_t{1} << 40); // entries announced, none present
    BinReader counters(w.data(), "test");
    EXPECT_THROW(decodeCounters(counters), FatalError);
    BinReader hists(w.data(), "test");
    EXPECT_THROW(decodeHistograms(hists), FatalError);

    // Within the entry bound but past the input.
    BinWriter few;
    few.u64(3);
    few.str("a");
    few.u64(1);
    BinReader short_in(few.data(), "test");
    EXPECT_THROW(decodeCounters(short_in), FatalError);

    std::map<std::string, uint64_t> in = {{"a", 1}, {"bb", 2}};
    BinWriter ok;
    encodeCounters(ok, in);
    BinReader ok_in(ok.data(), "test");
    EXPECT_EQ(decodeCounters(ok_in), in);
    BinReader capped(ok.data(), "test");
    EXPECT_THROW(decodeCounters(capped, 1), FatalError);
}

TEST(Stats, HistogramMeanAndCdf)
{
    Histogram h(8);
    h.record(1);
    h.record(1);
    h.record(3);
    h.record(100); // overflow bucket
    EXPECT_EQ(h.samples(), 4u);
    EXPECT_DOUBLE_EQ(h.mean(), (1 + 1 + 3 + 100) / 4.0);
    EXPECT_DOUBLE_EQ(h.cdfAt(0), 0.0);
    EXPECT_DOUBLE_EQ(h.cdfAt(1), 0.5);
    EXPECT_DOUBLE_EQ(h.cdfAt(3), 0.75);
    EXPECT_DOUBLE_EQ(h.cdfAt(200), 1.0);
}

TEST(Stats, HistogramOverflowBucketBoundary)
{
    // An 8-bucket histogram: buckets 0-6 are exact, bucket 7 holds
    // everything >= 7.
    Histogram h(8);
    h.record(6);   // last exact bucket
    h.record(7);   // smallest overflow value
    h.record(100); // deep overflow
    EXPECT_EQ(h.bucket(6), 1u);
    EXPECT_EQ(h.bucket(7), 2u);
    EXPECT_EQ(h.maxSample(), 100u);

    // Exact below the overflow bucket.
    EXPECT_DOUBLE_EQ(h.cdfAt(5), 0.0);
    EXPECT_DOUBLE_EQ(h.cdfAt(6), 1.0 / 3.0);
    // v = 7 does not cover the sample at 100, so the overflow bucket
    // must not be counted (the off-by-one reported cdfAt(7) == 1.0).
    EXPECT_DOUBLE_EQ(h.cdfAt(7), 1.0 / 3.0);
    EXPECT_DOUBLE_EQ(h.cdfAt(99), 1.0 / 3.0);
    // From the largest recorded sample on, the cdf is exact again.
    EXPECT_DOUBLE_EQ(h.cdfAt(100), 1.0);
    EXPECT_DOUBLE_EQ(h.cdfAt(101), 1.0);
}

TEST(Stats, HistogramOverflowExactWhenNoDeepOverflow)
{
    // When every overflow sample sits exactly at N-1, cdfAt(N-1)
    // covers them all and must be 1.0.
    Histogram h(8);
    h.record(2);
    h.record(7);
    h.record(7);
    EXPECT_EQ(h.maxSample(), 7u);
    EXPECT_DOUBLE_EQ(h.cdfAt(6), 1.0 / 3.0);
    EXPECT_DOUBLE_EQ(h.cdfAt(7), 1.0);

    h.reset();
    EXPECT_EQ(h.maxSample(), 0u);
    EXPECT_DOUBLE_EQ(h.cdfAt(7), 0.0);
}

TEST(Stats, EmptyHistogramContract)
{
    // The text/JSON dump paths derive mean/p50/p95 for histograms
    // that may never record a sample (e.g. untaint.* in a run with
    // zero untaint events). Contract: with zero samples nothing
    // divides by the sample count — mean and cdf are 0.0 and every
    // percentile is 0, for any p.
    Histogram h(8);
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_EQ(h.maxSample(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.cdfAt(0), 0.0);
    EXPECT_DOUBLE_EQ(h.cdfAt(7), 0.0);
    EXPECT_DOUBLE_EQ(h.cdfAt(UINT64_MAX), 0.0);
    EXPECT_EQ(h.percentile(0.0), 0u);
    EXPECT_EQ(h.percentile(0.5), 0u);
    EXPECT_EQ(h.percentile(0.95), 0u);
    EXPECT_EQ(h.percentile(1.0), 0u);
    EXPECT_EQ(h.percentile(2.0), 0u);

    // The dump paths themselves stay well-defined on the empty
    // histogram (their p50/p95 lines ride on percentile).
    StatSet s;
    s.histogram("empty", 8);
    std::ostringstream text;
    s.dump(text);
    EXPECT_NE(text.str().find("empty.samples 0"),
              std::string::npos);
    EXPECT_NE(text.str().find("empty.p95 0"), std::string::npos);
    JsonWriter jw;
    s.dumpJson(jw);
    EXPECT_NE(jw.str().find("\"samples\": 0"), std::string::npos);
}

TEST(Stats, HistogramPercentileBoundaries)
{
    Histogram h(8);
    EXPECT_EQ(h.percentile(0.5), 0u); // no samples

    // 10 samples, all in exact buckets: 4x value 1, 5x value 3,
    // 1x value 6.
    h.record(1, 4);
    h.record(3, 5);
    h.record(6);
    // Rank math: p50 -> rank 5 -> value 3 (first 4 samples are 1s);
    // the p = 0.4 boundary lands exactly on the last 1.
    EXPECT_EQ(h.percentile(0.40), 1u);
    EXPECT_EQ(h.percentile(0.41), 3u);
    EXPECT_EQ(h.percentile(0.50), 3u);
    EXPECT_EQ(h.percentile(0.90), 3u);
    EXPECT_EQ(h.percentile(0.91), 6u);
    EXPECT_EQ(h.percentile(1.0), 6u);
    // Degenerate p clamps to the smallest/largest rank.
    EXPECT_EQ(h.percentile(0.0), 1u);
    EXPECT_EQ(h.percentile(2.0), 6u);
    // Consistency with cdfAt: the p-th percentile covers at least
    // fraction p of the samples.
    for (double p : {0.25, 0.5, 0.75, 0.95})
        EXPECT_GE(h.cdfAt(h.percentile(p)), p) << p;
}

TEST(Stats, HistogramPercentileOverflowClampsToMax)
{
    Histogram h(8);
    h.record(1, 6);
    h.record(100, 4); // overflow bucket; per-value counts are lost
    // Ranks landing in the overflow range clamp to maxSample, the
    // only value there whose cdf is known (mirrors cdfAt).
    EXPECT_EQ(h.percentile(0.60), 1u);
    EXPECT_EQ(h.percentile(0.61), 100u);
    EXPECT_EQ(h.percentile(0.95), 100u);

    // All samples exactly at the overflow boundary N-1: the clamp
    // target is N-1 itself, so percentiles stay exact.
    Histogram b(8);
    b.record(7, 3);
    EXPECT_EQ(b.percentile(0.5), 7u);
}

TEST(Stats, DumpFormat)
{
    StatSet s;
    s.inc("zeta");
    s.inc("alpha", 2);
    std::ostringstream os;
    s.dump(os);
    EXPECT_EQ(os.str(), "alpha 2\nzeta 1\n");

    // Histograms append derived lines (mean/percentiles) after the
    // counters.
    s.histogram("lat", 8).record(2, 3);
    std::ostringstream os2;
    s.dump(os2);
    EXPECT_EQ(os2.str(), "alpha 2\nzeta 1\n"
                         "lat.samples 3\nlat.mean 2\n"
                         "lat.p50 2\nlat.p95 2\n");
}

TEST(Stats, DumpJsonMatchesTextDump)
{
    StatSet s;
    s.inc("alpha", 2);
    s.set("zeta", 7);
    Histogram &h = s.histogram("lat", 8);
    h.record(1, 2);
    h.record(3, 2);

    JsonWriter jw;
    s.dumpJson(jw);
    EXPECT_EQ(jw.str(),
              "{\n"
              "  \"alpha\": 2,\n"
              "  \"zeta\": 7,\n"
              "  \"lat\": {\n"
              "    \"samples\": 4,\n"
              "    \"mean\": 2.000000,\n"
              "    \"p50\": 1,\n"
              "    \"p95\": 3,\n"
              "    \"max\": 3\n"
              "  }\n"
              "}");
}

// --------------------------------------------------------------------
// byte memory
// --------------------------------------------------------------------

TEST(ByteMemory, UninitializedReadsZero)
{
    ByteMemory m;
    EXPECT_EQ(m.read(0x123456, 8), 0u);
    EXPECT_EQ(m.residentPages(), 0u);
}

TEST(ByteMemory, LittleEndianRoundTrip)
{
    ByteMemory m;
    m.write(0x1000, 0x1122334455667788ull, 8);
    EXPECT_EQ(m.read(0x1000, 8), 0x1122334455667788ull);
    EXPECT_EQ(m.read(0x1000, 1), 0x88u);
    EXPECT_EQ(m.read(0x1000, 2), 0x7788u);
    EXPECT_EQ(m.read(0x1000, 4), 0x55667788u);
    EXPECT_EQ(m.readByte(0x1007), 0x11u);
}

TEST(ByteMemory, PartialWriteMasksValue)
{
    ByteMemory m;
    m.write(0x2000, 0xffffffffffffffffull, 8);
    m.write(0x2000, 0xaabb, 2);
    EXPECT_EQ(m.read(0x2000, 8), 0xffffffffffffaabbull);
}

TEST(ByteMemory, CrossPageAccess)
{
    ByteMemory m;
    const uint64_t addr = ByteMemory::kPageBytes - 4;
    m.write(addr, 0x0123456789abcdefull, 8);
    EXPECT_EQ(m.read(addr, 8), 0x0123456789abcdefull);
    EXPECT_EQ(m.residentPages(), 2u);
}

TEST(ByteMemory, BlockOps)
{
    ByteMemory m;
    const uint8_t data[5] = {1, 2, 3, 4, 5};
    m.writeBlock(0x3000, data, 5);
    uint8_t out[5] = {};
    m.readBlock(0x3000, out, 5);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(out[i], data[i]);
}

// --------------------------------------------------------------------
// logging
// --------------------------------------------------------------------

TEST(Logging, FatalThrows)
{
    EXPECT_THROW(SPT_FATAL("boom"), FatalError);
    EXPECT_THROW(SPT_PANIC("bug"), PanicError);
    EXPECT_THROW(SPT_ASSERT(1 == 2, "nope"), PanicError);
    EXPECT_NO_THROW(SPT_ASSERT(1 == 1, "fine"));
}

TEST(Logging, LevelsParseAndRoundTrip)
{
    EXPECT_EQ(parseLogLevel("debug"), LogLevel::kDebug);
    EXPECT_EQ(parseLogLevel("info"), LogLevel::kInfo);
    EXPECT_EQ(parseLogLevel("warn"), LogLevel::kWarn);
    EXPECT_THROW(parseLogLevel("verbose"), FatalError);

    const LogLevel before = logLevel();
    setLogLevel(LogLevel::kWarn);
    EXPECT_EQ(logLevel(), LogLevel::kWarn);
    setLogLevel(before);

    const bool ts = logTimestamps();
    setLogTimestamps(!ts);
    EXPECT_EQ(logTimestamps(), !ts);
    setLogTimestamps(ts);
}

TEST(Logging, MonotonicSecondsAdvances)
{
    const double a = logMonotonicSeconds();
    const double b = logMonotonicSeconds();
    EXPECT_GE(a, 0.0);
    EXPECT_GE(b, a);
}

} // namespace
} // namespace spt
