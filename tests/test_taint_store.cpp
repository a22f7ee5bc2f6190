/**
 * @file
 * Tests for the memory data-taint stores (Sections 6.8 / 7.5):
 * the shadow L1 mirror (fill/evict semantics driven by the real
 * cache's observer hooks), the idealized shadow memory, and the
 * always-tainted null store. Besides the hand-written cases, a
 * seeded randomized test drives both shadows against a per-byte
 * std::map reference model.
 */

#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
#include "core/taint_store.h"

namespace spt {
namespace {

TEST(NullTaintStore, AlwaysTainted)
{
    NullTaintStore s;
    EXPECT_EQ(s.readTaint(0x1000, 1), 0x01);
    EXPECT_EQ(s.readTaint(0x1000, 4), 0x0f);
    EXPECT_EQ(s.readTaint(0x1000, 8), 0xff);
    s.clearTaint(0x1000, 8);
    s.writeTaint(0x1000, 8, 0x00);
    EXPECT_EQ(s.readTaint(0x1000, 8), 0xff);
}

class ShadowL1Test : public ::testing::Test
{
  protected:
    SetAssocCache l1d_{CacheParams{"l1d", 32 * 1024, 64, 8, 2}};
    ShadowL1 shadow_{l1d_};
};

TEST_F(ShadowL1Test, NonResidentLinesAreTainted)
{
    EXPECT_EQ(shadow_.readTaint(0x4000, 8), 0xff);
}

TEST_F(ShadowL1Test, FreshFillIsFullyTainted)
{
    l1d_.fill(0x4000, MesiState::kExclusive);
    EXPECT_EQ(shadow_.readTaint(0x4000, 8), 0xff);
    EXPECT_EQ(shadow_.readTaint(0x4000 + 56, 8), 0xff);
}

TEST_F(ShadowL1Test, ClearAndWriteTaint)
{
    l1d_.fill(0x4000, MesiState::kExclusive);
    shadow_.clearTaint(0x4000, 8);
    EXPECT_EQ(shadow_.readTaint(0x4000, 8), 0x00);
    // Neighboring bytes in the line keep their taint.
    EXPECT_EQ(shadow_.readTaint(0x4008, 8), 0xff);
    // A store with a partially tainted value overwrites per byte.
    shadow_.writeTaint(0x4000, 4, 0x05);
    EXPECT_EQ(shadow_.readTaint(0x4000, 4), 0x05);
    EXPECT_EQ(shadow_.readTaint(0x4000, 8), 0x05);
}

TEST_F(ShadowL1Test, EvictionRestoresTaint)
{
    l1d_.fill(0x4000, MesiState::kExclusive);
    shadow_.clearTaint(0x4000, 64);
    EXPECT_EQ(shadow_.readTaint(0x4000, 8), 0x00);
    l1d_.invalidate(0x4000);
    EXPECT_EQ(shadow_.readTaint(0x4000, 8), 0xff);
    // Refill: tainted again (taint was lost with the line).
    l1d_.fill(0x4000, MesiState::kExclusive);
    EXPECT_EQ(shadow_.readTaint(0x4000, 8), 0xff);
}

TEST_F(ShadowL1Test, ConflictEvictionViaLru)
{
    // Fill one set beyond capacity; the shadow entry is recycled
    // and the evicted line's cleared taint must not leak into the
    // new occupant.
    const uint64_t set_stride = 64ull * l1d_.numSets();
    l1d_.fill(0x0, MesiState::kExclusive);
    shadow_.clearTaint(0x0, 64);
    for (unsigned w = 1; w <= 8; ++w)
        l1d_.fill(w * set_stride, MesiState::kExclusive);
    EXPECT_FALSE(l1d_.contains(0x0));
    EXPECT_EQ(shadow_.readTaint(0x0, 8), 0xff);
    EXPECT_EQ(shadow_.readTaint(8 * set_stride, 8), 0xff);
}

TEST_F(ShadowL1Test, LineStraddleIsConservative)
{
    l1d_.fill(0x4000, MesiState::kExclusive);
    shadow_.clearTaint(0x4038, 8); // last 8 bytes of the line
    // An 8-byte read starting 4 bytes before the line end straddles
    // into the next (non-resident) line: tail bytes stay tainted.
    const uint8_t t = shadow_.readTaint(0x403c, 8);
    EXPECT_EQ(t & 0x0f, 0x00); // first 4 bytes clean
    EXPECT_EQ(t & 0xf0, 0xf0); // straddled bytes tainted
}

TEST(ShadowMemory, DefaultsTaintedAndPersists)
{
    ShadowMemory s;
    EXPECT_EQ(s.readTaint(0x123456, 8), 0xff);
    s.clearTaint(0x123456, 4);
    EXPECT_EQ(s.readTaint(0x123456, 8), 0xf0);
    // Unlike the shadow L1, taint state survives any cache churn.
    EXPECT_EQ(s.residentPages(), 1u);
    s.writeTaint(0x123456, 4, 0x0a);
    EXPECT_EQ(s.readTaint(0x123456, 4), 0x0a);
}

TEST(ShadowMemory, CrossPageClear)
{
    ShadowMemory s;
    const uint64_t addr = ShadowMemory::kPageBytes - 4;
    s.clearTaint(addr, 8);
    EXPECT_EQ(s.readTaint(addr, 8), 0x00);
    EXPECT_EQ(s.residentPages(), 2u);
}

TEST(ShadowMemory, WriteTaintOverwritesEveryByte)
{
    ShadowMemory s;
    s.clearTaint(0x2000, 8);
    s.writeTaint(0x2000, 8, 0xa5);
    EXPECT_EQ(s.readTaint(0x2000, 8), 0xa5);
    // Re-tainting every byte leaves the page resident but tainted.
    s.writeTaint(0x2000, 8, 0xff);
    EXPECT_EQ(s.readTaint(0x2000, 8), 0xff);
    // A write that taints bytes of an absent page allocates nothing.
    s.writeTaint(0x9000, 8, 0xff);
    EXPECT_EQ(s.residentPages(), 1u);
}

// --------------------------------------------------------------------
// Randomized comparison against a per-byte reference model
// --------------------------------------------------------------------

/** Per-byte taint of memory; an absent byte is tainted. */
using ByteModel = std::map<uint64_t, bool>;

uint8_t
modelRead(const ByteModel &m, uint64_t addr, unsigned bytes)
{
    uint8_t out = 0;
    for (unsigned i = 0; i < bytes; ++i) {
        const auto it = m.find(addr + i);
        if (it == m.end() || it->second)
            out |= uint8_t{1} << i;
    }
    return out;
}

void
modelForgetLine(ByteModel &m, uint64_t line, unsigned line_bytes)
{
    m.erase(m.lower_bound(line), m.lower_bound(line + line_bytes));
}

TEST(TaintStoreModel, ShadowL1MatchesPerByteModel)
{
    SetAssocCache l1d{CacheParams{"l1d", 32 * 1024, 64, 8, 2}};
    ShadowL1 shadow{l1d};
    constexpr unsigned kLine = 64;
    const uint64_t set_stride = uint64_t{kLine} * l1d.numSets();
    // Tracked bytes of resident lines only: a line that leaves the
    // L1D loses its taint state (Section 7.5).
    ByteModel model;
    Rng rng(0x7a1e57);
    // Twelve candidate lines in each of two sets: more than the
    // eight ways, so fills keep evicting by conflict.
    auto pickLine = [&] {
        return rng.nextBelow(2) * kLine +
               rng.nextBelow(12) * set_stride;
    };

    for (int step = 0; step < 20000; ++step) {
        const uint64_t line = pickLine();
        const uint64_t addr = line + rng.nextBelow(kLine);
        const unsigned bytes = 1 + static_cast<unsigned>(rng.nextBelow(8));
        // Bytes past the line end, and lines not resident, are not
        // tracked.
        auto track = [&](uint8_t taint) {
            if (!l1d.contains(addr))
                return;
            for (unsigned i = 0; i < bytes; ++i)
                if (l1d.lineAddr(addr + i) == line)
                    model[addr + i] = (taint >> i) & 1;
        };
        const uint64_t op = rng.nextBelow(10);
        if (op < 3) {
            l1d.fill(line, MesiState::kExclusive);
        } else if (op == 3) {
            l1d.invalidate(line);
        } else if (op == 4) {
            shadow.clearTaint(addr, bytes);
            track(0);
        } else {
            const uint8_t taint = static_cast<uint8_t>(rng.next());
            shadow.writeTaint(addr, bytes, taint);
            track(taint);
        }
        // Drop the state of every line the last operation evicted.
        for (auto it = model.begin(); it != model.end();) {
            const uint64_t l = l1d.lineAddr(it->first);
            if (l1d.contains(l)) {
                ++it;
                continue;
            }
            modelForgetLine(model, l, kLine);
            it = model.lower_bound(l + kLine);
        }

        // Resident bytes read from the model; the rest (a
        // non-resident line, or the tail of a straddling access)
        // read as tainted.
        const uint64_t rline = pickLine();
        const uint64_t raddr = rline + rng.nextBelow(kLine);
        const unsigned rbytes =
            1 + static_cast<unsigned>(rng.nextBelow(8));
        uint8_t want = modelRead(model, raddr, rbytes);
        for (unsigned i = 0; i < rbytes; ++i)
            if (!l1d.contains(raddr) ||
                l1d.lineAddr(raddr + i) != rline)
                want |= uint8_t{1} << i;
        ASSERT_EQ(shadow.readTaint(raddr, rbytes), want)
            << "step " << step << " addr 0x" << std::hex << raddr
            << " bytes " << std::dec << rbytes;
    }
    EXPECT_GT(shadow.stats().get("shadow_l1.evictions"), 0u)
        << "no eviction reached the shadow: the test is vacuous";
}

TEST(TaintStoreModel, ShadowMemoryMatchesPerByteModel)
{
    ShadowMemory shadow;
    ByteModel model;
    Rng rng(0x5ad0);
    // Two pages plus a straddle window across their boundary.
    auto pickAddr = [&] {
        return ShadowMemory::kPageBytes - 64 + rng.nextBelow(128) +
               rng.nextBelow(2) * ShadowMemory::kPageBytes;
    };
    for (int step = 0; step < 20000; ++step) {
        const uint64_t addr = pickAddr();
        const unsigned bytes = 1 + static_cast<unsigned>(rng.nextBelow(8));
        if (rng.nextBool(0.3)) {
            shadow.clearTaint(addr, bytes);
            for (unsigned i = 0; i < bytes; ++i)
                model[addr + i] = false;
        } else {
            const uint8_t taint = static_cast<uint8_t>(rng.next());
            shadow.writeTaint(addr, bytes, taint);
            for (unsigned i = 0; i < bytes; ++i)
                model[addr + i] = (taint >> i) & 1;
        }
        const uint64_t raddr = pickAddr();
        const unsigned rbytes =
            1 + static_cast<unsigned>(rng.nextBelow(8));
        ASSERT_EQ(shadow.readTaint(raddr, rbytes),
                  modelRead(model, raddr, rbytes))
            << "step " << step << " addr 0x" << std::hex << raddr;
    }
    EXPECT_EQ(shadow.residentPages(), 3u);
}

} // namespace
} // namespace spt
