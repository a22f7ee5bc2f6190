/**
 * @file
 * Out-of-order core tests: recovery from control mispredictions,
 * store-to-load forwarding correctness, memory-order violations and
 * store-set learning, resource accounting (no physical-register
 * leaks), and architectural-state correctness after drain.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/engine_factory.h"
#include "isa/assembler.h"
#include "isa/functional_cpu.h"
#include "uarch/completion_queue.h"
#include "uarch/core.h"
#include "uarch/ring.h"
#include "uarch/store_set.h"

namespace spt {
namespace {

std::unique_ptr<Core>
makeUnsafeCore(const Program &p, CoreParams cp = CoreParams{})
{
    EngineConfig ec;
    ec.scheme = ProtectionScheme::kUnsafeBaseline;
    // Micro-tests need deterministic backend timing windows; cold
    // I-cache misses would smear them out.
    cp.perfect_icache = true;
    return std::make_unique<Core>(p, cp, MemorySystemParams{},
                                  makeEngine(ec));
}

void
expectMatchesReference(Core &core, const Program &p)
{
    FunctionalCpu cpu(p);
    cpu.run(10'000'000);
    for (unsigned r = 1; r < kNumArchRegs; ++r)
        EXPECT_EQ(core.archReg(r), cpu.reg(r)) << "x" << r;
}

TEST(CoreUarch, DataDependentBranchesRecoverCorrectly)
{
    // Unpredictable branch directions driven by an LCG: exercises
    // squash/recovery heavily.
    const Program p = assemble(R"(
    li   s0, 12345
    li   s1, 6364136223846793005
    li   s2, 200
    li   a7, 0
loop:
    mul  s0, s0, s1
    addi s0, s0, 1442695040888963407
    srli t0, s0, 60
    andi t1, t0, 1
    beqz t1, even
    addi a7, a7, 3
    j    next
even:
    addi a7, a7, 5
next:
    addi s2, s2, -1
    bnez s2, loop
    halt
)");
    auto core = makeUnsafeCore(p);
    const auto r = core->run(1'000'000);
    EXPECT_TRUE(r.halted);
    EXPECT_GT(core->stats().get("branch.mispredicts"), 10u);
    expectMatchesReference(*core, p);
}

TEST(CoreUarch, StoreToLoadForwardingValueCorrect)
{
    // A load immediately after an aliasing store must observe the
    // store's data (forwarded, since the store hasn't committed).
    const Program p = assemble(R"(
    li   t0, 0x200000
    li   t1, 0xabcdef
    sd   t1, 0(t0)
    ld   t2, 0(t0)
    addi a7, t2, 1
    halt
)");
    auto core = makeUnsafeCore(p);
    core->run(100'000);
    EXPECT_EQ(core->archReg(17), 0xabcdf0u);
    EXPECT_GT(core->stats().get("lsu.forwards_public"), 0u);
}

TEST(CoreUarch, SubWidthForwarding)
{
    // A byte load fully covered by a wider store forwards the right
    // slice, including a non-zero offset.
    const Program p = assemble(R"(
    li   t0, 0x200000
    li   t1, 0x1122334455667788
    sd   t1, 0(t0)
    lbu  t2, 2(t0)
    lhu  t3, 4(t0)
    slli t4, t3, 8
    add  a7, t2, t4
    halt
)");
    auto core = makeUnsafeCore(p);
    core->run(100'000);
    // byte 2 = 0x66, halfword at 4 = 0x3344.
    EXPECT_EQ(core->archReg(17), 0x66u + (0x3344u << 8));
}

TEST(CoreUarch, PartialOverlapStallsButStaysCorrect)
{
    // Store writes 4 bytes; a subsequent 8-byte load overlaps only
    // partially and must wait for the store to drain.
    const Program p = assemble(R"(
    li   t0, 0x200000
    li   t1, 0x99999999
    sd   x0, 0(t0)
    sw   t1, 4(t0)
    ld   a7, 0(t0)
    halt
)");
    auto core = makeUnsafeCore(p);
    core->run(100'000);
    EXPECT_EQ(core->archReg(17), 0x9999999900000000ull);
    expectMatchesReference(*core, p);
}

TEST(CoreUarch, MemoryDependenceViolationSquashesAndRecovers)
{
    // The store's address arrives late (div chain); the dependent
    // load speculates past it, reads stale data, and must be
    // squashed and re-executed when the alias is discovered.
    const Program p = assemble(R"(
    li   t0, 0x200000
    li   t1, 77
    sd   t1, 0(t0)
    li   t2, 0x400000
    li   t3, 2
    div  t4, t2, t3
    div  t4, t4, t3
    mul  t4, t4, t3
    mul  t4, t4, t3      # t4 = 0x400000 again
    li   t5, -2097152
    add  t4, t4, t5      # t4 = 0x200000, late-resolving alias
    li   t6, 123
    sd   t6, 0(t4)
    ld   a7, 0(t0)       # must see 123, not 77
    halt
)");
    auto core = makeUnsafeCore(p);
    core->run(100'000);
    EXPECT_EQ(core->archReg(17), 123u);
    EXPECT_GT(core->stats().get("lsu.violations_detected"), 0u);
    EXPECT_GT(core->stats().get("squash.mem_violation"), 0u);
}

TEST(CoreUarch, StoreSetPredictorLearnsDependence)
{
    StoreSetPredictor ssp;
    EXPECT_FALSE(ssp.loadRenamed(0x10).has_value());
    ssp.trainViolation(0x10, 0x20);
    ssp.storeRenamed(0x20, 99);
    const auto wait = ssp.loadRenamed(0x10);
    ASSERT_TRUE(wait.has_value());
    EXPECT_EQ(*wait, 99u);
    ssp.storeRemoved(0x20, 99);
    EXPECT_FALSE(ssp.loadRenamed(0x10).has_value());
}

TEST(CoreUarch, StoreSetMerging)
{
    StoreSetPredictor ssp;
    ssp.trainViolation(0x10, 0x20);
    ssp.trainViolation(0x30, 0x20); // store joins both loads' set
    ssp.storeRenamed(0x20, 7);
    EXPECT_TRUE(ssp.loadRenamed(0x10).has_value());
    EXPECT_TRUE(ssp.loadRenamed(0x30).has_value());
}

TEST(CoreUarch, PhysicalRegistersDoNotLeak)
{
    const Program p = assemble(R"(
    li   s0, 500
loop:
    addi t0, s0, 1
    addi t1, t0, 2
    mul  t2, t0, t1
    addi s0, s0, -1
    bnez s0, loop
    mv   a7, t2
    halt
)");
    CoreParams cp;
    auto core = makeUnsafeCore(p, cp);
    const size_t free_before = core->physRegs().freeCount();
    core->run(1'000'000);
    // After drain, every transient allocation must have been freed;
    // the delta equals the architectural registers renamed away from
    // their initial mapping.
    const size_t free_after = core->physRegs().freeCount();
    EXPECT_LE(free_before - free_after, kNumArchRegs);
    expectMatchesReference(*core, p);
}

TEST(CoreUarch, VpIsPrefixOrderedEveryCycle)
{
    const Program p = assemble(R"(
    li   s0, 300
    li   s1, 0x100000
loop:
    andi t0, s0, 63
    slli t0, t0, 3
    add  t0, t0, s1
    ld   t1, 0(t0)
    add  a7, a7, t1
    sd   a7, 64(t0)
    addi s0, s0, -1
    bnez s0, loop
    halt
)");
    EngineConfig ec;
    ec.scheme = ProtectionScheme::kSpt;
    CoreParams cp;
    cp.attack_model = AttackModel::kFuturistic;
    Core core(p, cp, MemorySystemParams{}, makeEngine(ec));
    while (!core.halted() && core.cycle() < 100'000) {
        core.tick();
        // at_vp must be a prefix of the ROB, and taint state must be
        // monotone (checked via the prefix property here).
        bool seen_non_vp = false;
        for (const DynInstPtr &d : core.rob()) {
            if (!d->at_vp)
                seen_non_vp = true;
            else
                EXPECT_FALSE(seen_non_vp)
                    << "VP flag set behind a non-VP instruction";
        }
    }
    EXPECT_TRUE(core.halted());
}

TEST(CoreUarch, RobNeverExceedsCapacity)
{
    const Program p = assemble(R"(
    li  s0, 2000
loop:
    addi s0, s0, -1
    bnez s0, loop
    halt
)");
    CoreParams cp;
    cp.rob_size = 16;
    cp.rs_size = 8;
    auto core = makeUnsafeCore(p, cp);
    while (!core->halted() && core->cycle() < 200'000) {
        core->tick();
        EXPECT_LE(core->rob().size(), 16u);
    }
    EXPECT_TRUE(core->halted());
}

TEST(CoreUarch, IndirectJumpThroughRegister)
{
    const Program p = assemble(R"(
    .data
table:
    .quad target_a, target_b
    .text
    la   t0, table
    ld   t1, 8(t0)
    jr   t1
target_a:
    li   a7, 1
    halt
target_b:
    li   a7, 2
    halt
)");
    auto core = makeUnsafeCore(p);
    core->run(100'000);
    EXPECT_EQ(core->archReg(17), 2u);
}

TEST(CoreUarch, DeepCallChainsUseRas)
{
    // Nested calls exercise RAS push/pop and recovery.
    const Program p = assemble(R"(
    li   a0, 12
    call f
    mv   a7, a0
    halt
f:
    li   t0, 2
    blt  a0, t0, base
    addi sp, sp, -16
    sd   ra, 0(sp)
    sd   a0, 8(sp)
    addi a0, a0, -1
    call f
    ld   t1, 8(sp)
    ld   ra, 0(sp)
    addi sp, sp, 16
    add  a0, a0, t1
    ret
base:
    ret
)");
    auto core = makeUnsafeCore(p);
    const auto r = core->run(1'000'000);
    EXPECT_TRUE(r.halted);
    expectMatchesReference(*core, p);
    EXPECT_GT(core->bpu().stats().get("bpu.ras_predictions"), 5u);
}

TEST(CompletionQueue, DrainsInCycleThenPushOrderLikeAMultimap)
{
    // The calendar against the multimap it replaced: random latencies
    // inside the bucket horizon, at it, past it and at or before the
    // last drained cycle (side list), drained one cycle at a time and
    // across skipped stretches, must pop in the same (cycle, push)
    // order, and nextCycle() must always name the earliest event.
    Rng rng(7);
    CompletionQueue q;
    std::multimap<uint64_t, InstRef> ref;
    const uint64_t latencies[] = {0, 1, 2, 3, 12, 100, 255,
                                  256, 257, 300, 1000};
    uint64_t now = 0;
    uint32_t pushed = 0;
    for (int step = 0; step < 5000; ++step) {
        const unsigned n = static_cast<unsigned>(rng.nextBelow(4));
        for (unsigned i = 0; i < n; ++i) {
            const uint64_t lat = latencies[rng.nextBelow(
                sizeof latencies / sizeof latencies[0])];
            const uint64_t when =
                lat == 0 && now > 0 ? now - rng.nextBelow(2) : now + lat;
            const InstRef r{pushed % 97, ++pushed};
            q.push(when, r);
            ref.emplace(when, r);
        }
        ASSERT_EQ(q.nextCycle(), ref.empty() ? CompletionQueue::kNever
                                             : ref.begin()->first);
        now += rng.nextBelow(8) == 0 ? 1 + rng.nextBelow(400) : 1;
        std::vector<std::pair<uint32_t, SeqNum>> got, want;
        q.drain(now, [&got](InstRef r) {
            got.emplace_back(r.slot, r.seq);
        });
        while (!ref.empty() && ref.begin()->first <= now) {
            want.emplace_back(ref.begin()->second.slot,
                              ref.begin()->second.seq);
            ref.erase(ref.begin());
        }
        ASSERT_EQ(got, want) << "step " << step;
        ASSERT_EQ(q.empty(), ref.empty());
    }
}

TEST(Ring, WrapsAtCapacityAndPopsAcrossTheSeam)
{
    Ring<int> r(6); // storage rounds up to 8
    ASSERT_EQ(r.capacity(), 8u);
    for (int i = 0; i < 8; ++i)
        r.push_back(i);
    EXPECT_THROW(r.push_back(8), PanicError);
    for (int i = 0; i < 5; ++i)
        r.pop_front();
    // Full again with the front at storage slot 5: the live range
    // 5..12 straddles the seam between slots 7 and 0.
    for (int i = 8; i < 13; ++i)
        r.push_back(i);
    ASSERT_EQ(r.size(), 8u);
    EXPECT_EQ(r.front(), 5);
    EXPECT_EQ(r.back(), 12);
    std::vector<int> seen;
    for (int v : r)
        seen.push_back(v);
    EXPECT_EQ(seen, (std::vector<int>{5, 6, 7, 8, 9, 10, 11, 12}));
    for (std::size_t i = 0; i < r.size(); ++i)
        EXPECT_EQ(r[i], static_cast<int>(5 + i));
    EXPECT_EQ(r.end() - r.begin(), 8);
    EXPECT_EQ(*(r.begin() + 3), 8);
    EXPECT_EQ(*(r.end() - 1), 12);

    // pop_back back across the seam (12..8 sit in slots 4..0), then
    // pop_front across it from the other side.
    for (int i = 0; i < 5; ++i)
        r.pop_back();
    EXPECT_EQ(r.back(), 7);
    r.push_back(20); // slot 0 again
    r.pop_front();
    r.pop_front();
    r.pop_front(); // front leaves slot 7 for slot 0
    ASSERT_EQ(r.size(), 1u);
    EXPECT_EQ(r.front(), 20);
    EXPECT_EQ(r.back(), 20);
    r.clear();
    EXPECT_TRUE(r.empty());
    EXPECT_EQ(r.begin(), r.end());
}

TEST(Ring, LowerBoundOverAWrappedRange)
{
    // The ROB is searched by seq (Core::findInst) with the live range
    // anywhere in storage; every rotation must give the index a
    // sorted vector gives.
    for (int rot = 0; rot < 16; ++rot) {
        Ring<int> r(16);
        for (int i = 0; i < rot; ++i) {
            r.push_back(-1);
            r.pop_front();
        }
        std::vector<int> ref;
        for (int v = 10; v < 130; v += 10) {
            r.push_back(v);
            ref.push_back(v);
        }
        for (int key = 5; key <= 135; key += 5) {
            const auto it = std::lower_bound(r.begin(), r.end(), key);
            const auto want =
                std::lower_bound(ref.begin(), ref.end(), key);
            ASSERT_EQ(it - r.begin(), want - ref.begin())
                << "rotation " << rot << " key " << key;
        }
        const Ring<int> &cr = r;
        EXPECT_TRUE(std::is_sorted(cr.begin(), cr.end()));
    }
}

TEST(Ring, MatchesADequeUnderRandomOps)
{
    Rng rng(11);
    Ring<uint32_t> r(32);
    std::deque<uint32_t> ref;
    for (uint32_t step = 0; step < 20000; ++step) {
        const uint64_t op = rng.nextBelow(3);
        if (op == 0 && ref.size() < 32) {
            r.push_back(step);
            ref.push_back(step);
        } else if (op == 1 && !ref.empty()) {
            r.pop_front();
            ref.pop_front();
        } else if (op == 2 && !ref.empty()) {
            r.pop_back();
            ref.pop_back();
        }
        ASSERT_EQ(r.size(), ref.size());
        if (!ref.empty()) {
            ASSERT_EQ(r.front(), ref.front());
            ASSERT_EQ(r.back(), ref.back());
        }
        ASSERT_TRUE(std::equal(r.begin(), r.end(), ref.begin(),
                               ref.end()))
            << "step " << step;
    }
}

} // namespace
} // namespace spt
