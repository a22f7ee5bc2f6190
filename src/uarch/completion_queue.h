/**
 * @file
 * The core's completion queue: a calendar of per-cycle buckets.
 *
 * Events due in the next kBuckets cycles go to the bucket of their
 * cycle, appended in push order; a bitmap of non-empty buckets
 * answers "when is the next event" (fast-forward's wake query) with
 * one word per 64 buckets. Events past that horizon, or due at or
 * before the last drained cycle, wait in a side list sorted by cycle
 * (push order within a cycle). drain() pops in (cycle, push) order —
 * the order the multimap it replaces gave — because a side-list
 * event of cycle c was always pushed before any bucket event of c:
 * a bucket event of c is pushed only once c is within the horizon,
 * and from then on every push for c goes to the bucket.
 */

#ifndef SPT_UARCH_COMPLETION_QUEUE_H
#define SPT_UARCH_COMPLETION_QUEUE_H

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "uarch/dyn_inst.h"

namespace spt {

class CompletionQueue
{
  public:
    static constexpr uint64_t kNever =
        std::numeric_limits<uint64_t>::max();

    bool empty() const { return size_ == 0; }

    /** Sizes every bucket for @p events, so that a run whose cycles
     *  complete at most that many events each never allocates. */
    void
    reserve(std::size_t events)
    {
        for (std::vector<InstRef> &b : ring_)
            b.reserve(events);
    }

    /** Schedules @p ref to complete in cycle @p when. */
    void
    push(uint64_t when, InstRef ref)
    {
        ++size_;
        if (when > now_ && when - now_ <= kBuckets) {
            const std::size_t b = when % kBuckets;
            ring_[b].push_back(ref);
            occupied_[b / 64] |= uint64_t{1} << (b % 64);
            return;
        }
        const auto it = std::upper_bound(
            side_.begin(), side_.end(), when,
            [](uint64_t w, const Timed &t) { return w < t.when; });
        side_.insert(it, Timed{when, ref});
    }

    /** Cycle of the earliest pending event (stale ones included);
     *  kNever when empty. */
    uint64_t
    nextCycle() const
    {
        const uint64_t side = side_.empty() ? kNever : side_.front().when;
        return std::min(side, nextRingCycle());
    }

    /** Pops every event due at or before @p now in (cycle, push)
     *  order and passes it to @p fn, which must not push. */
    template <typename Fn>
    void
    drain(uint64_t now, Fn &&fn)
    {
        for (;;) {
            const uint64_t ring = nextRingCycle();
            const uint64_t side =
                side_.empty() ? kNever : side_.front().when;
            const uint64_t t = std::min(ring, side);
            if (t > now)
                break;
            std::size_t n = 0;
            while (n < side_.size() && side_[n].when == t)
                fn(side_[n++].ref);
            side_.erase(side_.begin(),
                        side_.begin() + static_cast<std::ptrdiff_t>(n));
            size_ -= n;
            if (ring == t) {
                const std::size_t b = t % kBuckets;
                for (const InstRef &ref : ring_[b])
                    fn(ref);
                size_ -= ring_[b].size();
                ring_[b].clear();
                occupied_[b / 64] &= ~(uint64_t{1} << (b % 64));
            }
        }
        now_ = std::max(now_, now);
    }

  private:
    /** Horizon in cycles; a power of two above the usual latencies
     *  (DRAM misses included) so the side list stays rare. */
    static constexpr std::size_t kBuckets = 256;

    struct Timed {
        uint64_t when;
        InstRef ref;
    };

    /** ring_[c % kBuckets] holds the events of cycle c, for c in
     *  (now_, now_ + kBuckets]. */
    std::array<std::vector<InstRef>, kBuckets> ring_;
    std::array<uint64_t, kBuckets / 64> occupied_{};
    std::vector<Timed> side_;
    uint64_t now_ = 0; ///< last drained cycle
    std::size_t size_ = 0;

    /** First occupied bucket at or after @p from and before @p to,
     *  or kBuckets. */
    std::size_t
    firstOccupied(std::size_t from, std::size_t to) const
    {
        for (std::size_t w = from / 64; w * 64 < to; ++w) {
            uint64_t bits = occupied_[w];
            if (w == from / 64)
                bits &= ~uint64_t{0} << (from % 64);
            if (bits != 0) {
                const std::size_t b =
                    w * 64 + static_cast<std::size_t>(
                                 std::countr_zero(bits));
                return b < to ? b : kBuckets;
            }
        }
        return kBuckets;
    }

    uint64_t
    nextRingCycle() const
    {
        const std::size_t start = (now_ + 1) % kBuckets;
        std::size_t b = firstOccupied(start, kBuckets);
        if (b == kBuckets)
            b = firstOccupied(0, start);
        if (b == kBuckets)
            return kNever;
        return now_ + 1 + (b + kBuckets - start) % kBuckets;
    }
};

} // namespace spt

#endif // SPT_UARCH_COMPLETION_QUEUE_H
