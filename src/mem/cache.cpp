#include "mem/cache.h"

#include "common/bit_util.h"
#include "common/logging.h"

namespace spt {

SetAssocCache::SetAssocCache(const CacheParams &params)
    : params_(params)
{
    SPT_ASSERT(isPowerOfTwo(params_.line_bytes),
               params_.name << ": line size must be a power of two");
    SPT_ASSERT(params_.size_bytes %
                   (params_.line_bytes * params_.ways) == 0,
               params_.name << ": size not divisible by way size");
    num_sets_ = static_cast<unsigned>(
        params_.size_bytes / (params_.line_bytes * params_.ways));
    SPT_ASSERT(isPowerOfTwo(num_sets_),
               params_.name << ": set count must be a power of two");
    lines_.assign(size_t{num_sets_} * params_.ways, Line{});
    read_hits_ = stats_.counter("read_hits");
    read_misses_ = stats_.counter("read_misses");
    write_hits_ = stats_.counter("write_hits");
    write_misses_ = stats_.counter("write_misses");
    evictions_ = stats_.counter("evictions");
    dirty_evictions_ = stats_.counter("dirty_evictions");
    fills_ = stats_.counter("fills");
    invalidations_ = stats_.counter("invalidations");
}

unsigned
SetAssocCache::setOf(uint64_t addr) const
{
    return static_cast<unsigned>(
        (addr / params_.line_bytes) & (num_sets_ - 1));
}

uint64_t
SetAssocCache::tagOf(uint64_t addr) const
{
    return addr / params_.line_bytes / num_sets_;
}

SetAssocCache::Line &
SetAssocCache::lineAt(unsigned set, unsigned way)
{
    return lines_[size_t{set} * params_.ways + way];
}

const SetAssocCache::Line &
SetAssocCache::lineAt(unsigned set, unsigned way) const
{
    return lines_[size_t{set} * params_.ways + way];
}

int
SetAssocCache::findWay(uint64_t addr) const
{
    const unsigned set = setOf(addr);
    const uint64_t tag = tagOf(addr);
    for (unsigned w = 0; w < params_.ways; ++w) {
        const Line &line = lineAt(set, w);
        if (line.valid && line.tag == tag)
            return static_cast<int>(w);
    }
    return -1;
}

bool
SetAssocCache::contains(uint64_t addr) const
{
    return findWay(addr) >= 0;
}

std::optional<unsigned>
SetAssocCache::wayOf(uint64_t addr) const
{
    const int w = findWay(addr);
    if (w < 0)
        return std::nullopt;
    return static_cast<unsigned>(w);
}

MesiState
SetAssocCache::state(uint64_t addr) const
{
    const int w = findWay(addr);
    return w < 0 ? MesiState::kInvalid
                 : lineAt(setOf(addr),
                          static_cast<unsigned>(w)).state;
}

bool
SetAssocCache::access(uint64_t addr, bool is_write)
{
    ++tick_;
    const int w = findWay(addr);
    if (w < 0) {
        stats_.inc(is_write ? write_misses_ : read_misses_);
        return false;
    }
    Line &line = lineAt(setOf(addr), static_cast<unsigned>(w));
    line.lru = tick_;
    if (is_write) {
        // S->M would require invalidations in a multi-agent system;
        // the single-requestor hierarchy upgrades silently. E->M is
        // always silent under MESI.
        line.state = MesiState::kModified;
    }
    stats_.inc(is_write ? write_hits_ : read_hits_);
    return true;
}

SetAssocCache::Eviction
SetAssocCache::fill(uint64_t addr, MesiState st)
{
    ++tick_;
    Eviction ev;
    const unsigned set = setOf(addr);
    int w = findWay(addr);
    if (w >= 0) {
        Line &line = lineAt(set, static_cast<unsigned>(w));
        line.lru = tick_;
        if (st == MesiState::kModified)
            line.state = MesiState::kModified;
        return ev;
    }
    // Choose a victim: an invalid way, else the LRU way.
    unsigned victim = 0;
    uint64_t oldest = ~uint64_t{0};
    for (unsigned i = 0; i < params_.ways; ++i) {
        const Line &line = lineAt(set, i);
        if (!line.valid) {
            victim = i;
            oldest = 0;
            break;
        }
        if (line.lru < oldest) {
            oldest = line.lru;
            victim = i;
        }
    }
    Line &line = lineAt(set, victim);
    if (line.valid) {
        ev.valid = true;
        ev.line_addr =
            (line.tag * num_sets_ + set) * params_.line_bytes;
        ev.dirty = line.state == MesiState::kModified;
        stats_.inc(evictions_);
        if (ev.dirty)
            stats_.inc(dirty_evictions_);
        if (observer_)
            observer_->onEvict(ev.line_addr, set, victim);
    }
    line.valid = true;
    line.tag = tagOf(addr);
    line.lru = tick_;
    line.state = st;
    stats_.inc(fills_);
    if (observer_)
        observer_->onFill(lineAddr(addr), set, victim);
    return ev;
}

std::optional<bool>
SetAssocCache::invalidate(uint64_t addr)
{
    const int w = findWay(addr);
    if (w < 0)
        return std::nullopt;
    const unsigned set = setOf(addr);
    Line &line = lineAt(set, static_cast<unsigned>(w));
    const bool dirty = line.state == MesiState::kModified;
    line.valid = false;
    line.state = MesiState::kInvalid;
    stats_.inc(invalidations_);
    if (observer_)
        observer_->onEvict(lineAddr(addr), set,
                           static_cast<unsigned>(w));
    return dirty;
}

} // namespace spt
