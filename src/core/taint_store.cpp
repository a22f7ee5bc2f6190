#include "core/taint_store.h"

#include "common/logging.h"

namespace spt {

namespace {

uint8_t
maskForBytes(unsigned bytes)
{
    return bytes >= 8 ? 0xff
                      : static_cast<uint8_t>((1u << bytes) - 1);
}

} // namespace

// --------------------------------------------------------------------
// ShadowL1
// --------------------------------------------------------------------

ShadowL1::ShadowL1(SetAssocCache &l1d)
    : l1d_(l1d), line_bytes_(l1d.params().line_bytes),
      words_per_line_((l1d.params().line_bytes + 63) / 64)
{
    entries_.resize(size_t{l1d.numSets()} * l1d.params().ways);
    // All lines start fully tainted (bit set = tainted).
    taint_.assign(entries_.size() * words_per_line_, ~uint64_t{0});
    l1d_.setObserver(this);
    writes_ = stats_.counter("shadow_l1.writes");
    clears_ = stats_.counter("shadow_l1.clears");
    fills_ = stats_.counter("shadow_l1.fills");
    evictions_ = stats_.counter("shadow_l1.evictions");
}

ShadowL1::Entry *
ShadowL1::find(uint64_t addr)
{
    const auto way = l1d_.wayOf(addr);
    if (!way)
        return nullptr;
    Entry &e = entries_[size_t{l1d_.setOf(addr)} *
                            l1d_.params().ways +
                        *way];
    if (!e.valid || e.line_addr != l1d_.lineAddr(addr))
        return nullptr;
    return &e;
}

const ShadowL1::Entry *
ShadowL1::find(uint64_t addr) const
{
    return const_cast<ShadowL1 *>(this)->find(addr);
}

uint8_t
ShadowL1::readTaint(uint64_t addr, unsigned bytes) const
{
    const Entry *e = find(addr);
    if (!e)
        return maskForBytes(bytes); // not resident: tainted
    const uint64_t *words = lineWords(*e);
    const uint64_t off = addr - e->line_addr;
    const unsigned n = bytes < 8 ? bytes : 8;
    // Bytes of the access that stay within this line; the tail of a
    // straddling access is conservatively tainted.
    const unsigned in_line =
        off + n <= line_bytes_
            ? n
            : static_cast<unsigned>(line_bytes_ - off);
    const unsigned sh = static_cast<unsigned>(off & 63);
    uint64_t bits = words[off >> 6] >> sh;
    if (sh + in_line > 64)
        bits |= words[(off >> 6) + 1] << (64 - sh);
    uint8_t out = static_cast<uint8_t>(bits &
                                       maskForBytes(in_line));
    if (in_line < n)
        out |= static_cast<uint8_t>(maskForBytes(bytes) &
                                    ~((1u << in_line) - 1));
    return out;
}

void
ShadowL1::writeTaint(uint64_t addr, unsigned bytes,
                           uint8_t byte_taint)
{
    Entry *e = find(addr);
    if (!e)
        return; // line not resident; nothing to track
    uint64_t *words = lineWords(*e);
    for (unsigned i = 0; i < bytes && i < 8; ++i) {
        const uint64_t b = addr + i - e->line_addr;
        if (b >= line_bytes_)
            break;
        const uint64_t bit = uint64_t{1} << (b & 63);
        if ((byte_taint >> i) & 1)
            words[b >> 6] |= bit;
        else
            words[b >> 6] &= ~bit;
    }
    stats_.inc(writes_);
}

void
ShadowL1::clearTaint(uint64_t addr, unsigned bytes)
{
    writeTaint(addr, bytes, 0);
    stats_.inc(clears_);
}

void
ShadowL1::fillLine(unsigned set, unsigned way)
{
    const size_t i = size_t{set} * l1d_.params().ways + way;
    std::fill_n(taint_.begin() +
                    static_cast<std::ptrdiff_t>(i * words_per_line_),
                words_per_line_, ~uint64_t{0});
}

void
ShadowL1::onFill(uint64_t line_addr, unsigned set,
                       unsigned way)
{
    Entry &e = entries_[size_t{set} * l1d_.params().ways + way];
    e.valid = true;
    e.line_addr = line_addr;
    // A freshly filled line is fully tainted (Section 7.5).
    fillLine(set, way);
    stats_.inc(fills_);
}

void
ShadowL1::onEvict(uint64_t, unsigned set, unsigned way)
{
    Entry &e = entries_[size_t{set} * l1d_.params().ways + way];
    e.valid = false;
    fillLine(set, way);
    stats_.inc(evictions_);
}

// --------------------------------------------------------------------
// ShadowMemory
// --------------------------------------------------------------------

bool
ShadowMemory::untainted(uint64_t addr) const
{
    auto it = pages_.find(addr / kPageBytes);
    if (it == pages_.end())
        return false;
    const uint64_t b = addr % kPageBytes;
    return (it->second[b >> 6] >> (b & 63)) & 1;
}

void
ShadowMemory::setUntainted(uint64_t addr, bool clear)
{
    auto it = pages_.find(addr / kPageBytes);
    if (it == pages_.end()) {
        if (!clear)
            return; // default is tainted
        it = pages_
                 .emplace(addr / kPageBytes,
                          std::vector<uint64_t>(kPageBytes / 64, 0))
                 .first;
    }
    const uint64_t b = addr % kPageBytes;
    const uint64_t bit = uint64_t{1} << (b & 63);
    if (clear)
        it->second[b >> 6] |= bit;
    else
        it->second[b >> 6] &= ~bit;
}

uint8_t
ShadowMemory::readTaint(uint64_t addr, unsigned bytes) const
{
    uint8_t out = 0;
    for (unsigned i = 0; i < bytes && i < 8; ++i)
        if (!untainted(addr + i))
            out |= uint8_t{1} << i;
    return out;
}

void
ShadowMemory::writeTaint(uint64_t addr, unsigned bytes,
                               uint8_t byte_taint)
{
    for (unsigned i = 0; i < bytes && i < 8; ++i)
        setUntainted(addr + i, !((byte_taint >> i) & 1));
}

void
ShadowMemory::clearTaint(uint64_t addr, unsigned bytes)
{
    for (unsigned i = 0; i < bytes && i < 8; ++i)
        setUntainted(addr + i, true);
}

} // namespace spt
