#include "common/stats.h"

#include <cmath>

#include "common/json.h"
#include "common/logging.h"

namespace spt {

namespace {

/** Capacity a StatSet's name table starts with. */
constexpr uint32_t kInitialNames = 16;

} // namespace

Histogram::Histogram(size_t num_buckets)
    : buckets_(num_buckets, 0)
{
    SPT_ASSERT(num_buckets > 0, "histogram needs at least one bucket");
}

void
Histogram::record(uint64_t value, uint64_t count)
{
    // Bucket i < N-1 holds exactly value i; the last bucket
    // overflows, holding every value >= N-1.
    const size_t idx =
        value >= buckets_.size() - 1 ? buckets_.size() - 1
                                     : static_cast<size_t>(value);
    buckets_[idx] += count;
    samples_ += count;
    sum_ += value * count;
    if (value > max_)
        max_ = value;
}

double
Histogram::mean() const
{
    return samples_ == 0 ? 0.0
                         : static_cast<double>(sum_) /
                               static_cast<double>(samples_);
}

double
Histogram::cdfAt(uint64_t v) const
{
    if (samples_ == 0)
        return 0.0;
    uint64_t below = 0;
    if (v < buckets_.size() - 1) {
        // Exact: bucket i holds only samples of value i.
        for (size_t i = 0; i <= static_cast<size_t>(v); ++i)
            below += buckets_[i];
    } else {
        // The overflow bucket mixes values >= N-1; counting it for
        // any v it only partially covers would overcount (the old
        // off-by-one: cdfAt(N-1) returned 1.0 even with samples
        // beyond N-1). Include it only once v covers the largest
        // recorded sample.
        for (size_t i = 0; i < buckets_.size(); ++i)
            below += buckets_[i];
        if (v < max_)
            below -= buckets_.back();
    }
    return static_cast<double>(below) / static_cast<double>(samples_);
}

uint64_t
Histogram::percentile(double p) const
{
    if (samples_ == 0)
        return 0;
    if (p > 1.0)
        p = 1.0;
    // The target rank: the smallest count of samples whose fraction
    // reaches p. ceil() keeps percentile consistent with cdfAt
    // (cdfAt(percentile(p)) >= p) for any p in (0, 1].
    uint64_t rank = static_cast<uint64_t>(
        std::ceil(p * static_cast<double>(samples_)));
    if (rank < 1)
        rank = 1;
    if (rank > samples_)
        rank = samples_;
    uint64_t below = 0;
    for (size_t i = 0; i + 1 < buckets_.size(); ++i) {
        below += buckets_[i];
        if (below >= rank)
            return i; // exact: bucket i holds only value i
    }
    // The rank lands in the overflow bucket, where per-value counts
    // are gone; maxSample() is the only value whose cdf is known
    // (1.0), so clamp there — mirroring cdfAt's overflow handling.
    return max_;
}

void
Histogram::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    samples_ = 0;
    sum_ = 0;
    max_ = 0;
}

StatSet &
StatSet::operator=(const StatSet &other)
{
    if (this == &other)
        return *this;
    // Merge by name in other's slot order: this set's own slots keep
    // their indices, and a registry that is a prefix of other's
    // (e.g. an empty one) ends up with identical indices.
    reset();
    for (uint32_t i = 0; i < other.slots_.size(); ++i) {
        const uint32_t slot = names_.intern(other.names_[i]);
        slots_.resize(names_.size());
        slots_[slot] = other.slots_[i];
    }
    for (uint32_t i = 0; i < other.hist_slots_.size(); ++i) {
        const uint32_t slot = hist_names_.intern(other.hist_names_[i]);
        hist_slots_.resize(hist_names_.size());
        hist_slots_[slot] = other.hist_slots_[i];
    }
    return *this;
}

uint32_t
StatSet::NameTable::find(std::string_view name) const
{
    uint32_t begin = 0;
    for (uint32_t i = 0; i < ends_.size(); ++i) {
        const uint32_t end = ends_[i];
        if (end - begin == name.size() &&
            chars_.compare(begin, name.size(), name) == 0)
            return i;
        begin = end;
    }
    return size();
}

uint32_t
StatSet::NameTable::intern(std::string_view name)
{
    const uint32_t i = find(name);
    if (i == size()) {
        if (ends_.empty()) {
            // Components register a few dozen names at construction;
            // sizing up front (names average ~24 characters) skips
            // most regrowth.
            ends_.reserve(kInitialNames);
            chars_.reserve(kInitialNames * 24);
        }
        chars_.append(name);
        ends_.push_back(static_cast<uint32_t>(chars_.size()));
    }
    return i;
}

StatSet::Counter
StatSet::counter(std::string_view name)
{
    Counter c;
    c.slot_ = names_.intern(name);
    if (slots_.empty())
        slots_.reserve(kInitialNames);
    slots_.resize(names_.size());
    return c;
}

StatSet::HistogramHandle
StatSet::histogramHandle(std::string_view name, size_t num_buckets)
{
    HistogramHandle h;
    h.slot_ = hist_names_.intern(name);
    h.num_buckets_ = static_cast<uint32_t>(num_buckets);
    hist_slots_.resize(hist_names_.size());
    return h;
}

void
StatSet::inc(const std::string &name, uint64_t by)
{
    inc(counter(name), by);
}

void
StatSet::set(const std::string &name, uint64_t value)
{
    Slot &s = slots_[counter(name).slot_];
    s.value = value;
    s.live = true;
}

uint64_t
StatSet::get(const std::string &name) const
{
    const uint32_t i = names_.find(name);
    return i == names_.size() ? 0 : slots_[i].value;
}

Histogram &
StatSet::histogramAt(uint32_t slot, size_t num_buckets)
{
    HistSlot &s = hist_slots_[slot];
    if (!s.live) {
        // Created on first access, with the bucket count of that
        // access (a later access's count is ignored).
        if (s.hist.numBuckets() != num_buckets)
            s.hist = Histogram(num_buckets);
        s.live = true;
    }
    return s.hist;
}

Histogram &
StatSet::histogram(const std::string &name, size_t num_buckets)
{
    return histogram(histogramHandle(name, num_buckets));
}

std::map<std::string, uint64_t>
StatSet::counters() const
{
    std::map<std::string, uint64_t> out;
    for (uint32_t i = 0; i < slots_.size(); ++i)
        if (slots_[i].live)
            out.emplace(names_[i], slots_[i].value);
    return out;
}

std::map<std::string, Histogram>
StatSet::histograms() const
{
    std::map<std::string, Histogram> out;
    for (uint32_t i = 0; i < hist_slots_.size(); ++i)
        if (hist_slots_[i].live)
            out.emplace(hist_names_[i], hist_slots_[i].hist);
    return out;
}

void
StatSet::reset()
{
    for (Slot &s : slots_)
        s = Slot{};
    for (HistSlot &s : hist_slots_) {
        s.hist.reset();
        s.live = false;
    }
}

void
StatSet::dump(std::ostream &os) const
{
    for (const auto &[name, value] : counters())
        os << name << " " << value << "\n";
    for (const auto &[name, h] : histograms()) {
        os << name << ".samples " << h.samples() << "\n";
        os << name << ".mean " << h.mean() << "\n";
        os << name << ".p50 " << h.percentile(0.50) << "\n";
        os << name << ".p95 " << h.percentile(0.95) << "\n";
    }
}

void
StatSet::dumpJson(JsonWriter &jw) const
{
    jw.beginObject();
    for (const auto &[name, value] : counters())
        jw.field(name, value);
    for (const auto &[name, h] : histograms()) {
        jw.key(name).beginObject();
        jw.field("samples", h.samples());
        jw.field("mean", h.mean(), 6);
        jw.field("p50", h.percentile(0.50));
        jw.field("p95", h.percentile(0.95));
        jw.field("max", h.maxSample());
        jw.endObject();
    }
    jw.endObject();
}

} // namespace spt
