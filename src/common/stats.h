/**
 * @file
 * Lightweight statistics registry: named scalar counters and
 * histograms, registered per simulated component and dumped at the
 * end of simulation (the software analogue of gem5's stats.txt).
 */

#ifndef SPT_COMMON_STATS_H
#define SPT_COMMON_STATS_H

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace spt {

class JsonWriter;

/** A simple bucketed histogram of non-negative integer samples. */
class Histogram
{
  public:
    /** @param num_buckets bucket i < num_buckets-1 holds exactly the
     *  samples of value i; the last bucket is the overflow bucket,
     *  holding every sample of value >= num_buckets-1. */
    explicit Histogram(size_t num_buckets = 16);

    void record(uint64_t value, uint64_t count = 1);

    uint64_t samples() const { return samples_; }
    uint64_t bucket(size_t i) const { return buckets_.at(i); }
    size_t numBuckets() const { return buckets_.size(); }
    /** Largest value recorded so far (0 if no samples). */
    uint64_t maxSample() const { return max_; }
    /** Exact sum of all recorded values (the Prometheus exporter's
     *  `_sum` series; mean() is sum()/samples()). */
    uint64_t sum() const { return sum_; }
    /** Arithmetic mean (0.0 if no samples — the dump paths derive
     *  mean/p50/p95 for never-recorded histograms, so every derived
     *  statistic is defined on the empty histogram and never
     *  divides by the zero sample count; pinned in tests). */
    double mean() const;

    /** Fraction of samples with value <= v (cumulative). Exact for
     *  v < num_buckets-1. In the overflow range the per-value
     *  information is gone: the overflow bucket is included only
     *  once v covers every recorded sample (v >= maxSample()), so
     *  the result is exact at both ends and a lower bound in
     *  between — never an overcount. */
    double cdfAt(uint64_t v) const;

    /** Smallest value v with cdfAt(v) >= p (the inverse of cdfAt,
     *  so the two are consistent by construction): exact below the
     *  overflow bucket; any percentile landing in the overflow range
     *  clamps to maxSample(), the only value there with a known
     *  cdf. @p p is clamped to (0, 1]; returns 0 with no samples. */
    uint64_t percentile(double p) const;

    void reset();

  private:
    friend class Snapshotter;  // checkpoint wire format (sim/snapshot)
    friend class ResultCache;  // result-record wire format
                               // (sim/result_cache)

    std::vector<uint64_t> buckets_;
    uint64_t samples_ = 0;
    uint64_t sum_ = 0;
    uint64_t max_ = 0;
};

/** Flat registry of named counters and histograms.
 *
 *  Names are interned into slots: a component resolves each name
 *  once (counter(), histogramHandle()) and its hot path then bumps
 *  the slot by index, with no string built or looked up. A slot that
 *  was registered but never written stays invisible — counters(),
 *  dump() and dumpJson() list exactly the names that were written,
 *  sorted by name, as if the registry were a plain name map. Name
 *  lookups are linear scans: a set holds a few dozen names, and
 *  only registration and cold paths look names up. */
class StatSet
{
  public:
    /** An interned counter name: a slot index valid in the StatSet
     *  that issued it, across reset(), snapshot restore and being
     *  assigned to, and in any copy of it. */
    class Counter
    {
        friend class StatSet;
        uint32_t slot_ = 0;
    };

    /** An interned histogram name plus its bucket count. */
    class HistogramHandle
    {
        friend class StatSet;
        uint32_t slot_ = 0;
        uint32_t num_buckets_ = 0;
    };

    StatSet() = default;
    StatSet(const StatSet &) = default;
    /** Copies @p other's contents by name into this set's slots, so
     *  the handles this set issued stay valid. @p other's handles
     *  work here too when this set's names are a prefix of
     *  @p other's (e.g. when this set was empty). */
    StatSet &operator=(const StatSet &other);

    /** Interns @p name as a counter slot without creating the
     *  counter: it appears only once written. */
    Counter counter(std::string_view name);

    /** Interns @p name as a histogram slot of @p num_buckets buckets
     *  (see histogram()), without creating the histogram. */
    HistogramHandle histogramHandle(std::string_view name,
                                    size_t num_buckets = 16);

    /** Increment a counter, creating it on first use (also when
     *  @p by is 0). */
    void
    inc(Counter c, uint64_t by = 1)
    {
        Slot &s = slots_[c.slot_];
        s.value += by;
        s.live = true;
    }
    void inc(const std::string &name, uint64_t by = 1);

    /** Set a named counter to an absolute value. */
    void set(const std::string &name, uint64_t value);

    /** Reads a counter (0 if never touched). */
    uint64_t get(const std::string &name) const;

    /** Access (and lazily create) a histogram. */
    Histogram &
    histogram(HistogramHandle h)
    {
        return histogramAt(h.slot_, h.num_buckets_);
    }
    Histogram &histogram(const std::string &name,
                         size_t num_buckets = 16);

    /** The written counters, sorted by name. */
    std::map<std::string, uint64_t> counters() const;
    /** The created histograms, sorted by name. */
    std::map<std::string, Histogram> histograms() const;

    /** Forgets every counter and histogram; handles stay valid. */
    void reset();

    /** Dumps all counters in "name value" lines sorted by name;
     *  histograms add .samples/.mean/.p50/.p95 lines. */
    void dump(std::ostream &os) const;

    /** Emits the same content as dump() as one JSON object (counter
     *  fields, histograms as nested objects) at the writer's current
     *  position. */
    void dumpJson(JsonWriter &jw) const;

  private:
    struct Slot {
        uint64_t value = 0;
        bool live = false; ///< written since creation / reset()
    };
    struct HistSlot {
        Histogram hist;
        bool live = false;
    };

    /** Slot names, concatenated into one buffer so that interning a
     *  name costs no allocation of its own. */
    class NameTable
    {
      public:
        uint32_t size() const
        {
            return static_cast<uint32_t>(ends_.size());
        }
        std::string_view
        operator[](uint32_t i) const
        {
            const uint32_t begin = i == 0 ? 0 : ends_[i - 1];
            return std::string_view(chars_).substr(begin,
                                                   ends_[i] - begin);
        }
        /** Index of @p name, or size() if absent. */
        uint32_t find(std::string_view name) const;
        /** Index of @p name, appending it if absent. */
        uint32_t intern(std::string_view name);

      private:
        std::string chars_;
        std::vector<uint32_t> ends_; ///< end offset of each name
    };

    /** Slot data, indexed by handle; names_[i] names slots_[i]. */
    NameTable names_;
    std::vector<Slot> slots_;
    NameTable hist_names_;
    std::vector<HistSlot> hist_slots_;

    Histogram &histogramAt(uint32_t slot, size_t num_buckets);
};

} // namespace spt

#endif // SPT_COMMON_STATS_H
