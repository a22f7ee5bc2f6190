#include "probes.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "common/json.h"
#include "uarch/core.h"

namespace perfbench {

// --- host clock --------------------------------------------------------

namespace {

double g_ns_per_tick = 1.0;

uint64_t
steadyNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

uint64_t
ticksNow()
{
#if defined(__x86_64__)
    return __rdtsc();
#else
    return steadyNs();
#endif
}

void
calibrateTicks()
{
#if defined(__x86_64__)
    const uint64_t n0 = steadyNs();
    const uint64_t t0 = ticksNow();
    uint64_t n1 = n0;
    while (n1 - n0 < 50'000'000)
        n1 = steadyNs();
    const uint64_t t1 = ticksNow();
    g_ns_per_tick = static_cast<double>(n1 - n0) /
                    static_cast<double>(t1 - t0);
#endif
}

double
nsPerTick()
{
    return g_ns_per_tick;
}

// --- histogram -----------------------------------------------------------

namespace {

// Bucket i < 16 holds the value i; above that, 16 buckets split each
// octave [2^e, 2^(e+1)) evenly.
unsigned
bucketOf(uint64_t v)
{
    if (v < 16)
        return static_cast<unsigned>(v);
    const unsigned e = 63 - static_cast<unsigned>(__builtin_clzll(v));
    return (e - 3) * 16 + static_cast<unsigned>((v >> (e - 4)) & 15);
}

void
bucketRange(unsigned i, double *lo, double *width)
{
    if (i < 16) {
        *lo = i;
        *width = 1;
        return;
    }
    const unsigned e = i / 16 + 3;
    const double unit = static_cast<double>(uint64_t{1} << (e - 4));
    *lo = (16 + i % 16) * unit;
    *width = unit;
}

} // namespace

void
Hist::add(uint64_t v)
{
    ++buckets_[bucketOf(v)];
    ++count_;
    total_ += v;
}

double
Hist::quantile(double q) const
{
    if (count_ == 0)
        return 0.0;
    const double rank = q * static_cast<double>(count_);
    double seen = 0.0;
    for (unsigned i = 0; i < buckets_.size(); ++i) {
        if (buckets_[i] == 0)
            continue;
        const double n = static_cast<double>(buckets_[i]);
        if (seen + n >= rank) {
            double lo = 0.0, width = 0.0;
            bucketRange(i, &lo, &width);
            return lo + width * (rank - seen) / n;
        }
        seen += n;
    }
    return 0.0;
}

// --- self-time clock -----------------------------------------------------

LayerClock::LayerClock() : last_(ticksNow()) {}

uint64_t
LayerClock::enter(Layer layer)
{
    const uint64_t now = ticksNow();
    self_[static_cast<size_t>(stack_[depth_])] += now - last_;
    stack_[++depth_] = layer;
    last_ = now;
    return now;
}

uint64_t
LayerClock::exit()
{
    const uint64_t now = ticksNow();
    self_[static_cast<size_t>(stack_[depth_])] += now - last_;
    --depth_;
    last_ = now;
    return now;
}

// --- forwarding engine ---------------------------------------------------

const char *
hookName(Hook h)
{
    switch (h) {
      case Hook::kOnRename: return "onRename";
      case Hook::kOnSquash: return "onSquash";
      case Hook::kOnRetire: return "onRetire";
      case Hook::kOnLoadData: return "onLoadData";
      case Hook::kMayAccessMemory: return "mayAccessMemory";
      case Hook::kMayResolveBranch: return "mayResolveBranch";
      case Hook::kTick: return "tick";
      case Hook::kAccrueBlockedTransmit: return "accrueBlockedTransmit";
      case Hook::kOnStoreCommit: return "onStoreCommit";
      case Hook::kMaySquashMemViolation: return "maySquashMemViolation";
      case Hook::kStlForwardingPublic: return "stlForwardingPublic";
      case Hook::kQuiescent: return "quiescent";
      case Hook::kTransmitPublic: return "transmitPublic";
      case Hook::kOther: return "other";
      case Hook::kCount: break;
    }
    return "?";
}

/** Times one forwarded call: enters the engine layer and records the
 *  call's inclusive duration in its hook histogram. */
class TimedEngine::Scope
{
  public:
    Scope(const TimedEngine &e, Hook h)
        : clock_(e.clock_), hist_(e.hooks_[static_cast<size_t>(h)]),
          start_(clock_.enter(Layer::kEngine))
    {
    }
    ~Scope() { hist_.add(clock_.exit() - start_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    LayerClock &clock_;
    Hist &hist_;
    uint64_t start_;
};

TimedEngine::TimedEngine(std::unique_ptr<spt::SecurityEngine> inner,
                         LayerClock &clock)
    : inner_(std::move(inner)), clock_(clock)
{
}

void
TimedEngine::publishInnerStats()
{
    const spt::StatSet &in = inner_->stats();
    for (const auto &[name, value] : in.counters())
        stats_.set(name, value);
    for (const auto &[name, hist] : in.histograms())
        stats_.histogram(name) = hist;
}

void
TimedEngine::attach(spt::Core &core)
{
    spt::SecurityEngine::attach(core);
    inner_->attach(core);
}

const char *
TimedEngine::name() const
{
    return inner_->name();
}

void
TimedEngine::onRename(spt::DynInst &d)
{
    Scope s(*this, Hook::kOnRename);
    inner_->onRename(d);
}

void
TimedEngine::onSquash(const spt::DynInst &d)
{
    Scope s(*this, Hook::kOnSquash);
    inner_->onSquash(d);
}

void
TimedEngine::onRetire(const spt::DynInst &d)
{
    Scope s(*this, Hook::kOnRetire);
    inner_->onRetire(d);
}

void
TimedEngine::onLoadData(spt::DynInst &d, bool forwarded,
                        spt::SeqNum store_seq)
{
    Scope s(*this, Hook::kOnLoadData);
    inner_->onLoadData(d, forwarded, store_seq);
}

void
TimedEngine::onStoreCommit(const spt::DynInst &d)
{
    Scope s(*this, Hook::kOnStoreCommit);
    inner_->onStoreCommit(d);
}

bool
TimedEngine::mayAccessMemory(const spt::DynInst &d) const
{
    Scope s(*this, Hook::kMayAccessMemory);
    const bool ok = inner_->mayAccessMemory(d);
    blocked_mem_ += ok ? 0 : 1;
    return ok;
}

bool
TimedEngine::mayResolveBranch(const spt::DynInst &d) const
{
    Scope s(*this, Hook::kMayResolveBranch);
    return inner_->mayResolveBranch(d);
}

bool
TimedEngine::maySquashMemViolation(const spt::DynInst &d) const
{
    Scope s(*this, Hook::kMaySquashMemViolation);
    return inner_->maySquashMemViolation(d);
}

bool
TimedEngine::stlForwardingPublic(const spt::DynInst &load,
                                 const spt::DynInst &store) const
{
    Scope s(*this, Hook::kStlForwardingPublic);
    return inner_->stlForwardingPublic(load, store);
}

void
TimedEngine::tick()
{
    Scope s(*this, Hook::kTick);
    inner_->tick();
}

bool
TimedEngine::quiescent() const
{
    Scope s(*this, Hook::kQuiescent);
    return inner_->quiescent();
}

bool
TimedEngine::fastForwardSafe() const
{
    Scope s(*this, Hook::kOther);
    return inner_->fastForwardSafe();
}

void
TimedEngine::accrueBlockedTransmit(const spt::DynInst &d,
                                   spt::DelayKind kind,
                                   uint64_t cycles)
{
    Scope s(*this, Hook::kAccrueBlockedTransmit);
    inner_->accrueBlockedTransmit(d, kind, cycles);
}

bool
TimedEngine::transmitPublic(const spt::DynInst &d,
                            spt::DelayKind kind) const
{
    Scope s(*this, Hook::kTransmitPublic);
    return inner_->transmitPublic(d, kind);
}

bool
TimedEngine::taintStateConsistent(const spt::DynInst &d) const
{
    Scope s(*this, Hook::kOther);
    return inner_->taintStateConsistent(d);
}

spt::DelayCause
TimedEngine::delayCause(const spt::DynInst &d,
                        spt::DelayKind kind) const
{
    Scope s(*this, Hook::kOther);
    return inner_->delayCause(d, kind);
}

uint64_t
TimedEngine::broadcastQueueOccupancy() const
{
    Scope s(*this, Hook::kOther);
    return inner_->broadcastQueueOccupancy();
}

uint64_t
TimedEngine::taintedRegCount() const
{
    Scope s(*this, Hook::kOther);
    return inner_->taintedRegCount();
}

// --- forwarding observer -------------------------------------------------

#define PERFBENCH_FORWARD(call)                                            \
    do {                                                                   \
        ++calls_;                                                          \
        clock_.enter(Layer::kObserver);                                    \
        inner_.call;                                                       \
        clock_.exit();                                                     \
    } while (0)

void
TimedObserver::fetch(uint64_t c, const spt::DynInst &d)
{
    PERFBENCH_FORWARD(fetch(c, d));
}

void
TimedObserver::rename(uint64_t c, const spt::DynInst &d)
{
    PERFBENCH_FORWARD(rename(c, d));
}

void
TimedObserver::issue(uint64_t c, const spt::DynInst &d)
{
    PERFBENCH_FORWARD(issue(c, d));
}

void
TimedObserver::executed(uint64_t c, const spt::DynInst &d)
{
    PERFBENCH_FORWARD(executed(c, d));
}

void
TimedObserver::memAccess(uint64_t c, const spt::DynInst &d)
{
    PERFBENCH_FORWARD(memAccess(c, d));
}

void
TimedObserver::reachedVp(uint64_t c, const spt::DynInst &d)
{
    PERFBENCH_FORWARD(reachedVp(c, d));
}

void
TimedObserver::retired(uint64_t c, const spt::DynInst &d)
{
    PERFBENCH_FORWARD(retired(c, d));
}

void
TimedObserver::squashed(uint64_t c, const spt::DynInst &d)
{
    PERFBENCH_FORWARD(squashed(c, d));
}

void
TimedObserver::taintEvent(uint64_t c, spt::TaintEvent ev,
                          const spt::DynInst &d, uint8_t slot)
{
    PERFBENCH_FORWARD(taintEvent(c, ev, d, slot));
}

void
TimedObserver::delayCycle(uint64_t c, const spt::DynInst &d,
                          spt::DelayKind kind, spt::DelayCause cause)
{
    PERFBENCH_FORWARD(delayCycle(c, d, kind, cause));
}

void
TimedObserver::gateOpened(uint64_t c, const spt::DynInst &d,
                          spt::DelayKind kind)
{
    PERFBENCH_FORWARD(gateOpened(c, d, kind));
}

void
TimedObserver::cycleEnd(uint64_t c)
{
    PERFBENCH_FORWARD(cycleEnd(c));
}

#undef PERFBENCH_FORWARD

// --- allocation counter --------------------------------------------------

namespace {

std::atomic<bool> g_counting{false};
// Per thread, so counting costs no atomic read-modify-write; the
// traced runs allocate on the benchmark's own thread.
thread_local uint64_t g_alloc_calls = 0;
thread_local uint64_t g_alloc_bytes = 0;

} // namespace

void
setAllocCounting(bool on)
{
    g_counting.store(on, std::memory_order_relaxed);
}

AllocCount
allocCount()
{
    return {g_alloc_calls, g_alloc_bytes};
}

// --- spans ---------------------------------------------------------------

SpanLog::SpanLog() : origin_ns_(steadyNs())
{
    spans_.reserve(4096);
}

uint32_t
SpanLog::open(const std::string &name, uint32_t parent)
{
    Span s;
    s.name = name;
    s.parent = parent;
    s.start_ns = steadyNs() - origin_ns_;
    spans_.push_back(std::move(s));
    return static_cast<uint32_t>(spans_.size());
}

void
SpanLog::close(uint32_t id)
{
    spans_[id - 1].end_ns = steadyNs() - origin_ns_;
}

bool
SpanLog::write(const std::string &path) const
{
    spt::JsonWriter jw;
    jw.beginArray();
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        jw.beginObject();
        jw.field("id", static_cast<uint64_t>(i + 1));
        jw.field("parent", static_cast<uint64_t>(s.parent));
        jw.field("name", s.name);
        jw.field("start_ns", s.start_ns);
        jw.field("end_ns", s.end_ns);
        jw.endObject();
    }
    jw.endArray();
    FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const std::string text = jw.str();
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    return std::fclose(f) == 0 && ok;
}

} // namespace perfbench

// Replacement global allocation functions: malloc/free, plus a count
// while perfbench::setAllocCounting(true) is in effect. The check is
// one relaxed load, so untraced runs pay nothing measurable.
void *
operator new(std::size_t n)
{
    if (perfbench::g_counting.load(std::memory_order_relaxed)) {
        ++perfbench::g_alloc_calls;
        perfbench::g_alloc_bytes += n;
    }
    void *p = std::malloc(n == 0 ? 1 : n);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}
