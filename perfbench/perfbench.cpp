/**
 * @file
 * Host-performance benchmark of the SPT simulator, timed from
 * outside through the public interfaces of each layer (see
 * README.md in this directory for the metrics, the workloads and
 * why each was chosen).
 *
 * Usage: spt_perfbench --workload W [--seed N] [--seconds S]
 *                      [--trace 0|1] [--tiny]
 *
 * --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
 * metrics of a separate traced run. The last line of stdout is one
 * JSON object: {"correct", "attempted", "failed", "metrics"}.
 * Exit codes follow common/cli.h: 0 every check passed, 1 a check
 * failed, 2 usage error, 70 internal error.
 */

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/cfg.h"
#include "analysis/knowledge_analysis.h"
#include "analysis/knowledge_map.h"
#include "common/cli.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/knowledge_map.h"
#include "isa/functional_cpu.h"
#include "isa/opcode.h"
#include "isa/program_fuzzer.h"
#include "mem/memory_system.h"
#include "probes.h"
#include "sim/exp_runner.h"
#include "sim/profile.h"
#include "sim/result_cache.h"
#include "sim/snapshot.h"
#include "sim/trace.h"
#include "uarch/invariant_checker.h"
#include "workloads/workloads.h"

using namespace spt;
namespace fs = std::filesystem;
namespace pb = perfbench;

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point g_process_start = Clock::now();

// --- fixed benchmark parameters ------------------------------------------

/** Seeded input sizes vary by at most this share around the base
 *  sizes below, so every seed runs the same amount of work to
 *  within a few percent. */
constexpr double kSizeBand = 0.02;
/** --tiny (the self-test) shrinks every input by this factor. */
constexpr double kTinyScale = 0.1;
/** Set-up is repeated this many times; setup_s is the median. */
constexpr unsigned kSetupReps = 7;
/** Worker count of the parallel workloads (capped at nproc). */
constexpr unsigned kMaxWorkers = 4;
/** Timed phase: at least this many op samples, so job_s.tail names
 *  a percentile that does not depend on the host's speed. */
constexpr size_t kMinSamples = 100;
/** Never start another pass after this much timed time, so a run
 *  ends within its time limit on a slow host. */
constexpr double kMaxTimedSeconds = 100.0;
/** Interval-metrics period of the observed workload. */
constexpr uint64_t kIntervalCycles = 1000;
/** Warm-up: cycles simulated per (config, model) during set-up. */
constexpr uint64_t kWarmupCycles = 2000;
/** warm_rerun: number of fuzzed programs in its grid. */
constexpr unsigned kWarmPrograms = 24;
/** warm_rerun: checkpoints sit this many retired instructions before
 *  each program's end, so every resumed run simulates the same small
 *  amount whatever the fuzzed program's length, and the cache and
 *  codec layers dominate. */
constexpr uint64_t kResumeInstructions = 400;

const char *const kUsage =
    "usage: spt_perfbench --workload W [--seed N] [--seconds S]\n"
    "                     [--trace 0|1] [--tiny]\n"
    "workloads: tick_serial sweep_parallel warm_rerun observed\n"
    "  --seed N      input sizes, submission order and fuzz seeds "
    "(default 1)\n"
    "  --seconds S   length of the timed phase (default 10)\n"
    "  --trace 0|1   0: end-to-end metrics; 1: per-layer metrics "
    "of a traced run\n"
    "  --tiny        shrink every input tenfold (self-test)\n"
    "The last stdout line is the JSON result. Exit: 0 correct, 1 a "
    "check failed, 2 usage error, 70 internal error.\n";

struct Options {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    bool help = false;
};

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                SPT_FATAL(arg << " requires a value");
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h")
            o.help = true;
        else if (arg == "--workload")
            o.workload = value();
        else if (arg == "--seed")
            o.seed = parseUnsigned(value(), "--seed");
        else if (arg == "--seconds")
            o.seconds = parseDouble(value(), "--seconds");
        else if (arg == "--trace")
            o.trace = parseUnsigned(value(), "--trace", 1) == 1;
        else if (arg == "--tiny")
            o.tiny = true;
        else
            SPT_FATAL("unknown argument " << arg << "\n" << kUsage);
    }
    if (o.help)
        return o;
    if (o.workload != "tick_serial" && o.workload != "sweep_parallel" &&
        o.workload != "warm_rerun" && o.workload != "observed")
        SPT_FATAL("--workload must be one of tick_serial, "
                  "sweep_parallel, warm_rerun, observed (got '"
                  << o.workload << "')");
    return o;
}

// --- host measurement helpers --------------------------------------------

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Linear-interpolated quantile (numpy's default); 0 when empty. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/** The highest percentile of {50, 75, 90, 95, 99, 99.9} that leaves
 *  at least ten of @p n samples above it. */
double
tailLevel(size_t n)
{
    double level = 0.5;
    for (const double q : {0.75, 0.9, 0.95, 0.99, 0.999})
        if (static_cast<double>(n) * (1.0 - q) >= 10.0)
            level = q;
    return level;
}

std::string
percentName(double q)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "p%g", q * 100.0);
    return buf;
}

double
ticksToNs(uint64_t ticks)
{
    return static_cast<double>(ticks) * pb::nsPerTick();
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

/** Shortest round-trip decimal form of @p v. */
std::string
numberText(double v)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

// --- correctness tally ---------------------------------------------------

/** Every checked operation: one check() call per op. */
struct Tally {
    uint64_t attempted = 0;
    uint64_t failed = 0;

    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (ok)
            return;
        if (failed < 10)
            std::fprintf(stderr, "perfbench: check failed: %s\n",
                         what.c_str());
        ++failed;
    }
};

/** Benchmark scratch space under the checkout, removed on exit. */
class WorkDir
{
  public:
    WorkDir()
        : path_(fs::path(".bench_work") /
                ("run-" + std::to_string(getpid())))
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~WorkDir()
    {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }
    WorkDir(const WorkDir &) = delete;
    WorkDir &operator=(const WorkDir &) = delete;

    std::string sub(const std::string &name) const
    {
        return (path_ / name).string();
    }

  private:
    fs::path path_;
};

/**
 * Pins the calling thread to one allowed CPU, chosen round robin by
 * pin(n), and restores the original CPU set when destroyed. The
 * serial workloads move each op to another CPU, so that interference
 * from other tenants of one core averages over all cores instead of
 * following wherever the scheduler left the thread.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        CPU_ZERO(&allowed_);
        if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0)
            return;
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &allowed_))
                cpus_.push_back(cpu);
    }
    ~CpuRotation()
    {
        if (!cpus_.empty())
            sched_setaffinity(0, sizeof allowed_, &allowed_);
    }
    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    void
    pin(size_t n)
    {
        if (cpus_.empty())
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[n % cpus_.size()], &one);
        sched_setaffinity(0, sizeof one, &one);
    }

  private:
    cpu_set_t allowed_;
    std::vector<int> cpus_;
};

// --- inputs --------------------------------------------------------------

struct MemRef {
    uint64_t addr;
    bool store;
};

/** One generated program with its functional reference result. */
struct Kernel {
    std::string name;
    Program program;
    /** FunctionalCpu instruction count (both it and the core count
     *  the HALT). */
    uint64_t ref_instructions = 0;
    uint64_t ref_a7 = 0;
    bool ref_halted = false;
    KnowledgeMap kmap;
    /** Committed load/store stream (traced runs only). */
    std::vector<MemRef> stream;
};

unsigned
scaled(unsigned base, double f)
{
    return std::max(1u, static_cast<unsigned>(std::lround(base * f)));
}

/** The benchmark-scale input of each kernel, @p f times its base
 *  size. The base sizes are the registry defaults reduced so that a
 *  pass of many jobs fits the run time. */
Program
makeKernel(const std::string &name, double f)
{
    if (name == "pchase")
        return makePointerChase(scaled(1024, f), 2);
    if (name == "hashtab")
        return makeHashTable(scaled(700, f), scaled(700, f));
    if (name == "ct-chacha20")
        return makeChaCha20(scaled(24, f));
    if (name == "interp")
        return makeInterpreter(scaled(2500, f));
    if (name == "stream")
        return makeStreamTriad(scaled(3072, f), 1);
    SPT_PANIC("no generator for kernel " << name);
}

/** Input scale per workload on top of the base sizes, so that one
 *  pass of every workload takes about a second (4-vCPU x86-64). */
double
workloadScale(const std::string &workload)
{
    if (workload == "tick_serial")
        return 0.6;
    if (workload == "observed")
        return 0.3;
    return 1.0;
}

EngineConfig
namedEngine(const std::string &name)
{
    for (const NamedConfig &nc : table2Configs())
        if (nc.name == name)
            return nc.engine;
    SPT_PANIC("no Table-2 config " << name);
}

const char *
modelName(AttackModel m)
{
    return m == AttackModel::kSpectre ? "Spectre" : "Futuristic";
}

/** One simulation of a kernel under a design point. */
struct SimJob {
    size_t kernel = 0;
    std::string config;
    EngineConfig engine;
    AttackModel model = AttackModel::kFuturistic;
};

std::string
jobLabel(const std::vector<Kernel> &ks, const SimJob &j)
{
    return ks[j.kernel].name + "/" + j.config + "/" + modelName(j.model);
}

SimConfig
simConfig(const SimJob &j, bool fast_forward, bool observers)
{
    SimConfig cfg;
    cfg.engine = j.engine;
    cfg.core.attack_model = j.model;
    cfg.core.fast_forward = fast_forward;
    if (observers) {
        cfg.profile = true;
        cfg.interval_stats = kIntervalCycles;
        cfg.invariants = true;
    }
    return cfg;
}

/** Did a simulation halt with the functional reference's a7 and
 *  instruction count? */
bool
matchesReference(const SimResult &r, uint64_t a7, const Kernel &k)
{
    return r.halted && r.termination == Termination::kHalted &&
           r.instructions == k.ref_instructions && a7 == k.ref_a7;
}

std::string
describe(const SimResult &r, uint64_t a7, const Kernel &k)
{
    std::ostringstream os;
    os << "halted=" << r.halted << " (" << terminationName(r.termination)
       << ") instructions=" << r.instructions << " (reference "
       << k.ref_instructions << ") a7=" << a7 << " (reference "
       << k.ref_a7 << ")";
    return os.str();
}

// --- set-up --------------------------------------------------------------

struct Checkpoint {
    size_t kernel = 0;
    SimConfig config;
    std::string bytes;
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    uint64_t a7 = 0;
};

struct Setup {
    std::vector<Kernel> kernels;
    std::vector<SimJob> jobs;
    double assemble_s = 0.0;
    double functional_s = 0.0;
    uint64_t functional_instrs = 0;
    double kmap_s = 0.0;
    std::vector<double> construct_s;

    /** sweep_parallel and warm_rerun: the jobs as an ExpRunner grid. */
    std::vector<RunJob> grid;
    // warm_rerun: the populated cache and the checkpoints.
    std::unique_ptr<ResultCache> warm_cache;
    std::vector<std::string> populated; ///< deterministic encodings
    std::vector<Checkpoint> checkpoints;
};

std::vector<std::string>
kernelNames(const std::string &workload)
{
    if (workload == "sweep_parallel")
        return {"pchase", "hashtab", "stream", "interp", "ct-chacha20"};
    return {"pchase", "hashtab", "ct-chacha20", "interp"};
}

/** Runs @p k on FunctionalCpu for its reference a7 and instruction
 *  count (and, for traced runs, its committed load/store stream). */
void
addReference(Kernel &k, bool record_stream, Setup &s)
{
    const auto t0 = Clock::now();
    FunctionalCpu cpu(k.program);
    const FunctionalCpu::RunResult r = cpu.run();
    s.functional_s += secondsSince(t0);
    s.functional_instrs += r.instructions;
    k.ref_instructions = r.instructions;
    k.ref_halted = r.halted;
    k.ref_a7 = cpu.reg(kChecksumReg);
    if (!record_stream)
        return;
    FunctionalCpu step_cpu(k.program);
    for (;;) {
        const FunctionalCpu::StepInfo info = step_cpu.step();
        if (info.halted)
            break;
        if (info.is_mem)
            k.stream.push_back(
                {info.mem_addr, opTraits(info.inst.op).is_store});
    }
}

std::vector<SimJob>
simJobs(const std::string &workload)
{
    std::vector<SimJob> jobs;
    const size_t kernels = kernelNames(workload).size();
    const auto add = [&](size_t k, const std::string &cfg,
                         AttackModel m) {
        jobs.push_back({k, cfg, namedEngine(cfg), m});
    };
    if (workload == "tick_serial") {
        for (size_t k = 0; k < kernels; ++k)
            for (const char *cfg : {"UnsafeBaseline", "SecureBaseline",
                                    "STT", "SPT{Bwd,ShadowL1}"})
                add(k, cfg, AttackModel::kFuturistic);
    } else if (workload == "observed") {
        for (size_t k = 0; k < kernels; ++k)
            for (const AttackModel m :
                 {AttackModel::kFuturistic, AttackModel::kSpectre})
                add(k, "SPT{Bwd,ShadowL1}", m);
    } else if (workload == "sweep_parallel") {
        for (const AttackModel m :
             {AttackModel::kFuturistic, AttackModel::kSpectre})
            for (size_t k = 0; k < kernels; ++k)
                for (const NamedConfig &nc : table2Configs())
                    add(k, nc.name, m);
    } else { // warm_rerun: headline configs over the fuzzed programs
        for (size_t k = 0; k < kWarmPrograms; ++k)
            for (const NamedConfig &nc : headlineConfigs())
                add(k, nc.name, AttackModel::kFuturistic);
    }
    return jobs;
}

/** The jobs as an ExpRunner grid, in job order. */
std::vector<RunJob>
runGrid(const Setup &s, bool fast_forward)
{
    std::vector<RunJob> grid;
    for (const SimJob &j : s.jobs) {
        RunJob rj;
        rj.program = &s.kernels[j.kernel].program;
        rj.engine = j.engine;
        rj.attack_model = j.model;
        rj.fast_forward = fast_forward;
        rj.label = jobLabel(s.kernels, j);
        grid.push_back(rj);
    }
    return grid;
}

/** Builds every input of @p workload from the seed; each call does
 *  the full set-up (the benchmark repeats it and reports the
 *  median). */
std::unique_ptr<Setup>
buildSetup(const Options &o, const WorkDir &work, unsigned rep,
           unsigned workers, Tally &tally)
{
    auto s = std::make_unique<Setup>();
    Rng rng(o.seed * 0x9e3779b97f4a7c15ULL + 0x5eed);
    const double scale =
        workloadScale(o.workload) * (o.tiny ? kTinyScale : 1.0);

    // Program generation.
    const auto t_gen = Clock::now();
    if (o.workload == "warm_rerun") {
        FuzzConfig fc;
        if (o.tiny)
            fc.loop_iterations = 4;
        for (unsigned i = 0; i < kWarmPrograms; ++i) {
            Kernel k;
            const uint64_t fuzz_seed = rng.next();
            k.name = "fuzz" + std::to_string(i);
            k.program = fuzzProgram(fuzz_seed, fc);
            s->kernels.push_back(std::move(k));
        }
    } else {
        for (const std::string &name : kernelNames(o.workload)) {
            const double f =
                scale * (1.0 + kSizeBand * (2.0 * rng.nextDouble() - 1.0));
            Kernel k;
            k.name = name;
            k.program = makeKernel(name, f);
            s->kernels.push_back(std::move(k));
        }
    }
    s->assemble_s = secondsSince(t_gen);

    // Functional reference runs and knowledge-map compiles.
    for (Kernel &k : s->kernels) {
        addReference(k, o.trace, *s);
        tally.check(k.ref_halted, k.name + ": functional reference "
                                           "did not halt");
        const auto t_map = Clock::now();
        const Cfg cfg(k.program);
        const KnowledgeAnalysis analysis(cfg);
        k.kmap = emitKnowledgeMap(analysis);
        s->kmap_s += secondsSince(t_map);
    }
    s->jobs = simJobs(o.workload);

    // Warm-up: construct and briefly run each design point once, so
    // lazy registries and first-touch page faults land here.
    std::set<std::string> warmed;
    for (const SimJob &j : s->jobs) {
        if (!warmed.insert(j.config + modelName(j.model)).second)
            continue;
        SimConfig cfg = simConfig(j, false, false);
        cfg.max_cycles = kWarmupCycles;
        const auto t0 = Clock::now();
        Simulator sim(s->kernels[j.kernel].program, cfg);
        s->construct_s.push_back(secondsSince(t0));
        sim.run();
    }

    if (o.workload == "sweep_parallel")
        s->grid = runGrid(*s, true);
    if (o.workload != "warm_rerun")
        return s;

    // warm_rerun: populate a result cache with the grid's outcomes.
    s->grid = runGrid(*s, false);
    const std::string dir = work.sub("warm-cache-" + std::to_string(rep));
    RunnerPolicy policy;
    policy.keep_going = true;
    policy.cache_dir = dir;
    policy.cache_mode = CacheMode::kReadWrite;
    ExpRunner runner(workers);
    const std::vector<RunOutcome> outs = runner.run(s->grid, policy);
    for (size_t i = 0; i < outs.size(); ++i) {
        const Kernel &k = s->kernels[s->jobs[i].kernel];
        const RunOutcome &out = outs[i];
        tally.check(!out.failed() &&
                        matchesReference(out.result,
                                         out.arch_regs[kChecksumReg], k),
                    "populate " + out.job_desc + ": " +
                        describe(out.result, out.arch_regs[kChecksumReg],
                                 k));
        s->populated.push_back(ResultCache::encodeOutcomeDeterministic(out));
    }
    s->warm_cache =
        std::make_unique<ResultCache>(dir, CacheMode::kReadOnly);

    // Mid-run checkpoints: one per program, rotating through the
    // headline configs so every engine's snapshot codec is used.
    const std::vector<NamedConfig> heads = headlineConfigs();
    for (size_t p = 0; p < s->kernels.size(); ++p) {
        const Kernel &k = s->kernels[p];
        Checkpoint c;
        c.kernel = p;
        c.config.engine = heads[p % heads.size()].engine;
        c.config.core.attack_model = AttackModel::kFuturistic;
        c.config.checkpoint_at_retires =
            k.ref_instructions > kResumeInstructions
                ? k.ref_instructions - kResumeInstructions
                : 1;
        std::ostringstream os;
        Simulator sim(k.program, c.config);
        sim.writeSnapshotTo(&os);
        const SimResult r = sim.run();
        c.a7 = sim.core().archReg(kChecksumReg);
        c.cycles = r.cycles;
        c.instructions = r.instructions;
        c.bytes = os.str();
        tally.check(matchesReference(r, c.a7, k) && !c.bytes.empty(),
                    k.name + " checkpoint run: " + describe(r, c.a7, k));
        s->checkpoints.push_back(std::move(c));
    }
    return s;
}

// --- simulated outcomes --------------------------------------------------

/** The fields of a RunOutcome a simulation determines, filled the way
 *  ExpRunner fills them, so encodeOutcomeDeterministic compares. */
RunOutcome
outcomeOf(Core &core, const SimResult &r, bool violation)
{
    RunOutcome out;
    out.result = r;
    const StatSet &es = core.engine().stats();
    out.engine_counters = es.counters();
    out.engine_histograms = es.histograms();
    for (unsigned reg = 0; reg < kNumArchRegs; ++reg)
        out.arch_regs[reg] = core.archReg(reg);
    if (violation)
        out.status = RunStatus::kViolation;
    else if (r.termination == Termination::kLivelock)
        out.status = RunStatus::kLivelock;
    else if (r.termination != Termination::kHalted)
        out.status = RunStatus::kTimeout;
    return out;
}

SimResult
simResultOf(const Core::RunResult &r)
{
    SimResult s;
    s.cycles = r.cycles;
    s.instructions = r.instructions;
    s.halted = r.halted;
    s.ipc = r.cycles == 0 ? 0.0
                          : static_cast<double>(r.instructions) /
                                static_cast<double>(r.cycles);
    s.termination = r.halted        ? Termination::kHalted
                    : r.livelocked  ? Termination::kLivelock
                    : r.wall_timeout ? Termination::kWallTimeout
                                     : Termination::kMaxCycles;
    return s;
}

// --- timed phase ---------------------------------------------------------

struct Timed {
    std::vector<double> pass_wall;
    std::vector<double> pass_cpu;
    std::vector<double> op_s;
    uint64_t instructions = 0;
    /** Ops the pass minimum guarantees: job_s.tail's percentile is
     *  chosen from this, so it does not depend on the host's speed. */
    size_t min_samples = 0;
};

/** Pass minimum of an untraced run: three passes for a median, and
 *  at least kMinSamples op latencies. */
size_t
minPasses(size_t ops_per_pass)
{
    return std::max<size_t>(3, (kMinSamples + ops_per_pass - 1) /
                                   ops_per_pass);
}

/** Runs whole passes until @p seconds have elapsed and at least
 *  @p min_passes have run. @p pass returns the simulated
 *  instructions it retired and appends one latency per op. */
template <class PassFn>
Timed
timePasses(double seconds, size_t min_passes, size_t ops_per_pass,
           PassFn pass)
{
    Timed t;
    t.min_samples = min_passes * ops_per_pass;
    const auto start = Clock::now();
    for (unsigned k = 0;; ++k) {
        const double elapsed = secondsSince(start);
        if (k >= min_passes && elapsed >= seconds)
            break;
        if (k >= 1 && elapsed >= kMaxTimedSeconds)
            break;
        const double c0 = cpuSeconds();
        const auto w0 = Clock::now();
        t.instructions += pass(k, t.op_s);
        t.pass_wall.push_back(secondsSince(w0));
        t.pass_cpu.push_back(cpuSeconds() - c0);
    }
    return t;
}

double
total(const std::vector<double> &v)
{
    return std::accumulate(v.begin(), v.end(), 0.0);
}

/** What the traced run compares against: the untraced run's
 *  deterministic outcome encoding and core counters. */
struct Reference {
    std::string outcome;
    std::map<std::string, uint64_t> core_counters; ///< empty: unknown
    double host_s = 0.0;
};

/** tick_serial / observed, untraced: one Simulator per job through
 *  its public constructor and run(). */
uint64_t
passSimJobs(const Setup &s, bool observers, unsigned pass, Tally &tally,
            std::vector<double> &ops, std::vector<Reference> *refs)
{
    uint64_t instrs = 0;
    CpuRotation cpus;
    for (size_t i = 0; i < s.jobs.size(); ++i) {
        cpus.pin(i + pass);
        const SimJob &j = s.jobs[i];
        const Kernel &k = s.kernels[j.kernel];
        const SimConfig cfg = simConfig(j, false, observers);
        const auto t0 = Clock::now();
        Simulator sim(k.program, cfg);
        const SimResult r = sim.run();
        const double dt = secondsSince(t0);
        const uint64_t a7 = sim.core().archReg(kChecksumReg);
        const bool violation = observers && !sim.invariants()->clean();
        tally.check(matchesReference(r, a7, k) && !violation,
                    jobLabel(s.kernels, j) + ": " + describe(r, a7, k) +
                        (violation ? " invariant violation" : ""));
        ops.push_back(dt);
        instrs += r.instructions;
        if (refs) {
            Reference ref;
            ref.outcome = ResultCache::encodeOutcomeDeterministic(
                outcomeOf(sim.core(), r, violation));
            ref.core_counters = sim.core().stats().counters();
            ref.host_s = dt;
            refs->push_back(std::move(ref));
        }
    }
    return instrs;
}

/** sweep_parallel, untraced: the grid through ExpRunner in a seeded
 *  submission order, into a fresh read_write cache directory.
 *  Outcomes are returned in grid order. */
std::vector<RunOutcome>
passSweep(const Setup &s, ExpRunner &runner, const WorkDir &work,
          Rng &order_rng, const std::string &tag, Tally &tally,
          std::vector<double> &ops, uint64_t *instrs)
{
    std::vector<size_t> order(s.grid.size());
    std::iota(order.begin(), order.end(), size_t{0});
    for (size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[order_rng.nextBelow(i)]);
    std::vector<RunJob> submitted;
    for (const size_t i : order)
        submitted.push_back(s.grid[i]);

    RunnerPolicy policy;
    policy.keep_going = true;
    policy.cache_dir = work.sub("sweep-" + tag);
    policy.cache_mode = CacheMode::kReadWrite;
    std::vector<RunOutcome> outs = runner.run(submitted, policy);

    std::vector<RunOutcome> by_grid(s.grid.size());
    for (size_t n = 0; n < order.size(); ++n) {
        const size_t i = order[n];
        RunOutcome &out = outs[n];
        const Kernel &k = s.kernels[s.jobs[i].kernel];
        const uint64_t a7 = out.arch_regs[kChecksumReg];
        tally.check(!out.failed() && !out.memoized &&
                        matchesReference(out.result, a7, k),
                    out.job_desc + ": " + runStatusName(out.status) +
                        " " + describe(out.result, a7, k));
        ops.push_back(out.host_seconds);
        *instrs += out.result.instructions;
        by_grid[i] = std::move(out);
    }
    const SweepStats &st = runner.lastSweep();
    tally.check(st.cache.hits == 0 && st.cache.misses == s.grid.size() &&
                    st.cache.bytes_written > 0,
                "sweep cache: expected a miss and a store per job on an "
                "empty directory");
    return by_grid;
}

// --- traced runs ---------------------------------------------------------

constexpr size_t kHooks = static_cast<size_t>(pb::Hook::kCount);

/** Everything the traced run accumulates across its jobs. */
struct TraceTotals {
    pb::LayerClock clock;
    pb::Hist ticks;
    std::array<uint64_t, kHooks> hook_calls{};
    std::array<uint64_t, kHooks> hook_ticks{};
    uint64_t blocked_mem = 0;
    uint64_t observer_calls = 0;
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    uint64_t squashed = 0;
    uint64_t ff_skipped = 0;
    pb::AllocCount allocs;
    double traced_s = 0.0;   ///< host time of the traced work
    double untraced_s = 0.0; ///< the same work, untraced
    double sim_s = 0.0;      ///< host time inside Core/Simulator runs
    pb::SpanLog spans;
    uint32_t root = 0; ///< the workload span
};

/** RAII span under @p parent; a no-op without a trace. */
class Span
{
  public:
    Span(TraceTotals *tt, const std::string &name, uint32_t parent)
        : tt_(tt), id_(tt ? tt->spans.open(name, parent) : 0)
    {
    }
    ~Span()
    {
        if (tt_)
            tt_->spans.close(id_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;
    uint32_t id() const { return id_; }

  private:
    TraceTotals *tt_;
    uint32_t id_;
};

/** One job on a directly constructed Core whose engine is a
 *  TimedEngine (and whose observers, if any, sit behind a
 *  TimedObserver). Without fast-forward the loop drives Core::tick()
 *  itself, timing each tick; Core::run() then only publishes the
 *  end-of-run counters. Returns "" when the job matched the
 *  functional reference and @p ref exactly, else what differed. */
std::string
runTracedJob(const Kernel &k, const SimConfig &cfg, const Reference &ref,
             TraceTotals &tt)
{
    auto timed = std::make_unique<pb::TimedEngine>(makeEngine(cfg.engine),
                                                   tt.clock);
    pb::TimedEngine &te = *timed;
    Core core(k.program, cfg.core, cfg.mem, std::move(timed));

    std::unique_ptr<DelayProfiler> profiler;
    std::unique_ptr<IntervalRecorder> intervals;
    std::unique_ptr<InvariantChecker> checker;
    ObserverMux mux;
    std::unique_ptr<pb::TimedObserver> timed_obs;
    if (cfg.invariants) {
        // The observers, order and parameters of Simulator::run.
        profiler = std::make_unique<DelayProfiler>();
        intervals = std::make_unique<IntervalRecorder>(cfg.interval_stats,
                                                       &core.engine());
        InvariantChecker::Params p;
        if (cfg.core.watchdog_cycles != 0)
            p.watchdog_cycles = cfg.core.watchdog_cycles;
        checker = std::make_unique<InvariantChecker>(core, p);
        mux.add(profiler.get());
        mux.add(intervals.get());
        mux.add(checker.get());
        timed_obs = std::make_unique<pb::TimedObserver>(mux, tt.clock);
        core.setObserver(timed_obs.get());
        te.inner().setObserver(timed_obs.get());
    }

    const pb::AllocCount a0 = pb::allocCount();
    pb::setAllocCounting(true);
    const auto s0 = Clock::now();
    if (!cfg.core.fast_forward) {
        while (!core.halted() && core.cycle() < cfg.max_cycles) {
            const uint64_t start = tt.clock.enter(pb::Layer::kUarch);
            core.tick();
            tt.ticks.add(tt.clock.exit() - start);
        }
    }
    tt.clock.enter(pb::Layer::kUarch);
    const Core::RunResult rr = core.run(cfg.max_cycles);
    tt.clock.exit();
    tt.sim_s += secondsSince(s0);
    pb::setAllocCounting(false);
    const pb::AllocCount a1 = pb::allocCount();
    tt.allocs.calls += a1.calls - a0.calls;
    tt.allocs.bytes += a1.bytes - a0.bytes;

    te.publishInnerStats();
    bool violation = false;
    if (checker) {
        intervals->finish(core.cycle());
        checker->finish(core.cycle());
        violation = !checker->clean();
        tt.observer_calls += timed_obs->calls();
    }
    const SimResult r = simResultOf(rr);
    for (size_t h = 0; h < kHooks; ++h) {
        const pb::Hist &hist = te.hook(static_cast<pb::Hook>(h));
        tt.hook_calls[h] += hist.count();
        tt.hook_ticks[h] += hist.total();
    }
    tt.blocked_mem += te.blockedMemAccesses();
    tt.cycles += rr.cycles;
    tt.instructions += rr.instructions;
    tt.squashed += core.stats().get("squash.instructions");
    tt.ff_skipped += core.stats().get("ff.skipped_cycles");

    const uint64_t a7 = core.archReg(kChecksumReg);
    if (!matchesReference(r, a7, k) || violation)
        return describe(r, a7, k) + (violation ? " violation" : "");
    if (ResultCache::encodeOutcomeDeterministic(
            outcomeOf(core, r, violation)) != ref.outcome)
        return "outcome (cycles, engine counters, registers) differs "
               "from the untraced run";
    if (!ref.core_counters.empty() &&
        core.stats().counters() != ref.core_counters)
        return "core counters differ from the untraced run";
    return "";
}

/** Traced passes over the simulation jobs: each job on a
 *  TimedEngine-wrapped Core, checked against @p refs. Prints each
 *  job's gate statistics. */
Timed
tracedSimPasses(const Options &o, const Setup &s, bool fast_forward,
                bool observers, const std::vector<Reference> &refs,
                TraceTotals &tt, Tally &tally)
{
    const size_t n = s.jobs.size();
    const size_t mam = static_cast<size_t>(pb::Hook::kMayAccessMemory);
    std::vector<uint64_t> cycles(n), calls(n), blocked(n);
    const Timed t = timePasses(
        o.seconds, 1, n, [&](unsigned k, std::vector<double> &ops) {
            uint64_t instrs = 0;
            CpuRotation cpus;
            for (size_t i = 0; i < n; ++i) {
                cpus.pin(i + k);
                const SimJob &j = s.jobs[i];
                const std::string label = jobLabel(s.kernels, j);
                const Span span(&tt, label, tt.root);
                const uint64_t c0 = tt.cycles, i0 = tt.instructions;
                const uint64_t m0 = tt.hook_calls[mam], b0 = tt.blocked_mem;
                const auto t0 = Clock::now();
                const std::string why = runTracedJob(
                    s.kernels[j.kernel],
                    simConfig(j, fast_forward, observers), refs[i], tt);
                const double dt = secondsSince(t0);
                tally.check(why.empty(), label + " traced: " + why);
                ops.push_back(dt);
                tt.traced_s += dt;
                tt.untraced_s += refs[i].host_s;
                cycles[i] += tt.cycles - c0;
                calls[i] += tt.hook_calls[mam] - m0;
                blocked[i] += tt.blocked_mem - b0;
                instrs += tt.instructions - i0;
            }
            return instrs;
        });
    for (size_t i = 0; i < n; ++i)
        std::printf("job %-36s cycles %9llu  mayAccessMemory/cycle %6.2f"
                    "  blocked %5.1f%%\n",
                    jobLabel(s.kernels, s.jobs[i]).c_str(),
                    static_cast<unsigned long long>(
                        cycles[i] / t.pass_wall.size()),
                    ratio(static_cast<double>(calls[i]),
                          static_cast<double>(cycles[i])),
                    100.0 * ratio(static_cast<double>(blocked[i]),
                                  static_cast<double>(calls[i])));
    return t;
}

/** Replays each kernel's committed load/store stream (one access per
 *  cycle, a rejected access retried on the next cycle) into a fresh
 *  MemorySystem. Wrong-path accesses are not in the stream. */
void
replayMemory(const std::vector<Kernel> &kernels,
             std::map<std::string, double> &m)
{
    uint64_t ticks = 0, accesses = 0, rejects = 0, hits = 0, misses = 0;
    for (const Kernel &k : kernels) {
        MemorySystem ms{MemorySystemParams{}};
        uint64_t now = 0;
        const uint64_t t0 = pb::ticksNow();
        for (const MemRef &ref : k.stream) {
            const AccessKind kind =
                ref.store ? AccessKind::kStore : AccessKind::kLoad;
            while (!ms.access(ref.addr, kind, ++now).accepted)
                ++rejects;
        }
        ticks += pb::ticksNow() - t0;
        accesses += k.stream.size();
        hits += ms.stats().get("l1_hits");
        misses += ms.stats().get("l1_misses");
    }
    const double attempts = static_cast<double>(accesses + rejects);
    m["mem.access_ns"] = ratio(ticksToNs(ticks), attempts);
    m["mem.l1d_miss_ratio"] = ratio(static_cast<double>(misses),
                                    static_cast<double>(hits + misses));
    m["mem.mshr_reject_ratio"] =
        ratio(static_cast<double>(rejects), attempts);
}

/** Per-layer metrics that come from TraceTotals. */
void
traceMetrics(const TraceTotals &tt, double timed_s,
             std::map<std::string, double> &m)
{
    const double cycles = static_cast<double>(tt.cycles);
    const double instrs = static_cast<double>(tt.instructions);
    m["uarch.self_ns_per_cycle"] =
        ratio(ticksToNs(tt.clock.self(pb::Layer::kUarch)), cycles);
    m["uarch.tick_ns.p50"] = tt.ticks.quantile(0.5) * pb::nsPerTick();
    const double tick_tail = tailLevel(tt.ticks.count());
    m["uarch.tick_ns.tail"] = tt.ticks.quantile(tick_tail) * pb::nsPerTick();
    if (tt.ticks.count() != 0)
        std::printf("uarch.tick_ns.tail = %s over %llu ticks\n",
                    percentName(tick_tail).c_str(),
                    static_cast<unsigned long long>(tt.ticks.count()));
    m["uarch.ff_skip_ratio"] =
        ratio(static_cast<double>(tt.ff_skipped), cycles);
    m["uarch.squashed_per_retired"] =
        ratio(static_cast<double>(tt.squashed), instrs);
    m["uarch.host_share"] = ratio(tt.sim_s, timed_s);
    m["engine.ns_per_cycle"] =
        ratio(ticksToNs(tt.clock.self(pb::Layer::kEngine)), cycles);
    for (size_t h = 0; h < pb::kReportedHooks; ++h) {
        const std::string base =
            std::string("engine.") + pb::hookName(static_cast<pb::Hook>(h));
        const double calls = static_cast<double>(tt.hook_calls[h]);
        m[base + ".calls_per_cycle"] = ratio(calls, cycles);
        m[base + ".ns"] = ratio(ticksToNs(tt.hook_ticks[h]), calls);
    }
    m["engine.gate_block_ratio"] =
        ratio(static_cast<double>(tt.blocked_mem),
              static_cast<double>(tt.hook_calls[static_cast<size_t>(
                  pb::Hook::kMayAccessMemory)]));
    m["alloc.per_instr"] =
        ratio(static_cast<double>(tt.allocs.calls), instrs);
    m["alloc.bytes_per_instr"] =
        ratio(static_cast<double>(tt.allocs.bytes), instrs);
    m["observer.ns_per_cycle"] =
        ratio(ticksToNs(tt.clock.self(pb::Layer::kObserver)), cycles);
    m["observer.calls_per_cycle"] =
        ratio(static_cast<double>(tt.observer_calls), cycles);
    m["trace.overhead_ratio"] = ratio(tt.traced_s, tt.untraced_s);
}

// --- warm_rerun ----------------------------------------------------------

/** warm_rerun per-op timings kept by the traced run. */
struct WarmTrace {
    std::vector<double> lookup_s;
    std::vector<double> store_s;
    std::vector<double> restore_s;
    std::vector<double> save_s;
    std::vector<double> codec_s;
    uint64_t snapshot_bytes = 0;
    uint64_t stored_bytes = 0;
    double extra_s = 0.0; ///< traced-only work (snapshot re-saves)
};

double
since(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

/** warm_rerun: read grid cell @p i back from the warm cache and store
 *  the decoded outcome into @p fresh. */
void
rerunCell(const Setup &s, size_t i, ResultCache &fresh, Tally &tally,
          TraceTotals *tt, uint32_t parent, WarmTrace *wt)
{
    const RunJob &job = s.grid[i];
    std::optional<Span> op(std::in_place, tt, "cache.lookup", parent);
    const auto t0 = Clock::now();
    const std::string key = ResultCache::canonicalKey(job);
    RunOutcome out;
    const bool hit = s.warm_cache->lookup(key, &out);
    const auto t1 = Clock::now();
    const bool same = hit && ResultCache::encodeOutcomeDeterministic(out) ==
                                 s.populated[i];
    const uint64_t before = fresh.stats().bytes_written;
    op.emplace(tt, "cache.store", parent);
    const auto t2 = Clock::now();
    fresh.store(key, out);
    const auto t3 = Clock::now();
    op.reset();
    const uint64_t written = fresh.stats().bytes_written - before;
    tally.check(same && written > 0,
                "warm rerun of " + job.label +
                    (!hit    ? ": cache miss"
                     : !same ? ": outcome differs from the one stored"
                             : ": store wrote nothing"));
    if (wt) {
        wt->lookup_s.push_back(since(t0, t1));
        wt->store_s.push_back(since(t2, t3));
        wt->stored_bytes += written;
    }
}

/** warm_rerun: resume checkpoint @p c in a fresh Simulator and run it
 *  to the end; returns the instructions simulated after the
 *  restore. */
uint64_t
resumeCheckpoint(const Setup &s, const Checkpoint &c, Tally &tally,
                 TraceTotals *tt, uint32_t parent, WarmTrace *wt)
{
    const Kernel &k = s.kernels[c.kernel];
    Simulator sim(k.program, c.config);
    std::istringstream in(c.bytes);
    {
        const Span op(tt, "snapshot.restore", parent);
        const auto r0 = Clock::now();
        sim.restoreSnapshot(in);
        if (wt)
            wt->restore_s.push_back(secondsSince(r0));
    }
    const uint64_t restored_at = sim.core().instructionsRetired();
    const auto s0 = Clock::now();
    const SimResult r = sim.run();
    if (tt)
        tt->sim_s += secondsSince(s0);
    const uint64_t a7 = sim.core().archReg(kChecksumReg);
    tally.check(r.halted && r.cycles == c.cycles &&
                    r.instructions == c.instructions && a7 == c.a7,
                k.name + " resumed from its checkpoint: cycles " +
                    std::to_string(r.cycles) + " vs " +
                    std::to_string(c.cycles) + ", instructions " +
                    std::to_string(r.instructions) + " vs " +
                    std::to_string(c.instructions) + ", a7 " +
                    std::to_string(a7) + " vs " + std::to_string(c.a7));
    return r.instructions - restored_at;
}

/** warm_rerun, traced only: re-serialise a restored machine, timing
 *  Snapshotter::save and checking it reproduces the snapshot bytes. */
void
resaveCheckpoint(const Setup &s, const Checkpoint &c, Tally &tally,
                 TraceTotals *tt, uint32_t parent, WarmTrace &wt)
{
    const Kernel &k = s.kernels[c.kernel];
    Simulator sim(k.program, c.config);
    std::istringstream in(c.bytes);
    sim.restoreSnapshot(in);
    std::ostringstream out;
    const Span op(tt, "snapshot.save", parent);
    const auto t0 = Clock::now();
    Snapshotter::save(sim, out);
    wt.save_s.push_back(secondsSince(t0));
    wt.snapshot_bytes += c.bytes.size();
    tally.check(out.str() == c.bytes,
                k.name + ": re-saved snapshot differs from the original");
}

/** warm_rerun: compile, serialise and parse a knowledge map. */
void
rebuildKmap(const Kernel &k, Tally &tally, TraceTotals *tt,
            uint32_t parent, WarmTrace *wt)
{
    const Span op(tt, "analysis.kmap", parent);
    const Cfg cfg(k.program);
    const KnowledgeAnalysis analysis(cfg);
    const KnowledgeMap map = emitKnowledgeMap(analysis);
    const auto c0 = Clock::now();
    std::ostringstream os;
    map.save(os);
    std::istringstream is(os.str());
    const KnowledgeMap back = KnowledgeMap::load(is);
    if (wt)
        wt->codec_s.push_back(secondsSince(c0));
    tally.check(back == map && map == k.kmap,
                k.name + ": knowledge map differs after compile + save + "
                         "load");
}

/** One warm_rerun pass. One op per program: read each of its grid
 *  cells back from the warm cache and store it into a fresh
 *  directory, resume its checkpoint in a fresh Simulator, and
 *  compile, serialise and parse its knowledge map. */
uint64_t
passWarm(const Setup &s, const WorkDir &work, const std::string &tag,
         unsigned pass, Tally &tally, std::vector<double> &ops,
         TraceTotals *tt, WarmTrace *wt)
{
    ResultCache fresh(work.sub("store-" + tag), CacheMode::kReadWrite);
    uint64_t instrs = 0;
    CpuRotation cpus;
    for (size_t p = 0; p < s.checkpoints.size(); ++p) {
        cpus.pin(p + pass);
        const Checkpoint &c = s.checkpoints[p];
        const Span job(tt, s.kernels[c.kernel].name, tt ? tt->root : 0);
        const auto t0 = Clock::now();
        for (size_t i = 0; i < s.grid.size(); ++i)
            if (s.jobs[i].kernel == c.kernel)
                rerunCell(s, i, fresh, tally, tt, job.id(), wt);
        instrs += resumeCheckpoint(s, c, tally, tt, job.id(), wt);
        rebuildKmap(s.kernels[c.kernel], tally, tt, job.id(), wt);
        ops.push_back(secondsSince(t0));
        if (wt) {
            // Not part of the untraced pass: trace.overhead_ratio
            // leaves it out.
            const auto x0 = Clock::now();
            resaveCheckpoint(s, c, tally, tt, job.id(), *wt);
            wt->extra_s += secondsSince(x0);
        }
    }
    return instrs;
}

/** Knowledge-map serialise + parse round trip; returns the host
 *  seconds it took. */
double
kmapCodec(const Kernel &k, Tally &tally)
{
    const auto t0 = Clock::now();
    std::ostringstream os;
    k.kmap.save(os);
    std::istringstream is(os.str());
    const KnowledgeMap back = KnowledgeMap::load(is);
    const double dt = secondsSince(t0);
    tally.check(back == k.kmap,
                k.name + ": knowledge map differs after save + load");
    return dt;
}

// --- metric tables -------------------------------------------------------

struct MetricDef {
    std::string name;
    std::string unit;
};

std::vector<MetricDef>
endToEndDefs()
{
    return {{"wall_s", "s"},         {"minstr_per_s", "Minstr/s"},
            {"job_s.p50", "s"},      {"job_s.tail", "s"},
            {"cpu_s", "s"},          {"setup_s", "s"},
            {"peak_rss_mb", "MB"}};
}

std::vector<MetricDef>
perLayerDefs()
{
    std::vector<MetricDef> d = {
        {"exp_runner.worker_util", "ratio"},
        {"exp_runner.imbalance_s", "s"},
        {"uarch.self_ns_per_cycle", "ns"},
        {"uarch.tick_ns.p50", "ns"},
        {"uarch.tick_ns.tail", "ns"},
        {"uarch.ff_skip_ratio", "ratio"},
        {"uarch.squashed_per_retired", "ratio"},
        {"uarch.host_share", "ratio"},
        {"engine.ns_per_cycle", "ns"},
    };
    for (size_t h = 0; h < pb::kReportedHooks; ++h) {
        const std::string base =
            std::string("engine.") + pb::hookName(static_cast<pb::Hook>(h));
        d.push_back({base + ".calls_per_cycle", "1/cycle"});
        d.push_back({base + ".ns", "ns"});
    }
    const std::vector<MetricDef> rest = {
        {"engine.gate_block_ratio", "ratio"},
        {"mem.access_ns", "ns"},
        {"mem.l1d_miss_ratio", "ratio"},
        {"mem.mshr_reject_ratio", "ratio"},
        {"alloc.per_instr", "1/instr"},
        {"alloc.bytes_per_instr", "B/instr"},
        {"result_cache.lookup_ms.p50", "ms"},
        {"result_cache.lookup_ms.tail", "ms"},
        {"result_cache.store_ms.p50", "ms"},
        {"result_cache.store_ms.tail", "ms"},
        {"result_cache.hit_ratio", "ratio"},
        {"result_cache.bytes_per_record", "B"},
        {"snapshot.save_ms", "ms"},
        {"snapshot.restore_ms", "ms"},
        {"snapshot.bytes", "B"},
        {"knowledge_map.codec_ms", "ms"},
        {"observer.ns_per_cycle", "ns"},
        {"observer.calls_per_cycle", "1/cycle"},
        {"isa.functional_minstr_per_s", "Minstr/s"},
        {"isa.assemble_ms", "ms"},
        {"analysis.kmap_compile_ms", "ms"},
        {"simulator.construct_ms", "ms"},
        {"trace.overhead_ratio", "ratio"},
    };
    d.insert(d.end(), rest.begin(), rest.end());
    return d;
}

/** Median and tail (in ms) of per-op seconds, tail named by count. */
void
msQuantiles(const std::vector<double> &s, const std::string &base,
            std::map<std::string, double> &m)
{
    m[base + ".p50"] = quantile(s, 0.5) * 1e3;
    m[base + ".tail"] = quantile(s, tailLevel(s.size())) * 1e3;
}

double
meanMs(const std::vector<double> &s)
{
    return s.empty() ? 0.0 : total(s) / static_cast<double>(s.size()) * 1e3;
}

// --- workloads -----------------------------------------------------------

struct Result {
    Timed timed;
    std::map<std::string, double> layer; ///< per-layer (traced) metrics
};

Result
runSimWorkload(const Options &o, const Setup &s, bool observers,
               TraceTotals *tt, Tally &tally)
{
    Result res;
    const size_t n = s.jobs.size();
    if (!tt) {
        res.timed = timePasses(o.seconds, minPasses(n), n,
                               [&](unsigned k, std::vector<double> &ops) {
                                   return passSimJobs(s, observers, k,
                                                      tally, ops, nullptr);
                               });
        return res;
    }
    std::vector<Reference> refs;
    std::vector<double> untraced_ops;
    passSimJobs(s, observers, 0, tally, untraced_ops, &refs);
    res.timed = tracedSimPasses(o, s, false, observers, refs, *tt, tally);
    traceMetrics(*tt, total(res.timed.pass_wall), res.layer);
    return res;
}

Result
runSweepWorkload(const Options &o, const Setup &s, const WorkDir &work,
                 unsigned workers, TraceTotals *tt, Tally &tally)
{
    Result res;
    ExpRunner runner(workers);
    Rng order_rng(o.seed ^ 0x0bde5eedULL);
    const size_t n = s.grid.size();
    if (!tt) {
        res.timed = timePasses(
            o.seconds, minPasses(n), n,
            [&](unsigned k, std::vector<double> &ops) {
                uint64_t instrs = 0;
                passSweep(s, runner, work, order_rng, std::to_string(k),
                          tally, ops, &instrs);
                return instrs;
            });
        return res;
    }
    // Untraced reference pass: the runner's own numbers, and the
    // outcomes the traced jobs must reproduce.
    std::vector<double> host;
    uint64_t instrs = 0;
    const std::vector<RunOutcome> outs = passSweep(
        s, runner, work, order_rng, "ref", tally, host, &instrs);
    const SweepStats &st = runner.lastSweep();
    const double busy = total(host);
    res.layer["exp_runner.worker_util"] =
        ratio(busy, st.wall_seconds * st.workers);
    res.layer["exp_runner.imbalance_s"] =
        st.wall_seconds - busy / st.workers;
    res.layer["result_cache.hit_ratio"] =
        ratio(static_cast<double>(st.cache.hits),
              static_cast<double>(st.cache.hits + st.cache.misses));

    // The runner's cache stores, timed one by one.
    ResultCache fresh(work.sub("store-ref"), CacheMode::kReadWrite);
    std::vector<double> store_s;
    std::vector<Reference> refs;
    for (size_t i = 0; i < n; ++i) {
        const std::string key = ResultCache::canonicalKey(s.grid[i]);
        const Span span(tt, "cache.store " + s.grid[i].label, tt->root);
        const auto t0 = Clock::now();
        fresh.store(key, outs[i]);
        store_s.push_back(secondsSince(t0));
        Reference ref;
        ref.outcome = ResultCache::encodeOutcomeDeterministic(outs[i]);
        ref.host_s = outs[i].host_seconds;
        refs.push_back(std::move(ref));
    }
    msQuantiles(store_s, "result_cache.store_ms", res.layer);
    res.layer["result_cache.bytes_per_record"] =
        ratio(static_cast<double>(fresh.stats().bytes_written),
              static_cast<double>(n));

    res.timed = tracedSimPasses(o, s, true, false, refs, *tt, tally);
    traceMetrics(*tt, total(res.timed.pass_wall), res.layer);
    return res;
}

Result
runWarmWorkload(const Options &o, const Setup &s, const WorkDir &work,
                TraceTotals *tt, Tally &tally)
{
    Result res;
    const size_t ops_per_pass = s.checkpoints.size();
    if (!tt) {
        res.timed = timePasses(
            o.seconds, minPasses(ops_per_pass), ops_per_pass,
            [&](unsigned k, std::vector<double> &ops) {
                return passWarm(s, work, std::to_string(k), k, tally, ops,
                                nullptr, nullptr);
            });
        return res;
    }
    std::vector<double> untraced_ops;
    const auto u0 = Clock::now();
    passWarm(s, work, "ref", 0, tally, untraced_ops, nullptr, nullptr);
    const double untraced_pass = secondsSince(u0);
    WarmTrace wt;
    res.timed = timePasses(
        o.seconds, 1, ops_per_pass,
        [&](unsigned k, std::vector<double> &ops) {
            return passWarm(s, work, "t" + std::to_string(k), k, tally, ops,
                            tt, &wt);
        });
    const double timed_s = total(res.timed.pass_wall);
    tt->traced_s = timed_s - wt.extra_s;
    tt->untraced_s = untraced_pass * res.timed.pass_wall.size();
    traceMetrics(*tt, timed_s, res.layer);
    const CacheStats cs = s.warm_cache->stats();
    msQuantiles(wt.lookup_s, "result_cache.lookup_ms", res.layer);
    msQuantiles(wt.store_s, "result_cache.store_ms", res.layer);
    res.layer["result_cache.hit_ratio"] =
        ratio(static_cast<double>(cs.hits),
              static_cast<double>(cs.hits + cs.misses));
    res.layer["result_cache.bytes_per_record"] =
        ratio(static_cast<double>(wt.stored_bytes),
              static_cast<double>(wt.store_s.size()));
    res.layer["snapshot.save_ms"] = meanMs(wt.save_s);
    res.layer["snapshot.restore_ms"] = meanMs(wt.restore_s);
    res.layer["snapshot.bytes"] =
        ratio(static_cast<double>(wt.snapshot_bytes),
              static_cast<double>(wt.save_s.size()));
    res.layer["knowledge_map.codec_ms"] = meanMs(wt.codec_s);
    return res;
}

// --- output --------------------------------------------------------------

void
printHostFacts(const Options &o, unsigned nproc, unsigned workers)
{
    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d%s\n",
                o.workload.c_str(),
                static_cast<unsigned long long>(o.seed), o.seconds,
                o.trace ? 1 : 0, o.tiny ? " tiny" : "");
    std::printf("host: nproc=%u workers=%u compiler=\"%s\" "
                "build_type=%s\n",
                nproc, workers, __VERSION__, PERFBENCH_BUILD_TYPE);
    std::printf("note: every job starts with empty simulated caches; "
                "all times are host time; the simulated model is not "
                "validated against hardware\n");
}

std::string
jsonResult(const Tally &tally, const std::vector<MetricDef> &defs,
           const std::map<std::string, double> &values)
{
    std::string out = "{\"correct\": ";
    out += tally.failed == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(tally.attempted);
    out += ", \"failed\": " + std::to_string(tally.failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < defs.size(); ++i) {
        const auto it = values.find(defs[i].name);
        const double v = it == values.end() ? 0.0 : it->second;
        out += (i ? ", \"" : "\"") + defs[i].name + "\": {\"value\": " +
               numberText(v) + ", \"unit\": \"" + defs[i].unit + "\"}";
    }
    out += "}}";
    return out;
}

int
runBenchmark(const Options &o)
{
    for (const char *var :
         {"SPT_JOBS", "SPT_CACHE_DIR", "SPT_CACHE_MODE", "SPT_SWEEP_SOCKET"})
        unsetenv(var);
    const unsigned nproc =
        std::max(1u, std::thread::hardware_concurrency());
    const unsigned workers = std::min(kMaxWorkers, nproc);
    printHostFacts(o, nproc, workers);
    if (o.trace)
        pb::calibrateTicks();

    WorkDir work;
    Tally tally;
    std::vector<double> setup_s;
    std::unique_ptr<Setup> s;
    for (unsigned rep = 0; rep < kSetupReps; ++rep) {
        s.reset();
        const auto t0 = rep == 0 ? g_process_start : Clock::now();
        s = buildSetup(o, work, rep, workers, tally);
        setup_s.push_back(secondsSince(t0));
    }

    std::unique_ptr<TraceTotals> tt;
    if (o.trace) {
        tt = std::make_unique<TraceTotals>();
        tt->root = tt->spans.open(o.workload, 0);
    }
    Result res;
    if (o.workload == "tick_serial")
        res = runSimWorkload(o, *s, false, tt.get(), tally);
    else if (o.workload == "observed")
        res = runSimWorkload(o, *s, true, tt.get(), tally);
    else if (o.workload == "sweep_parallel")
        res = runSweepWorkload(o, *s, work, workers, tt.get(), tally);
    else
        res = runWarmWorkload(o, *s, work, tt.get(), tally);

    const Timed &t = res.timed;
    const double tail = tailLevel(t.min_samples);
    std::map<std::string, double> values;
    std::vector<MetricDef> defs;
    if (!o.trace) {
        defs = endToEndDefs();
        values["wall_s"] = median(t.pass_wall);
        values["minstr_per_s"] =
            ratio(static_cast<double>(t.instructions) / 1e6,
                  total(t.pass_wall));
        values["job_s.p50"] = quantile(t.op_s, 0.5);
        values["job_s.tail"] = quantile(t.op_s, tail);
        values["cpu_s"] = median(t.pass_cpu);
        values["setup_s"] = median(setup_s);
        values["peak_rss_mb"] = peakRssMb();
    } else {
        defs = perLayerDefs();
        values = res.layer;
        values["isa.functional_minstr_per_s"] =
            ratio(static_cast<double>(s->functional_instrs) / 1e6,
                  s->functional_s);
        values["isa.assemble_ms"] = s->assemble_s * 1e3;
        values["analysis.kmap_compile_ms"] = s->kmap_s * 1e3;
        values["simulator.construct_ms"] = median(s->construct_s) * 1e3;
        if (o.workload != "warm_rerun") {
            std::vector<double> codec;
            for (const Kernel &k : s->kernels)
                codec.push_back(kmapCodec(k, tally));
            values["knowledge_map.codec_ms"] = meanMs(codec);
        }
        replayMemory(s->kernels, values);
        tt->spans.close(tt->root);
        const std::string path = ".bench_work/spans-" + o.workload +
                                 "-" + std::to_string(o.seed) + ".json";
        if (tt->spans.write(path))
            std::printf("spans: %zu written to %s\n", tt->spans.size(),
                        path.c_str());
        else
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         path.c_str());
    }

    std::printf("passes %zu, ops %zu, setup runs %u", t.pass_wall.size(),
                t.op_s.size(), kSetupReps);
    if (!o.trace)
        std::printf(" (job_s.tail = %s over at least %zu ops)",
                    percentName(tail).c_str(), t.min_samples);
    std::printf("\n");
    for (const MetricDef &d : defs)
        std::printf("  %-44s %14.6g %s\n", d.name.c_str(), values[d.name],
                    d.unit.c_str());
    std::printf("  %-44s %14.6g ratio (%llu of %llu checked ops "
                "failed)\n",
                "failed_ratio",
                ratio(static_cast<double>(tally.failed),
                      static_cast<double>(tally.attempted)),
                static_cast<unsigned long long>(tally.failed),
                static_cast<unsigned long long>(tally.attempted));
    std::printf("%s\n", jsonResult(tally, defs, values).c_str());
    std::fflush(stdout);
    return tally.failed == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    return toolMain("spt_perfbench", [&] {
        const Options o = parseArgs(argc, argv);
        if (o.help) {
            std::fputs(kUsage, stdout);
            return 0;
        }
        return runBenchmark(o);
    });
}
