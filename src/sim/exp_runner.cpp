#include "sim/exp_runner.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <sstream>
#include <unordered_map>

#include "common/json.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "uarch/invariant_checker.h"

namespace spt {

const char *
runStatusName(RunStatus s)
{
    switch (s) {
      case RunStatus::kOk:        return "ok";
      case RunStatus::kTimeout:   return "timeout";
      case RunStatus::kLivelock:  return "livelock";
      case RunStatus::kViolation: return "violation";
      case RunStatus::kCrash:     return "crash";
    }
    return "?";
}

std::string
jobKeyOf(const RunJob &job, JobKeyKind kind, const std::string &program,
         const std::string &map, const std::string &checkpoint)
{
    // The observability flags participate: a traced run carries
    // artifacts a plain run lacks, so the two may not share a slot.
    // fast_forward and the checkpoint knobs participate even though
    // they are result-identical by contract: they change ff.*
    // counters / where a run starts, and merging them would hide
    // exactly the regressions the equivalence gates exist to catch.
    const bool content = kind == JobKeyKind::kContent;
    // "resv1" versions the cache-key schema itself: changing how keys
    // are derived must not alias old cache entries.
    std::string key = content ? "resv1|prog=" : "p=";
    key += program;
    auto field = [&key](std::string_view name, uint64_t value) {
        key += '|';
        key += name;
        key += '=';
        key += std::to_string(value);
    };
    field("sch", static_cast<unsigned>(job.engine.scheme));
    field("m", static_cast<unsigned>(job.engine.spt.method));
    field("sh", static_cast<unsigned>(job.engine.spt.shadow));
    field("bw", job.engine.spt.broadcast_width);
    if (content)
        field("st", 0);
    field("mut", static_cast<unsigned>(job.engine.spt.mutation));
    key += "|km=";
    key += map;
    field("am", static_cast<unsigned>(job.attack_model));
    field("seed", job.seed);
    field("mc", job.max_cycles);
    field("tr", job.trace);
    field("pf", job.profile);
    field("iv", job.interval_stats);
    field("inv", job.invariants);
    field("wd", job.watchdog_cycles);
    if (!content) {
        // The wall timeout can change the outcome (a capped run may
        // cut off early); capped jobs never reach the cache.
        char buf[32];
        std::snprintf(buf, sizeof buf, "|wt=%.9g",
                      job.wall_timeout_seconds);
        key += buf;
    }
    field("ff", job.fast_forward);
    field("ca", job.checkpoint_at);
    field("fs", job.faults.seed);
    for (std::size_t i = 0; i < kNumFaultSites; ++i)
        field("f" + std::to_string(i), job.faults.rate_ppm[i]);
    key += "|ck=";
    key += checkpoint;
    return key;
}

std::string
jobKey(const RunJob &job)
{
    auto address = [](const void *p) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%p", p);
        return std::string(buf);
    };
    return jobKeyOf(job, JobKeyKind::kInProcess, address(job.program),
                    address(job.engine.spt.knowledge_map),
                    job.checkpoint);
}

std::string
describeRunJob(const RunJob &job)
{
    if (!job.label.empty())
        return job.label;
    std::string desc = engineConfigName(job.engine);
    desc += job.attack_model == AttackModel::kSpectre
                ? "/spectre"
                : "/futuristic";
    if (job.seed != 0)
        desc += "/seed=" + std::to_string(job.seed);
    if (job.faults.any())
        desc += "/faults@" + std::to_string(job.faults.seed);
    return desc;
}

namespace {

SimConfig
configFor(const RunJob &job)
{
    SimConfig cfg;
    cfg.engine = job.engine;
    cfg.core.attack_model = job.attack_model;
    cfg.max_cycles = job.max_cycles;
    cfg.profile = job.profile;
    cfg.interval_stats = job.interval_stats;
    cfg.faults = job.faults;
    cfg.invariants = job.invariants;
    if (job.watchdog_cycles != 0)
        cfg.core.watchdog_cycles = job.watchdog_cycles;
    cfg.wall_timeout_seconds = job.wall_timeout_seconds;
    cfg.core.fast_forward = job.fast_forward;
    cfg.checkpoint_at_retires = job.checkpoint_at;
    return cfg;
}

/** Classification order: the strongest signal wins. A violating run
 *  that also livelocked is a violation (the livelock is already one
 *  of its diagnostic reports); a run that merely stalled — the
 *  checker's only complaint being forward progress — is a
 *  livelock. */
RunStatus
classify(const Simulator &sim, const SimResult &r)
{
    if (sim.invariants() != nullptr &&
        sim.invariants()->securityViolations() != 0)
        return RunStatus::kViolation;
    switch (r.termination) {
      case Termination::kLivelock:
        return RunStatus::kLivelock;
      case Termination::kWallTimeout:
      case Termination::kMaxCycles:
        return RunStatus::kTimeout;
      case Termination::kHalted:
        break;
    }
    return RunStatus::kOk;
}

/** Last @p lines lines of @p text (failure evidence wants the tail:
 *  the trace around the violating instruction, not the warm-up). */
std::string
tail(const std::string &text, std::size_t lines)
{
    std::size_t pos = text.size();
    while (lines > 0 && pos > 0) {
        const std::size_t nl = text.rfind('\n', pos - 1);
        if (nl == std::string::npos) {
            pos = 0;
            break;
        }
        pos = nl;
        --lines;
    }
    return pos == 0 ? text : text.substr(pos + 1);
}

/** Re-run a failed job once with trace + invariants attached to
 *  gather evidence; never throws. */
void
captureEvidence(const RunJob &job, RunOutcome &out)
{
    try {
        SimConfig cfg = configFor(job);
        cfg.invariants = true;
        Simulator sim(*job.program, cfg);
        if (!job.checkpoint.empty()) {
            std::ifstream snap(job.checkpoint, std::ios::binary);
            if (!snap)
                SPT_FATAL("cannot open snapshot " << job.checkpoint);
            sim.restoreSnapshot(snap);
        }
        std::ostringstream text, pipeview;
        sim.enableTrace(&text, &pipeview);
        const SimResult r = sim.run();
        const RunStatus rerun = classify(sim, r);
        out.reproduced = rerun == out.status;
        out.evidence_trace = tail(text.str(), 64);
        if (out.diagnostics_json.empty() ||
            out.diagnostics_json == "[]")
            out.diagnostics_json = sim.diagnosticsJson();
    } catch (const std::exception &e) {
        // A crash at the same point *is* the reproduction.
        out.reproduced = out.status == RunStatus::kCrash;
        if (out.error.empty())
            out.error = e.what();
    }
}

/** Resolves the RunnerPolicy/environment cache configuration into
 *  an open cache, or nullptr when disabled. */
std::unique_ptr<ResultCache>
openCache(const RunnerPolicy &policy)
{
    std::string dir = policy.cache_dir;
    CacheMode mode = policy.cache_mode;
    if (dir.empty()) {
        const char *env_dir = std::getenv("SPT_CACHE_DIR");
        if (env_dir == nullptr || *env_dir == '\0')
            return nullptr;
        dir = env_dir;
        mode = CacheMode::kReadWrite;
        if (const char *env_mode = std::getenv("SPT_CACHE_MODE"))
            mode = parseCacheMode(env_mode);
    }
    if (mode == CacheMode::kOff)
        return nullptr;
    return std::make_unique<ResultCache>(std::move(dir), mode);
}

} // namespace

ExpRunner::ExpRunner(unsigned jobs) : workers_(resolveJobs(jobs)) {}

std::vector<RunOutcome>
ExpRunner::run(const std::vector<RunJob> &grid,
               const RunnerPolicy &policy)
{
    for (std::size_t i = 0; i < grid.size(); ++i)
        if (grid[i].program == nullptr)
            SPT_FATAL("RunJob " << i << " has a null program");

    // Deduplicate up front: unique jobs run on the pool, duplicate
    // slots are filled by copy afterwards.
    std::vector<std::size_t> unique;       // grid indices to simulate
    std::vector<std::size_t> source(grid.size()); // slot -> source slot
    std::unordered_map<std::string, std::size_t> first_by_key;
    unique.reserve(grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const auto [it, inserted] =
            first_by_key.emplace(jobKey(grid[i]), i);
        source[i] = it->second;
        if (inserted)
            unique.push_back(i);
    }

    // Canonical cache keys are computed up front on the main thread:
    // canonicalKey may read a checkpoint file, and the memoization
    // map it fills is shared mutable state the pool workers must not
    // touch (common/parallel.h contract).
    const std::unique_ptr<ResultCache> cache = openCache(policy);
    std::vector<std::string> ckeys(grid.size());
    if (cache) {
        std::map<std::string, uint64_t> ckpt_hashes;
        for (const std::size_t slot : unique)
            ckeys[slot] =
                ResultCache::canonicalKey(grid[slot], &ckpt_hashes);
    }

    std::vector<RunOutcome> outcomes(grid.size());
    // Exceptions are caught per slot and resolved after the pool
    // drains, so a failing sweep (a) always identifies the
    // lowest-indexed failing job regardless of worker scheduling and
    // (b) under keep_going completes with the failure confined to
    // its own slot.
    std::vector<std::exception_ptr> errors(grid.size());
    const auto t0 = std::chrono::steady_clock::now();
    parallelFor(unique.size(), workers_, [&](std::size_t u) {
        const std::size_t slot = unique[u];
        const RunJob &job = grid[slot];
        const std::string &ckey = ckeys[slot];
        RunOutcome cached;
        bool verify_hit = false;
        if (cache && !ckey.empty() && cache->lookup(ckey, &cached)) {
            if (cache->mode() != CacheMode::kVerify) {
                outcomes[slot] = std::move(cached);
                return;
            }
            verify_hit = true; // re-simulate, then compare
        }
        RunOutcome out;
        try {
            SimConfig cfg = configFor(job);
            Simulator sim(*job.program, cfg);
            if (!job.checkpoint.empty()) {
                std::ifstream snap(job.checkpoint,
                                   std::ios::binary);
                if (!snap)
                    SPT_FATAL("cannot open snapshot "
                              << job.checkpoint);
                sim.restoreSnapshot(snap);
            }
            std::ostringstream trace_text, trace_pipeview;
            if (job.trace)
                sim.enableTrace(&trace_text, &trace_pipeview);
            const auto j0 = std::chrono::steady_clock::now();
            out.result = sim.run();
            const auto j1 = std::chrono::steady_clock::now();
            out.host_seconds =
                std::chrono::duration<double>(j1 - j0).count();
            const StatSet &stats = sim.core().engine().stats();
            out.engine_counters = stats.counters();
            out.engine_histograms = stats.histograms();
            if (job.trace) {
                out.trace_text = trace_text.str();
                out.trace_pipeview = trace_pipeview.str();
            }
            if (sim.profiler())
                out.profile_json = sim.profiler()->toJson();
            if (sim.intervals())
                out.intervals_json = sim.intervals()->toJson();
            if (sim.faults())
                out.fault_counters = sim.faults()->counters();
            for (unsigned r = 0; r < kNumArchRegs; ++r)
                out.arch_regs[r] = sim.core().archReg(r);
            out.status = classify(sim, out.result);
            if (job.invariants || out.status != RunStatus::kOk)
                out.diagnostics_json = sim.diagnosticsJson();
        } catch (const std::exception &e) {
            out.status = RunStatus::kCrash;
            out.error = e.what();
            errors[slot] = std::current_exception();
        }
        if (verify_hit &&
            ResultCache::encodeOutcomeDeterministic(out) !=
                ResultCache::encodeOutcomeDeterministic(cached))
            cache->noteVerifyMismatch(ckey);
        // Stored as soon as the job finishes, not after the sweep:
        // this is what lets a killed sweep resume from the cache.
        if (cache && !ckey.empty() && !verify_hit)
            cache->store(ckey, out);
        if (policy.capture_evidence &&
            (out.status == RunStatus::kCrash ||
             out.status == RunStatus::kViolation))
            captureEvidence(job, out);
        outcomes[slot] = std::move(out);
    });
    const auto t1 = std::chrono::steady_clock::now();

    for (std::size_t i = 0; i < grid.size(); ++i)
        if (source[i] != i) {
            outcomes[i] = outcomes[source[i]];
            // A memo hit costs no host time; copying the source
            // slot's timing would bill the unique run once per
            // duplicate in every per-config host-time total.
            outcomes[i].memoized = true;
            outcomes[i].host_seconds = 0.0;
        }
    // Descriptors are per-slot, not per-unique-run: duplicates may
    // carry distinct labels.
    for (std::size_t i = 0; i < grid.size(); ++i)
        outcomes[i].job_desc = describeRunJob(grid[i]);

    last_.workers = workers_;
    last_.unique_jobs = unique.size();
    last_.memo_hits = grid.size() - unique.size();
    last_.wall_seconds =
        std::chrono::duration<double>(t1 - t0).count();
    last_.cache = cache ? cache->stats() : CacheStats{};
    last_.cache_mode =
        cache ? cacheModeName(cache->mode()) : "off";
    last_.cache_dir = cache ? cache->dir() : "";
    last_.failed_jobs = 0;
    last_.first_failure.clear();
    for (std::size_t i = 0; i < grid.size(); ++i) {
        if (!outcomes[i].failed())
            continue;
        ++last_.failed_jobs;
        if (last_.first_failure.empty())
            last_.first_failure = outcomes[i].job_desc;
    }

    if (!policy.keep_going)
        for (std::size_t i = 0; i < grid.size(); ++i)
            if (errors[source[i]])
                std::rethrow_exception(errors[source[i]]);
    return outcomes;
}

void
sweepReportJson(JsonWriter &jw, const std::vector<RunJob> &grid,
                const std::vector<RunOutcome> &outcomes,
                const SweepStats &stats)
{
    SPT_ASSERT(grid.size() == outcomes.size(),
               "sweep report: grid/outcome size mismatch");
    jw.beginObject();
    jw.field("jobs", static_cast<uint64_t>(grid.size()));
    jw.field("unique_jobs", stats.unique_jobs);
    jw.field("memo_hits", stats.memo_hits);
    jw.field("failed_jobs", stats.failed_jobs);
    jw.field("first_failure", stats.first_failure);
    // host_seconds_saved is host-timing and deliberately excluded:
    // this report must stay byte-identical across hosts and worker
    // counts (the determinism gates cmp it).
    jw.key("cache");
    jw.beginObject();
    jw.field("mode", stats.cache_mode);
    jw.field("hits", stats.cache.hits);
    jw.field("misses", stats.cache.misses);
    jw.field("verify_mismatches", stats.cache.verify_mismatches);
    jw.field("bytes_written", stats.cache.bytes_written);
    jw.endObject();
    jw.key("cells");
    jw.beginArray();
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const RunOutcome &out = outcomes[i];
        jw.beginObject();
        jw.field("index", static_cast<uint64_t>(i));
        jw.field("job", out.job_desc);
        jw.field("status", runStatusName(out.status));
        jw.field("termination",
                 terminationName(out.result.termination));
        jw.field("cycles", out.result.cycles);
        jw.field("instructions", out.result.instructions);
        if (!out.error.empty())
            jw.field("error", out.error);
        if (!out.fault_counters.empty()) {
            jw.key("faults");
            jw.beginObject();
            for (const auto &[name, value] : out.fault_counters)
                jw.field(name, value);
            jw.endObject();
        }
        if (!out.diagnostics_json.empty() &&
            out.diagnostics_json != "[]") {
            jw.key("diagnostics");
            jw.raw(out.diagnostics_json);
        }
        if (out.status == RunStatus::kCrash ||
            out.status == RunStatus::kViolation)
            jw.field("reproduced", out.reproduced);
        jw.endObject();
    }
    jw.endArray();
    jw.endObject();
}

} // namespace spt
