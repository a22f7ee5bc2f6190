#include "sim/result_cache.h"

#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/binio.h"
#include "common/logging.h"
#include "common/stats.h"
#include "core/knowledge_map.h"
#include "sim/exp_runner.h"

namespace spt {

namespace {

constexpr uint64_t kMagic = 0x5350545245533031ull; // "SPTRES01"
constexpr uint32_t kVersion = 1;

std::string
hex16(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

/** FNV-1a of a whole file; false if it cannot be read. */
bool
hashFile(const std::string &path, uint64_t *out)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return false;
    uint64_t h = kFnvOffset;
    char buf[65536];
    for (;;) {
        is.read(buf, sizeof buf);
        const std::streamsize n = is.gcount();
        if (n <= 0)
            break;
        h = fnv1a(std::string_view(buf, static_cast<std::size_t>(n)),
                  h);
    }
    if (is.bad())
        return false;
    *out = h;
    return true;
}

} // namespace

const char *
cacheModeName(CacheMode m)
{
    switch (m) {
      case CacheMode::kOff:       return "off";
      case CacheMode::kReadWrite: return "read_write";
      case CacheMode::kReadOnly:  return "read_only";
      case CacheMode::kVerify:    return "verify";
    }
    return "?";
}

CacheMode
parseCacheMode(const std::string &text)
{
    if (text == "off")
        return CacheMode::kOff;
    if (text == "read_write")
        return CacheMode::kReadWrite;
    if (text == "read_only")
        return CacheMode::kReadOnly;
    if (text == "verify")
        return CacheMode::kVerify;
    SPT_FATAL("unknown cache mode \"" << text
              << "\" (expected off / read_write / read_only / "
                 "verify)");
}

ResultCache::ResultCache(std::string dir, CacheMode mode)
    : dir_(std::move(dir)), mode_(mode)
{
    SPT_ASSERT(mode_ != CacheMode::kOff,
               "ResultCache constructed with mode off");
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec)
        SPT_FATAL("cannot create cache directory " << dir_ << ": "
                                                   << ec.message());
}

bool
ResultCache::cacheable(const RunJob &job)
{
    // A wall-clock cap makes the outcome schedule-dependent by
    // documented contract (exp_runner.h); everything else in the
    // descriptor is a pure function of its content.
    return job.program != nullptr && job.wall_timeout_seconds == 0.0;
}

std::string
ResultCache::canonicalKey(const RunJob &job,
                          std::map<std::string, uint64_t> *ckpt_hashes)
{
    if (!cacheable(job))
        return "";

    uint64_t ckpt_hash = 0;
    if (!job.checkpoint.empty()) {
        // Content-address the snapshot too: the same path holding
        // different bytes is a different design point.
        bool have = false;
        if (ckpt_hashes) {
            const auto it = ckpt_hashes->find(job.checkpoint);
            if (it != ckpt_hashes->end()) {
                ckpt_hash = it->second;
                have = true;
            }
        }
        if (!have) {
            if (!hashFile(job.checkpoint, &ckpt_hash))
                return ""; // unreadable: the simulation will say so
            if (ckpt_hashes)
                (*ckpt_hashes)[job.checkpoint] = ckpt_hash;
        }
    }

    const uint64_t prog = KnowledgeMap::fingerprintOf(*job.program);
    const uint64_t km =
        job.engine.spt.knowledge_map != nullptr
            ? job.engine.spt.knowledge_map->contentHash()
            : 0;

    // jobKey's field list, with every by-reference component
    // replaced by its content hash.
    return jobKeyOf(job, JobKeyKind::kContent, hex16(prog), hex16(km),
                    job.checkpoint.empty() ? std::string("0")
                                           : hex16(ckpt_hash));
}

std::string
ResultCache::encodeOutcome(const RunOutcome &out)
{
    BinWriter w;
    w.u64(out.result.cycles);
    w.u64(out.result.instructions);
    w.b(out.result.halted);
    w.f64(out.result.ipc);
    w.u8(static_cast<uint8_t>(out.result.termination));
    w.f64(out.host_seconds);
    w.u8(static_cast<uint8_t>(out.status));
    w.str(out.error);
    w.str(out.diagnostics_json);
    encodeCounters(w, out.engine_counters);
    encodeHistograms(w, out.engine_histograms);
    w.str(out.trace_text);
    w.str(out.trace_pipeview);
    w.str(out.profile_json);
    w.str(out.intervals_json);
    encodeCounters(w, out.fault_counters);
    for (const uint64_t r : out.arch_regs)
        w.u64(r);
    w.str(out.evidence_trace);
    w.b(out.reproduced);
    return w.take();
}

RunOutcome
ResultCache::decodeOutcome(const std::string &bytes)
{
    BinReader rd(bytes, "result record");
    RunOutcome out;
    out.result.cycles = rd.u64();
    out.result.instructions = rd.u64();
    out.result.halted = rd.b();
    out.result.ipc = rd.f64();
    const uint8_t term = rd.u8();
    if (term > static_cast<uint8_t>(Termination::kWallTimeout))
        SPT_FATAL("result record corrupt: termination " << +term);
    out.result.termination = static_cast<Termination>(term);
    out.host_seconds = rd.f64();
    const uint8_t status = rd.u8();
    if (status > static_cast<uint8_t>(RunStatus::kCrash))
        SPT_FATAL("result record corrupt: status " << +status);
    out.status = static_cast<RunStatus>(status);
    out.error = rd.str();
    out.diagnostics_json = rd.str();
    out.engine_counters = decodeCounters(rd);
    out.engine_histograms = decodeHistograms(rd);
    out.trace_text = rd.str();
    out.trace_pipeview = rd.str();
    out.profile_json = rd.str();
    out.intervals_json = rd.str();
    out.fault_counters = decodeCounters(rd, uint64_t{1} << 16);
    for (uint64_t &r : out.arch_regs)
        r = rd.u64();
    out.evidence_trace = rd.str();
    out.reproduced = rd.b();
    if (!rd.atEnd())
        SPT_FATAL("result record corrupt: trailing bytes");
    return out;
}

std::string
ResultCache::encodeOutcomeDeterministic(const RunOutcome &out)
{
    RunOutcome copy = out;
    copy.host_seconds = 0.0;
    copy.memoized = false;
    copy.job_desc.clear();
    return encodeOutcome(copy);
}

std::string
ResultCache::entryPath(const std::string &key) const
{
    return dir_ + "/" + hex16(fnv1a(key)) + ".sptres";
}

bool
ResultCache::lookup(const std::string &key, RunOutcome *out)
{
    bool hit = false;
    double saved = 0.0;
    try {
        std::ifstream is(entryPath(key), std::ios::binary);
        if (is) {
            const std::string record = readAll(is);
            if (record.size() < 8)
                SPT_FATAL("result record truncated");
            // Content-hash trailer first: everything after this
            // point may assume the bytes are what was written.
            const std::size_t body = record.size() - 8;
            const std::string_view view(record);
            BinReader trailer(view.substr(body), "result record");
            if (trailer.u64() != fnv1a(view.substr(0, body)))
                SPT_FATAL("result record content hash mismatch");
            BinReader rd(view, "result record");
            if (rd.u64() != kMagic)
                SPT_FATAL("not a result record (bad magic)");
            const uint32_t version = rd.u32();
            if (version != kVersion)
                SPT_FATAL("result record version skew: "
                          << version);
            if (rd.str() != key)
                SPT_FATAL("result record key collision");
            const std::string payload = rd.str();
            if (rd.pos() != body)
                SPT_FATAL("result record corrupt: stray bytes");
            *out = decodeOutcome(payload);
            saved = out->host_seconds;
            hit = true;
        }
    } catch (const std::exception &) {
        // Any malformation degrades to a miss: the job simply
        // re-simulates (and read_write mode rewrites the entry).
        hit = false;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (hit) {
        ++stats_.hits;
        // Verify-mode hits re-simulate anyway; nothing is saved.
        if (mode_ != CacheMode::kVerify)
            stats_.host_seconds_saved += saved;
    } else {
        ++stats_.misses;
    }
    return hit;
}

void
ResultCache::store(const std::string &key, const RunOutcome &out)
{
    if (mode_ != CacheMode::kReadWrite)
        return;
    // Only clean outcomes are stored — see the file comment.
    if (out.status != RunStatus::kOk)
        return;

    BinWriter w;
    w.u64(kMagic);
    w.u32(kVersion);
    w.str(key);
    w.str(encodeOutcome(out));
    w.u64(fnv1a(w.data()));
    const std::string record = w.take();

    const std::string path = entryPath(key);
    std::string tmp;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        // The pid keeps processes sharing the directory from writing
        // through one temp file.
        tmp = path + ".tmp" + std::to_string(getpid()) + "." +
              std::to_string(tmp_seq_++);
    }
    bool ok = false;
    {
        std::ofstream os(tmp, std::ios::binary);
        os.write(record.data(),
                 static_cast<std::streamsize>(record.size()));
        ok = static_cast<bool>(os);
    }
    if (ok)
        ok = std::rename(tmp.c_str(), path.c_str()) == 0;
    std::lock_guard<std::mutex> lock(mutex_);
    if (ok) {
        stats_.bytes_written += record.size();
    } else {
        std::remove(tmp.c_str());
        if (!write_failed_)
            warn("result cache: cannot write " + path +
                 " (suppressing further write warnings)");
        write_failed_ = true;
    }
}

void
ResultCache::noteVerifyMismatch(const std::string &key)
{
    warn("result cache VERIFY MISMATCH: re-simulation of " + key +
         " does not reproduce the stored record");
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.verify_mismatches;
}

CacheStats
ResultCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace spt
