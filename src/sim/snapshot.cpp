/**
 * @file
 * Checkpoint wire format (see snapshot.h for the state inventory).
 *
 * Everything is explicit little-endian bytes — no struct dumps — so
 * a snapshot written on any host restores on any other. Containers
 * with nondeterministic iteration order (the sparse page maps, the
 * coherence directory) are written sorted by key so identical
 * machine states produce identical snapshot bytes. save() encodes
 * into memory and writes once; restore() and info() read the whole
 * stream and decode it with the bounds-checked common/binio reader.
 *
 * The header keeps a taint-storage byte from when a legacy
 * byte-vector store existed: it is always written as 0, and a
 * nonzero byte is refused.
 */

#include "sim/snapshot.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <vector>

#include "common/binio.h"
#include "common/logging.h"
#include "core/knowledge_map.h"
#include "core/spt_engine.h"
#include "sim/fault_injector.h"
#include "sim/simulator.h"

namespace spt {

namespace {

constexpr uint64_t kMagic = 0x31544b4354505331ULL; // "1SPTCKT1"
constexpr uint32_t kVersion = 2; // v2: knowledge-map tag + armed bits

/** Bound on the engine name a snapshot carries. */
constexpr uint64_t kMaxName = uint64_t{1} << 20;

struct Fingerprint {
    uint64_t code_size;
    uint64_t entry;
    uint64_t data_segments;
    uint64_t data_bytes;
};

Fingerprint
fingerprintOf(const Program &p)
{
    uint64_t bytes = 0;
    for (const auto &[addr, seg] : p.dataSegments())
        bytes += seg.size();
    return {p.size(), p.entry(), p.dataSegments().size(), bytes};
}

} // namespace

// All component wire formats live here; as a member class of
// Snapshotter it shares the friend grants (a nested class has the
// access rights of a member of the enclosing class). Each putX/getX
// pair must mirror exactly.
class Snapshotter::Codec
{
  public:
    // --- StatSet ------------------------------------------------------
    static void
    putStats(BinWriter &w, const StatSet &s)
    {
        encodeCounters(w, s.counters());
        encodeHistograms(w, s.histograms());
    }

    static void
    getStats(BinReader &r, StatSet &s)
    {
        // By name through the public API, so the handles the
        // restored components registered stay valid.
        s.reset();
        for (const auto &[name, value] : decodeCounters(r))
            s.set(name, value);
        for (const auto &[name, h] : decodeHistograms(r))
            s.histogram(name, h.numBuckets()) = h;
    }

    // --- ByteMemory ---------------------------------------------------
    static void
    putMemory(BinWriter &w, const ByteMemory &m)
    {
        std::vector<uint64_t> keys;
        keys.reserve(m.pages_.size());
        for (const auto &[page, data] : m.pages_)
            keys.push_back(page);
        std::sort(keys.begin(), keys.end());
        w.u64(keys.size());
        for (const uint64_t page : keys) {
            w.u64(page);
            w.bytes(m.pages_.at(page)->data(),
                    ByteMemory::kPageBytes);
        }
    }

    static void
    getMemory(BinReader &r, ByteMemory &m)
    {
        m.pages_.clear();
        const uint64_t n = r.u64();
        r.needItems(n, 8 + ByteMemory::kPageBytes);
        for (uint64_t i = 0; i < n; ++i) {
            const uint64_t page = r.u64();
            auto p = std::make_unique<ByteMemory::Page>();
            r.bytes(p->data(), ByteMemory::kPageBytes);
            m.pages_.emplace(page, std::move(p));
        }
    }

    // --- SetAssocCache ------------------------------------------------
    static void
    putCache(BinWriter &w, const SetAssocCache &c)
    {
        w.u64(c.lines_.size());
        for (const auto &line : c.lines_) {
            w.b(line.valid);
            w.u64(line.tag);
            w.u64(line.lru);
            w.u8(static_cast<uint8_t>(line.state));
        }
        w.u64(c.tick_);
        putStats(w, c.stats_);
    }

    static void
    getCache(BinReader &r, SetAssocCache &c)
    {
        const uint64_t n = r.u64();
        if (n != c.lines_.size())
            SPT_FATAL("snapshot/config mismatch: cache "
                      << c.params().name << " has " << c.lines_.size()
                      << " lines, snapshot " << n);
        for (auto &line : c.lines_) {
            line.valid = r.b();
            line.tag = r.u64();
            line.lru = r.u64();
            line.state = static_cast<MesiState>(r.u8());
        }
        c.tick_ = r.u64();
        getStats(r, c.stats_);
    }

    // --- MshrFile -----------------------------------------------------
    static void
    putMshrs(BinWriter &w, const MshrFile &m)
    {
        w.u64(m.entries_.size());
        for (const auto &e : m.entries_) {
            w.u64(e.line_addr);
            w.u64(e.ready_cycle);
        }
        putStats(w, m.stats_);
    }

    static void
    getMshrs(BinReader &r, MshrFile &m)
    {
        const uint64_t n = r.u64();
        if (n > m.capacity())
            SPT_FATAL("snapshot/config mismatch: " << n
                      << " in-flight MSHRs, capacity "
                      << m.capacity());
        m.entries_.resize(n);
        for (auto &e : m.entries_) {
            e.line_addr = r.u64();
            e.ready_cycle = r.u64();
        }
        getStats(r, m.stats_);
    }

    // --- MesiDirectory ------------------------------------------------
    static void
    putDirectory(BinWriter &w, const MesiDirectory &d)
    {
        std::vector<uint64_t> keys;
        keys.reserve(d.dir_.size());
        for (const auto &[line, entry] : d.dir_)
            keys.push_back(line);
        std::sort(keys.begin(), keys.end());
        w.u64(keys.size());
        for (const uint64_t line : keys) {
            const auto &e = d.dir_.at(line);
            w.u64(line);
            w.u32(e.sharers);
            w.u32(static_cast<uint32_t>(e.owner));
            w.b(e.modified);
        }
        putStats(w, d.stats_);
    }

    static void
    getDirectory(BinReader &r, MesiDirectory &d)
    {
        d.dir_.clear();
        const uint64_t n = r.u64();
        for (uint64_t i = 0; i < n; ++i) {
            const uint64_t line = r.u64();
            auto &e = d.dir_[line];
            e.sharers = r.u32();
            e.owner = static_cast<int>(r.u32());
            e.modified = r.b();
        }
        getStats(r, d.stats_);
    }

    // --- Branch predictors --------------------------------------------
    static void
    putHistoryState(BinWriter &w, const TagePredictor::HistoryState &hs)
    {
        w.u64(hs.history.bits_.size());
        w.bytes(hs.history.bits_.data(), hs.history.bits_.size());
        w.u64(hs.history.head_);
        for (const auto *folds :
             {&hs.index_fold, &hs.tag_fold0, &hs.tag_fold1}) {
            w.u64(folds->size());
            for (const FoldedHistory &f : *folds)
                w.u32(f.value());
        }
    }

    static void
    getHistoryState(BinReader &r, TagePredictor::HistoryState &hs)
    {
        const uint64_t n = r.u64();
        if (n != hs.history.bits_.size())
            SPT_FATAL("snapshot/config mismatch: history size");
        r.bytes(hs.history.bits_.data(), n);
        hs.history.head_ = r.u64();
        for (auto *folds :
             {&hs.index_fold, &hs.tag_fold0, &hs.tag_fold1}) {
            const uint64_t k = r.u64();
            if (k != folds->size())
                SPT_FATAL("snapshot/config mismatch: fold count");
            for (FoldedHistory &f : *folds)
                f.setValue(r.u32());
        }
    }

    static void
    putTage(BinWriter &w, const TagePredictor &t)
    {
        w.u64(t.base_.table_.size());
        for (const SatCounter &c : t.base_.table_)
            w.u32(c.value());
        w.u64(t.tables_.size());
        for (const auto &table : t.tables_) {
            w.u64(table.size());
            for (const auto &e : table) {
                w.u16(e.tag);
                w.u32(e.ctr.value());
                w.u32(e.useful.value());
            }
        }
        putHistoryState(w, t.spec_);
        putHistoryState(w, t.committed_);
        w.u32(t.lfsr_);
        w.u64(t.update_count_);
    }

    static void
    getTage(BinReader &r, TagePredictor &t)
    {
        if (r.u64() != t.base_.table_.size())
            SPT_FATAL("snapshot/config mismatch: bimodal size");
        for (SatCounter &c : t.base_.table_)
            c.set(r.u32());
        if (r.u64() != t.tables_.size())
            SPT_FATAL("snapshot/config mismatch: TAGE tables");
        for (auto &table : t.tables_) {
            if (r.u64() != table.size())
                SPT_FATAL("snapshot/config mismatch: TAGE table "
                          "size");
            for (auto &e : table) {
                e.tag = r.u16();
                e.ctr.set(r.u32());
                e.useful.set(r.u32());
            }
        }
        getHistoryState(r, t.spec_);
        getHistoryState(r, t.committed_);
        t.lfsr_ = r.u32();
        t.update_count_ = r.u64();
    }

    static void
    putLoop(BinWriter &w, const LoopPredictor &l)
    {
        w.u64(l.table_.size());
        for (const auto &e : l.table_) {
            w.u32(e.tag);
            w.b(e.valid);
            w.u32(e.trip_count);
            w.u32(e.arch_count);
            w.u32(e.spec_count);
            w.u32(e.confidence);
        }
    }

    static void
    getLoop(BinReader &r, LoopPredictor &l)
    {
        if (r.u64() != l.table_.size())
            SPT_FATAL("snapshot/config mismatch: loop table size");
        for (auto &e : l.table_) {
            e.tag = r.u32();
            e.valid = r.b();
            e.trip_count = r.u32();
            e.arch_count = r.u32();
            e.spec_count = r.u32();
            e.confidence = r.u32();
        }
    }

    static void
    putBpu(BinWriter &w, const BranchPredictorUnit &bpu)
    {
        putTage(w, bpu.ltage_.tage_);
        putLoop(w, bpu.ltage_.loop_);
        w.u32(bpu.ltage_.use_loop_.value());
        w.u64(bpu.btb_.entries_.size());
        for (const auto &e : bpu.btb_.entries_) {
            w.b(e.valid);
            w.u64(e.tag);
            w.u64(e.target);
            w.u64(e.lru);
        }
        w.u64(bpu.btb_.tick_);
        const ReturnAddressStack::Checkpoint ras =
            bpu.ras_.checkpoint();
        for (const uint64_t v : ras.stack)
            w.u64(v);
        w.u32(ras.top);
        w.u32(ras.depth);
        putStats(w, bpu.stats_);
    }

    static void
    getBpu(BinReader &r, BranchPredictorUnit &bpu)
    {
        getTage(r, bpu.ltage_.tage_);
        getLoop(r, bpu.ltage_.loop_);
        bpu.ltage_.use_loop_.set(r.u32());
        if (r.u64() != bpu.btb_.entries_.size())
            SPT_FATAL("snapshot/config mismatch: BTB size");
        for (auto &e : bpu.btb_.entries_) {
            e.valid = r.b();
            e.tag = r.u64();
            e.target = r.u64();
            e.lru = r.u64();
        }
        bpu.btb_.tick_ = r.u64();
        ReturnAddressStack::Checkpoint ras;
        for (uint64_t &v : ras.stack)
            v = r.u64();
        ras.top = r.u32();
        ras.depth = r.u32();
        bpu.ras_.restore(ras);
        getStats(r, bpu.stats_);
    }

    // --- Store sets ---------------------------------------------------
    static void
    putStoreSets(BinWriter &w, const StoreSetPredictor &s)
    {
        w.u64(s.ssit_.size());
        for (const int32_t v : s.ssit_)
            w.u32(static_cast<uint32_t>(v));
        w.u64(s.lfst_.size());
        for (const auto &e : s.lfst_) {
            w.b(e.valid);
            w.u64(e.seq);
        }
        w.u32(static_cast<uint32_t>(s.next_set_id_));
    }

    static void
    getStoreSets(BinReader &r, StoreSetPredictor &s)
    {
        if (r.u64() != s.ssit_.size())
            SPT_FATAL("snapshot/config mismatch: SSIT size");
        for (int32_t &v : s.ssit_)
            v = static_cast<int32_t>(r.u32());
        if (r.u64() != s.lfst_.size())
            SPT_FATAL("snapshot/config mismatch: LFST size");
        for (auto &e : s.lfst_) {
            e.valid = r.b();
            e.seq = r.u64();
        }
        s.next_set_id_ = static_cast<int32_t>(r.u32());
    }

    // --- Data taint stores --------------------------------------------
    static void
    putTaintStore(BinWriter &w, const SptEngine &eng)
    {
        const SptConfig &cfg = eng.config();
        const DataTaintStore *store = eng.taint_store_.get();
        if (cfg.shadow == ShadowKind::kShadowL1) {
            const auto &s = dynamic_cast<const ShadowL1 &>(*store);
            w.u64(s.entries_.size());
            for (const auto &e : s.entries_) {
                w.b(e.valid);
                w.u64(e.line_addr);
            }
            w.u64(s.taint_.size());
            for (const uint64_t word : s.taint_)
                w.u64(word);
            putStats(w, s.stats_);
        } else if (cfg.shadow == ShadowKind::kShadowMem) {
            const auto &s = dynamic_cast<const ShadowMemory &>(*store);
            std::vector<uint64_t> keys;
            for (const auto &[page, words] : s.pages_)
                keys.push_back(page);
            std::sort(keys.begin(), keys.end());
            w.u64(keys.size());
            for (const uint64_t page : keys) {
                w.u64(page);
                for (const uint64_t word : s.pages_.at(page))
                    w.u64(word);
            }
        }
        // ShadowKind::kNone: NullTaintStore is stateless.
    }

    static void
    getTaintStore(BinReader &r, SptEngine &eng)
    {
        const SptConfig &cfg = eng.config();
        DataTaintStore *store = eng.taint_store_.get();
        if (cfg.shadow == ShadowKind::kShadowL1) {
            auto &s = dynamic_cast<ShadowL1 &>(*store);
            if (r.u64() != s.entries_.size())
                SPT_FATAL("snapshot/config mismatch: shadow L1 "
                          "geometry");
            for (auto &e : s.entries_) {
                e.valid = r.b();
                e.line_addr = r.u64();
            }
            if (r.u64() != s.taint_.size())
                SPT_FATAL("snapshot/config mismatch: shadow L1 "
                          "words");
            for (uint64_t &word : s.taint_)
                word = r.u64();
            getStats(r, s.stats_);
        } else if (cfg.shadow == ShadowKind::kShadowMem) {
            auto &s = dynamic_cast<ShadowMemory &>(*store);
            constexpr uint64_t kPageWords = ShadowMemory::kPageBytes / 64;
            s.pages_.clear();
            const uint64_t n = r.u64();
            r.needItems(n, 8 + 8 * kPageWords);
            for (uint64_t i = 0; i < n; ++i) {
                const uint64_t page = r.u64();
                auto &words = s.pages_[page];
                words.resize(kPageWords);
                for (uint64_t &word : words)
                    word = r.u64();
            }
        }
    }

    // --- Fault injector -----------------------------------------------
    static void
    putInjector(BinWriter &w, const FaultInjector *inj)
    {
        w.b(inj != nullptr);
        if (inj == nullptr)
            return;
        for (std::size_t i = 0; i < kNumFaultSites; ++i) {
            for (const uint64_t word : inj->streams_[i].s_)
                w.u64(word);
            w.u64(inj->draws_[i]);
            w.u64(inj->fired_[i]);
        }
    }

    static void
    getInjector(BinReader &r, FaultInjector *inj)
    {
        const bool present = r.b();
        if (present != (inj != nullptr))
            SPT_FATAL("snapshot/config mismatch: snapshot "
                      << (present ? "has" : "lacks")
                      << " a fault plan, this run "
                      << (inj ? "has" : "lacks") << " one");
        if (!present)
            return;
        for (std::size_t i = 0; i < kNumFaultSites; ++i) {
            for (uint64_t &word : inj->streams_[i].s_)
                word = r.u64();
            inj->draws_[i] = r.u64();
            inj->fired_[i] = r.u64();
        }
    }
};

void
Snapshotter::save(const Simulator &sim, std::ostream &os)
{
    const Core &core = *sim.core_;
    if (sim.reference_)
        SPT_FATAL("cannot snapshot with a lockstep reference CPU "
                  "attached");
    if (!core.drained())
        SPT_FATAL("cannot snapshot an undrained pipeline (snapshots "
                  "are taken at the checkpoint barrier)");

    BinWriter w;
    w.u64(kMagic);
    w.u32(kVersion);
    w.u64(core.cycle_);
    w.u64(core.retired_);
    w.str(core.engine_->name());
    const Fingerprint fp = fingerprintOf(core.program_);
    w.u64(fp.code_size);
    w.u64(fp.entry);
    w.u64(fp.data_segments);
    w.u64(fp.data_bytes);

    // Config tag: fields a restore must agree on.
    const EngineConfig &ec = sim.config_.engine;
    w.u8(static_cast<uint8_t>(ec.scheme));
    w.u8(static_cast<uint8_t>(ec.spt.shadow));
    w.u8(0); // taint storage: 0 = bitplane, the only one left
    // Knowledge-map identity (0 = no map): a restore under a
    // different map would preclear differently from the run that
    // took the snapshot, breaking byte-identity.
    w.u64(ec.spt.knowledge_map
              ? ec.spt.knowledge_map->contentHash()
              : 0);

    // Core scalars + architectural registers.
    w.u64(core.next_seq_);
    w.u64(core.fetch_pc_);
    w.u64(core.fetch_stall_until_);
    w.u64(core.delay_mem_cycles_);
    w.u64(core.delay_branch_cycles_);
    w.u64(core.delay_memorder_cycles_);
    for (unsigned r = 0; r < kNumArchRegs; ++r)
        w.u64(core.prf_.value(core.rat_.lookup(
            static_cast<uint8_t>(r))));
    Codec::putStats(w, core.stats_);

    Codec::putMemory(w, core.mem_);

    // Memory hierarchy.
    MemorySystem &ms = const_cast<Core &>(core).memorySystem();
    Codec::putCache(w, ms.l1i());
    Codec::putCache(w, ms.l1d());
    Codec::putCache(w, ms.l2());
    Codec::putCache(w, ms.l3());
    Codec::putMshrs(w, ms.mshrs());
    Codec::putDirectory(w, ms.directory());
    Codec::putStats(w, ms.stats());

    Codec::putBpu(w, core.bpu_);
    Codec::putStoreSets(w, core.store_sets_);

    // Engine: stats always; SPT adds committed register taint and
    // the data taint store. (A drained STT engine has no live taint
    // roots, so its table restores to the fresh all-dead state.)
    Codec::putStats(w, core.engine_->stats());
    if (const auto *spt =
            dynamic_cast<const SptEngine *>(core.engine_.get())) {
        for (unsigned r = 0; r < kNumArchRegs; ++r)
            w.u8(spt->masterTaint(core.rat_.lookup(
                                      static_cast<uint8_t>(r)))
                     .raw());
        // Armed bits (knowledge-map preclear precondition): at the
        // drained barrier only committed-RAT registers are live, so
        // the arch-indexed view is complete.
        for (unsigned r = 0; r < kNumArchRegs; ++r)
            w.u8(spt->valueArmed(core.rat_.lookup(
                     static_cast<uint8_t>(r)))
                     ? 1
                     : 0);
        Codec::putTaintStore(w, *spt);
    }

    Codec::putInjector(w, sim.injector_.get());
    w.u64(kMagic); // trailer: cheap integrity check
    os.write(w.data().data(),
             static_cast<std::streamsize>(w.data().size()));
    if (!os)
        SPT_FATAL("snapshot write failed (stream error)");
}

void
Snapshotter::restore(Simulator &sim, std::istream &is)
{
    Core &core = *sim.core_;
    SPT_ASSERT(core.cycle_ == 0 && core.retired_ == 0,
               "snapshot restore needs a freshly constructed "
               "simulator");

    const std::string bytes = readAll(is);
    BinReader r(bytes, "snapshot");
    if (r.u64() != kMagic)
        SPT_FATAL("not a snapshot (bad magic)");
    const uint32_t version = r.u32();
    if (version != kVersion)
        SPT_FATAL("snapshot version " << version
                  << " unsupported (expected " << kVersion << ")");
    const uint64_t cycle = r.u64();
    const uint64_t retired = r.u64();
    const std::string engine_name = r.str(kMaxName);
    if (engine_name != core.engine_->name())
        SPT_FATAL("snapshot was taken under engine '" << engine_name
                  << "', this run uses '" << core.engine_->name()
                  << "'");
    const Fingerprint fp = fingerprintOf(core.program_);
    if (r.u64() != fp.code_size || r.u64() != fp.entry ||
        r.u64() != fp.data_segments || r.u64() != fp.data_bytes)
        SPT_FATAL("snapshot program fingerprint mismatch (different "
                  "workload?)");
    const EngineConfig &ec = sim.config_.engine;
    if (r.u8() != static_cast<uint8_t>(ec.scheme))
        SPT_FATAL("snapshot/config mismatch: protection scheme");
    const uint8_t shadow = r.u8();
    if (ec.scheme == ProtectionScheme::kSpt &&
        shadow != static_cast<uint8_t>(ec.spt.shadow))
        SPT_FATAL("snapshot/config mismatch: SPT shadow kind");
    if (r.u8() != 0)
        SPT_FATAL("snapshot uses the legacy byte-vector taint "
                  "storage, which this build no longer has");
    const uint64_t map_hash = r.u64();
    const uint64_t want_hash =
        ec.scheme == ProtectionScheme::kSpt && ec.spt.knowledge_map
            ? ec.spt.knowledge_map->contentHash()
            : 0;
    if (map_hash != want_hash)
        SPT_FATAL("snapshot/config mismatch: knowledge map "
                  "(snapshot tag 0x"
                  << std::hex << map_hash << ", this run 0x"
                  << want_hash << std::dec << ")");

    core.cycle_ = cycle;
    core.retired_ = retired;
    core.next_seq_ = r.u64();
    core.fetch_pc_ = r.u64();
    core.fetch_stall_until_ = r.u64();
    core.delay_mem_cycles_ = r.u64();
    core.delay_branch_cycles_ = r.u64();
    core.delay_memorder_cycles_ = r.u64();
    for (unsigned reg = 0; reg < kNumArchRegs; ++reg) {
        const uint64_t value = r.u64();
        if (reg != 0)
            core.prf_.write(
                core.rat_.lookup(static_cast<uint8_t>(reg)), value);
    }
    Codec::getStats(r, core.stats_);

    Codec::getMemory(r, core.mem_);

    MemorySystem &ms = core.memorySystem();
    Codec::getCache(r, ms.l1i());
    Codec::getCache(r, ms.l1d());
    Codec::getCache(r, ms.l2());
    Codec::getCache(r, ms.l3());
    Codec::getMshrs(r, ms.mshrs());
    Codec::getDirectory(r, ms.directory());
    Codec::getStats(r, ms.stats());

    Codec::getBpu(r, core.bpu_);
    Codec::getStoreSets(r, core.store_sets_);

    Codec::getStats(r, core.engine_->stats());
    if (auto *spt = dynamic_cast<SptEngine *>(core.engine_.get())) {
        for (unsigned reg = 0; reg < kNumArchRegs; ++reg) {
            const TaintMask mask = TaintMask::fromRaw(r.u8());
            spt->master_.set(
                core.rat_.lookup(static_cast<uint8_t>(reg)), mask);
        }
        for (unsigned reg = 0; reg < kNumArchRegs; ++reg) {
            const uint8_t armed = r.u8();
            const PhysReg preg =
                core.rat_.lookup(static_cast<uint8_t>(reg));
            if (preg != PhysRegFile::kZeroReg)
                spt->armed_[preg] = armed;
        }
        Codec::getTaintStore(r, *spt);
    }

    if (sim.config_.faults.any() && !sim.injector_)
        sim.injector_ =
            std::make_unique<FaultInjector>(sim.config_.faults);
    Codec::getInjector(r, sim.injector_.get());
    if (r.u64() != kMagic)
        SPT_FATAL("snapshot corrupt (bad trailer)");
}

SnapshotInfo
Snapshotter::info(std::istream &is)
{
    const std::string bytes = readAll(is);
    BinReader r(bytes, "snapshot");
    SnapshotInfo info;
    if (r.u64() != kMagic)
        SPT_FATAL("not a snapshot (bad magic)");
    info.version = r.u32();
    info.cycle = r.u64();
    info.retired = r.u64();
    info.engine_name = r.str(kMaxName);
    info.code_size = r.u64();
    info.entry = r.u64();
    r.u64(); // data segment count
    info.data_bytes = r.u64();
    return info;
}

} // namespace spt
