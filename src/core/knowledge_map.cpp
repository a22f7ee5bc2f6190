#include "core/knowledge_map.h"

#include <bit>
#include <fstream>
#include <sstream>

#include "common/binio.h"
#include "common/json.h"
#include "common/logging.h"
#include "isa/program.h"
#include "uarch/types.h"

namespace spt {

namespace {

constexpr uint64_t kMagic = 0x5350544B4D415031ull; // "SPTKMAP1"
constexpr uint8_t kFormatVersion = 1;

} // namespace

const char *
toString(KnowledgeVpModel m)
{
    switch (m) {
      case KnowledgeVpModel::kSpectre:    return "spectre";
      case KnowledgeVpModel::kFuturistic: return "futuristic";
      case KnowledgeVpModel::kAny:        return "any";
    }
    return "?";
}

KnowledgeMap::KnowledgeMap(uint64_t program_fingerprint,
                           KnowledgeVpModel vp_model,
                           std::vector<uint32_t> robust_regs)
    : fingerprint_(program_fingerprint), vp_model_(vp_model),
      robust_regs_(std::move(robust_regs))
{
}

uint64_t
KnowledgeMap::coveredPcs() const
{
    uint64_t n = 0;
    for (uint32_t m : robust_regs_)
        n += m != 0;
    return n;
}

uint64_t
KnowledgeMap::totalFacts() const
{
    uint64_t n = 0;
    for (uint32_t m : robust_regs_)
        n += static_cast<uint64_t>(std::popcount(m));
    return n;
}

uint64_t
KnowledgeMap::contentHash() const
{
    uint64_t h = kFnvOffset;
    h = fnv1aU64(h, fingerprint_);
    h = fnv1aU64(h, static_cast<uint64_t>(vp_model_));
    h = fnv1aU64(h, static_cast<uint64_t>(edge_policy_));
    h = fnv1aU64(h, static_cast<uint64_t>(analysis_version_));
    h = fnv1aU64(h, robust_regs_.size());
    for (uint32_t m : robust_regs_)
        h = fnv1aU64(h, m);
    return h;
}

uint64_t
KnowledgeMap::fingerprintOf(const Program &p)
{
    uint64_t h = kFnvOffset;
    h = fnv1aU64(h, p.size());
    h = fnv1aU64(h, p.entry());
    for (uint64_t pc = 0; pc < p.size(); ++pc) {
        const Instruction &si = p.at(pc);
        h = fnv1aU64(h, static_cast<uint64_t>(si.op));
        h = fnv1aU64(h, si.rd);
        h = fnv1aU64(h, si.rs1);
        h = fnv1aU64(h, si.rs2);
        h = fnv1aU64(h, static_cast<uint64_t>(si.imm));
    }
    for (const auto &[addr, seg] : p.dataSegments()) {
        h = fnv1aU64(h, addr);
        h = fnv1aU64(h, seg.size());
        for (uint8_t byte : seg)
            h = fnv1aU64(h, byte);
    }
    for (const SecretRange &r : p.secretRanges()) {
        h = fnv1aU64(h, r.base);
        h = fnv1aU64(h, r.len);
    }
    return h;
}

void
KnowledgeMap::validateFor(const Program &program,
                          AttackModel model) const
{
    if (fingerprint_ != fingerprintOf(program))
        SPT_FATAL("knowledge map fingerprint mismatch: map was "
                  "built over a different program (stale map?)");
    if (edge_policy_ != kKnowledgeEdgePolicyVersion)
        SPT_FATAL("knowledge map edge-policy version "
                  << unsigned(edge_policy_) << " != supported "
                  << unsigned(kKnowledgeEdgePolicyVersion));
    if (analysis_version_ != kKnowledgeAnalysisVersion)
        SPT_FATAL("knowledge map analysis version "
                  << unsigned(analysis_version_) << " != supported "
                  << unsigned(kKnowledgeAnalysisVersion));
    const KnowledgeVpModel want =
        model == AttackModel::kSpectre ? KnowledgeVpModel::kSpectre
                                       : KnowledgeVpModel::kFuturistic;
    if (vp_model_ != KnowledgeVpModel::kAny && vp_model_ != want)
        SPT_FATAL("knowledge map VP model '" << toString(vp_model_)
                  << "' does not cover the run's attack model '"
                  << toString(want) << "'");
}

void
KnowledgeMap::save(std::ostream &os) const
{
    BinWriter w;
    w.u64(kMagic);
    w.u8(kFormatVersion);
    w.u64(fingerprint_);
    w.u8(static_cast<uint8_t>(vp_model_));
    w.u8(edge_policy_);
    w.u8(analysis_version_);
    w.u64(robust_regs_.size());
    for (uint32_t m : robust_regs_)
        w.u32(m);
    w.u64(contentHash()); // trailer: integrity check
    os.write(w.data().data(),
             static_cast<std::streamsize>(w.data().size()));
    if (!os)
        SPT_FATAL("knowledge map write failed");
}

KnowledgeMap
KnowledgeMap::load(std::istream &is)
{
    const std::string bytes = readAll(is);
    BinReader r(bytes, "knowledge map");
    if (r.u64() != kMagic)
        SPT_FATAL("not a knowledge map (bad magic)");
    const uint8_t version = r.u8();
    if (version != kFormatVersion)
        SPT_FATAL("knowledge map format version "
                  << unsigned(version) << " unsupported (expected "
                  << unsigned(kFormatVersion) << ")");
    KnowledgeMap map;
    map.fingerprint_ = r.u64();
    const uint8_t model = r.u8();
    if (model > static_cast<uint8_t>(KnowledgeVpModel::kAny))
        SPT_FATAL("knowledge map: bad VP model tag "
                  << unsigned(model));
    map.vp_model_ = static_cast<KnowledgeVpModel>(model);
    map.edge_policy_ = r.u8();
    map.analysis_version_ = r.u8();
    const uint64_t n = r.u64();
    if (n > (1ull << 32))
        SPT_FATAL("knowledge map: implausible pc count " << n);
    r.needItems(n, 4);
    map.robust_regs_.resize(n);
    for (uint32_t &m : map.robust_regs_)
        m = r.u32();
    if (r.u64() != map.contentHash())
        SPT_FATAL("knowledge map corrupted (trailer hash mismatch)");
    return map;
}

void
KnowledgeMap::saveToFile(const std::string &path) const
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        SPT_FATAL("cannot write knowledge map " << path);
    save(os);
}

KnowledgeMap
KnowledgeMap::loadFromFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        SPT_FATAL("cannot open knowledge map " << path);
    return load(is);
}

std::string
KnowledgeMap::toJson(const Program *program) const
{
    JsonWriter jw;
    jw.beginObject();
    jw.field("artifact", "knowledge_map");
    jw.field("format_version", uint64_t{kFormatVersion});
    {
        std::ostringstream hex;
        hex << std::hex << fingerprint_;
        jw.field("program_fingerprint", "0x" + hex.str());
    }
    jw.field("vp_model", toString(vp_model_));
    jw.field("edge_policy_version",
             static_cast<uint64_t>(edge_policy_));
    jw.field("analysis_version",
             static_cast<uint64_t>(analysis_version_));
    jw.field("pcs", robust_regs_.size());
    jw.field("covered_pcs", coveredPcs());
    jw.field("robust_facts", totalFacts());
    jw.key("entries").beginArray();
    for (uint64_t pc = 0; pc < robust_regs_.size(); ++pc) {
        const uint32_t mask = robust_regs_[pc];
        if (mask == 0)
            continue;
        jw.beginObject();
        jw.field("pc", pc);
        if (program)
            jw.field("instruction", toString(program->at(pc)));
        jw.key("robust_regs").beginArray();
        for (unsigned r = 0; r < kNumArchRegs; ++r)
            if (mask >> r & 1)
                jw.value("x" + std::to_string(r));
        jw.endArray();
        jw.endObject();
    }
    jw.endArray();
    jw.endObject();
    return jw.str();
}

} // namespace spt
