/**
 * @file
 * Simulator checkpointing: full binary snapshot/restore of a
 * *drained* machine (PR-6's third throughput lever).
 *
 * A snapshot is taken at a retire-count drain barrier (see
 * SimConfig::checkpoint_at_retires): the core suppresses fetch once
 * the target retire count is reached and ticks until the pipeline is
 * empty, so no in-flight microarchitectural state (ROB, LSQ, MSHRs,
 * engine taint ring) needs a wire format — what remains is the
 * long-lived state that makes a warmed-up machine different from a
 * cold one:
 *
 *   - architectural registers and memory contents,
 *   - cache tag/LRU/MESI arrays and the coherence directory,
 *   - branch predictor tables and histories (LTAGE, BTB, RAS),
 *   - the store-set memory-dependence predictor,
 *   - the engine's committed taint state (master register taint and
 *     the shadow L1 / shadow memory data taint store),
 *   - every StatSet and the core's plain delay counters,
 *   - fault-injector RNG streams, when a fault plan is attached.
 *
 * The format is versioned, little-endian, and bounds-checked on
 * read; restore validates a configuration/program fingerprint so a
 * snapshot cannot be resumed under an incompatible machine. The
 * checkpoint round-trip tests pin that a restored run's SimResult
 * and stats.json are byte-identical to a cold run that passes
 * through the same barrier.
 */

#ifndef SPT_SIM_SNAPSHOT_H
#define SPT_SIM_SNAPSHOT_H

#include <cstdint>
#include <iosfwd>
#include <string>

namespace spt {

class Simulator;

/** Header fields of a snapshot stream (spt_ckpt info). */
struct SnapshotInfo {
    uint32_t version = 0;
    uint64_t cycle = 0;
    uint64_t retired = 0;
    std::string engine_name;
    /** Program fingerprint: code size / entry / data bytes. */
    uint64_t code_size = 0;
    uint64_t entry = 0;
    uint64_t data_bytes = 0;
};

/**
 * The single component with serialization access (befriended by
 * every class whose private state participates); all wire-format
 * logic lives in snapshot.cpp so component headers carry only the
 * friend declaration.
 */
class Snapshotter
{
  public:
    /** Serializes @p sim's full drained state to @p os. SPT_FATAL if
     *  the pipeline is not drained or a lockstep reference CPU is
     *  attached (its state has no wire format). */
    static void save(const Simulator &sim, std::ostream &os);

    /** Restores a snapshot into @p sim, which must be freshly
     *  constructed with a compatible configuration (same protection
     *  scheme, shadow kind, and program fingerprint)
     *  and must not have run yet. SPT_FATAL on any mismatch,
     *  truncation, or version skew. */
    static void restore(Simulator &sim, std::istream &is);

    /** Reads only the header of a snapshot stream. */
    static SnapshotInfo info(std::istream &is);

  private:
    /** Per-component wire formats (defined in snapshot.cpp). As a
     *  member class it shares Snapshotter's friend grants. */
    class Codec;
};

} // namespace spt

#endif // SPT_SIM_SNAPSHOT_H
