/**
 * @file
 * Interface for conditional-branch direction predictors, plus shared
 * saturating-counter helpers.
 *
 * Speculative global-history management: predictors that use global
 * history update it speculatively at predict() time and expose
 * checkpoint()/restore() so the core can rewind on a squash.
 * Counter-table training happens only at commit time via update(),
 * which keeps predictor *training* state free of transient (and
 * hence possibly tainted) outcomes, as required by SPT's
 * prediction-based implicit-channel rule (paper Section 6.4).
 */

#ifndef SPT_BP_DIRECTION_PREDICTOR_H
#define SPT_BP_DIRECTION_PREDICTOR_H

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>

#include "common/logging.h"

namespace spt {

/** Most tagged tables a TAGE checkpoint can hold; TagePredictor
 *  refuses a larger config with a FatalError. */
constexpr unsigned kMaxTageTables = 4;

/** Opaque speculative-history checkpoint. Every predicted control
 *  instruction takes one, so the words are held inline: TAGE's
 *  history head plus three folded registers per table. */
struct BpCheckpoint {
    static constexpr std::size_t kMaxWords = 1 + 3 * kMaxTageTables;

    /** A word list of at most kMaxWords entries. */
    class Words
    {
      public:
        Words() = default;
        Words(std::initializer_list<uint64_t> init)
        {
            resize(init.size());
            std::copy(init.begin(), init.end(), w_.begin());
        }

        void
        resize(std::size_t n)
        {
            SPT_ASSERT(n <= kMaxWords, "BpCheckpoint overflow");
            n_ = static_cast<uint8_t>(n);
        }
        std::size_t size() const { return n_; }
        uint64_t &operator[](std::size_t i) { return w_[i]; }
        uint64_t operator[](std::size_t i) const { return w_[i]; }

        bool
        operator==(const Words &o) const
        {
            return std::equal(w_.begin(), w_.begin() + n_,
                              o.w_.begin(), o.w_.begin() + o.n_);
        }

      private:
        std::array<uint64_t, kMaxWords> w_{};
        uint8_t n_ = 0;
    };

    Words words;
};

class DirectionPredictor
{
  public:
    virtual ~DirectionPredictor() = default;

    /** Predicts the branch at @p pc and speculatively advances any
     *  internal history with the predicted outcome. */
    virtual bool predict(uint64_t pc) = 0;

    /** Commit-time training with the architectural outcome. */
    virtual void update(uint64_t pc, bool taken) = 0;

    /** Captures/restores speculative state (history registers). */
    virtual BpCheckpoint checkpoint() const = 0;
    virtual void restore(const BpCheckpoint &cp) = 0;
};

/** An n-bit saturating up/down counter. */
class SatCounter
{
  public:
    explicit SatCounter(unsigned bits = 2, unsigned initial = 0)
        : max_((1u << bits) - 1), value_(initial)
    {
    }

    void increment()
    {
        if (value_ < max_)
            ++value_;
    }
    void decrement()
    {
        if (value_ > 0)
            --value_;
    }
    /** Trains toward taken/not-taken. */
    void train(bool taken) { taken ? increment() : decrement(); }

    bool taken() const { return value_ > max_ / 2; }
    unsigned value() const { return value_; }
    unsigned max() const { return max_; }
    bool saturatedHigh() const { return value_ == max_; }
    bool saturatedLow() const { return value_ == 0; }
    void set(unsigned v) { value_ = v > max_ ? max_ : v; }

  private:
    unsigned max_;
    unsigned value_;
};

} // namespace spt

#endif // SPT_BP_DIRECTION_PREDICTOR_H
