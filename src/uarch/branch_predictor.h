/**
 * @file
 * Branch prediction: a TAGE-flavoured conditional predictor (base
 * bimodal table plus four tagged tables with geometric history lengths
 * — a scaled-down TAGE-SC-L-8KB per Table 2) and a history-hashed
 * target predictor for the JALR jump-table idiom.
 *
 * The timing model precomputes per-instance misprediction verdicts by
 * replaying the predictor over the trace in program order (every
 * dynamic branch is predicted exactly once, with in-order history);
 * this keeps branch behaviour identical across all commit policies so
 * that Figures 1/6 compare commit mechanisms, not predictor noise.
 */

#ifndef NOREBA_UARCH_BRANCH_PREDICTOR_H
#define NOREBA_UARCH_BRANCH_PREDICTOR_H

#include <array>
#include <cstdint>
#include <vector>

#include "interp/trace.h"

namespace noreba {

/** Scaled-down TAGE for conditional branches. */
class TagePredictor
{
  public:
    TagePredictor();

    /** Predict the direction of the branch at `pc`. */
    bool predict(uint64_t pc);

    /** Train with the actual outcome and advance the global history. */
    void update(uint64_t pc, bool taken);

  private:
    static constexpr int NUM_TABLES = 4;
    static constexpr int TABLE_BITS = 10; //!< 1K entries per table
    static constexpr int BIMODAL_BITS = 12;
    static constexpr int TAG_BITS = 9;
    static constexpr std::array<int, NUM_TABLES> HIST_LEN = {8, 16, 32, 64};

    struct TaggedEntry
    {
        uint16_t tag = 0;
        int8_t ctr = 0;    //!< 3-bit signed counter (-4..3)
        uint8_t useful = 0;
    };

    uint64_t history_ = 0;
    std::vector<uint8_t> bimodal_; //!< 2-bit counters
    std::array<std::vector<TaggedEntry>, NUM_TABLES> tables_;

    /** Prediction bookkeeping between predict() and update(). */
    struct Lookup
    {
        int provider = -1;  //!< table index, -1 = bimodal
        int altProvider = -1;
        bool providerPred = false;
        bool altPred = false;
        std::array<uint32_t, NUM_TABLES> index{};
        std::array<uint16_t, NUM_TABLES> tag{};
        uint32_t bimodalIndex = 0;
    } last_;

    uint64_t foldedHistory(int bits, int outBits) const;
    uint32_t tableIndex(uint64_t pc, int table) const;
    uint16_t tableTag(uint64_t pc, int table) const;
};

/** Last-target indirect predictor with history hashing (for JALR). */
class IndirectPredictor
{
  public:
    IndirectPredictor() : table_(1024, 0) {}

    uint64_t
    predict(uint64_t pc) const
    {
        return table_[index(pc)];
    }

    void
    update(uint64_t pc, uint64_t target)
    {
        table_[index(pc)] = target;
        history_ = (history_ << 4) ^ (target >> 2);
    }

  private:
    uint32_t
    index(uint64_t pc) const
    {
        return static_cast<uint32_t>(((pc >> 2) ^ history_) & 1023);
    }

    uint64_t history_ = 0;
    std::vector<uint64_t> table_;
};

/**
 * Replay the predictor over a trace and return, for each record, true
 * if that dynamic branch instance is mispredicted (direction for
 * conditional branches, target for JALR). Non-branches get false.
 */
std::vector<uint8_t> precomputeMispredictions(const TraceView &trace);

/** Misprediction statistics for tests / reports. */
struct PredictorStats
{
    uint64_t branches = 0;
    uint64_t mispredicts = 0;
};

PredictorStats summarizeMispredictions(const TraceView &trace,
                                       const std::vector<uint8_t> &misp);

} // namespace noreba

#endif // NOREBA_UARCH_BRANCH_PREDICTOR_H
