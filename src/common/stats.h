/**
 * @file
 * The geometric-mean helpers the paper uses for all reported averages.
 */

#ifndef NOREBA_COMMON_STATS_H
#define NOREBA_COMMON_STATS_H

#include <cmath>
#include <cstdint>

namespace noreba {

/**
 * Geometric mean accumulator. The paper reports all suite-level averages
 * as geomeans of per-application values.
 */
class Geomean
{
  public:
    /** Accumulate one positive sample. Non-positive samples are skipped. */
    void
    sample(double v)
    {
        if (v <= 0.0)
            return;
        logSum_ += std::log(v);
        ++count_;
    }

    double
    value() const
    {
        return count_ ? std::exp(logSum_ / static_cast<double>(count_))
                      : 0.0;
    }

    uint64_t count() const { return count_; }

  private:
    double logSum_ = 0.0;
    uint64_t count_ = 0;
};

} // namespace noreba

#endif // NOREBA_COMMON_STATS_H
