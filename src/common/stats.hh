/**
 * @file
 * Running statistics: RunningStat, the mean/min/max accumulator
 * behind every per-block temperature summary.
 */

#ifndef TEMPEST_COMMON_STATS_HH
#define TEMPEST_COMMON_STATS_HH

#include <cstdint>
#include <limits>

namespace tempest
{

/** Running mean/min/max over a stream of samples. */
class RunningStat
{
  public:
    /** Add one sample. */
    void
    sample(double x)
    {
        ++n_;
        sum_ += x;
        if (x < min_) min_ = x;
        if (x > max_) max_ = x;
    }

    std::uint64_t count() const { return n_; }
    double sum() const { return sum_; }
    double mean() const { return n_ ? sum_ / n_ : 0.0; }
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }

    void
    reset()
    {
        n_ = 0;
        sum_ = 0.0;
        min_ = std::numeric_limits<double>::infinity();
        max_ = -std::numeric_limits<double>::infinity();
    }

    /**
     * Restore from checkpointed values. With n == 0 the sentinel
     * infinities are re-established (min()/max() report through the
     * n-guarded getters, so saving their raw values is lossless for
     * any n > 0).
     */
    void
    restore(std::uint64_t n, double sum, double min, double max)
    {
        if (n == 0) {
            reset();
            return;
        }
        n_ = n;
        sum_ = sum;
        min_ = min;
        max_ = max;
    }

  private:
    std::uint64_t n_ = 0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

} // namespace tempest

#endif // TEMPEST_COMMON_STATS_HH
