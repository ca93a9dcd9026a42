/**
 * @file
 * Sample statistics the benchmark reports: medians and the tail rule.
 */
#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstddef>
#include <vector>

namespace perfbench {

/** Samples that must lie beyond a reported tail percentile. */
constexpr size_t kTailBeyond = 10;

/** Median (mean of the middle pair for even sizes); 0 for no samples. */
double Median(std::vector<double> xs);

/** Samples per block of BlockedTailOf: each block's tail is at least its
 *  p90. */
constexpr size_t kTailBlock = 11 * kTailBeyond;

/**
 * The highest percentile of `xs` with at least kTailBeyond samples beyond
 * it: the (kTailBeyond + 1)-th largest sample, which is the
 * 100 * (n - kTailBeyond) / n percentile of n samples.
 */
struct Tail {
    double value = 0.0;
    double percentile = 0.0;  ///< 0 when there are too few samples
    size_t count = 0;         ///< samples the tail was taken over
    size_t blocks = 1;        ///< blocks it is the median over
    bool Valid() const { return count > kTailBeyond; }
};
Tail TailOf(std::vector<double> xs);

/**
 * TailOf applied to each of floor(n / kTailBlock) contiguous blocks of the
 * samples (in the order taken), as the median over the blocks; TailOf of
 * all samples when there are fewer than two blocks' worth. With thousands
 * of samples a pooled tail sits above p99.5 and measures host hiccups
 * rather than the program; a block tail stays near p90-p95.
 */
Tail BlockedTailOf(const std::vector<double>& xs);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H
