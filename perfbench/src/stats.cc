#include "perfbench/src/stats.h"

#include <algorithm>
#include <cstddef>

namespace perfbench {

double
Median(std::vector<double> xs)
{
    if (xs.empty()) return 0.0;
    std::sort(xs.begin(), xs.end());
    const size_t n = xs.size();
    return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

Tail
TailOf(std::vector<double> xs)
{
    Tail tail;
    tail.count = xs.size();
    if (!tail.Valid()) return tail;
    std::sort(xs.begin(), xs.end());
    const size_t n = xs.size();
    tail.value = xs[n - kTailBeyond - 1];
    tail.percentile = 100.0 * static_cast<double>(n - kTailBeyond) /
                      static_cast<double>(n);
    return tail;
}

Tail
BlockedTailOf(const std::vector<double>& xs)
{
    const size_t n = xs.size();
    const size_t blocks = n / kTailBlock;
    if (blocks < 2) return TailOf(xs);
    std::vector<double> values, percentiles;
    for (size_t b = 0; b < blocks; ++b) {
        const Tail t = TailOf(std::vector<double>(
            xs.begin() + static_cast<std::ptrdiff_t>(b * n / blocks),
            xs.begin() + static_cast<std::ptrdiff_t>((b + 1) * n / blocks)));
        values.push_back(t.value);
        percentiles.push_back(t.percentile);
    }
    Tail tail;
    tail.value = Median(values);
    tail.percentile = Median(percentiles);
    tail.count = n;
    tail.blocks = blocks;
    return tail;
}

}  // namespace perfbench
