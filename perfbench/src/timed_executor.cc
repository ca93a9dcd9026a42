#include "perfbench/src/timed_executor.h"

#include <cmath>

namespace perfbench {

using llmnpu::LinearKind;
using llmnpu::Tensor;

void
StepClock::OnLinear(int layer, LinearKind kind, int64_t rows,
                    int64_t segments, int64_t now_ns)
{
    const bool first_linear = layer == 0 && kind == LinearKind::kWq;
    if (first_linear && !last_was_first_linear_) {
        if (!steps_.empty() && steps_.back().end_ns < 0) {
            steps_.back().end_ns = now_ns;
        }
        Step step;
        step.start_ns = now_ns;
        steps_.push_back(step);
    }
    if (first_linear && !steps_.empty()) {
        steps_.back().rows += rows;
        steps_.back().segments += segments;
    }
    last_was_first_linear_ = first_linear;
}

void
StepClock::AddLinearTime(int64_t ns)
{
    if (!steps_.empty() && steps_.back().end_ns < 0) {
        steps_.back().linear_ns += ns;
    }
}

void
StepClock::Close(int64_t now_ns)
{
    if (!steps_.empty() && steps_.back().end_ns < 0) {
        steps_.back().end_ns = now_ns;
    }
    last_was_first_linear_ = false;
}

void
StepClock::Clear()
{
    steps_.clear();
    last_was_first_linear_ = false;
}

TimedExecutor::TimedExecutor(llmnpu::LinearExecutor& inner,
                             const char* span_name, int bytes_per_weight,
                             StepClock* clock)
    : inner_(inner),
      span_name_(span_name),
      bytes_per_weight_(bytes_per_weight),
      clock_(clock)
{}

Tensor
TimedExecutor::Forward(int layer, LinearKind kind, const Tensor& x)
{
    return Timed(layer, kind, x, 1, nullptr);
}

Tensor
TimedExecutor::ForwardBatch(int layer, LinearKind kind, const Tensor& x,
                            const llmnpu::BatchSegments& segments)
{
    return Timed(layer, kind, x,
                 static_cast<int64_t>(segments.size()) - 1, &segments);
}

Tensor
TimedExecutor::Timed(int layer, LinearKind kind, const Tensor& x,
                     int64_t segments, const llmnpu::BatchSegments* batch)
{
    if (clock_ != nullptr) {
        clock_->OnLinear(layer, kind, x.Rows(), segments, NowNs());
    }
    Tensor y;
    int64_t ns = 0;
    {
        ScopedSpan span(recorder_, span_name_, request_);
        const int64_t t0 = NowNs();
        y = batch != nullptr ? inner_.ForwardBatch(layer, kind, x, *batch)
                             : inner_.Forward(layer, kind, x);
        ns = NowNs() - t0;
    }
    if (clock_ != nullptr) clock_->AddLinearTime(ns);
    const double m = static_cast<double>(x.Rows());
    const double k = static_cast<double>(x.Cols());
    const double n = static_cast<double>(y.Cols());
    ++counters_.calls;
    counters_.ns += ns;
    counters_.flops += 2.0 * m * k * n;
    counters_.weight_bytes += k * n * bytes_per_weight_;
    if (check_finite_ && !AllFinite(y)) ++counters_.nonfinite;
    return y;
}

bool
AllFinite(const Tensor& t)
{
    const float* p = t.Data<float>();
    for (int64_t i = 0; i < t.NumElements(); ++i) {
        if (!std::isfinite(p[i])) return false;
    }
    return true;
}

}  // namespace perfbench
