/**
 * @file
 * The benchmark's LinearExecutor decorator: attributes time inside
 * Transformer from outside the program.
 *
 * One TimedExecutor wraps the NPU shadow executor and one wraps the CPU
 * float executor before both are handed to DecodeBackend, so linear time is
 * measured per placement. Everything else a forward does (attention, K/V
 * append and copies, norms, RoPE, residuals) is the forward's time minus
 * its linear time.
 *
 * Both decorators share one StepClock. A forward step (a prefill chunk or
 * one batched decode step) begins at its first layer-0 linear: the first
 * layer-0 q_proj call after any other linear. A mixed-placement batch
 * calls q_proj once per same-placement run, and those calls stay in one
 * step. That lets the benchmark time the steps ReplayServingTrace executes
 * without any tracing inside the program.
 */
#ifndef PERFBENCH_TIMED_EXECUTOR_H
#define PERFBENCH_TIMED_EXECUTOR_H

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/spans.h"
#include "src/model/transformer.h"

namespace perfbench {

/** Forward steps observed through the decorators' linear calls. */
class StepClock
{
  public:
    struct Step {
        int64_t start_ns = 0;
        int64_t end_ns = -1;     ///< -1 while the step is open
        int64_t rows = 0;        ///< activation rows entering layer 0
        int64_t segments = 0;    ///< sequences in the step
        int64_t linear_ns = 0;   ///< time inside the wrapped executors
        /** Decode steps feed exactly one row per sequence. */
        bool IsDecode() const { return rows == segments; }
        double WallMs() const { return (end_ns - start_ns) / 1e6; }
    };

    /** Called by a decorator before each linear it forwards. */
    void OnLinear(int layer, llmnpu::LinearKind kind, int64_t rows,
                  int64_t segments, int64_t now_ns);
    /** Called by a decorator after each linear with its duration. */
    void AddLinearTime(int64_t ns);
    /** Ends the open step at `now_ns` (after the public call returned). */
    void Close(int64_t now_ns);

    const std::vector<Step>& steps() const { return steps_; }
    void Clear();

  private:
    std::vector<Step> steps_;
    bool last_was_first_linear_ = false;
};

/** Counters one decorator accumulates. */
struct LinearCounters {
    int64_t calls = 0;       ///< Forward/ForwardBatch calls
    int64_t ns = 0;          ///< wall time inside the wrapped executor
    double flops = 0.0;      ///< 2*m*k*n over the calls, from shapes
    double weight_bytes = 0.0;  ///< k*n*bytes_per_weight per call
    int64_t nonfinite = 0;   ///< outputs with a NaN/Inf (when checking)
};

/**
 * Decorates a LinearExecutor: forwards every call unchanged, timing it,
 * counting work from the shapes, marking step boundaries on a StepClock
 * and recording a span when a recorder is attached. Outputs are exactly
 * the wrapped executor's.
 */
class TimedExecutor : public llmnpu::LinearExecutor
{
  public:
    /**
     * @param inner executor to forward to (not owned).
     * @param span_name span name for each linear ("linear.npu", ...).
     * @param bytes_per_weight weight element size streamed per call.
     * @param clock shared step clock (not owned, may be null).
     */
    TimedExecutor(llmnpu::LinearExecutor& inner, const char* span_name,
                  int bytes_per_weight, StepClock* clock);

    llmnpu::Tensor Forward(int layer, llmnpu::LinearKind kind,
                           const llmnpu::Tensor& x) override;
    llmnpu::Tensor ForwardBatch(int layer, llmnpu::LinearKind kind,
                                const llmnpu::Tensor& x,
                                const llmnpu::BatchSegments& segments) override;
    std::string Name() const override { return inner_.Name(); }

    /** Spans go to `recorder` (null: none), tagged with `request`. */
    void set_recorder(SpanRecorder* recorder) { recorder_ = recorder; }
    void set_request(int request) { request_ = request; }
    /** When on, every output is scanned for NaN/Inf (untimed passes). */
    void set_check_finite(bool on) { check_finite_ = on; }

    const LinearCounters& counters() const { return counters_; }
    void ResetCounters() { counters_ = LinearCounters{}; }

  private:
    llmnpu::Tensor Timed(int layer, llmnpu::LinearKind kind,
                         const llmnpu::Tensor& x, int64_t segments,
                         const llmnpu::BatchSegments* batch);

    llmnpu::LinearExecutor& inner_;
    const char* span_name_;
    int bytes_per_weight_;
    StepClock* clock_;
    SpanRecorder* recorder_ = nullptr;
    int request_ = -1;
    bool check_finite_ = false;
    LinearCounters counters_;
};

/** True when every element of an f32 tensor is finite. */
bool AllFinite(const llmnpu::Tensor& t);

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_EXECUTOR_H
