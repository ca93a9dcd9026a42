/**
 * @file
 * What the workloads share: set-up, the simulated plane, isolated kernel
 * and quant-sweep timing, sample reduction and the per-layer reporting
 * helpers.
 */
#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/spans.h"
#include "perfbench/src/timed_executor.h"
#include "perfbench/src/workloads.h"
#include "src/core/llmnpu_engine.h"
#include "src/core/outlier_profile.h"
#include "src/core/shadow_executor.h"
#include "src/model/decode_backend.h"
#include "src/quant/calibration.h"
#include "src/serving/cost_model.h"
#include "src/serving/simulator.h"
#include "src/util/rng.h"

namespace perfbench {

/** Metric values by name; BENCHMARK.json gives their units. */
using Values = std::map<std::string, double>;

inline double
Seconds(int64_t ns)
{
    return static_cast<double>(ns) / 1e9;
}

inline double
Ms(int64_t ns)
{
    return static_cast<double>(ns) / 1e6;
}

/** num / den, 0 for an empty denominator. */
inline double
Ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

inline bool
InVocab(int token, int64_t vocab)
{
    return token >= 0 && token < vocab;
}

/** Everything a workload needs before its first request can be served.
 *  Heap-pinned: the model and executors hold references into it. */
struct Setup {
    llmnpu::ModelWeights weights;
    std::unique_ptr<llmnpu::Transformer> model;
    llmnpu::CalibrationData calib;
    llmnpu::OutlierProfile profile;
    std::unique_ptr<llmnpu::Fp32LinearExecutor> fp32;
    std::unique_ptr<llmnpu::NpuShadowExecutor> npu;
    std::unique_ptr<llmnpu::LlmNpuEngine> engine;
    std::unique_ptr<llmnpu::ServingCostModel> costs;
    struct Times {
        double weights = 0, calib = 0, profile = 0, prepare = 0;
        double cost_model = 0, total = 0;
    } times;
};

/** Sets up five times, each from scratch with the previous one freed
 *  first, appends each set-up's phase times to `times` and keeps the last
 *  set-up. */
std::unique_ptr<Setup> SetUp(const std::string& workload, SpanRecorder* rec,
                             std::vector<Setup::Times>& times);

/** Six more set-ups, untraced, each freed at once; call after the timed
 *  window with the kept set-up freed. */
void SetUpAgain(const std::string& workload,
                std::vector<Setup::Times>& times);

/** setup_s and setup.*: the medians over every set-up of the run. */
void ReportSetup(const std::vector<Setup::Times>& times, Values& e2e,
                 Values& layer);

/** sim_prefill_tok_s and the src/sim metrics: LlmNpuEngine::Run on
 *  Qwen1.5-1.8B / Redmi K70 Pro for every request shape of the workload. */
void SimulatePrefill(Setup& s,
                     const std::vector<llmnpu::InferenceRequest>& shapes,
                     SpanRecorder* rec, Values& e2e, Values& layer);

/** Runs the serving simulator once per entry of `runs`; reports
 *  sim_goodput_rps and the src/serving metrics that need no replay as
 *  means over the runs (queue wait: the median over all requests). */
std::vector<llmnpu::ServingResult> Simulate(
    Setup& s, const llmnpu::DatasetProfile& profile,
    const std::vector<llmnpu::ServingOptions>& runs, SpanRecorder* rec,
    Values& e2e, Values& layer);

/** Median seconds per call of `fn`, over about `budget_s` of samples each
 *  batching enough calls to last >= 1 ms. */
double SecondsPerCall(const std::function<void()>& fn, double budget_s = 0.15);

llmnpu::Tensor RandomTensor(int64_t rows, int64_t cols, llmnpu::Rng& rng);

/** The src/tensor and attention kernels alone, at the proxy model's FFN
 *  up-projection shape (`pergroup_rows` rows for the per-group matmul).
 *  FLOPs and bytes are computed from the shapes. */
void MeasureKernels(const Setup& s, int64_t pergroup_rows, Values& layer);

/** quant.*_ms_per_ctx: the offline accuracy sweep's cost per context for
 *  fp32, the shadow executor and each src/quant baseline (built here, not
 *  in set-up). Every EvalInputs context of `seed` gets a prefill, its first
 *  token and one decode step, one executor at a time; each output check
 *  counts as an attempt. */
void MeasureQuantSweep(const Setup& s, uint64_t seed, RunResult& res,
                       Values& layer);

/** Latency and token samples of a timed window. */
struct Samples {
    std::vector<double> ttft_ms;
    std::vector<double> tpot_ms;
    double prompt_tokens = 0.0, prefill_s = 0.0;
    double decode_tokens = 0.0, decode_s = 0.0;
    int64_t requests = 0;
    int64_t failed = 0;
};

/** The throughput and latency end-to-end metrics of a window, with the
 *  tail percentiles and sample counts as a note. */
void ReportLatency(const Samples& x, Values& e2e,
                   std::vector<std::string>& notes);

/** Runs `serve(i)` for i = 0, 1, ... until `seconds` pass (at least once)
 *  or `stop()` says so. */
void TimedLoop(double seconds, const std::function<void(int64_t)>& serve,
               const std::function<bool()>& stop = [] { return false; });

/** Linear-decorator metrics of a traced window, per request. */
void ReportLinears(const TimedExecutor& npu, double npu_requests,
                   const TimedExecutor& cpu, double cpu_requests,
                   Values& layer);

/** core.shadow_call_frac and core.hot_hit_frac from the shadow stats. */
void ReportShadow(const llmnpu::NpuShadowExecutor& npu, Values& layer);

/** model.handoffs_per_step and model.quantized_elems_per_step. */
void ReportHandoffs(const llmnpu::DecodeBackend& backend, double steps,
                    Values& layer);

/** Self-time metrics of the "model.prefill_chunk" and "model.logits"
 *  spans. */
void ReportForwardSpans(const std::vector<Span>& spans, Values& layer);

/** trace.overhead_frac: median over alternating pairs of (traced wall /
 *  untraced wall) of the same work, minus one. The traced halves record
 *  into a scratch recorder that is then dropped. */
double TraceOverhead(const std::function<void(SpanRecorder*)>& work);

/** Stop condition of a traced window: true once `rec` holds 100 000 more
 *  spans than now, which bounds the memory and the span file. */
std::function<bool()> SpanBudgetReached(const SpanRecorder& rec);

/** The workloads. Each fills `e2e` in an untraced run and `layer` in a
 *  traced one, and counts attempts and failures into `res`. */
void RunUiPrefill(const RunOptions& o, Setup& s, SpanRecorder* rec,
                  RunResult& res, Values& e2e, Values& layer);
void RunChatServe(const RunOptions& o, Setup& s, SpanRecorder* rec,
                  RunResult& res, Values& e2e, Values& layer);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H
