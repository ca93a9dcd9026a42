/**
 * @file
 * The two benchmark workloads and the metrics they report.
 *
 *  - ui_prefill: UI automation, closed loop, one client, no think time.
 *    DroidTask (applications) prompts of 656-827 tokens prefill in
 *    256-token chunks through Transformer::Forward on the NPU-quant path
 *    (NpuShadowExecutor, pruning 0.85); the 1-5 output tokens decode on the
 *    CPU-float path. The paper's case: long-prompt prefill.
 *  - chat_serve: chat serving. Open-loop Poisson arrivals at one fixed rate
 *    in the simulator's virtual time over a bounded KV pool, half of them
 *    sharing a system prompt; the schedule replays on real tensors through
 *    ReplayServingTrace (prefill on NPU-quant, decode alternating NPU-quant
 *    and CPU-float by request id). The replay is a closed batch on the wall
 *    clock; queueing happens only in virtual time. Decode-bound.
 *
 * A third workload, quant_eval (the offline accuracy sweep through every
 * src/quant baseline), is not run: the baselines repack their weights on
 * every forward, and that memory traffic slowed by a quarter for minutes at
 * a time on a shared host, past any usable bound. Its per-executor costs
 * are measured in the traced ui_prefill run instead (MeasureQuantSweep).
 */
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    /** true: the traced run, reporting per-layer metrics. */
    bool trace = false;
    /** Where the traced run writes its spans ("" = nowhere). */
    std::string trace_path;
};

struct RunResult {
    bool correct = true;
    int64_t attempted = 0;
    int64_t failed = 0;
    /** End-to-end metric values (untraced run) or per-layer ones (traced)
     *  by name. BENCHMARK.json lists the metrics and their units; a
     *  per-layer metric a workload does not exercise is absent. */
    std::map<std::string, double> values;
    /** One-line JSON objects printed ahead of the result. */
    std::vector<std::string> notes;
};

/** Names of the workloads, in BENCHMARK.json order. */
const std::vector<std::string>& WorkloadNames();

/** Runs one workload for RunOptions::seconds of timed window. */
RunResult RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H
