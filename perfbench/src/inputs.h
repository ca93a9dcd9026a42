/**
 * @file
 * Seeded input generation: every input a workload feeds the program is a
 * pure function of the workload seed, and the program receives only these
 * generated inputs.
 */
#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include <cstdint>
#include <string>
#include <vector>

#include "src/model/config.h"
#include "src/serving/replay.h"
#include "src/serving/simulator.h"
#include "src/workloads/datasets.h"

namespace perfbench {

/** The proxy model every workload runs: Qwen1.5-1.8B's head layout, FFN
 *  ratio and norm/activation kinds at a size where one DroidTask prompt
 *  prefills in a fraction of a second on one core. */
llmnpu::ModelConfig ProxyConfig();

/** Independent sub-seed of `seed` for one input stream. */
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/** Seed of the simulated closed-loop schedule of ui_prefill. */
uint64_t SimulatorSeed(uint64_t seed);

/** Calibration / outlier-profiling corpus of the offline preparation.
 *  Fixed across seeds, like the quality sets below: the clip scales it
 *  yields decide every quantized result, so a seed-drawn corpus would
 *  move `quality` from seed to seed. */
std::vector<std::vector<int>> CalibrationCorpus(int64_t vocab);

/** One closed-loop UI-automation request. */
struct UiRequest {
    std::vector<int> prompt;
    int output_len = 1;
};
/** Requests of `ui_prefill`, cycled in order during the timed window. */
std::vector<UiRequest> UiInputs(uint64_t seed, int64_t vocab);

/** Contexts of the quant sweep (MeasureQuantSweep) in the traced
 *  `ui_prefill` run: the MakeBenchmarkEvalSets contexts. */
std::vector<std::vector<int>> EvalInputs(uint64_t seed, int64_t vocab);

/**
 * Quality sets: fixed across seeds, so `quality` measures the program and
 * not the draw (a seed-drawn set of the affordable size would move the
 * agreement by more than any plausible regression bound).
 */
/** Eight DroidTask-length prompts for ui_prefill. */
std::vector<std::vector<int>> UiQualityPrompts(int64_t vocab);
/** Replay-length prompts for chat_serve. */
std::vector<std::vector<int>> ChatQualityPrompts(int64_t vocab, int length);

/** Simulated schedules per `chat_serve` run. sim_goodput_rps is their
 *  mean: one 24-request schedule's goodput swings with the draw. */
constexpr int kChatSchedules = 96;
/** The first this many schedules are replayed in turn by the timed window
 *  (a window covers each many times), so latency tails are taken over
 *  several arrival draws. The untimed pass checks each of them bitwise,
 *  which costs about two seconds per schedule on one core, time the timed
 *  window is better spent on. */
constexpr int kChatReplayedSchedules = 4;

/** Persona-Chat requests per second the simulated NPU serves back to back:
 *  1 / ServingCostModel::IsolatedE2eMs of the profile's typical request on
 *  Qwen1.5-1.8B / Redmi K70 Pro, the capacity bench_serving scales its
 *  offered load by. */
double ChatCapacityRps();
/** The `chat_serve` arrival rate: three times ChatCapacityRps(). */
double ChatRateRps();

/** Serving options of `chat_serve` schedule `schedule`: open-loop Poisson
 *  arrivals at ChatRateRps(), half of them carrying a shared system
 *  prompt, over a bounded KV pool. */
llmnpu::ServingOptions ChatServingOptions(uint64_t seed, int schedule);
/** Replay scaling of `chat_serve`: prompts clamped to a length that is not
 *  a multiple of the KV page, so shared-prefix forks copy-on-write. */
llmnpu::ReplayOptions ChatReplayOptions(uint64_t seed);

/**
 * Byte serialization of every generated input of a workload (the arrival
 * streams and replay seed for `chat_serve`, the quant-sweep contexts with
 * `ui_prefill`), for the determinism tests.
 * Fatal on an unknown workload.
 */
std::string SerializeInputs(const std::string& workload, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H
