#include "perfbench/src/inputs.h"

#include <cstring>

#include "src/core/llmnpu_engine.h"
#include "src/serving/cost_model.h"
#include "src/util/check.h"
#include "src/util/rng.h"
#include "src/workloads/accuracy.h"
#include "src/workloads/arrivals.h"
#include "src/workloads/corpus.h"

namespace perfbench {

using namespace llmnpu;

namespace {

// Input-stream ids for SubSeed.
constexpr uint64_t kUiStream = 2;
constexpr uint64_t kEvalStream = 3;
constexpr uint64_t kChatArrivalStream = 4;
constexpr uint64_t kChatReplayStream = 5;
constexpr uint64_t kSimulatorStream = 6;
/** Seeds of the fixed calibration corpus and quality sets. */
constexpr uint64_t kCalibSeed = 0xca11b;
constexpr uint64_t kQualitySeed = 0x9a11;

constexpr int kUiRequests = 48;
constexpr int kEvalContextsPerSet = 16;
constexpr int kChatRequests = 24;
constexpr int kUiQualityPrompts = 8;
constexpr int kChatQualityPrompts = 48;
/** Offered chat load as a multiple of ChatCapacityRps(): the overload of
 *  bench_serving's shared-system-prompt sweep. */
constexpr double kChatLoadRatio = 3.0;

template <typename T>
void
Put(std::string& out, const T& v)
{
    char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    out.append(bytes, sizeof(T));
}

void
PutTokens(std::string& out, const std::vector<int>& tokens)
{
    Put(out, static_cast<uint64_t>(tokens.size()));
    for (int t : tokens) Put(out, t);
}

}  // namespace

ModelConfig
ProxyConfig()
{
    return ScaledProxy(Qwen15_1_8B(), 128, 4, 1024);
}

uint64_t
SubSeed(uint64_t seed, uint64_t stream)
{
    SplitMix64 sm(seed ^ (0x9e3779b97f4a7c15ULL * stream));
    return sm.Next();
}

uint64_t
SimulatorSeed(uint64_t seed)
{
    return SubSeed(seed, kSimulatorStream);
}

std::vector<std::vector<int>>
CalibrationCorpus(int64_t vocab)
{
    CorpusOptions options;
    options.vocab_size = vocab;
    options.num_sequences = 8;
    options.min_len = 48;
    options.max_len = 96;
    options.seed = kCalibSeed;
    return MakeCorpus(options);
}

std::vector<UiRequest>
UiInputs(uint64_t seed, int64_t vocab)
{
    const DatasetProfile profile = DroidTaskAppsProfile();
    Rng rng(SubSeed(seed, kUiStream));
    std::vector<UiRequest> requests;
    for (int i = 0; i < kUiRequests; ++i) {
        const InferenceRequest shape = profile.Sample(rng);
        CorpusOptions options;
        options.vocab_size = vocab;
        options.num_sequences = 1;
        options.min_len = shape.prompt_len;
        options.max_len = shape.prompt_len;
        options.seed = rng.Next();
        requests.push_back({MakeCorpus(options).front(), shape.output_len});
    }
    return requests;
}

namespace {

std::vector<std::vector<int>>
Flatten(const std::vector<EvalSet>& sets)
{
    std::vector<std::vector<int>> contexts;
    for (const EvalSet& set : sets) {
        contexts.insert(contexts.end(), set.contexts.begin(),
                        set.contexts.end());
    }
    return contexts;
}

}  // namespace

std::vector<std::vector<int>>
EvalInputs(uint64_t seed, int64_t vocab)
{
    return Flatten(MakeBenchmarkEvalSets(vocab, kEvalContextsPerSet,
                                         SubSeed(seed, kEvalStream)));
}

std::vector<std::vector<int>>
UiQualityPrompts(int64_t vocab)
{
    std::vector<std::vector<int>> prompts;
    for (const UiRequest& r : UiInputs(kQualitySeed, vocab)) {
        if (prompts.size() == kUiQualityPrompts) break;
        prompts.push_back(r.prompt);
    }
    return prompts;
}

std::vector<std::vector<int>>
ChatQualityPrompts(int64_t vocab, int length)
{
    CorpusOptions options;
    options.vocab_size = vocab;
    options.num_sequences = kChatQualityPrompts;
    options.min_len = length;
    options.max_len = length;
    options.seed = kQualitySeed;
    return MakeCorpus(options);
}

double
ChatCapacityRps()
{
    static const double capacity = [] {
        LlmNpuEngine engine;
        ServingCostModel costs(engine, Qwen15_1_8B(), SocSpec::RedmiK70Pro());
        return 1e3 / costs.IsolatedE2eMs(PersonaChatProfile().Typical());
    }();
    return capacity;
}

double
ChatRateRps()
{
    return kChatLoadRatio * ChatCapacityRps();
}

ServingOptions
ChatServingOptions(uint64_t seed, int schedule)
{
    ServingOptions options;
    options.closed_loop = false;
    options.rate_rps = ChatRateRps();
    options.num_requests = kChatRequests;
    options.seed = SubSeed(SubSeed(seed, kChatArrivalStream),
                           static_cast<uint64_t>(schedule));
    options.max_decode_batch = 8;
    // The largest pool of bench_serving's shared-system-prompt sweep: the
    // 16-page prefix plus the private pages of two Persona-Chat requests
    // (31-40 pages each), so decode growth evicts and restarts.
    options.kv_pool_pages = 96;
    options.kv_page_size = 16;
    options.shared_prefix.prefix_len = 256;
    options.shared_prefix.share_fraction = 0.5;
    return options;
}

ReplayOptions
ChatReplayOptions(uint64_t seed)
{
    ReplayOptions options;
    options.max_prompt_tokens = 100;  // not a multiple of the 16-row page
    options.max_output_tokens = 64;   // >= Persona-Chat's 57: no truncation
    options.seed = SubSeed(seed, kChatReplayStream);
    options.check_bitwise = false;
    return options;
}

std::string
SerializeInputs(const std::string& workload, uint64_t seed)
{
    const int64_t vocab = ProxyConfig().vocab_size;
    std::string out;
    if (workload == "ui_prefill") {
        for (const UiRequest& r : UiInputs(seed, vocab)) {
            PutTokens(out, r.prompt);
            Put(out, r.output_len);
        }
        Put(out, SimulatorSeed(seed));
        for (const auto& ctx : EvalInputs(seed, vocab)) PutTokens(out, ctx);
    } else if (workload == "chat_serve") {
        for (int schedule = 0; schedule < kChatSchedules; ++schedule) {
            const ServingOptions options = ChatServingOptions(seed, schedule);
            for (const ArrivalEvent& a : GeneratePoissonArrivals(
                     {PersonaChatProfile()}, options.rate_rps,
                     options.num_requests, options.seed,
                     options.shared_prefix)) {
                Put(out, a.arrival_ms);
                Put(out, a.request.prompt_len);
                Put(out, a.request.output_len);
                Put(out, a.shared_prefix_len);
            }
        }
        Put(out, ChatReplayOptions(seed).seed);
    } else {
        LLMNPU_FATAL_IF(true, "unknown workload: " + workload);
    }
    return out;
}

}  // namespace perfbench
