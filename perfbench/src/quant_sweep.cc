// The quant_eval sweep, timed per executor in the traced ui_prefill run (see
// MeasureQuantSweep in harness.h).
#include "perfbench/src/harness.h"

#include "perfbench/src/inputs.h"
#include "src/quant/baselines.h"
#include "src/util/format.h"

namespace perfbench {

using namespace llmnpu;

void
MeasureQuantSweep(const Setup& s, uint64_t seed, RunResult& res,
                  Values& layer)
{
    const Transformer& model = *s.model;
    const int64_t vocab = model.config().vocab_size;
    const std::vector<std::vector<int>> contexts = EvalInputs(seed, vocab);
    SmoothQuantExecutor smoothquant(s.weights, s.calib);
    LlmInt8Executor llmint8(s.weights, s.calib);
    KQuantExecutor kquant(s.weights);
    PerTensorExecutor pertensor(s.weights);
    const std::pair<const char*, LinearExecutor*> execs[] = {
        {"fp32", s.fp32.get()},       {"llmnpu", s.npu.get()},
        {"smoothquant", &smoothquant}, {"llmint8", &llmint8},
        {"kquant", &kquant},           {"pertensor", &pertensor}};

    // One context through one executor: prefill, first token, one decode
    // step; false if an output is non-finite or out of the vocabulary.
    auto serve = [&](const std::vector<int>& ctx, LinearExecutor& ex) {
        KvCache cache = model.MakeCache();
        const Tensor hidden = model.Forward(ctx, cache, ex);
        int token = model.ArgmaxLastRow(
            model.Logits(hidden.CopyRows(hidden.Rows() - 1, 1)));
        bool ok = AllFinite(hidden) && InVocab(token, vocab);
        const Tensor h = model.Forward({token}, cache, ex);
        token = model.ArgmaxLastRow(model.Logits(h));
        return ok && AllFinite(h) && InVocab(token, vocab);
    };
    // Every context through one executor before the next, like
    // EvaluateAgreement: the executor's weights stay in the core's cache.
    for (const auto& [name, ex] : execs) {
        (void)serve(contexts.front(), *ex);  // warm-up
        const int64_t t0 = NowNs();
        for (const std::vector<int>& ctx : contexts) {
            ++res.attempted;
            if (!serve(ctx, *ex)) ++res.failed;
        }
        layer[StrFormat("quant.%s_ms_per_ctx", name)] =
            Ms(NowNs() - t0) / static_cast<double>(contexts.size());
    }
}

}  // namespace perfbench
