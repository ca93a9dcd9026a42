#include "perfbench/src/harness.h"

#include <algorithm>
#include <cmath>

#include "perfbench/src/inputs.h"
#include "perfbench/src/stats.h"
#include "src/model/paged_attention.h"
#include "src/tensor/matmul.h"
#include "src/tensor/ops.h"
#include "src/tensor/quantize.h"
#include "src/util/format.h"

namespace perfbench {

using namespace llmnpu;

namespace {

// Set-ups before the first request and after the timed window: the
// median of set-ups taken at both ends of a run follows the host's speed
// over the whole run rather than over its first second.
constexpr int kSetupsBefore = 5;
constexpr int kSetupsAfter = 6;
constexpr double kPruningRate = 0.85;

ModelConfig
SimModel()
{
    return Qwen15_1_8B();
}

DatasetProfile
WorkloadProfile(const std::string& workload)
{
    return workload == "ui_prefill" ? DroidTaskAppsProfile()
                                    : PersonaChatProfile();
}

// ------------------------------------------------------------------ setup

std::unique_ptr<Setup>
BuildSetup(const std::string& workload, SpanRecorder* rec)
{
    auto s = std::make_unique<Setup>();
    ScopedSpan setup_span(rec, "setup", -1);
    const int64_t start = NowNs();
    int64_t lap_start = start;
    auto lap = [&lap_start]() {
        const int64_t now = NowNs();
        const double sec = Seconds(now - lap_start);
        lap_start = now;
        return sec;
    };
    {
        ScopedSpan span(rec, "setup.weights", -1);
        s->weights = GenerateSyntheticWeights(ProxyConfig());
        s->model = std::make_unique<Transformer>(s->weights);
    }
    s->times.weights = lap();
    const auto corpus = CalibrationCorpus(s->weights.config.vocab_size);
    {
        ScopedSpan span(rec, "setup.calib", -1);
        s->calib = CalibrationData::Collect(*s->model, corpus);
    }
    s->times.calib = lap();
    {
        ScopedSpan span(rec, "setup.profile", -1);
        s->profile = OutlierProfile::Collect(*s->model, s->calib, corpus);
    }
    s->times.profile = lap();
    {
        ScopedSpan span(rec, "setup.prepare", -1);
        s->fp32 = std::make_unique<Fp32LinearExecutor>(s->weights);
        s->npu = std::make_unique<NpuShadowExecutor>(s->weights, s->profile,
                                                     kPruningRate);
    }
    s->times.prepare = lap();
    {
        ScopedSpan span(rec, "setup.cost_model", -1);
        s->engine = std::make_unique<LlmNpuEngine>();
        s->costs = std::make_unique<ServingCostModel>(
            *s->engine, SimModel(), SocSpec::RedmiK70Pro());
        (void)s->costs->Costs(WorkloadProfile(workload).Typical());
    }
    s->times.cost_model = lap();
    s->times.total = Seconds(NowNs() - start);
    return s;
}

}  // namespace

std::unique_ptr<Setup>
SetUp(const std::string& workload, SpanRecorder* rec,
      std::vector<Setup::Times>& times)
{
    std::unique_ptr<Setup> setup;
    for (int i = 0; i < kSetupsBefore; ++i) {
        setup.reset();
        setup = BuildSetup(workload, rec);
        times.push_back(setup->times);
    }
    return setup;
}

void
SetUpAgain(const std::string& workload, std::vector<Setup::Times>& times)
{
    for (int i = 0; i < kSetupsAfter; ++i) {
        times.push_back(BuildSetup(workload, nullptr)->times);
    }
}

void
ReportSetup(const std::vector<Setup::Times>& times, Values& e2e,
            Values& layer)
{
    auto median = [&](double Setup::Times::*phase) {
        std::vector<double> v;
        for (const Setup::Times& t : times) v.push_back(t.*phase);
        return Median(v);
    };
    e2e["setup_s"] = median(&Setup::Times::total);
    layer["setup.weights_s"] = median(&Setup::Times::weights);
    layer["setup.calib_s"] = median(&Setup::Times::calib);
    layer["setup.profile_s"] = median(&Setup::Times::profile);
    layer["setup.prepare_s"] = median(&Setup::Times::prepare);
    layer["setup.cost_model_s"] = median(&Setup::Times::cost_model);
}

// ------------------------------------------------------- simulated plane

void
SimulatePrefill(Setup& s, const std::vector<InferenceRequest>& shapes,
                SpanRecorder* rec, Values& e2e, Values& layer)
{
    double prompt_tokens = 0.0, prefill_ms = 0.0, bubble = 0.0;
    int64_t wall_ns = 0;
    for (const InferenceRequest& shape : shapes) {
        ScopedSpan span(rec, "sim.engine_run", -1);
        const int64_t t0 = NowNs();
        const EngineResult r =
            s.engine->Run(SimModel(), SocSpec::RedmiK70Pro(), shape);
        wall_ns += NowNs() - t0;
        prompt_tokens += shape.prompt_len;
        prefill_ms += r.prefill_ms;
        bubble += r.npu_bubble_rate;
    }
    const double n = static_cast<double>(shapes.size());
    e2e["sim_prefill_tok_s"] = Ratio(prompt_tokens, prefill_ms / 1e3);
    layer["sim.engine_run_ms"] = Ms(wall_ns) / n;
    layer["sim.npu_bubble_rate"] = bubble / n;
}

std::vector<ServingResult>
Simulate(Setup& s, const DatasetProfile& profile,
         const std::vector<ServingOptions>& runs, SpanRecorder* rec,
         Values& e2e, Values& layer)
{
    std::vector<ServingResult> results;
    int64_t wall_ns = 0;
    double goodput = 0.0, utilization = 0.0, evictions = 0.0, rejected = 0.0;
    int64_t members = 0, decode_steps = 0;
    std::vector<double> waits;
    for (const ServingOptions& options : runs) {
        {
            ScopedSpan span(rec, "serving.sim_run", -1);
            const int64_t t0 = NowNs();
            results.push_back(
                ServingSimulator(*s.costs, {profile}, options).Run());
            wall_ns += NowNs() - t0;
        }
        const ServingResult& result = results.back();
        const ServingReport report = result.Report();
        goodput += report.goodput_rps;
        utilization += report.npu_utilization;
        evictions += result.evictions;
        rejected += result.rejected;
        for (const ReplayStep& step : result.replay_steps) {
            if (step.is_prefill) continue;
            members += static_cast<int64_t>(step.request_ids.size());
            ++decode_steps;
        }
        for (const RequestRecord& r : result.records) {
            if (r.first_dispatch_ms >= 0.0) waits.push_back(r.QueueingMs());
        }
    }
    const double n = static_cast<double>(runs.size());
    e2e["sim_goodput_rps"] = goodput / n;
    layer["serving.sim_run_ms"] = Ms(wall_ns) / n;
    layer["serving.decode_batch_mean"] =
        Ratio(static_cast<double>(members), static_cast<double>(decode_steps));
    layer["serving.evictions"] = evictions / n;
    layer["serving.rejected"] = rejected / n;
    layer["serving.queue_wait_p50_ms"] = Median(waits);
    layer["serving.npu_utilization"] = utilization / n;
    return results;
}

// ------------------------------------------------------ isolated kernels

double
SecondsPerCall(const std::function<void()>& fn, double budget_s)
{
    fn();  // warm caches and lazy state
    int64_t t0 = NowNs();
    fn();
    const int64_t one = std::max<int64_t>(NowNs() - t0, 1);
    const int64_t batch = std::max<int64_t>(1, 1000000 / one);
    std::vector<double> per_call;
    const int64_t end = NowNs() + static_cast<int64_t>(budget_s * 1e9);
    while (per_call.size() < 5 || NowNs() < end) {
        t0 = NowNs();
        for (int64_t i = 0; i < batch; ++i) fn();
        per_call.push_back(Seconds(NowNs() - t0) / static_cast<double>(batch));
    }
    return Median(per_call);
}

Tensor
RandomTensor(int64_t rows, int64_t cols, Rng& rng)
{
    Tensor t({rows, cols}, DType::kF32);
    float* p = t.Data<float>();
    for (int64_t i = 0; i < t.NumElements(); ++i) {
        p[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
    }
    return t;
}

void
MeasureKernels(const Setup& s, int64_t pergroup_rows, Values& layer)
{
    const ModelConfig& c = s.weights.config;
    const Tensor& w = s.weights.Linear(0, LinearKind::kFfnUp);
    const double k = static_cast<double>(w.Rows());
    const double n = static_cast<double>(w.Cols());
    Rng rng(0x6b65726e);
    const PerColumnWeights wq = QuantizePerColumn(w);
    const PackedWeightsI8 packed = PackWeightsI8(wq.q, wq.scales);

    auto w8a8 = [&](int64_t m) {
        const Tensor a = RandomTensor(m, w.Rows(), rng);
        const QuantParams qp = ComputeSymmetricScale(a);
        const Tensor a_q = QuantizeSymmetric(a, qp);
        return SecondsPerCall([&] {
            (void)MatMulW8A8PerTensorPacked(a_q, qp.scale, packed);
        });
    };
    layer["tensor.w8a8_m256_gflops"] = 2.0 * 256 * k * n / w8a8(256) / 1e9;
    // Bytes: int8 weights + int8 activations in, f32 outputs out.
    layer["tensor.w8a8_m8_gbps"] =
        (k * n + 8 * k + 4 * 8 * n) / w8a8(8) / 1e9;

    const Tensor a8 = RandomTensor(8, w.Rows(), rng);
    const PackedWeightsF32& wf = s.weights.PackedLinear(0, LinearKind::kFfnUp);
    layer["tensor.f32_m8_gbps"] =
        4.0 * (k * n + 8 * k + 8 * n) /
        SecondsPerCall([&] { (void)MatMulF32Packed(a8, wf); }) / 1e9;

    const PerGroupWeights pg = QuantizePerGroup(w, 32);
    const Tensor ag = RandomTensor(pergroup_rows, w.Rows(), rng);
    layer["tensor.pergroup_gflops"] =
        2.0 * static_cast<double>(pergroup_rows) * k * n /
        SecondsPerCall([&] { (void)MatMulPerGroup(ag, pg); }) / 1e9;

    // Causal attention: 256 query rows at positions 512..767 over a
    // 768-position history (the last chunk of a long UI prompt).
    const int64_t q_dim = static_cast<int64_t>(c.num_heads) * c.head_dim;
    const int64_t kv_dim = static_cast<int64_t>(c.num_kv_heads) * c.head_dim;
    const Tensor q = RandomTensor(256, q_dim, rng);
    const Tensor kk = RandomTensor(768, kv_dim, rng);
    const Tensor vv = RandomTensor(768, kv_dim, rng);
    double attended = 0.0;
    for (int i = 0; i < 256; ++i) attended += 512 + i + 1;
    layer["tensor.attention_gflops"] =
        4.0 * c.head_dim * c.num_heads * attended /
        SecondsPerCall([&] {
            (void)CausalAttention(q, kk, vv, c.num_heads, c.num_kv_heads,
                                  512);
        }) /
        1e9;

    // Paged decode attention: B=8 sequences of 128 cached positions.
    constexpr int kB = 8;
    constexpr int64_t kCtx = 128;
    BatchedKvCache cache = s.model->MakeBatchedCache(kB);
    for (int seq = 0; seq < kB; ++seq) {
        for (int layer_i = 0; layer_i < c.num_layers; ++layer_i) {
            cache.Append(seq, layer_i, RandomTensor(kCtx, kv_dim, rng),
                         RandomTensor(kCtx, kv_dim, rng));
        }
    }
    const Tensor qd = RandomTensor(kB, q_dim, rng);
    std::vector<int64_t> segments, offsets(kB, kCtx - 1);
    std::vector<int> seqs;
    for (int i = 0; i <= kB; ++i) segments.push_back(i);
    for (int i = 0; i < kB; ++i) seqs.push_back(i);
    layer["model.paged_attention_gflops"] =
        4.0 * c.head_dim * c.num_heads * kB * kCtx /
        SecondsPerCall([&] {
            (void)PagedCausalAttention(qd, segments, seqs, offsets, cache, 0,
                                       c.num_heads, c.num_kv_heads);
        }) /
        1e9;
}

// ------------------------------------------------------ request plumbing

void
ReportLatency(const Samples& x, Values& e2e, std::vector<std::string>& notes)
{
    const Tail ttft = BlockedTailOf(x.ttft_ms);
    const Tail tpot = BlockedTailOf(x.tpot_ms);
    e2e["prefill_tok_s"] = Ratio(x.prompt_tokens, x.prefill_s);
    e2e["decode_tok_s"] = Ratio(x.decode_tokens, x.decode_s);
    e2e["ttft_p50_ms"] = Median(x.ttft_ms);
    e2e["ttft_tail_ms"] = ttft.value;
    e2e["tpot_p50_ms"] = Median(x.tpot_ms);
    e2e["tpot_tail_ms"] = tpot.value;
    notes.push_back(StrFormat(
        "{\"ttft_tail_percentile\": %.2f, \"ttft_samples\": %zu, "
        "\"ttft_tail_blocks\": %zu, \"tpot_tail_percentile\": %.2f, "
        "\"tpot_samples\": %zu, \"tpot_tail_blocks\": %zu, "
        "\"timed_requests\": %lld}",
        ttft.percentile, ttft.count, ttft.blocks, tpot.percentile, tpot.count,
        tpot.blocks, static_cast<long long>(x.requests)));
}

void
TimedLoop(double seconds, const std::function<void(int64_t)>& serve,
          const std::function<bool()>& stop)
{
    const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
    int64_t i = 0;
    do {
        serve(i++);
    } while (NowNs() < end && !stop());
}

void
ReportLinears(const TimedExecutor& npu, double npu_requests,
              const TimedExecutor& cpu, double cpu_requests, Values& layer)
{
    if (npu.counters().calls > 0) {
        const LinearCounters& c = npu.counters();
        layer["core.npu_linear_ms"] = Ms(c.ns) / npu_requests;
        layer["core.npu_linear_calls"] =
            static_cast<double>(c.calls) / npu_requests;
        layer["core.npu_linear_gflops"] = c.flops / Seconds(c.ns) / 1e9;
    }
    if (cpu.counters().calls > 0) {
        const LinearCounters& c = cpu.counters();
        layer["model.cpu_linear_ms"] = Ms(c.ns) / cpu_requests;
        layer["model.cpu_linear_gbps"] = c.weight_bytes / Seconds(c.ns) / 1e9;
    }
}

void
ReportShadow(const NpuShadowExecutor& npu, Values& layer)
{
    const ShadowRuntimeStats& st = npu.stats();
    layer["core.shadow_call_frac"] =
        Ratio(static_cast<double>(st.shadow_calls),
              static_cast<double>(st.linear_calls));
    layer["core.hot_hit_frac"] =
        Ratio(static_cast<double>(st.hot_hits),
              static_cast<double>(st.extracted_channels));
}

void
ReportHandoffs(const DecodeBackend& backend, double steps, Values& layer)
{
    const HandoffStats h = backend.stats();
    layer["model.handoffs_per_step"] =
        Ratio(static_cast<double>(h.handoffs), steps);
    layer["model.quantized_elems_per_step"] =
        Ratio(static_cast<double>(h.quantized_elems), steps);
}

void
ReportForwardSpans(const std::vector<Span>& spans, Values& layer)
{
    const std::vector<int64_t> self = SelfTimesNs(spans);
    int64_t chunk_self = 0, chunk_wall = 0, logits_wall = 0;
    int64_t chunks = 0, logits = 0;
    const std::string chunk_name = "model.prefill_chunk";
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        if (chunk_name == s.name) {
            chunk_self += self[i];
            chunk_wall += s.end_ns - s.start_ns;
            ++chunks;
        } else if (std::string("model.logits") == s.name) {
            logits_wall += s.end_ns - s.start_ns;
            ++logits;
        }
    }
    if (chunks > 0) {
        layer["model.nonlinear_ms_per_chunk"] =
            Ms(chunk_self) / static_cast<double>(chunks);
        layer["model.nonlinear_share"] =
            Ratio(static_cast<double>(chunk_self),
                  static_cast<double>(chunk_wall));
    }
    if (logits > 0) {
        layer["model.logits_ms"] =
            Ms(logits_wall) / static_cast<double>(logits);
    }
}

double
TraceOverhead(const std::function<void(SpanRecorder*)>& work)
{
    std::vector<double> ratios;
    for (int pair = 0; pair < 3; ++pair) {
        SpanRecorder scratch;
        int64_t t0 = NowNs();
        work(nullptr);
        const int64_t untraced = NowNs() - t0;
        t0 = NowNs();
        work(&scratch);
        const int64_t traced = NowNs() - t0;
        ratios.push_back(static_cast<double>(traced) /
                         static_cast<double>(untraced));
    }
    return Median(ratios) - 1.0;
}

std::function<bool()>
SpanBudgetReached(const SpanRecorder& rec)
{
    constexpr size_t kSpanBudget = 100000;
    const size_t base = rec.spans().size();
    return [&rec, base] { return rec.spans().size() - base > kSpanBudget; };
}

}  // namespace perfbench
