// ui_prefill: one closed-loop UI-automation client (see workloads.h).
#include "perfbench/src/harness.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "perfbench/src/inputs.h"
#include "src/util/format.h"
#include "src/workloads/accuracy.h"

namespace perfbench {

using namespace llmnpu;

namespace {

constexpr int kUiChunk = 256;

/** One closed-loop client driving UI-automation requests. */
class UiClient
{
  public:
    explicit UiClient(Setup& s)
        : s_(s),
          npu_(*s.npu, "linear.npu", 1, &clock_),
          cpu_(*s.fp32, "linear.cpu", 4, &clock_),
          backend_(cpu_, npu_)
    {}
    // The decorators point at clock_: a copy would share the original's.
    UiClient(const UiClient&) = delete;
    UiClient& operator=(const UiClient&) = delete;

    void
    SetRecorder(SpanRecorder* rec)
    {
        rec_ = rec;
        npu_.set_recorder(rec);
        cpu_.set_recorder(rec);
    }

    /** Prefill in 256-token chunks on NPU-quant, first token from the
     *  last row's logits, then decode on CPU-float. */
    void
    Serve(const UiRequest& r, int id, Samples& out)
    {
        const Transformer& model = *s_.model;
        const int64_t vocab = model.config().vocab_size;
        bool ok = true;
        ScopedSpan request_span(rec_, "request", id);
        npu_.set_request(id);
        cpu_.set_request(id);
        const int64_t t0 = NowNs();
        backend_.SetUniformPlacement(DecodePlacement::kNpuQuant);
        KvCache cache = model.MakeCache();
        Tensor hidden;
        const size_t len = r.prompt.size();
        for (size_t start = 0; start < len; start += kUiChunk) {
            const std::vector<int> chunk(
                r.prompt.begin() + static_cast<int64_t>(start),
                r.prompt.begin() +
                    static_cast<int64_t>(std::min(len, start + kUiChunk)));
            {
                ScopedSpan span(rec_, "model.prefill_chunk", id);
                hidden = model.Forward(chunk, cache, backend_);
            }
            ok = ok && AllFinite(hidden);
        }
        int token = -1;
        {
            ScopedSpan span(rec_, "model.logits", id);
            token = model.ArgmaxLastRow(
                model.Logits(hidden.CopyRows(hidden.Rows() - 1, 1)));
        }
        const int64_t t1 = NowNs();
        ok = ok && InVocab(token, vocab);
        out.ttft_ms.push_back(Ms(t1 - t0));
        out.prompt_tokens += static_cast<double>(len);
        out.prefill_s += Seconds(t1 - t0);

        backend_.SetUniformPlacement(DecodePlacement::kCpuFloat);
        for (int i = 1; i < r.output_len; ++i) {
            const int64_t d0 = NowNs();
            Tensor h;
            {
                ScopedSpan span(rec_, "model.decode_step", id);
                h = model.Forward({token}, cache, backend_);
            }
            {
                ScopedSpan span(rec_, "model.logits", id);
                token = model.ArgmaxLastRow(model.Logits(h));
            }
            const int64_t d1 = NowNs();
            ok = ok && AllFinite(h) && InVocab(token, vocab);
            out.tpot_ms.push_back(Ms(d1 - d0));
            out.decode_tokens += 1.0;
            out.decode_s += Seconds(d1 - d0);
        }
        clock_.Close(NowNs());
        ++out.requests;
        if (!ok) ++out.failed;
    }

    StepClock& clock() { return clock_; }
    TimedExecutor& npu() { return npu_; }
    TimedExecutor& cpu() { return cpu_; }
    DecodeBackend& backend() { return backend_; }

  private:
    Setup& s_;
    StepClock clock_;
    TimedExecutor npu_;
    TimedExecutor cpu_;
    DecodeBackend backend_;
    SpanRecorder* rec_ = nullptr;
};

/**
 * Worst relative gap, over the traced requests, between a request's TTFT as
 * the request loop's own clock took it (`ttft_ms[id]`) and the self times
 * of every span under its prefill chunks and its first logits. Those self
 * times sum to the chunk and logits spans' durations, so the gap is the
 * share of TTFT that no layer span covers: cache creation, chunk copies,
 * output checks and the recorder's own cost.
 */
double
PrefillCoverageGap(const std::vector<Span>& spans,
                   const std::vector<double>& ttft_ms)
{
    std::vector<int64_t> covered(ttft_ms.size(), 0);
    std::vector<bool> logits_seen(ttft_ms.size(), false);
    for (const Span& span : spans) {
        if (span.request < 0 ||
            static_cast<size_t>(span.request) >= ttft_ms.size()) {
            continue;
        }
        const size_t id = static_cast<size_t>(span.request);
        const std::string name = span.name;
        if (name == "model.prefill_chunk" ||
            (name == "model.logits" && !logits_seen[id])) {
            covered[id] += span.end_ns - span.start_ns;
            logits_seen[id] = logits_seen[id] || name == "model.logits";
        }
    }
    double worst = 0.0;
    for (size_t id = 0; id < ttft_ms.size(); ++id) {
        worst = std::max(worst, std::abs(1.0 - Ms(covered[id]) / ttft_ms[id]));
    }
    return worst;
}

}  // namespace

void
RunUiPrefill(const RunOptions& o, Setup& s, SpanRecorder* rec, RunResult& res,
             Values& e2e, Values& layer)
{
    const std::vector<UiRequest> requests =
        UiInputs(o.seed, s.weights.config.vocab_size);

    // Untimed pass: quality, the simulated plane, a warm-up request.
    std::vector<InferenceRequest> shapes;
    for (const UiRequest& r : requests) {
        shapes.push_back({static_cast<int>(r.prompt.size()), r.output_len});
    }
    {
        ScopedSpan span(rec, "quality.evaluate_agreement", -1);
        e2e["quality"] =
            EvaluateAgreement(*s.model, *s.npu,
                              UiQualityPrompts(s.weights.config.vocab_size))
                .top1_agreement;
    }
    SimulatePrefill(s, shapes, rec, e2e, layer);
    ServingOptions sim;
    sim.closed_loop = true;
    sim.num_clients = 1;
    sim.think_time_ms = 0.0;
    sim.num_requests = static_cast<int>(requests.size());
    sim.seed = SimulatorSeed(o.seed);
    const ServingResult served =
        Simulate(s, DroidTaskAppsProfile(), {sim}, rec, e2e, layer).front();
    res.attempted += static_cast<int64_t>(served.records.size());
    res.failed += served.rejected + served.shed;

    UiClient client(s);
    Samples warm;
    client.Serve(requests.front(), -1, warm);
    res.attempted += warm.requests;
    res.failed += warm.failed;

    auto window = [&](Samples& x, SpanRecorder* r,
                      const std::function<bool()>& stop) {
        client.SetRecorder(r);
        TimedLoop(
            o.seconds,
            [&](int64_t i) {
                client.Serve(requests[static_cast<size_t>(i) % requests.size()],
                             static_cast<int>(i), x);
            },
            stop);
        client.SetRecorder(nullptr);
    };

    Samples x;
    if (!o.trace) {
        window(x, nullptr, [] { return false; });
        ReportLatency(x, e2e, res.notes);
    } else {
        layer["trace.overhead_frac"] = TraceOverhead(
            [&](SpanRecorder* r) {
                Samples scratch;
                client.SetRecorder(r);
                for (int i = 0; i < 2; ++i) {
                    client.Serve(requests[static_cast<size_t>(i)], i, scratch);
                }
                client.SetRecorder(nullptr);
            });
        client.clock().Clear();
        client.npu().ResetCounters();
        client.cpu().ResetCounters();
        client.backend().ResetStats();
        s.npu->ResetStats();
        window(x, rec, SpanBudgetReached(*rec));
        const double n = static_cast<double>(x.requests);
        ReportLinears(client.npu(), n, client.cpu(), n, layer);
        ReportShadow(*s.npu, layer);
        ReportHandoffs(client.backend(),
                       static_cast<double>(client.clock().steps().size()),
                       layer);
        ReportForwardSpans(rec->spans(), layer);
        // Window request i has span request id i and TTFT x.ttft_ms[i].
        const double worst = PrefillCoverageGap(rec->spans(), x.ttft_ms);
        res.notes.push_back(StrFormat(
            "{\"max_ttft_uncovered_by_layer_spans\": %.5f, "
            "\"traced_requests\": %lld}",
            worst, static_cast<long long>(x.requests)));
        if (worst > 0.05) res.correct = false;
        MeasureKernels(s, kUiChunk, layer);
        MeasureQuantSweep(s, o.seed, res, layer);
    }
    res.attempted += x.requests;
    res.failed += x.failed;
}

}  // namespace perfbench
