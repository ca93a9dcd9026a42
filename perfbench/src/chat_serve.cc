// chat_serve: a simulated chat schedule replayed on real tensors (see
// workloads.h).
#include "perfbench/src/harness.h"

#include <algorithm>
#include <map>
#include <string>

#include "perfbench/src/inputs.h"
#include "src/obs/metrics.h"
#include "src/serving/replay.h"
#include "src/util/format.h"
#include "src/workloads/accuracy.h"

namespace perfbench {

using namespace llmnpu;

namespace {

/** What one timed replay observed, aligned with the simulated schedule. */
struct ReplayObservation {
    bool aligned = true;
    std::string mismatch;
    int64_t restart_rows = 0;
    int64_t prefill_rows = 0;
};

/**
 * Matches the decorator-observed steps of one replay against the simulated
 * schedule it replayed: every ReplayStep, plus one template prefill ahead
 * of the first shared-prefix fork (ReplayServingTrace materializes the
 * prefix once). Fills TTFT samples (first chunk start to the end of the
 * request's first decode step) and the restart-row counts.
 */
ReplayObservation
AlignReplay(const ServingResult& served, const StepClock& clock,
            Samples& out)
{
    ReplayObservation obs;
    const std::vector<StepClock::Step>& steps = clock.steps();
    size_t next = 0;
    bool template_done = false;
    std::map<int, int64_t> first_start;
    std::map<int, int64_t> first_token;
    std::map<int, bool> started, restarting;
    auto take = [&](bool decode, int64_t rows) -> const StepClock::Step* {
        if (next >= steps.size()) {
            obs.aligned = false;
            obs.mismatch = "fewer observed steps than scheduled";
            return nullptr;
        }
        const StepClock::Step& st = steps[next++];
        if (st.IsDecode() != decode || (decode && st.rows != rows)) {
            obs.aligned = false;
            obs.mismatch = StrFormat(
                "step %zu: observed %s of %lld rows, scheduled %s", next - 1,
                st.IsDecode() ? "decode" : "prefill",
                static_cast<long long>(st.rows),
                decode ? "decode" : "prefill");
            return nullptr;
        }
        return &st;
    };
    for (const ReplayStep& step : served.replay_steps) {
        if (!obs.aligned) break;
        if (step.is_prefill) {
            const int id = step.request_ids.front();
            const ServingRequest& req =
                served.records[static_cast<size_t>(id)].request;
            if (req.shared_prefix_len > 0 && !template_done) {
                const StepClock::Step* t = take(false, 0);
                if (t == nullptr) break;
                obs.prefill_rows += t->rows;
                template_done = true;
            }
            const StepClock::Step* st = take(false, 0);
            if (st == nullptr) break;
            obs.prefill_rows += st->rows;
            if (step.chunk_index == 0) {
                // A second chunk 0 is an eviction restart: every chunk
                // from here on recomputes rows already prefilled once.
                if (started[id]) restarting[id] = true;
                started[id] = true;
            }
            if (restarting[id]) obs.restart_rows += st->rows;
            first_start.emplace(id, st->start_ns);
        } else {
            const StepClock::Step* st =
                take(true, static_cast<int64_t>(step.request_ids.size()));
            if (st == nullptr) break;
            for (int id : step.request_ids) first_token.emplace(id, st->end_ns);
        }
    }
    if (obs.aligned && next != steps.size()) {
        obs.aligned = false;
        obs.mismatch = "more observed steps than scheduled";
    }
    if (!obs.aligned) return obs;
    for (const auto& [id, start] : first_start) {
        auto it = first_token.find(id);
        if (it != first_token.end()) {
            out.ttft_ms.push_back(Ms(it->second - start));
        }
    }
    for (const StepClock::Step& st : steps) {
        if (st.IsDecode()) {
            out.tpot_ms.push_back(st.WallMs());
            out.decode_tokens += static_cast<double>(st.rows);
            out.decode_s += st.WallMs() / 1e3;
        } else {
            out.prompt_tokens += static_cast<double>(st.rows);
            out.prefill_s += st.WallMs() / 1e3;
        }
    }
    return obs;
}

}  // namespace

void
RunChatServe(const RunOptions& o, Setup& s, SpanRecorder* rec, RunResult& res,
             Values& e2e, Values& layer)
{
    const Transformer& model = *s.model;
    const int64_t vocab = model.config().vocab_size;
    std::vector<ServingOptions> sims;
    for (int i = 0; i < kChatSchedules; ++i) {
        sims.push_back(ChatServingOptions(o.seed, i));
    }
    const std::vector<ServingResult> schedules =
        Simulate(s, PersonaChatProfile(), sims, rec, e2e, layer);
    std::vector<InferenceRequest> shapes;
    size_t max_requests = 0;
    for (size_t i = 0; i < schedules.size(); ++i) {
        const ServingResult& served = schedules[i];
        res.attempted += static_cast<int64_t>(served.records.size());
        res.failed += served.rejected + served.shed;
        max_requests = std::max(max_requests, served.records.size());
        if (i >= kChatReplayedSchedules) continue;
        for (const RequestRecord& r : served.records) {
            shapes.push_back(r.request.AsInference());
        }
    }
    SimulatePrefill(s, shapes, rec, e2e, layer);

    ReplayOptions replay = ChatReplayOptions(o.seed);
    ReplayPlacement placement;
    placement.prefill = DecodePlacement::kNpuQuant;
    for (size_t id = 0; id < max_requests; ++id) {
        placement.decode.push_back(id % 2 == 0 ? DecodePlacement::kNpuQuant
                                               : DecodePlacement::kCpuFloat);
    }
    replay.placement = placement;

    {
        ScopedSpan span(rec, "quality.evaluate_agreement", -1);
        e2e["quality"] =
            EvaluateAgreement(model, *s.npu,
                              ChatQualityPrompts(vocab,
                                                 replay.max_prompt_tokens))
                .top1_agreement;
    }

    StepClock clock;
    TimedExecutor npu(*s.npu, "linear.npu", 1, &clock);
    TimedExecutor cpu(*s.fp32, "linear.cpu", 4, &clock);
    DecodeBackend backend(cpu, npu);
    // The pool's used-pages gauge is process-wide; zeroing it before each
    // replay makes its peak that replay's cache peak.
    obs::Gauge& pages =
        obs::MetricsRegistry::Global().GetGauge("kv_pool.used_pages");

    auto run = [&](const ServingResult& served, bool check, SpanRecorder* r,
                   int id) {
        npu.set_recorder(r);
        cpu.set_recorder(r);
        npu.set_request(id);
        cpu.set_request(id);
        replay.check_bitwise = check;
        clock.Clear();
        pages.Reset();
        ReplayOutcome outcome;
        {
            ScopedSpan span(r, "serving.replay", id);
            outcome = ReplayServingTrace(served.replay_steps, served.records,
                                         model, backend, replay);
        }
        clock.Close(NowNs());
        npu.set_recorder(nullptr);
        cpu.set_recorder(nullptr);
        return outcome;
    };

    // Untimed pass: every schedule the timed window replays runs once with
    // check_bitwise against solo execution and every linear output checked
    // finite. The timed replays rerun these checked schedules on the same
    // inputs and are checked only for alignment, so they are not counted as
    // attempts.
    npu.set_check_finite(true);
    cpu.set_check_finite(true);
    for (int i = 0; i < kChatReplayedSchedules; ++i) {
        const int64_t nonfinite_before =
            npu.counters().nonfinite + cpu.counters().nonfinite;
        const ReplayOutcome checked =
            run(schedules[static_cast<size_t>(i)], true, rec, -1);
        res.attempted += checked.sequences;
        if (!checked.bitwise_match ||
            npu.counters().nonfinite + cpu.counters().nonfinite >
                nonfinite_before) {
            // ReplayOutcome reports only whether some sequence mismatched,
            // so a mismatch fails every sequence of the replay.
            res.failed += checked.sequences;
            res.notes.push_back(StrFormat(
                "{\"replay_check\": \"schedule %d: %s\"}", i,
                checked.first_mismatch.c_str()));
        }
        if (checked.truncated_memberships != 0) res.correct = false;
    }
    npu.set_check_finite(false);
    cpu.set_check_finite(false);

    Samples x;
    int64_t replays = 0, replay_ns = 0, restart_rows = 0, prefill_rows = 0;
    int64_t cow = 0, forks = 0;
    double pages_peak = 0.0;
    // Replay i runs schedule i mod kChatReplayedSchedules.
    auto timed = [&](SpanRecorder* r) {
        const int id = static_cast<int>(replays);
        const ServingResult& served =
            schedules[static_cast<size_t>(replays % kChatReplayedSchedules)];
        const int64_t t0 = NowNs();
        const ReplayOutcome outcome = run(served, false, r, id);
        replay_ns += NowNs() - t0;
        ++replays;
        x.requests += outcome.sequences;
        cow += outcome.cow_page_clones;
        forks += outcome.shared_prefix_forks;
        pages_peak = std::max(pages_peak, pages.peak());
        const ReplayObservation obs = AlignReplay(served, clock, x);
        restart_rows += obs.restart_rows;
        prefill_rows += obs.prefill_rows;
        if (!obs.aligned) {
            res.correct = false;
            if (res.notes.size() < 4) {
                res.notes.push_back(StrFormat("{\"replay_alignment\": \"%s\"}",
                                              obs.mismatch.c_str()));
            }
        }
    };
    timed(nullptr);  // warm-up replay
    x = Samples{};
    replays = replay_ns = restart_rows = prefill_rows = cow = forks = 0;

    if (!o.trace) {
        TimedLoop(o.seconds, [&](int64_t) { timed(nullptr); });
        ReportLatency(x, e2e, res.notes);
    } else {
        layer["trace.overhead_frac"] = TraceOverhead(
            [&](SpanRecorder* r) {
                (void)run(schedules.front(), false, r, -1);
            });
        npu.ResetCounters();
        cpu.ResetCounters();
        backend.ResetStats();
        s.npu->ResetStats();
        int64_t steps = 0, prefill_steps = 0, prefill_ns = 0;
        int64_t prefill_linear_ns = 0;
        TimedLoop(
            o.seconds,
            [&](int64_t) {
                timed(rec);
                for (const StepClock::Step& st : clock.steps()) {
                    ++steps;
                    if (st.IsDecode()) continue;
                    ++prefill_steps;
                    prefill_ns += st.end_ns - st.start_ns;
                    prefill_linear_ns += st.linear_ns;
                }
            },
            SpanBudgetReached(*rec));
        const double n = static_cast<double>(x.requests);
        ReportLinears(npu, n, cpu, n, layer);
        ReportShadow(*s.npu, layer);
        ReportHandoffs(backend, static_cast<double>(steps), layer);
        // The replay runs its own forwards, so a prefill chunk's non-linear
        // time is its step's wall time minus the decorated linears (the
        // step's logits and replay bookkeeping included).
        layer["model.nonlinear_ms_per_chunk"] =
            Ratio(Ms(prefill_ns - prefill_linear_ns),
                  static_cast<double>(prefill_steps));
        layer["model.nonlinear_share"] =
            Ratio(static_cast<double>(prefill_ns - prefill_linear_ns),
                  static_cast<double>(prefill_ns));
        layer["model.kv_pages_peak"] = pages_peak;
        layer["model.cow_clones"] =
            Ratio(static_cast<double>(cow), static_cast<double>(replays));
        layer["model.prefix_forks"] =
            Ratio(static_cast<double>(forks), static_cast<double>(replays));
        layer["serving.replay_ms"] =
            Ratio(Ms(replay_ns), static_cast<double>(replays));
        layer["serving.restart_row_frac"] =
            Ratio(static_cast<double>(restart_rows),
                  static_cast<double>(prefill_rows));
        Rng rng(9);
        const Tensor hidden8 = RandomTensor(8, model.config().hidden_size, rng);
        layer["model.logits_ms"] =
            SecondsPerCall([&] { (void)model.Logits(hidden8); }) * 1e3;
        MeasureKernels(s, replay.max_prompt_tokens / 3, layer);
    }
    res.notes.push_back(
        "{\"note\": \"the replay is a closed batch on the wall clock; "
        "queueing happens only in the simulator's virtual time\"}");
    res.notes.push_back(StrFormat(
        "{\"chat_rate_rps\": %.5g, \"chat_capacity_rps\": %.5g, "
        "\"bitwise_checked_schedules\": %d}",
        ChatRateRps(), ChatCapacityRps(), kChatReplayedSchedules));
}

}  // namespace perfbench
