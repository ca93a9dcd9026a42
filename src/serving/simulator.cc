#include "src/serving/simulator.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/thermal.h"
#include "src/util/check.h"
#include "src/util/format.h"

namespace llmnpu {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** A request between admission and prefill completion. */
struct PendingPrefill {
    int id = 0;
    int next_chunk = 0;
    const ServingCostProfile* profile = nullptr;
    /** Fault-plane retry attempt of the *next* chunk (0 = first try). */
    int attempt = 0;
    /** Backoff gate: the chunk may not dispatch before this time. */
    double ready_ms = 0.0;

    double RemainingMs() const
    {
        double total = 0.0;
        for (size_t c = static_cast<size_t>(next_chunk);
             c < profile->chunk_ms.size(); ++c) {
            total += profile->chunk_ms[c];
        }
        return total;
    }
};

}  // namespace

void
ServingOptions::Validate() const
{
    LLMNPU_FATAL_IF(num_requests <= 0, "serving num_requests must be > 0");
    LLMNPU_FATAL_IF(max_decode_batch <= 0,
                    "serving max_decode_batch must be > 0");
    LLMNPU_FATAL_IF(decode_batch_marginal < 0.0,
                    "serving decode_batch_marginal must be >= 0");
    LLMNPU_FATAL_IF(kv_pool_pages < 0,
                    "serving kv_pool_pages must be >= 0 (0 = unbounded)");
    LLMNPU_FATAL_IF(kv_page_size <= 0, "serving kv_page_size must be > 0");
    LLMNPU_FATAL_IF(!closed_loop && rate_rps <= 0.0,
                    "serving rate_rps must be > 0 in open-loop mode");
    LLMNPU_FATAL_IF(closed_loop && num_clients <= 0,
                    "serving num_clients must be > 0 in closed-loop mode");
    LLMNPU_FATAL_IF(closed_loop && think_time_ms < 0.0,
                    "serving think_time_ms must be >= 0");
    LLMNPU_FATAL_IF(shed_expired_queued && slo_factor <= 0.0,
                    "serving shed_expired_queued needs slo_factor > 0 "
                    "(no deadlines to expire otherwise)");
    LLMNPU_FATAL_IF(shared_prefix.prefix_len < 0,
                    "serving shared_prefix.prefix_len must be >= 0");
    LLMNPU_FATAL_IF(shared_prefix.prefix_len % kv_page_size != 0,
                    "serving shared_prefix.prefix_len must be page-aligned "
                    "(whole shared pages are what admission counts once)");
    LLMNPU_FATAL_IF(shared_prefix.share_fraction < 0.0 ||
                        shared_prefix.share_fraction > 1.0,
                    "serving shared_prefix.share_fraction must be in [0, 1]");
    faults.Validate();
}

ServingReport
ServingResult::Report() const
{
    ServingReport report = BuildReport(records, makespan_ms, npu_busy_ms,
                                       decode_busy_ms, preemptions);
    report.kv_pool_pages = kv_pool_pages;
    report.kv_pages_peak = kv_pages_peak;
    report.kv_pages_mean = kv_pages_mean;
    report.npu_throttled_frac = npu_throttled_frac;
    report.kv_pool_pages_live = kv_pool_pages_live;
    report.kv_pages_peak_post_shrink = kv_pages_peak_post_shrink;
    return report;
}

ServingSimulator::ServingSimulator(ServingCostModel& costs,
                                   std::vector<DatasetProfile> mix,
                                   ServingOptions options)
    : costs_(costs), mix_(std::move(mix)), options_(options)
{
    LLMNPU_CHECK(!mix_.empty());
    options_.Validate();
}

ServingResult
ServingSimulator::Run()
{
    ServingResult result;
    result.records.reserve(static_cast<size_t>(options_.num_requests));

    // ---- Control plane. Null policy fields resolve to the legacy
    // defaults here; a run with the defaults — explicit or null — is
    // bit-identical to the pre-policy-object simulator. The cost model's
    // default batch marginal is synced so off-profile pricing through the
    // calibrated oracle uses the serving layer's configuration.
    const std::shared_ptr<QueuePolicy> queue_policy =
        options_.queue_policy ? options_.queue_policy
                              : MakeQueuePolicy(options_.policy);
    const std::shared_ptr<PlacementPolicy> placement_policy =
        options_.placement_policy ? options_.placement_policy
                                  : std::make_shared<StaticPlacement>();
    const std::shared_ptr<AdmissionPolicy> admission_policy =
        options_.admission_policy ? options_.admission_policy
                                  : std::make_shared<ThresholdAdmission>();
    const bool dynamic_placement = placement_policy->IsDynamic();
    costs_.set_default_batch_marginal(options_.decode_batch_marginal);

    // ---- Fault plane. All injection is counter-based (a pure function of
    // the fault seed and the draw coordinates), so a rate-zero plane draws
    // nothing and every code path below degenerates bitwise to the
    // fault-free simulator.
    const FaultOptions& fopts = options_.faults;
    const FaultPlane fault_plane(fopts);
    const bool inject_on = fopts.Enabled();
    ThermalModel thermal(fopts.thermal);
    double throttled_ms = 0.0;
    double peak_temp_c = thermal.temperature_c();

    // ---- Registry bookkeeping. The process-wide registry is a write-only
    // sink: concurrent runs share it, so every ServingResult field is
    // computed from this run's own state and never read back from it.
    // Sim-lane trace events carry virtual timestamps and are recorded only
    // while tracing is on.
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    obs::Gauge& kv_gauge = reg.GetGauge("sim.kv_used_pages");
    obs::Counter& evict_counter = reg.GetCounter("sim.evictions");
    obs::Counter& preempt_counter = reg.GetCounter("sim.preemptions");
    obs::Counter& reject_counter = reg.GetCounter("sim.rejections");
    obs::Counter& fault_counter = reg.GetCounter("sim.faults");
    obs::Counter& retry_counter = reg.GetCounter("sim.retries");
    obs::Counter& shed_counter = reg.GetCounter("sim.shed");
    obs::Counter& failover_counter = reg.GetCounter("sim.failovers");
    kv_gauge.Set(0.0);
    kv_gauge.ResetPeak();
    auto sim_emit = [&](obs::SimEvent event) {
        if (obs::TraceEnabled()) {
            obs::Tracer::Global().RecordSim(std::move(event));
        }
    };
    // Fault-plane events render on their own Perfetto lane so degraded-mode
    // runs read as "what went wrong / what the defense did" at a glance.
    auto fault_event = [&](const char* name, int req, double t0, double t1,
                           std::string args) {
        obs::SimEvent event;
        event.name = name;
        event.lane = obs::SimLane::kFaults;
        event.phase = t1 > t0 ? obs::TracePhase::kSpan
                              : obs::TracePhase::kInstant;
        event.t0_ms = t0;
        event.t1_ms = t1;
        event.req = req;
        event.args_json = std::move(args);
        sim_emit(std::move(event));
    };

    // ---- Arrival stream. Open loop: the whole Poisson trace up front.
    // Closed loop: a sampler plus a list of scheduled client wake-ups.
    RequestSampler sampler(mix_, options_.seed);
    sampler.SetSharedPrefix(options_.shared_prefix);
    std::vector<ArrivalEvent> open_arrivals;
    size_t next_open = 0;
    std::vector<double> client_wakeups;  // closed loop, unsorted
    int issued = 0;
    if (options_.closed_loop) {
        const int first_wave =
            std::min(options_.num_clients, options_.num_requests);
        for (int i = 0; i < first_wave; ++i) client_wakeups.push_back(0.0);
        issued = first_wave;
    } else {
        open_arrivals = GeneratePoissonArrivals(
            mix_, options_.rate_rps, options_.num_requests, options_.seed,
            options_.shared_prefix);
        issued = options_.num_requests;
    }

    // ---- Machine state.
    double now = 0.0;
    std::vector<PendingPrefill> prefill_queue;
    bool npu_busy = false;
    double npu_end = 0.0;
    double npu_interference = 0.0;  // of the in-flight chunk's profile
    PendingPrefill npu_job;
    double npu_start = 0.0;
    // Fate of the in-flight chunk attempt, drawn at dispatch. A faulted
    // attempt's occupancy is discarded work: it goes to npu_faulted_ms,
    // never npu_busy_ms, and emits neither a trace task nor a replay step.
    FaultPlane::ChunkFate npu_fate = FaultPlane::ChunkFate::kOk;

    std::vector<int> decode_pool;  // prefilled requests, admission order
    std::vector<int> step_members;
    std::vector<DecodePlacement> step_placements;  // parallel, fault runs
    bool step_active = false;
    double step_remaining_work = 0.0;  // unscaled service ms still owed
    double step_last_update = 0.0;
    double step_start = 0.0;
    int step_counter = 0;
    // NPU dispatch attempts so far (chunk dispatches + NPU-placed decode
    // dispatches), denominator of the live fault-rate policy signal.
    int64_t npu_attempts = 0;
    // The in-flight chunk profile's two interference factors, kept
    // separately for dynamic placement: the policy can put the active step
    // on either side regardless of where the profile placed decode, and
    // the chunk steals bandwidth from whichever side is actually decoding.
    double chunk_float_interference = 0.0;
    double chunk_npu_interference = 0.0;
    bool step_on_npu = false;  // any member of the active step NPU-placed

    // Per-request fault-defense state, indexed by request id.
    std::vector<int> decode_attempt;  // retries of the *current* token
    std::vector<int> consec_faults;   // consecutive NPU faults (breaker)
    std::vector<double> decode_ready;  // decode backoff gate

    auto decode_rate = [&]() {
        double interference = npu_interference;
        if (dynamic_placement && step_active) {
            interference = step_on_npu ? chunk_npu_interference
                                       : chunk_float_interference;
        }
        return npu_busy ? std::max(0.05, 1.0 - interference) : 1.0;
    };

    // ---- KV page accounting. Usage (held pages per request, peak, time
    // integral) is tracked for every run; the budget gates admission,
    // dispatch and decode growth only when bounded (kv_pool_pages > 0).
    // `live_budget` is the budget currently in force: it starts at the
    // configured pool and drops when the fault plane's mid-run shrink
    // fires (memory pressure from the rest of the device).
    const bool kv_bounded = options_.kv_pool_pages > 0;
    const int64_t kv_page = options_.kv_page_size;
    int64_t live_budget = options_.kv_pool_pages;
    bool shrink_pending = kv_bounded && fopts.pool_shrink_at_ms >= 0.0;
    bool shrink_fired = false;
    int64_t post_shrink_peak = 0;
    auto pages_for = [&](int64_t positions) {
        return (positions + kv_page - 1) / kv_page;
    };
    std::vector<int64_t> kv_held;  // pages reserved, indexed by request id
    int64_t kv_free = options_.kv_pool_pages;
    int64_t kv_used = 0;
    double kv_integral = 0.0;  // pages x ms, for the time-mean occupancy
    result.kv_pool_pages = options_.kv_pool_pages;
    result.kv_pool_pages_live = live_budget;

    // ---- Shared system prefix (SharedPrefixOptions). The prefix's pages
    // are a refcounted shared asset, never in any kv_held entry: they are
    // charged to the pool once when the first referencing request takes
    // its reservation and freed when the last referencer's pages drop —
    // the serving mirror of KvPagePool refcounts. `kv_held` stays private
    // suffix pages only, so nothing below double-counts a shared page.
    const bool sharing_on = options_.shared_prefix.Enabled();
    const int64_t prefix_pages =
        sharing_on ? pages_for(options_.shared_prefix.prefix_len) : 0;
    int prefix_holders = 0;  // requests whose reservation references it
    std::vector<char> holds_prefix;  // indexed by request id
    result.shared_prefix_pages = prefix_pages;
    auto is_sharer = [&](int id) {
        return result.records[static_cast<size_t>(id)]
                   .request.shared_prefix_len > 0;
    };
    // Once-counted whole demand: private suffix + output growth, plus the
    // prefix exactly once. Equals the legacy prompt+output arithmetic for
    // independent requests (and for sharers too, since the prefix is
    // page-aligned) — what it prevents is charging the prefix per sharer.
    auto whole_demand_of = [&](const ServingRequest& request) {
        return (request.shared_prefix_len > 0 ? prefix_pages : 0) +
               pages_for(
                   static_cast<int64_t>(request.PrivatePromptLen()) +
                   request.output_len);
    };

    auto kv_note_usage = [&]() {
        kv_gauge.Set(static_cast<double>(kv_used));
        result.kv_pages_peak = std::max(result.kv_pages_peak, kv_used);
        if (shrink_fired) {
            post_shrink_peak = std::max(post_shrink_peak, kv_used);
        }
        obs::SimEvent event;
        event.name = "sim.kv_used_pages";
        event.phase = obs::TracePhase::kCounter;
        event.t0_ms = now;
        event.value = static_cast<double>(kv_used);
        sim_emit(std::move(event));
    };
    auto kv_take = [&](int id, int64_t pages) {
        kv_free -= pages;
        kv_used += pages;
        kv_held[static_cast<size_t>(id)] += pages;
        kv_note_usage();
    };
    // Takes one reference on the shared prefix for `id` (no-op for
    // non-sharers); the first referencer materializes the prefix pages.
    auto kv_acquire_prefix = [&](int id) {
        if (!sharing_on || !is_sharer(id)) return;
        char& holds = holds_prefix[static_cast<size_t>(id)];
        if (holds) return;
        holds = 1;
        if (prefix_holders++ == 0) {
            kv_free -= prefix_pages;
            kv_used += prefix_pages;
            ++result.shared_prefix_materializations;
        }
        result.shared_prefix_refs_peak =
            std::max(result.shared_prefix_refs_peak, prefix_holders);
        kv_note_usage();
    };
    auto kv_drop_all = [&](int id) {
        int64_t& held = kv_held[static_cast<size_t>(id)];
        kv_free += held;
        kv_used -= held;
        held = 0;
        // Release this request's prefix reference with its pages; the
        // prefix itself is freed only when the last referencer goes — a
        // victim's eviction never strands a sibling's shared pages.
        if (sharing_on && holds_prefix[static_cast<size_t>(id)]) {
            holds_prefix[static_cast<size_t>(id)] = 0;
            if (--prefix_holders == 0) {
                kv_free += prefix_pages;
                kv_used -= prefix_pages;
                ++result.shared_prefix_drops;
            }
        }
        kv_note_usage();
    };

    // Terminal degraded-mode outcome for an admitted request: its pages go
    // back to the pool, it counts as an SLO miss (never goodput), and a
    // closed-loop client behind it comes back after think time. The caller
    // removes the request from whatever container held it.
    auto shed_request = [&](int id, const char* reason) {
        kv_drop_all(id);
        RequestRecord& record = result.records[static_cast<size_t>(id)];
        record.shed = true;
        record.shed_ms = now;
        ++result.shed;
        shed_counter.Add(1);
        fault_event("fault.shed", id, now, now,
                    StrFormat("\"reason\": \"%s\"", reason));
        if (options_.closed_loop && issued < options_.num_requests) {
            client_wakeups.push_back(now + options_.think_time_ms);
            ++issued;
        }
    };

    // Live degradation + load signals for policy decisions. This is the
    // PR-8 fault plane feeding the control plane: thermal state, the
    // observed fault rate and lost NPU time, plus current load.
    auto make_signals = [&]() {
        PolicySignals signals;
        signals.now_ms = now;
        signals.npu_service_scale =
            fopts.thermal.enabled ? thermal.ServiceScale() : 1.0;
        signals.npu_throttled =
            fopts.thermal.enabled && thermal.Throttled();
        signals.npu_temp_c = thermal.temperature_c();
        signals.npu_fault_rate =
            npu_attempts > 0 ? static_cast<double>(result.faults) /
                                   static_cast<double>(npu_attempts)
                             : 0.0;
        signals.npu_faulted_ms = result.npu_faulted_ms;
        signals.decode_pool_depth = static_cast<int>(decode_pool.size());
        signals.kv_free_pages = kv_bounded ? kv_free : 0;
        return signals;
    };

    auto admit = [&](const ArrivalEvent& event) {
        RequestRecord record;
        record.request.id = static_cast<int>(result.records.size());
        record.request.arrival_ms = event.arrival_ms;
        record.request.prompt_len = event.request.prompt_len;
        record.request.output_len = event.request.output_len;
        record.request.profile_index = event.profile_index;
        record.request.shared_prefix_len = event.shared_prefix_len;
        // Sharers are costed on what they actually compute: the private
        // suffix (the shared prefix's KV is served from the cache, not
        // re-prefilled). Their SLO baseline tightens accordingly.
        const double isolated_e2e =
            costs_.IsolatedE2eMs(record.request.ServedInference());
        if (options_.slo_factor > 0.0) {
            record.request.deadline_ms =
                event.arrival_ms + options_.slo_factor * isolated_e2e;
        }
        // Admission control. Every conforming policy refuses a request
        // whose *whole* KV demand exceeds the pool budget — it could never
        // run to completion, only starve or thrash the pool. Shared prefix
        // pages count once across referencing sequences: a sharer's demand
        // is its private suffix, plus the prefix only when no live
        // referencer already holds it (the old per-request prompt+output
        // arithmetic re-charged the prefix for every concurrent sharer).
        // Predictive policies additionally turn away arrivals whose
        // predicted finish already misses their deadline. Requests that
        // merely don't fit right now are not rejected; they queue and wait
        // for pages.
        int64_t demand = whole_demand_of(record.request);
        if (record.request.shared_prefix_len > 0 && prefix_holders > 0) {
            demand -= prefix_pages;
        }
        AdmissionQuery admission;
        admission.request = &record.request;
        admission.isolated_e2e_ms = isolated_e2e;
        admission.queued_prefill_ms = npu_busy ? npu_end - now : 0.0;
        for (const PendingPrefill& pending : prefill_queue) {
            admission.queued_prefill_ms += pending.RemainingMs();
        }
        admission.queue_depth = static_cast<int>(prefill_queue.size());
        admission.kv_demand_pages = demand;
        admission.kv_live_budget = kv_bounded ? live_budget : 0;
        admission.decode_batch_marginal = options_.decode_batch_marginal;
        admission.signals = make_signals();
        if (!admission_policy->Admit(admission)) {
            record.rejected = true;
            result.records.push_back(record);
            kv_held.push_back(0);
            holds_prefix.push_back(0);
            decode_attempt.push_back(0);
            consec_faults.push_back(0);
            decode_ready.push_back(0.0);
            ++result.rejected;
            reject_counter.Add(1);
            obs::SimEvent ev;
            ev.name = "sim.reject";
            ev.t0_ms = event.arrival_ms;
            ev.req = record.request.id;
            sim_emit(std::move(ev));
            // A closed-loop client whose request was refused comes back
            // after its think time, same as after a completion.
            if (options_.closed_loop && issued < options_.num_requests) {
                client_wakeups.push_back(event.arrival_ms +
                                         options_.think_time_ms);
                ++issued;
            }
            return;
        }
        result.records.push_back(record);
        kv_held.push_back(0);
        holds_prefix.push_back(0);
        decode_attempt.push_back(0);
        consec_faults.push_back(0);
        decode_ready.push_back(0.0);
        if (record.request.shared_prefix_len > 0) ++result.shared_requests;
        PendingPrefill pending;
        pending.id = record.request.id;
        pending.profile = &costs_.Costs(record.request.ServedInference());
        prefill_queue.push_back(pending);
        obs::SimEvent ev;
        ev.name = "sim.arrive";
        ev.t0_ms = event.arrival_ms;
        ev.req = record.request.id;
        sim_emit(std::move(ev));
    };

    // Circuit breaker: after K consecutive NPU faults on one request
    // (chunk faults during its prefill, decode-dispatch faults during its
    // stream), its decode placement fails over to the packed-fp32 CPU
    // fallback — permanently, mid-stream, at the next step boundary.
    auto maybe_failover = [&](int id) {
        if (fopts.circuit_breaker_k <= 0) return;
        if (consec_faults[static_cast<size_t>(id)] <
            fopts.circuit_breaker_k) {
            return;
        }
        RequestRecord& record = result.records[static_cast<size_t>(id)];
        if (record.failed_over) return;
        record.failed_over = true;
        record.failover_ms = now;
        ++result.failovers;
        failover_counter.Add(1);
        fault_event("fault.failover", id, now, now,
                    "\"to\": \"cpu_float\"");
    };

    auto start_chunk_if_idle = [&]() {
        if (npu_busy || prefill_queue.empty()) return;
        std::vector<QueueEntry> entries;
        std::vector<size_t> eligible;  // entries[i] <- prefill_queue index
        entries.reserve(prefill_queue.size());
        for (size_t qi = 0; qi < prefill_queue.size(); ++qi) {
            const PendingPrefill& pending = prefill_queue[qi];
            const RequestRecord& record =
                result.records[static_cast<size_t>(pending.id)];
            // Backoff gate: a chunk that faulted waits out its capped
            // exponential delay before redispatching.
            if (pending.ready_ms > now) continue;
            // A first chunk reserves its prompt's pages up front: the
            // private suffix, plus the shared prefix only when no live
            // referencer holds it yet (counted once — the dispatch-side
            // half of the shared-page accounting). Skip candidates the
            // pool cannot hold right now (they stay queued until
            // retirements or evictions free pages). Requests already
            // holding their reservation — mid-prefill, or a faulted
            // chunk 0 awaiting retry — stay eligible.
            if (kv_bounded && pending.next_chunk == 0 &&
                kv_held[static_cast<size_t>(pending.id)] == 0) {
                int64_t need =
                    pages_for(record.request.PrivatePromptLen());
                if (record.request.shared_prefix_len > 0 &&
                    prefix_holders == 0) {
                    need += prefix_pages;
                }
                if (need > kv_free) continue;
            }
            QueueEntry entry;
            entry.request_id = pending.id;
            entry.arrival_ms = record.request.arrival_ms;
            entry.deadline_ms = record.request.deadline_ms;
            entry.remaining_prefill_ms = pending.RemainingMs();
            entry.remaining_total_ms =
                entry.remaining_prefill_ms +
                pending.profile->decode_token_ms *
                    record.request.output_len;
            entries.push_back(entry);
            eligible.push_back(qi);
        }
        if (entries.empty()) return;  // backpressured: NPU idles for pages
        const size_t pick = eligible[queue_policy->Pick(entries, now)];
        npu_job = prefill_queue[pick];
        prefill_queue.erase(prefill_queue.begin() +
                            static_cast<long>(pick));
        RequestRecord& record =
            result.records[static_cast<size_t>(npu_job.id)];
        if (npu_job.next_chunk == 0) {
            // Queueing delay is measured to the *first ever* dispatch; an
            // eviction's re-prefill must not reset it.
            if (record.first_dispatch_ms < 0.0) {
                record.first_dispatch_ms = now;
            }
            if (kv_held[static_cast<size_t>(npu_job.id)] == 0) {
                kv_acquire_prefix(npu_job.id);
                kv_take(npu_job.id,
                        pages_for(record.request.PrivatePromptLen()));
            }
        }
        double duration =
            npu_job.profile->chunk_ms[static_cast<size_t>(
                npu_job.next_chunk)];
        // Thermal throttling inflates the whole chunk by the service scale
        // at dispatch (gated so thermal-off runs never touch the value).
        if (fopts.thermal.enabled) duration *= thermal.ServiceScale();
        // Fate of this attempt. A kFail attempt dies partway through; a
        // kStall attempt hangs until the watchdog declares it dead at
        // timeout_factor x the nominal service time.
        npu_fate = fault_plane.Chunk(npu_job.id, npu_job.next_chunk,
                                     npu_job.attempt);
        if (npu_fate == FaultPlane::ChunkFate::kFail) {
            duration *= fault_plane.ChunkFailFraction(
                npu_job.id, npu_job.next_chunk, npu_job.attempt);
        } else if (npu_fate == FaultPlane::ChunkFate::kStall) {
            duration *= fopts.timeout_factor;
        }
        npu_busy = true;
        ++npu_attempts;
        npu_start = now;
        npu_end = now + duration;
        // The factor matching where this run's decode lives: the float
        // processor the chunk's float stages hold, or the NPU itself.
        // Dynamic placement keeps both factors at hand — the active step
        // may sit on either side of the profile's own placement.
        npu_interference = npu_job.profile->DecodeInterference();
        chunk_float_interference =
            npu_job.profile->float_decode_interference;
        chunk_npu_interference = npu_job.profile->npu_decode_interference;
        if (npu_fate == FaultPlane::ChunkFate::kOk) {
            result.npu_busy_ms += duration;
        } else {
            result.npu_faulted_ms += duration;
        }
        if (step_active) {
            // The chunk's float stages steal decode bandwidth from the
            // step already in flight: that's a preemption.
            ++result.preemptions;
            preempt_counter.Add(1);
            for (int id : step_members) {
                ++result.records[static_cast<size_t>(id)].preemptions;
            }
            obs::SimEvent ev;
            ev.name = "sim.preempt";
            ev.t0_ms = now;
            ev.req = npu_job.id;
            sim_emit(std::move(ev));
        }
    };

    auto start_step_if_idle = [&]() {
        if (step_active || decode_pool.empty()) return;
        step_members.clear();
        step_placements.clear();
        std::vector<int> to_shed;
        double token_ms = 0.0;
        double engine_marginal = -1.0;
        // Placement decisions see the depth this step would run at and one
        // signal snapshot per step boundary (not per member), so every
        // decision is a pure function of the boundary's state and the
        // recorded placements replay bitwise.
        const int step_depth = std::min(
            options_.max_decode_batch, static_cast<int>(decode_pool.size()));
        const PolicySignals step_signals = make_signals();
        for (size_t pi = 0;
             pi < decode_pool.size() &&
             static_cast<int>(step_members.size()) <
                 options_.max_decode_batch;
             ++pi) {
            const int id = decode_pool[pi];
            RequestRecord& record =
                result.records[static_cast<size_t>(id)];
            const ServingCostProfile& profile =
                costs_.Costs(record.request.ServedInference());
            PlacementQuery query;
            query.record = &record;
            query.profile = &profile;
            query.context_len =
                static_cast<int64_t>(record.request.prompt_len) +
                record.tokens_out;
            query.batch_depth = step_depth;
            query.default_batch_marginal = options_.decode_batch_marginal;
            query.signals = step_signals;
            DecodePlacement place = placement_policy->Place(query);
            if (inject_on) {
                // Backoff gate after a faulted dispatch.
                if (decode_ready[static_cast<size_t>(id)] > now) continue;
                if (place == DecodePlacement::kNpuQuant &&
                    fault_plane.DecodeFaults(
                        id, record.tokens_out,
                        decode_attempt[static_cast<size_t>(id)])) {
                    // The NPU dispatch for this member faults: it sits the
                    // step out (replay membership stays exactly what was
                    // executed) and either fails over, retries after
                    // backoff, or — retry budget gone — is shed.
                    ++npu_attempts;  // tried and lost
                    ++record.faults;
                    ++result.faults;
                    fault_counter.Add(1);
                    ++consec_faults[static_cast<size_t>(id)];
                    fault_event(
                        "fault.decode", id, now, now,
                        StrFormat("\"token\": %d, \"attempt\": %d",
                                  record.tokens_out,
                                  decode_attempt[static_cast<size_t>(id)]));
                    ++decode_attempt[static_cast<size_t>(id)];
                    maybe_failover(id);
                    if (record.failed_over) {
                        // Breaker fired: this very step runs on the CPU
                        // fallback — the mid-stream switch happens at a
                        // step boundary, never inside one.
                        place = DecodePlacement::kCpuFloat;
                    } else if (decode_attempt[static_cast<size_t>(id)] >=
                               fopts.max_attempts) {
                        to_shed.push_back(id);
                        continue;
                    } else {
                        ++record.retries;
                        ++result.retries;
                        retry_counter.Add(1);
                        decode_ready[static_cast<size_t>(id)] =
                            now + fault_plane.BackoffMs(
                                      decode_attempt[static_cast<size_t>(
                                          id)]);
                        continue;
                    }
                }
                // Successful NPU dispatch heals the breaker window; the
                // token's retry counter starts fresh for the next token.
                if (place == DecodePlacement::kNpuQuant) {
                    consec_faults[static_cast<size_t>(id)] = 0;
                }
                decode_attempt[static_cast<size_t>(id)] = 0;
            }
            double price = profile.decode_token_ms;
            double member_marginal = profile.decode_batch_marginal;
            if (record.failed_over) {
                // Post-failover pricing: the engine's CPU fallback path,
                // batched at the serving layer's CPU marginal.
                price = profile.cpu_decode_token_ms > 0.0
                            ? profile.cpu_decode_token_ms
                            : profile.decode_token_ms;
                member_marginal = options_.decode_batch_marginal;
            } else if (place != profile.decode_placement) {
                // Off-profile member: a dynamic policy disagreed with the
                // engine profile. Policies *decide* with whatever oracle
                // they hold, but the simulator *prices* executed work
                // through the calibrated one, so virtual time stays in the
                // calibrated plane regardless of what the policy believes.
                if (place == DecodePlacement::kCpuFloat) {
                    price = profile.cpu_decode_token_ms > 0.0
                                ? profile.cpu_decode_token_ms
                                : profile.decode_token_ms;
                    member_marginal = options_.decode_batch_marginal;
                } else {
                    const double one = costs_.StepMs(
                        DecodePlacement::kNpuQuant, query.context_len, 1);
                    const double two = costs_.StepMs(
                        DecodePlacement::kNpuQuant, query.context_len, 2);
                    price = one;
                    member_marginal =
                        one > 0.0 ? std::max(0.0, two / one - 1.0)
                                  : options_.decode_batch_marginal;
                }
            }
            if (fopts.thermal.enabled &&
                place == DecodePlacement::kNpuQuant) {
                price *= thermal.ServiceScale();
            }
            token_ms = std::max(token_ms, price);
            // Engines that know their own batching marginal (NPU-resident
            // decode shares one weight stream per step) override the
            // configured default; the max across members keeps the step
            // cost conservative and independent of pool order, matching
            // token_ms.
            engine_marginal = std::max(engine_marginal, member_marginal);
            step_members.push_back(id);
            step_placements.push_back(place);
        }
        for (int id : to_shed) {
            decode_pool.erase(std::find(decode_pool.begin(),
                                        decode_pool.end(), id));
            shed_request(id, "decode_retry_budget");
        }
        if (step_members.empty()) return;  // everyone backing off or shed
        step_on_npu = false;
        for (DecodePlacement member_place : step_placements) {
            if (member_place == DecodePlacement::kNpuQuant) {
                step_on_npu = true;
                ++npu_attempts;
            }
        }
        const double marginal = engine_marginal >= 0.0
                                    ? engine_marginal
                                    : options_.decode_batch_marginal;
        step_active = true;
        step_remaining_work =
            token_ms *
            (1.0 +
             (static_cast<double>(step_members.size()) - 1.0) * marginal);
        step_last_update = now;
        step_start = now;
    };

    // KV growth past the free pages preempts other page holders —
    // preemption by recompute (pages released, prefill restarted from
    // chunk 0). Also the back-pressure valve of the fault plane's pool
    // shrink, with grower = -1 ("the pool itself shrank; any holder is
    // fair game, youngest first").
    //
    // Victim order is what makes this terminate: (1) decode-pool members
    // strictly *younger* than the grower, youngest first; (2) queued
    // mid-prefill reservations; (3) the in-flight chunk; (4) the grower
    // itself, only when members older than it hold the pages. The oldest
    // decode member is thus never evicted — victims are always younger
    // than whoever demands the pages — so it always reaches completion and
    // frees its pages, and by induction every request eventually does.
    // (Evicting victims *older* than the grower would livelock: two
    // requests whose reservations overlap can ping-pong evictions forever,
    // neither ever finishing.)
    auto evict_one_for = [&](int grower) {
        auto requeue = [&](int victim) {
            kv_drop_all(victim);
            RequestRecord& vrec =
                result.records[static_cast<size_t>(victim)];
            vrec.tokens_out = 0;
            vrec.prefill_done_ms = -1.0;
            ++vrec.evictions;
            ++result.evictions;
            evict_counter.Add(1);
            decode_attempt[static_cast<size_t>(victim)] = 0;
            decode_ready[static_cast<size_t>(victim)] = 0.0;
            obs::SimEvent ev;
            ev.name = "sim.evict";
            ev.t0_ms = now;
            ev.req = victim;
            sim_emit(std::move(ev));
        };
        long grower_pos = -1;  // -1: no grower, every member evictable
        if (grower >= 0) {
            grower_pos = std::find(decode_pool.begin(), decode_pool.end(),
                                   grower) -
                         decode_pool.begin();
        }
        // Prefer dropping private suffix pages: within each tier, a victim
        // whose eviction would take the shared prefix down with it (the
        // last referencer) is passed over on the first sweep and picked
        // only when that tier has nobody else — the prefix drops only when
        // its last referencing sequence is the eviction choice. The tier
        // *order* (younger-than-grower decode members, then queued
        // reservations, then the in-flight chunk) is untouched; that order
        // is what makes eviction terminate.
        auto drops_prefix = [&](int id) {
            return sharing_on && holds_prefix[static_cast<size_t>(id)] &&
                   prefix_holders == 1;
        };
        for (int pass = 0; pass < (sharing_on ? 2 : 1); ++pass) {
            for (size_t j = decode_pool.size();
                 j-- > 0 && static_cast<long>(j) > grower_pos;) {
                const int victim = decode_pool[j];
                if (pass == 0 && drops_prefix(victim)) continue;
                decode_pool.erase(decode_pool.begin() +
                                  static_cast<long>(j));
                requeue(victim);
                PendingPrefill again;
                again.id = victim;
                again.profile =
                    &costs_.Costs(result.records[static_cast<size_t>(
                        victim)].request.ServedInference());
                prefill_queue.push_back(again);
                return true;
            }
        }
        for (int pass = 0; pass < (sharing_on ? 2 : 1); ++pass) {
            for (size_t j = prefill_queue.size(); j-- > 0;) {
                PendingPrefill& pending = prefill_queue[j];
                // Queued entries holding a reservation (mid-prefill, or a
                // faulted chunk 0 awaiting retry) are evictable; entries
                // that never dispatched hold nothing.
                if (kv_held[static_cast<size_t>(pending.id)] == 0) continue;
                if (pass == 0 && drops_prefix(pending.id)) continue;
                requeue(pending.id);
                pending.next_chunk = 0;  // recompute from chunk 0
                pending.attempt = 0;
                pending.ready_ms = 0.0;
                return true;
            }
        }
        if (npu_busy && npu_job.id != grower) {
            // Cancel the in-flight chunk. Its partial execution is
            // discarded untimed (no trace task, full duration backed out
            // of the matching busy accumulator) so trace busy-time
            // conservation and the trace↔replay parallelism hold.
            if (npu_fate == FaultPlane::ChunkFate::kOk) {
                result.npu_busy_ms -= npu_end - npu_start;
            } else {
                result.npu_faulted_ms -= npu_end - npu_start;
            }
            npu_busy = false;
            requeue(npu_job.id);
            npu_job.next_chunk = 0;
            npu_job.attempt = 0;
            npu_job.ready_ms = 0.0;
            prefill_queue.push_back(npu_job);
            return true;
        }
        return false;
    };

    // Memory pressure: the rest of the device claims pages back and the
    // live budget drops mid-run. Defense, in order: shed every admitted
    // request whose *whole* demand no longer fits (it could never complete
    // and would thrash the smaller pool forever), then evict youngest-
    // first through the termination-safe order until usage fits.
    auto do_shrink = [&]() {
        shrink_pending = false;
        const int64_t new_budget = std::max<int64_t>(
            1, static_cast<int64_t>(
                   static_cast<double>(options_.kv_pool_pages) *
                   fopts.pool_shrink_to));
        live_budget = std::min(live_budget, new_budget);
        result.kv_pool_pages_live = live_budget;
        fault_event("fault.pool_shrink", -1, now, now,
                    StrFormat("\"live_pages\": %lld",
                              static_cast<long long>(live_budget)));
        auto demand_of = [&](int id) {
            return whole_demand_of(
                result.records[static_cast<size_t>(id)].request);
        };
        for (size_t j = prefill_queue.size(); j-- > 0;) {
            const int id = prefill_queue[j].id;
            if (demand_of(id) > live_budget) {
                prefill_queue.erase(prefill_queue.begin() +
                                    static_cast<long>(j));
                shed_request(id, "pool_shrink");
            }
        }
        if (npu_busy && demand_of(npu_job.id) > live_budget) {
            // Cancel the in-flight chunk untimed, same discipline as an
            // eviction's category (3).
            if (npu_fate == FaultPlane::ChunkFate::kOk) {
                result.npu_busy_ms -= npu_end - npu_start;
            } else {
                result.npu_faulted_ms -= npu_end - npu_start;
            }
            npu_busy = false;
            shed_request(npu_job.id, "pool_shrink");
        }
        for (size_t j = decode_pool.size(); j-- > 0;) {
            const int id = decode_pool[j];
            if (demand_of(id) > live_budget) {
                decode_pool.erase(decode_pool.begin() +
                                  static_cast<long>(j));
                shed_request(id, "pool_shrink");
            }
        }
        kv_free = live_budget - kv_used;
        while (kv_used > live_budget) {
            LLMNPU_CHECK(evict_one_for(-1));
        }
        // The degraded-mode invariant starts *after* the defense settles:
        // from here on, usage never exceeds the live budget.
        shrink_fired = true;
        post_shrink_peak = kv_used;
    };

    // Deadline expiry while queued: a request whose SLO deadline passed
    // before it ever dispatched is a lost cause — shed it at the deadline
    // (an accounted SLO miss) and release any reserved pages instead of
    // burning prefill on it.
    auto expire_sweep = [&]() {
        for (size_t j = prefill_queue.size(); j-- > 0;) {
            const int id = prefill_queue[j].id;
            const RequestRecord& record =
                result.records[static_cast<size_t>(id)];
            if (record.request.deadline_ms <= now) {
                prefill_queue.erase(prefill_queue.begin() +
                                    static_cast<long>(j));
                shed_request(id, "deadline_expired");
            }
        }
    };

    // Brownout mode: while the die is throttled, queued requests whose
    // deadline is infeasible even optimistically (remaining prefill at the
    // current slowdown plus their decode stream) are shed rather than
    // heating the NPU further for work that can only miss.
    auto brownout_sweep = [&]() {
        const double scale = thermal.ServiceScale();
        for (size_t j = prefill_queue.size(); j-- > 0;) {
            const PendingPrefill& pending = prefill_queue[j];
            const RequestRecord& record =
                result.records[static_cast<size_t>(pending.id)];
            if (record.request.deadline_ms >= 1e300) continue;  // no SLO
            const double finish_estimate =
                now + pending.RemainingMs() * scale +
                pending.profile->decode_token_ms *
                    record.request.output_len;
            if (finish_estimate > record.request.deadline_ms) {
                const int id = pending.id;
                prefill_queue.erase(prefill_queue.begin() +
                                    static_cast<long>(j));
                shed_request(id, "brownout");
            }
        }
    };

    // A sharer admitted while the prefix was resident was charged only its
    // private suffix. If the prefix has since been dropped (last
    // referencer left) and the whole once-counted demand no longer fits
    // the live budget, the request can never dispatch — shed it rather
    // than starving the queue (same discipline as do_shrink's misfits).
    auto prefix_feasibility_sweep = [&]() {
        if (prefix_holders > 0) return;  // resident: everyone feasible
        for (size_t j = prefill_queue.size(); j-- > 0;) {
            const int id = prefill_queue[j].id;
            if (kv_held[static_cast<size_t>(id)] != 0) continue;
            if (!is_sharer(id)) continue;
            if (whole_demand_of(
                    result.records[static_cast<size_t>(id)].request) <=
                live_budget) {
                continue;
            }
            prefill_queue.erase(prefill_queue.begin() +
                                static_cast<long>(j));
            shed_request(id, "prefix_dropped");
        }
    };

    auto next_arrival_time = [&]() {
        if (options_.closed_loop) {
            double best = kInf;
            for (double t : client_wakeups) best = std::min(best, t);
            return best;
        }
        return next_open < open_arrivals.size()
                   ? open_arrivals[next_open].arrival_ms
                   : kInf;
    };

    // ---- Event loop: next event is the earliest of {arrival, chunk
    // completion, decode-step completion at the current rate, fault-plane
    // wake-ups (retry backoffs expiring, queued deadlines expiring, the
    // pool shrink)}. Decode work drains continuously at a rate that drops
    // while a chunk is in flight, so its completion time is re-derived
    // whenever the NPU state changes.
    while (true) {
        const double t_arrival = next_arrival_time();
        const double t_npu = npu_busy ? npu_end : kInf;
        const double t_step =
            step_active
                ? step_last_update + step_remaining_work / decode_rate()
                : kInf;
        double t_aux = kInf;
        if (inject_on || options_.shed_expired_queued) {
            for (const PendingPrefill& pending : prefill_queue) {
                if (pending.ready_ms > now) {
                    t_aux = std::min(t_aux, pending.ready_ms);
                }
                if (options_.shed_expired_queued) {
                    const double deadline =
                        result.records[static_cast<size_t>(pending.id)]
                            .request.deadline_ms;
                    if (deadline > now) t_aux = std::min(t_aux, deadline);
                }
            }
            for (int id : decode_pool) {
                if (decode_ready[static_cast<size_t>(id)] > now) {
                    t_aux = std::min(
                        t_aux, decode_ready[static_cast<size_t>(id)]);
                }
            }
            if (shrink_pending && fopts.pool_shrink_at_ms > now) {
                t_aux = std::min(t_aux, fopts.pool_shrink_at_ms);
            }
        }
        const double t_next = std::min({t_arrival, t_npu, t_step, t_aux});
        if (t_next == kInf) break;  // all quiet: run complete

        if (step_active) {
            step_remaining_work -= (t_next - step_last_update) *
                                   decode_rate();
            step_last_update = t_next;
        }
        kv_integral += static_cast<double>(kv_used) * (t_next - now);
        if (fopts.thermal.enabled) {
            thermal.Advance(t_next - now, npu_busy);
            if (thermal.Throttled()) throttled_ms += t_next - now;
            peak_temp_c = std::max(peak_temp_c, thermal.temperature_c());
            reg.GetGauge("sim.npu_temp_c").Set(thermal.temperature_c());
            obs::SimEvent ev;
            ev.name = "sim.npu_temp_c";
            ev.phase = obs::TracePhase::kCounter;
            ev.lane = obs::SimLane::kFaults;
            ev.t0_ms = t_next;
            ev.value = thermal.temperature_c();
            sim_emit(std::move(ev));
        }
        now = t_next;
        result.makespan_ms = std::max(result.makespan_ms, now);

        if (t_next == t_arrival) {
            if (options_.closed_loop) {
                auto it = std::min_element(client_wakeups.begin(),
                                           client_wakeups.end());
                client_wakeups.erase(it);
                ArrivalEvent event = sampler.Sample();
                event.arrival_ms = now;
                admit(event);
            } else {
                admit(open_arrivals[next_open++]);
            }
        } else if (npu_busy && t_next == t_npu) {
            if (npu_fate != FaultPlane::ChunkFate::kOk) {
                // Faulted attempt: discarded work. No trace task, no
                // replay step (precedent: an eviction's cancelled
                // in-flight chunk) — the occupancy lives on the faults
                // lane instead, so the trace still shows where the NPU's
                // time actually went.
                RequestRecord& record =
                    result.records[static_cast<size_t>(npu_job.id)];
                ++record.faults;
                ++result.faults;
                fault_counter.Add(1);
                ++consec_faults[static_cast<size_t>(npu_job.id)];
                fault_event(
                    npu_fate == FaultPlane::ChunkFate::kFail
                        ? "fault.chunk_fail"
                        : "fault.chunk_stall",
                    npu_job.id, npu_start, npu_end,
                    StrFormat("\"chunk\": %d, \"attempt\": %d",
                              npu_job.next_chunk, npu_job.attempt));
                npu_busy = false;
                npu_fate = FaultPlane::ChunkFate::kOk;
                maybe_failover(npu_job.id);
                ++npu_job.attempt;
                if (npu_job.attempt >= fopts.max_attempts) {
                    // Retry budget exhausted: the request terminates as
                    // shed — accounted, pages released, never goodput.
                    shed_request(npu_job.id, "chunk_retry_budget");
                } else {
                    ++record.retries;
                    ++result.retries;
                    retry_counter.Add(1);
                    npu_job.ready_ms =
                        now + fault_plane.BackoffMs(npu_job.attempt);
                    fault_event(
                        "fault.retry", npu_job.id, now, now,
                        StrFormat("\"attempt\": %d, \"not_before\": %.3f",
                                  npu_job.attempt, npu_job.ready_ms));
                    prefill_queue.push_back(npu_job);
                }
            } else {
                result.trace_tasks.push_back(
                    {StrFormat("req%d.chunk%d", npu_job.id,
                               npu_job.next_chunk),
                     Unit::kNpu, npu_end - npu_start, {},
                     npu_job.next_chunk, -1});
                result.trace.records.push_back({npu_start, npu_end});
                {
                    obs::SimEvent ev;
                    ev.name = StrFormat("req%d.chunk%d", npu_job.id,
                                        npu_job.next_chunk);
                    ev.phase = obs::TracePhase::kSpan;
                    ev.lane = obs::SimLane::kNpu;
                    ev.t0_ms = npu_start;
                    ev.t1_ms = npu_end;
                    ev.req = npu_job.id;
                    ev.args_json =
                        StrFormat("\"chunk\": %d", npu_job.next_chunk);
                    sim_emit(std::move(ev));
                }
                result.replay_steps.push_back(
                    {/*is_prefill=*/true,
                     {npu_job.id},
                     npu_job.next_chunk,
                     static_cast<int>(npu_job.profile->chunk_ms.size()),
                     {}});
                npu_busy = false;
                consec_faults[static_cast<size_t>(npu_job.id)] = 0;
                ++npu_job.next_chunk;
                npu_job.attempt = 0;
                npu_job.ready_ms = 0.0;
                if (static_cast<size_t>(npu_job.next_chunk) <
                    npu_job.profile->chunk_ms.size()) {
                    prefill_queue.push_back(npu_job);
                } else {
                    RequestRecord& record =
                        result.records[static_cast<size_t>(npu_job.id)];
                    record.prefill_done_ms = now;
                    decode_pool.push_back(npu_job.id);
                }
            }
        } else if (step_active && t_next == t_step) {  // step completes
            const double elapsed = now - step_start;
            // Decode steps are always traced on the CPU lane, even when
            // their placement is the NPU: an NPU-resident decode step
            // time-slices the accelerator with in-flight prefill chunks
            // (that contention is priced by npu_decode_interference), so
            // its NPU occupancy is not an exclusive interval and cannot
            // join the chunk rows on the kNpu lane without violating the
            // trace's one-task-per-unit invariant. The CPU lane records
            // the step's wall-clock residency; npu_busy_ms stays
            // chunks-only either way.
            result.trace_tasks.push_back(
                {StrFormat("decode.step%d(B=%zu)", step_counter,
                           step_members.size()),
                 Unit::kCpu, elapsed, {}, -1, -1});
            result.trace.records.push_back({step_start, now});
            {
                obs::SimEvent ev;
                ev.name = StrFormat("decode.step%d", step_counter);
                ev.phase = obs::TracePhase::kSpan;
                ev.lane = obs::SimLane::kDecode;
                ev.t0_ms = step_start;
                ev.t1_ms = now;
                ev.args_json = StrFormat(
                    "\"batch\": %d",
                    static_cast<int>(step_members.size()));
                sim_emit(std::move(ev));
            }
            {
                ReplayStep rstep;
                rstep.is_prefill = false;
                rstep.request_ids = step_members;
                if (inject_on || dynamic_placement) {
                    rstep.placements = step_placements;
                }
                result.replay_steps.push_back(std::move(rstep));
            }
            ++step_counter;
            result.decode_busy_ms += elapsed;
            step_active = false;
            for (int id : step_members) {
                RequestRecord& record =
                    result.records[static_cast<size_t>(id)];
                // A mid-step pool shrink can shed or evict a member while
                // its step is still draining; the discarded computation
                // emits nothing.
                if (record.shed) continue;
                if (std::find(decode_pool.begin(), decode_pool.end(),
                              id) == decode_pool.end()) {
                    continue;  // evicted mid-step
                }
                ++record.tokens_out;
                // TTFT is to the first token *ever* emitted; an evicted
                // request's re-decode must not reset it.
                if (record.tokens_out == 1 && record.first_token_ms < 0.0) {
                    record.first_token_ms = now;
                    obs::SimEvent ev;
                    ev.name = "sim.first_token";
                    ev.t0_ms = now;
                    ev.req = id;
                    sim_emit(std::move(ev));
                }
                if (record.tokens_out >= record.request.output_len) {
                    record.finish_ms = now;
                    obs::SimEvent ev;
                    ev.name = "sim.complete";
                    ev.t0_ms = now;
                    ev.req = id;
                    sim_emit(std::move(ev));
                    decode_pool.erase(std::find(decode_pool.begin(),
                                                decode_pool.end(), id));
                    kv_drop_all(id);
                    if (options_.closed_loop &&
                        issued < options_.num_requests) {
                        client_wakeups.push_back(now +
                                                 options_.think_time_ms);
                        ++issued;
                    }
                }
            }
            // KV growth for the members that stay in the pool: each just
            // appended one position; growth past the free pages runs the
            // eviction order above.
            for (int id : step_members) {
                if (std::find(decode_pool.begin(), decode_pool.end(), id) ==
                    decode_pool.end()) {
                    continue;  // finished, shed, or evicted earlier
                }
                const RequestRecord& record =
                    result.records[static_cast<size_t>(id)];
                // Growth is charged against the private pages: generated
                // tokens extend the suffix, never the page-aligned shared
                // prefix, so the prefix stays counted once.
                const int64_t needed = pages_for(
                    static_cast<int64_t>(record.request.PrivatePromptLen()) +
                    record.tokens_out);
                int64_t delta = needed - kv_held[static_cast<size_t>(id)];
                if (delta <= 0) continue;
                while (kv_bounded && delta > kv_free) {
                    if (evict_one_for(id)) continue;
                    // Only holders older than the grower remain: the
                    // grower itself is preempted and recomputes later.
                    decode_pool.erase(std::find(decode_pool.begin(),
                                                decode_pool.end(), id));
                    kv_drop_all(id);
                    RequestRecord& vrec =
                        result.records[static_cast<size_t>(id)];
                    vrec.tokens_out = 0;
                    vrec.prefill_done_ms = -1.0;
                    ++vrec.evictions;
                    ++result.evictions;
                    evict_counter.Add(1);
                    {
                        obs::SimEvent ev;
                        ev.name = "sim.evict";
                        ev.t0_ms = now;
                        ev.req = id;
                        sim_emit(std::move(ev));
                    }
                    PendingPrefill again;
                    again.id = id;
                    again.profile =
                        &costs_.Costs(vrec.request.ServedInference());
                    prefill_queue.push_back(again);
                    delta = 0;
                    break;
                }
                if (delta > 0) kv_take(id, delta);
            }
            step_members.clear();
            step_placements.clear();
        }
        // (Otherwise: a fault-plane wake-up — a retry backoff or queued
        // deadline expiring, or the pool shrink. The sweeps and dispatch
        // attempts below do the actual work.)

        if (shrink_pending && now >= fopts.pool_shrink_at_ms) do_shrink();
        if (options_.shed_expired_queued) expire_sweep();
        if (sharing_on && kv_bounded) prefix_feasibility_sweep();
        if (inject_on && fopts.brownout_shedding && thermal.Throttled()) {
            brownout_sweep();
        }
        start_chunk_if_idle();
        start_step_if_idle();
    }

    if (result.makespan_ms > 0.0) {
        result.kv_pages_mean = kv_integral / result.makespan_ms;
        result.npu_throttled_frac = throttled_ms / result.makespan_ms;
    }
    result.peak_temp_c = peak_temp_c;
    result.kv_pages_peak_post_shrink = post_shrink_peak;

    // ---- Finalize the execution trace as a TimelineResult so the shared
    // schedule-validity helpers apply (per-unit busy, spans, makespan).
    result.trace.makespan_ms = result.makespan_ms;
    for (size_t i = 0; i < result.trace_tasks.size(); ++i) {
        const size_t unit =
            static_cast<size_t>(result.trace_tasks[i].unit);
        const TaskRecord& record = result.trace.records[i];
        result.trace.busy_ms[unit] += record.end_ms - record.start_ms;
        if (result.trace.span_end_ms[unit] == 0.0) {
            result.trace.span_start_ms[unit] = record.start_ms;
        }
        result.trace.span_start_ms[unit] =
            std::min(result.trace.span_start_ms[unit], record.start_ms);
        result.trace.span_end_ms[unit] =
            std::max(result.trace.span_end_ms[unit], record.end_ms);
    }
    return result;
}

}  // namespace llmnpu
