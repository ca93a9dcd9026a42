#include "src/serving/metrics.h"

#include "src/obs/histogram.h"
#include "src/obs/metrics.h"
#include "src/util/format.h"

namespace llmnpu {

ServingReport
BuildReport(const std::vector<RequestRecord>& records, double makespan_ms,
            double npu_busy_ms, double decode_busy_ms, int preemptions)
{
    ServingReport report;
    report.makespan_ms = makespan_ms;
    report.preemptions = preemptions;

    // Per-request latency series: ttft, e2e, tpot, queueing. Quantiles
    // come from histograms local to this report, so concurrent reports
    // never see each other's samples. The registry's "serving.*"
    // histograms are only a sink for metric dumps: each report resets and
    // refills them, and nothing reads them back.
    constexpr int kSeries = 4;
    const char* const kSinkNames[kSeries] = {
        "serving.ttft_ms", "serving.e2e_ms", "serving.tpot_ms",
        "serving.queueing_ms"};
    obs::Histogram local[kSeries];
    obs::Histogram* sink[kSeries];
    for (int i = 0; i < kSeries; ++i) {
        sink[i] = &obs::MetricsRegistry::Global().GetHistogram(
            kSinkNames[i], obs::DefaultLatencyBucketsMs());
        sink[i]->Reset();
    }
    const obs::Histogram& ttft = local[0];
    const obs::Histogram& e2e = local[1];
    const obs::Histogram& tpot = local[2];
    const obs::Histogram& queueing = local[3];

    int met_slo = 0;
    int64_t tokens_out = 0;
    for (const RequestRecord& record : records) {
        if (record.rejected) {
            ++report.rejected;
            continue;
        }
        ++report.admitted;
        report.evictions += record.evictions;
        report.faults += record.faults;
        report.retries += record.retries;
        if (record.shed) ++report.shed;
        if (record.failed_over) ++report.failovers;
        tokens_out += record.tokens_out;
        if (!record.Completed()) continue;
        ++report.completed;
        const double sample[kSeries] = {record.TtftMs(), record.E2eMs(),
                                        record.TpotMs(), record.QueueingMs()};
        for (int i = 0; i < kSeries; ++i) {
            local[i].Add(sample[i]);
            sink[i]->Add(sample[i]);
        }
        met_slo += record.MetSlo() ? 1 : 0;
    }
    // Each block below is guarded only by its own denominator, so a
    // degenerate run (all rejected, nothing completed, zero makespan)
    // still yields an all-defined report: Histogram percentiles and means
    // both return 0.0 on empty samples, never NaN.
    report.ttft_p50_ms = ttft.Percentile(50.0);
    report.ttft_p95_ms = ttft.Percentile(95.0);
    report.ttft_p99_ms = ttft.Percentile(99.0);
    report.e2e_p50_ms = e2e.Percentile(50.0);
    report.e2e_p95_ms = e2e.Percentile(95.0);
    report.e2e_p99_ms = e2e.Percentile(99.0);
    report.tpot_mean_ms = tpot.mean();
    report.queueing_mean_ms = queueing.mean();
    if (makespan_ms > 0.0) {
        report.throughput_rps = report.completed / (makespan_ms / 1e3);
        report.goodput_rps = met_slo / (makespan_ms / 1e3);
        report.npu_utilization = npu_busy_ms / makespan_ms;
        report.decode_utilization = decode_busy_ms / makespan_ms;
        report.decode_tokens_per_sec =
            static_cast<double>(tokens_out) / (makespan_ms / 1e3);
    }
    if (report.completed > 0) {
        report.slo_attainment =
            static_cast<double>(met_slo) / report.completed;
    }
    return report;
}

std::string
ServingReport::Summary() const
{
    std::string line = StrFormat(
        "%d/%d done  %.2f req/s (goodput %.2f, SLO %.0f%%)  ttft p50/p99 "
        "%s/%s  e2e p99 %s  npu %.0f%%",
        completed, admitted, throughput_rps, goodput_rps,
        slo_attainment * 100.0, HumanMs(ttft_p50_ms).c_str(),
        HumanMs(ttft_p99_ms).c_str(), HumanMs(e2e_p99_ms).c_str(),
        npu_utilization * 100.0);
    if (kv_pool_pages > 0) {
        line += StrFormat("  kv %lld/%lld pages (rej %d, evict %d)",
                          static_cast<long long>(kv_pages_peak),
                          static_cast<long long>(kv_pool_pages), rejected,
                          evictions);
    }
    if (faults > 0 || shed > 0 || failovers > 0) {
        line += StrFormat("  faults %d (retries %d, shed %d, failover %d)",
                          faults, retries, shed, failovers);
    }
    return line;
}

}  // namespace llmnpu
