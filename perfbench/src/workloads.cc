#include "perfbench/src/workloads.h"

#include <algorithm>

#include "perfbench/src/harness.h"
#include "perfbench/src/host.h"
#include "src/util/check.h"
#include "src/util/format.h"

namespace perfbench {

using llmnpu::StrFormat;

const std::vector<std::string>&
WorkloadNames()
{
    static const std::vector<std::string> names = {"ui_prefill",
                                                   "chat_serve"};
    return names;
}

RunResult
RunWorkload(const RunOptions& o)
{
    LLMNPU_FATAL_IF(std::find(WorkloadNames().begin(), WorkloadNames().end(),
                              o.workload) == WorkloadNames().end(),
                    "unknown workload: " + o.workload);
    RunResult res;
    Values e2e, layer;
    SpanRecorder recorder;
    SpanRecorder* rec = o.trace ? &recorder : nullptr;

    std::vector<Setup::Times> setup_times;
    std::unique_ptr<Setup> setup = SetUp(o.workload, rec, setup_times);
    if (o.workload == "ui_prefill") {
        RunUiPrefill(o, *setup, rec, res, e2e, layer);
    } else {
        RunChatServe(o, *setup, rec, res, e2e, layer);
    }
    setup.reset();
    SetUpAgain(o.workload, setup_times);
    ReportSetup(setup_times, e2e, layer);
    e2e["peak_rss_mb"] = PeakRssMb();
    if (res.failed > 0) res.correct = false;

    res.values = o.trace ? layer : e2e;
    if (o.trace) {
        std::string self;
        for (const auto& [name, ns] : SelfTimeByName(recorder.spans())) {
            self += StrFormat("%s\"%s\": %.3f", self.empty() ? "" : ", ",
                              name.c_str(), Ms(ns));
        }
        res.notes.push_back("{\"self_time_ms_by_span\": {" + self + "}}");
        res.notes.push_back("{\"tensor_note\": \"tensor.* and "
                            "model.paged_attention FLOPs and bytes are "
                            "computed from the shapes\"}");
        if (!o.trace_path.empty() &&
            !recorder.WriteChromeTrace(o.trace_path)) {
            res.notes.push_back("{\"span_file\": \"write failed\"}");
        }
    }
    return res;
}

}  // namespace perfbench
