/**
 * @file
 * perfbench: the repository benchmark.
 *
 *   perfbench --workload <ui_prefill|chat_serve> --seed <n>
 *             --seconds <s> --trace <0|1> [--trace-out <path>]
 *
 * Prints a host-fingerprint line and workload notes, then as its last line
 * one JSON object {"correct", "attempted", "failed", "values"}: the
 * end-to-end metric values by name with --trace 0, the per-layer ones with
 * --trace 1. perfbench/run.py builds this binary, pins LLMNPU_NUM_THREADS
 * and turns "values" into the result's "metrics" in BENCHMARK.json's order
 * and units.
 */
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench/src/host.h"
#include "perfbench/src/inputs.h"
#include "perfbench/src/workloads.h"

namespace {

int
Usage(const char* msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<ui_prefill|chat_serve> --seed <n> --seconds "
                 "<s> --trace <0|1> [--trace-out <path>]\n",
                 msg);
    return 2;
}

bool
ParseUnsigned(const std::string& s, unsigned long long& out)
{
    if (s.empty() || s[0] == '-') return false;
    char* end = nullptr;
    errno = 0;
    out = std::strtoull(s.c_str(), &end, 10);
    return errno == 0 && end != nullptr && *end == '\0';
}

}  // namespace

int
main(int argc, char** argv)
{
    perfbench::RunOptions options;
    bool have_workload = false, have_seed = false, have_seconds = false,
         have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        unsigned long long n = 0;
        if (flag == "--workload") {
            options.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            if (!ParseUnsigned(value, n)) return Usage("bad --seed");
            options.seed = n;
            have_seed = true;
        } else if (flag == "--seconds") {
            char* end = nullptr;
            options.seconds = std::strtod(value.c_str(), &end);
            if (end == value.c_str() || *end != '\0' ||
                !std::isfinite(options.seconds) || options.seconds <= 0.0 ||
                options.seconds > 600.0) {
                return Usage("bad --seconds");
            }
            have_seconds = true;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") return Usage("bad --trace");
            options.trace = value == "1";
            have_trace = true;
        } else if (flag == "--trace-out") {
            options.trace_path = value;
        } else {
            return Usage(("unknown flag " + flag).c_str());
        }
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace) {
        return Usage("--workload, --seed, --seconds and --trace are required");
    }
    bool known = false;
    for (const std::string& w : perfbench::WorkloadNames()) {
        known = known || w == options.workload;
    }
    if (!known) return Usage(("unknown workload " + options.workload).c_str());

    std::printf("{\"host\": %s}\n",
                perfbench::HostFingerprintJson(options.workload, options.seed,
                                               perfbench::ProxyConfig())
                    .c_str());
    const perfbench::RunResult result = perfbench::RunWorkload(options);
    for (const std::string& note : result.notes) {
        std::printf("%s\n", note.c_str());
    }
    std::string values;
    for (const auto& [name, value] : result.values) {
        char buf[256];
        std::snprintf(buf, sizeof(buf), "%s\"%s\": %.17g",
                      values.empty() ? "" : ", ", name.c_str(), value);
        values += buf;
    }
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"values\": {%s}}\n",
                result.correct ? "true" : "false",
                static_cast<long long>(result.attempted),
                static_cast<long long>(result.failed), values.c_str());
    return 0;
}
