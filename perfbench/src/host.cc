#include "perfbench/src/host.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>

#include "src/util/format.h"

namespace perfbench {

namespace {

/** First value of `key` in /proc/cpuinfo ("" when absent). */
std::string
CpuInfoField(const std::string& key)
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.compare(0, key.size(), key) != 0) continue;
        const size_t colon = line.find(':');
        if (colon == std::string::npos) continue;
        const size_t start = line.find_first_not_of(" \t", colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
    }
    return "";
}

std::string
JsonEscape(const std::string& s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') out.push_back('\\');
        if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
    }
    return out;
}

}  // namespace

std::string
HostFingerprintJson(const std::string& workload, uint64_t seed,
                    const llmnpu::ModelConfig& proxy)
{
    std::set<std::string> flags;
    std::istringstream words(CpuInfoField("flags"));
    for (std::string w; words >> w;) flags.insert(w);
    auto has = [&](const char* f) { return flags.count(f) ? "true" : "false"; };
    const char* threads = std::getenv("LLMNPU_NUM_THREADS");
    return llmnpu::StrFormat(
        "{\"cpu_model\": \"%s\", \"nproc\": %ld, \"avx2\": %s, "
        "\"fma\": %s, \"avx512_vnni\": %s, \"avx_vnni\": %s, "
        "\"llmnpu_num_threads\": \"%s\", \"build_type\": \"%s\", "
        "\"llmnpu_trace\": \"%s\", \"kernel_simd\": \"%s\", "
        "\"proxy_model\": {\"name\": \"%s\", \"hidden\": %lld, "
        "\"layers\": %d, \"heads\": %d, \"kv_heads\": %d, "
        "\"head_dim\": %d, \"ffn\": %lld, \"vocab\": %lld}, "
        "\"workload\": \"%s\", \"seed\": %llu}",
        JsonEscape(CpuInfoField("model name")).c_str(),
        sysconf(_SC_NPROCESSORS_ONLN), has("avx2"), has("fma"),
        has("avx512_vnni"), has("avx_vnni"),
        threads ? JsonEscape(threads).c_str() : "unset", PERFBENCH_BUILD_TYPE,
        PERFBENCH_LLMNPU_TRACE, PERFBENCH_KERNEL_SIMD,
        JsonEscape(proxy.name).c_str(),
        static_cast<long long>(proxy.hidden_size), proxy.num_layers,
        proxy.num_heads, proxy.num_kv_heads, proxy.head_dim,
        static_cast<long long>(proxy.ffn_hidden),
        static_cast<long long>(proxy.vocab_size), workload.c_str(),
        static_cast<unsigned long long>(seed));
}

double
PeakRssMb()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
