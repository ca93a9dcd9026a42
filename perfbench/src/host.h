/**
 * @file
 * Host fingerprint and process resource readings stamped on every result.
 */
#ifndef PERFBENCH_HOST_H
#define PERFBENCH_HOST_H

#include <cstdint>
#include <string>

#include "src/model/config.h"

namespace perfbench {

/** The fingerprint as a JSON object: CPU model, nproc, AVX2/FMA/VNNI
 *  flags, pinned thread count, build type, LLMNPU_TRACE, kernel SIMD, the
 *  proxy model config, the workload and its seed. */
std::string HostFingerprintJson(const std::string& workload, uint64_t seed,
                                const llmnpu::ModelConfig& proxy);

/** Peak resident set size of this process so far, in MiB. */
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_HOST_H
