/**
 * @file
 * Microbenchmarks of the numeric-plane kernels. These measure *this host's*
 * kernel throughput (the numeric plane), not the simulated phone.
 *
 * Two layers:
 *
 *  1. A hand-rolled sweep that prints "METRIC {json}" rows — GFLOP/s per
 *     kernel x size x thread count, plus the speedup of each tiled kernel
 *     over its naive reference — which bench/run_all captures into
 *     BENCH_results.json so kernel perf is tracked per commit.
 *  2. The google-benchmark suites (kept for interactive use: perf deltas,
 *     --benchmark_filter, counters).
 *
 * LLMNPU_BENCH_QUICK=1 (set by `run_all --quick`) shrinks the sweep to one
 * size and skips the google-benchmark pass so CI smoke runs stay fast.
 */
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "src/core/outlier_profile.h"
#include "src/core/shadow_executor.h"
#include "src/model/batched_kv_cache.h"
#include "src/model/paged_attention.h"
#include "src/tensor/matmul.h"
#include "src/tensor/ops.h"
#include "src/util/rng.h"
#include "src/util/threadpool.h"

namespace llmnpu {
namespace {

Tensor
RandomTensor(Rng& rng, std::vector<int64_t> shape)
{
    Tensor t(std::move(shape), DType::kF32);
    float* p = t.Data<float>();
    for (int64_t i = 0; i < t.NumElements(); ++i) {
        p[i] = static_cast<float>(rng.Normal());
    }
    return t;
}

bool
QuickMode()
{
    return std::getenv("LLMNPU_BENCH_QUICK") != nullptr;
}

/** Best-of-3 throughput in GFLOP/s (2*m*k*n flops per call). */
double
MeasureGFlops(int64_t m, int64_t k, int64_t n,
              const std::function<void()>& fn)
{
    const double min_seconds = QuickMode() ? 0.02 : 0.12;
    fn();  // warm-up (touch packed panels, grow the thread pool)
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        int iters = 0;
        double elapsed = 0.0;
        const auto start = std::chrono::steady_clock::now();
        do {
            fn();
            ++iters;
            elapsed = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
        } while (elapsed < min_seconds);
        const double gflops = 2.0 * static_cast<double>(m) *
                              static_cast<double>(k) *
                              static_cast<double>(n) * iters / elapsed /
                              1e9;
        if (gflops > best) best = gflops;
    }
    return best;
}

void
PrintMetric(const char* kernel, const char* variant, int64_t m, int64_t k,
            int64_t n, int threads, double gflops, double speedup)
{
    std::printf("METRIC {\"bench\": \"kernels\", \"kernel\": \"%s\", "
                "\"variant\": \"%s\", \"m\": %lld, \"k\": %lld, "
                "\"n\": %lld, \"threads\": %d, \"gflops\": %.2f, "
                "\"speedup_vs_naive\": %.2f}\n",
                kernel, variant, static_cast<long long>(m),
                static_cast<long long>(k), static_cast<long long>(n),
                threads, gflops, speedup);
}

/**
 * The METRIC sweep: naive vs tiled (and pre-packed) kernels, m=32 prefill
 * chunks, square K=N weights, thread counts 1/2/4.
 */
void
EmitKernelMetrics()
{
    const std::vector<int64_t> sizes =
        QuickMode() ? std::vector<int64_t>{256}
                    : std::vector<int64_t>{128, 256, 512};
    const std::vector<int> thread_counts =
        QuickMode() ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4};
    constexpr int64_t kM = 32;

    for (int64_t n : sizes) {
        Rng rng(0xbe7c + static_cast<uint64_t>(n));
        Tensor a = RandomTensor(rng, {kM, n});
        Tensor w = RandomTensor(rng, {n, n});

        // --- f32: naive vs tiled vs pre-packed tiled. ---
        const double f32_naive = MeasureGFlops(kM, n, n, [&] {
            benchmark::DoNotOptimize(MatMulF32Naive(a, w));
        });
        PrintMetric("matmul_f32", "naive", kM, n, n, 1, f32_naive, 1.0);
        const PackedWeightsF32 packed = PackWeightsF32(w);
        for (int threads : thread_counts) {
            ScopedNumThreads scoped(threads);
            const double tiled = MeasureGFlops(kM, n, n, [&] {
                benchmark::DoNotOptimize(MatMulF32(a, w));
            });
            PrintMetric("matmul_f32", "tiled", kM, n, n, threads, tiled,
                        tiled / f32_naive);
            const double tiled_packed = MeasureGFlops(kM, n, n, [&] {
                benchmark::DoNotOptimize(MatMulF32Packed(a, packed));
            });
            PrintMetric("matmul_f32", "tiled_packed", kM, n, n, threads,
                        tiled_packed, tiled_packed / f32_naive);
        }

        // --- W8A8 per-tensor: naive vs pre-packed tiled. ---
        const QuantParams params = ComputeSymmetricScale(a);
        Tensor a_q = QuantizeSymmetric(a, params);
        PerColumnWeights wq = QuantizePerColumn(w);
        const double i8_naive = MeasureGFlops(kM, n, n, [&] {
            benchmark::DoNotOptimize(
                MatMulW8A8PerTensorNaive(a_q, params.scale, wq.q,
                                         wq.scales));
        });
        PrintMetric("matmul_w8a8_per_tensor", "naive", kM, n, n, 1,
                    i8_naive, 1.0);
        const PackedWeightsI8 packed_q = PackWeightsI8(wq.q, wq.scales);
        for (int threads : thread_counts) {
            ScopedNumThreads scoped(threads);
            const double tiled = MeasureGFlops(kM, n, n, [&] {
                benchmark::DoNotOptimize(
                    MatMulW8A8PerTensorPacked(a_q, params.scale, packed_q));
            });
            PrintMetric("matmul_w8a8_per_tensor", "tiled_packed", kM, n, n,
                        threads, tiled, tiled / i8_naive);
        }

        // --- Per-group W8A8 (the NPU-hostile form): naive vs tiled. ---
        PerGroupWeights pg = QuantizePerGroup(w, 32);
        const double pg_naive = MeasureGFlops(kM, n, n, [&] {
            benchmark::DoNotOptimize(MatMulPerGroupNaive(a, pg));
        });
        PrintMetric("matmul_per_group", "naive", kM, n, n, 1, pg_naive,
                    1.0);
        for (int threads : thread_counts) {
            ScopedNumThreads scoped(threads);
            const double tiled = MeasureGFlops(kM, n, n, [&] {
                benchmark::DoNotOptimize(MatMulPerGroup(a, pg));
            });
            PrintMetric("matmul_per_group", "tiled", kM, n, n, threads,
                        tiled, tiled / pg_naive);
        }
    }
}

/** One PagedCausalAttention call's inputs over a single-layer paged cache
 *  (kHeads MHA heads of kHeadDim). */
struct AttentionShape {
    static constexpr int kHeads = 8;
    static constexpr int kHeadDim = 32;
    static constexpr int64_t kModelDim =
        static_cast<int64_t>(kHeads) * kHeadDim;

    BatchedKvCache cache{1, kModelDim, 0, PagedKvOptions{}};
    Tensor q;
    std::vector<int> seqs;
    std::vector<int64_t> segments{0};
    std::vector<int64_t> pos_offsets;
    int64_t attended = 0;  ///< sum of visible positions over query rows

    /** Adds a sequence holding `kv` cached positions whose last `rows`
     *  positions are this call's query rows. */
    void AddSequence(Rng& rng, int64_t kv, int64_t rows)
    {
        const int seq = cache.AddSequence();
        cache.Append(seq, 0, RandomTensor(rng, {kv, kModelDim}),
                     RandomTensor(rng, {kv, kModelDim}));
        seqs.push_back(seq);
        pos_offsets.push_back(kv - rows);
        segments.push_back(segments.back() + rows);
        for (int64_t r = 0; r < rows; ++r) attended += kv - rows + r + 1;
    }
};

/**
 * Prints a per_seq_dense row (each sequence's K/V materialized dense, then
 * CausalAttention per sequence: what ForwardBatch did before the fused
 * kernel) and a fused PagedCausalAttention row per thread count, keyed
 * (m, k, n) = (query rows, context, model width). Attention does
 * 4*attended*head_dim flops per head, which MeasureGFlops' 2*m*k*n form
 * matches as m=heads, k=2*attended, n=head_dim.
 */
void
EmitPagedAttentionRows(const char* kernel, Rng& rng, AttentionShape& shape,
                       int64_t m_label, int64_t k_label,
                       const std::vector<int>& threads)
{
    shape.q = RandomTensor(rng, {shape.segments.back(),
                                 AttentionShape::kModelDim});
    const int64_t flop_k = 2 * shape.attended;
    constexpr int kHeads = AttentionShape::kHeads;
    constexpr int kHeadDim = AttentionShape::kHeadDim;
    const double per_seq = MeasureGFlops(kHeads, flop_k, kHeadDim, [&] {
        for (size_t i = 0; i < shape.seqs.size(); ++i) {
            const int64_t r0 = shape.segments[i];
            benchmark::DoNotOptimize(CausalAttention(
                shape.q.CopyRows(r0, shape.segments[i + 1] - r0),
                shape.cache.Keys(shape.seqs[i], 0),
                shape.cache.Values(shape.seqs[i], 0), kHeads, kHeads,
                shape.pos_offsets[i]));
        }
    });
    PrintMetric(kernel, "per_seq_dense", m_label, k_label,
                AttentionShape::kModelDim, 1, per_seq, 1.0);
    for (int t : threads) {
        ScopedNumThreads scoped(t);
        const double fused = MeasureGFlops(kHeads, flop_k, kHeadDim, [&] {
            benchmark::DoNotOptimize(PagedCausalAttention(
                shape.q, shape.segments, shape.seqs, shape.pos_offsets,
                shape.cache, 0, kHeads, kHeads));
        });
        PrintMetric(kernel, "fused", m_label, k_label,
                    AttentionShape::kModelDim, t, fused, fused / per_seq);
    }
}

/**
 * Fused paged attention vs the per-sequence path it replaced, in two
 * shapes: `paged_attention` rows are a B=16 batched decode step (one query
 * row per sequence) at several context lengths, and
 * `paged_attention_prefill` rows one sequence's 256-row prefill chunk at
 * positions 512..767 (the last chunk of a long UI prompt). The prefill
 * rows carry their own kernel name because the latency predictor reads
 * `paged_attention` rows as decode steps (m = batch).
 */
void
EmitPagedAttentionMetrics()
{
    const std::vector<int64_t> contexts =
        QuickMode() ? std::vector<int64_t>{256}
                    : std::vector<int64_t>{128, 256, 512};
    const std::vector<int> thread_counts =
        QuickMode() ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4};
    constexpr int kBatch = 16;

    for (int64_t kv : contexts) {
        Rng rng(0x9a6ed + static_cast<uint64_t>(kv));
        AttentionShape decode;
        // Decode semantics: the step's K/V row is already appended, so
        // the query sits at the last cached position.
        for (int b = 0; b < kBatch; ++b) decode.AddSequence(rng, kv, 1);
        EmitPagedAttentionRows("paged_attention", rng, decode, kBatch, kv,
                               thread_counts);
    }

    constexpr int64_t kChunk = 256;
    constexpr int64_t kPromptEnd = 768;
    Rng rng(0x9a6ed + static_cast<uint64_t>(kPromptEnd));
    AttentionShape prefill;
    prefill.AddSequence(rng, kPromptEnd, kChunk);
    EmitPagedAttentionRows("paged_attention_prefill", rng, prefill, kChunk,
                           kPromptEnd, thread_counts);
}

// ----------------------------------------------------- google-benchmark

void
BM_MatMulF32Naive(benchmark::State& state)
{
    const int64_t n = state.range(0);
    Rng rng(1);
    Tensor a = RandomTensor(rng, {32, n});
    Tensor w = RandomTensor(rng, {n, n});
    for (auto _ : state) {
        benchmark::DoNotOptimize(MatMulF32Naive(a, w));
    }
    state.SetItemsProcessed(state.iterations() * 2 * 32 * n * n);
}
BENCHMARK(BM_MatMulF32Naive)->Arg(128)->Arg(256)->Arg(512);

void
BM_MatMulF32(benchmark::State& state)
{
    const int64_t n = state.range(0);
    Rng rng(1);
    Tensor a = RandomTensor(rng, {32, n});
    Tensor w = RandomTensor(rng, {n, n});
    for (auto _ : state) {
        benchmark::DoNotOptimize(MatMulF32(a, w));
    }
    state.SetItemsProcessed(state.iterations() * 2 * 32 * n * n);
}
BENCHMARK(BM_MatMulF32)->Arg(128)->Arg(256)->Arg(512);

void
BM_MatMulF32Packed(benchmark::State& state)
{
    const int64_t n = state.range(0);
    Rng rng(1);
    Tensor a = RandomTensor(rng, {32, n});
    PackedWeightsF32 w = PackWeightsF32(RandomTensor(rng, {n, n}));
    for (auto _ : state) {
        benchmark::DoNotOptimize(MatMulF32Packed(a, w));
    }
    state.SetItemsProcessed(state.iterations() * 2 * 32 * n * n);
}
BENCHMARK(BM_MatMulF32Packed)->Arg(128)->Arg(256)->Arg(512);

void
BM_MatMulW8A8PerTensor(benchmark::State& state)
{
    const int64_t n = state.range(0);
    Rng rng(2);
    Tensor a = RandomTensor(rng, {32, n});
    Tensor w = RandomTensor(rng, {n, n});
    const QuantParams params = ComputeSymmetricScale(a);
    Tensor a_q = QuantizeSymmetric(a, params);
    PerColumnWeights wq = QuantizePerColumn(w);
    PackedWeightsI8 packed = PackWeightsI8(wq.q, wq.scales);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            MatMulW8A8PerTensorPacked(a_q, params.scale, packed));
    }
    state.SetItemsProcessed(state.iterations() * 2 * 32 * n * n);
}
BENCHMARK(BM_MatMulW8A8PerTensor)->Arg(128)->Arg(256)->Arg(512);

void
BM_MatMulPerGroup(benchmark::State& state)
{
    const int64_t n = state.range(0);
    Rng rng(3);
    Tensor a = RandomTensor(rng, {32, n});
    Tensor w = RandomTensor(rng, {n, n});
    PerGroupWeights pg = QuantizePerGroup(w, 32);
    for (auto _ : state) {
        benchmark::DoNotOptimize(MatMulPerGroup(a, pg));
    }
    state.SetItemsProcessed(state.iterations() * 2 * 32 * n * n);
}
BENCHMARK(BM_MatMulPerGroup)->Arg(128)->Arg(256)->Arg(512);

void
BM_CausalAttention(benchmark::State& state)
{
    const int64_t kv = state.range(0);
    Rng rng(4);
    Tensor q = RandomTensor(rng, {32, 256});
    Tensor k = RandomTensor(rng, {kv, 256});
    Tensor v = RandomTensor(rng, {kv, 256});
    for (auto _ : state) {
        benchmark::DoNotOptimize(CausalAttention(q, k, v, 4, 4, kv - 32));
    }
}
BENCHMARK(BM_CausalAttention)->Arg(64)->Arg(256)->Arg(512);

void
BM_QuantizeSymmetric(benchmark::State& state)
{
    Rng rng(5);
    Tensor x = RandomTensor(rng, {256, state.range(0)});
    const QuantParams params = ComputeSymmetricScale(x);
    for (auto _ : state) {
        benchmark::DoNotOptimize(QuantizeSymmetric(x, params));
    }
    state.SetItemsProcessed(state.iterations() * x.NumElements());
}
BENCHMARK(BM_QuantizeSymmetric)->Arg(512)->Arg(2048);

}  // namespace
}  // namespace llmnpu

int
main(int argc, char** argv)
{
    // Parse flags first so a mistyped flag (or an interactive
    // --benchmark_filter run) fails fast instead of paying for the full
    // METRIC sweep.
    const bool plain_run = argc == 1;
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    // The METRIC sweep is the per-commit record (captured by run_all);
    // the google-benchmark pass is for interactive use — with benchmark
    // flags given, run only that pass, and skip it in quick (CI smoke)
    // runs.
    if (plain_run) {
        llmnpu::EmitKernelMetrics();
        llmnpu::EmitPagedAttentionMetrics();
    }
    if (!plain_run || !llmnpu::QuickMode()) {
        benchmark::RunSpecifiedBenchmarks();
    }
    benchmark::Shutdown();
    return 0;
}
