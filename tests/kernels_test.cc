/**
 * @file
 * Kernel-equivalence and thread-pool tests (CTest label: kernels).
 *
 * The tiled/threaded kernels in src/tensor/kernels.cc are checked against
 * the naive reference kernels in src/tensor/matmul.cc across shapes that
 * exercise every remainder path (row blocks, panel tails, tiny K), and for
 * determinism across thread counts: the INT8 kernels must be bitwise
 * identical at 1/2/4 threads.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/tensor/matmul.h"
#include "src/tensor/quantize.h"
#include "src/util/rng.h"
#include "src/util/threadpool.h"
#include "tests/support/random.h"

namespace llmnpu {
namespace {

Tensor
RandomI8(Rng& rng, std::vector<int64_t> shape)
{
    Tensor t(std::move(shape), DType::kI8);
    int8_t* p = t.Data<int8_t>();
    for (int64_t i = 0; i < t.NumElements(); ++i) {
        p[i] = static_cast<int8_t>(static_cast<int>(rng.UniformInt(255)) -
                                   127);
    }
    return t;
}

/** Shapes covering the MR remainder paths (m % 4), panel tails (n % 16),
 *  odd K, matvec (m=1), and degenerate empty dimensions. */
const std::vector<std::vector<int64_t>> kShapes = {
    {1, 100, 130}, {4, 32, 48},  {3, 7, 200}, {5, 64, 96},
    {2, 1, 1},     {7, 33, 17},  {16, 128, 64}, {6, 256, 16},
    {0, 16, 16},   {3, 0, 8},    {2, 8, 0},
};

// ------------------------------------------------------------------- f32

TEST(KernelEquivalenceTest, F32MatchesNaiveAcrossShapes)
{
    Rng rng(101);
    for (const auto& s : kShapes) {
        Tensor a = RandomTensor(rng, {s[0], s[1]});
        Tensor b = RandomTensor(rng, {s[1], s[2]});
        Tensor tiled = MatMulF32(a, b);
        Tensor naive = MatMulF32Naive(a, b);
        ASSERT_EQ(tiled.shape(), naive.shape());
        EXPECT_LT(MaxAbsDiff(tiled, naive), 1e-3)
            << "m=" << s[0] << " k=" << s[1] << " n=" << s[2];
    }
}

TEST(KernelEquivalenceTest, F32PackedMatchesUnpacked)
{
    Rng rng(102);
    Tensor a = RandomTensor(rng, {9, 75});
    Tensor b = RandomTensor(rng, {75, 130});
    Tensor via_pack = MatMulF32Packed(a, PackWeightsF32(b));
    EXPECT_LT(MaxAbsDiff(via_pack, MatMulF32Naive(a, b)), 1e-3);
}

TEST(KernelEquivalenceTest, TransposedPackMatchesMaterializedTranspose)
{
    Rng rng(103);
    Tensor a = RandomTensor(rng, {5, 48});
    Tensor wt = RandomTensor(rng, {100, 48});  // use as W^T: [n x k]
    Tensor w({48, 100}, DType::kF32);
    for (int64_t r = 0; r < 48; ++r) {
        for (int64_t c = 0; c < 100; ++c) w.At(r, c) = wt.At(c, r);
    }
    Tensor via_transposed_pack =
        MatMulF32Packed(a, PackWeightsF32Transposed(wt));
    EXPECT_LT(MaxAbsDiff(via_transposed_pack, MatMulF32Naive(a, w)), 1e-3);
}

TEST(KernelEquivalenceTest, F32ThreadCountsAgree)
{
    Rng rng(104);
    Tensor a = RandomTensor(rng, {17, 128});
    Tensor b = RandomTensor(rng, {128, 130});
    Tensor ref;
    {
        ScopedNumThreads one(1);
        ref = MatMulF32(a, b);
    }
    for (int threads : {2, 4}) {
        ScopedNumThreads t(threads);
        EXPECT_LT(MaxAbsDiff(MatMulF32(a, b), ref), 1e-4)
            << threads << " threads";
    }
}

// ------------------------------------------------------------------ int8

TEST(KernelEquivalenceTest, W8A8PerTensorBitwiseMatchesNaive)
{
    Rng rng(105);
    for (const auto& s : kShapes) {
        Tensor a_q = RandomI8(rng, {s[0], s[1]});
        Tensor w_q = RandomI8(rng, {s[1], s[2]});
        std::vector<float> per_col;
        for (int64_t j = 0; j < s[2]; ++j) {
            per_col.push_back(0.01f + 0.001f * static_cast<float>(j));
        }
        // Per-column scales.
        Tensor tiled = MatMulW8A8PerTensor(a_q, 0.02f, w_q, per_col);
        EXPECT_TRUE(tiled.BitEquals(
            MatMulW8A8PerTensorNaive(a_q, 0.02f, w_q, per_col)))
            << "per-col m=" << s[0] << " k=" << s[1] << " n=" << s[2];
        // Uniform scale.
        const std::vector<float> uniform = {0.05f};
        Tensor tiled_u = MatMulW8A8PerTensor(a_q, 0.02f, w_q, uniform);
        EXPECT_TRUE(tiled_u.BitEquals(
            MatMulW8A8PerTensorNaive(a_q, 0.02f, w_q, uniform)))
            << "uniform m=" << s[0] << " k=" << s[1] << " n=" << s[2];
    }
}

TEST(KernelEquivalenceTest, W8A8RowColBitwiseMatchesNaive)
{
    Rng rng(106);
    for (const auto& s : {std::vector<int64_t>{1, 100, 130},
                          std::vector<int64_t>{5, 64, 96},
                          std::vector<int64_t>{7, 33, 17}}) {
        Tensor a_q = RandomI8(rng, {s[0], s[1]});
        Tensor w_q = RandomI8(rng, {s[1], s[2]});
        std::vector<float> a_scales, w_scales;
        for (int64_t i = 0; i < s[0]; ++i) {
            a_scales.push_back(0.01f + 0.002f * static_cast<float>(i));
        }
        for (int64_t j = 0; j < s[2]; ++j) {
            w_scales.push_back(0.03f + 0.001f * static_cast<float>(j));
        }
        Tensor tiled =
            MatMulW8A8RowCol(a_q, a_scales, PackWeightsI8(w_q, w_scales));
        EXPECT_TRUE(tiled.BitEquals(
            MatMulW8A8RowColNaive(a_q, a_scales, w_q, w_scales)))
            << "m=" << s[0] << " k=" << s[1] << " n=" << s[2];
    }
}

TEST(KernelEquivalenceTest, PerGroupMatchesNaiveAcrossShapes)
{
    Rng rng(107);
    for (const auto& s : {std::vector<int64_t>{1, 96, 130},
                          std::vector<int64_t>{4, 64, 48},
                          std::vector<int64_t>{7, 128, 17},
                          std::vector<int64_t>{0, 64, 8}}) {
        Tensor a = RandomTensor(rng, {s[0], s[1]});
        Tensor w = RandomTensor(rng, {s[1], s[2]});
        PerGroupWeights pg = QuantizePerGroup(w, 32);
        Tensor tiled = MatMulPerGroup(a, pg);
        Tensor naive = MatMulPerGroupNaive(a, pg);
        ASSERT_EQ(tiled.shape(), naive.shape());
        const double scale = std::max(1.0, static_cast<double>(AbsMax(naive)));
        EXPECT_LT(MaxAbsDiff(tiled, naive) / scale, 1e-5)
            << "m=" << s[0] << " k=" << s[1] << " n=" << s[2];
    }
}

TEST(KernelEquivalenceTest, RowSubsetMatchesMaskedNaive)
{
    Rng rng(108);
    Tensor a = RandomTensor(rng, {6, 40});
    Tensor w = RandomTensor(rng, {40, 33});
    const std::vector<int> rows = {0, 3, 17, 39};
    Tensor a_sub({6, 4}, DType::kF32);
    Tensor a_masked = Tensor::Zeros({6, 40});
    for (int64_t r = 0; r < 6; ++r) {
        for (size_t i = 0; i < rows.size(); ++i) {
            a_sub.At(r, static_cast<int64_t>(i)) = a.At(r, rows[i]);
            a_masked.At(r, rows[i]) = a.At(r, rows[i]);
        }
    }
    EXPECT_LT(MaxAbsDiff(MatMulRowSubset(a_sub, w, rows),
                         MatMulF32Naive(a_masked, w)),
              1e-4);
}

// --------------------------------------------------------- determinism

TEST(KernelDeterminismTest, W8A8BitwiseAcrossThreadCounts)
{
    Rng rng(109);
    // Big enough that the parallel path actually engages.
    Tensor a_q = RandomI8(rng, {16, 128});
    Tensor w_q = RandomI8(rng, {128, 130});
    std::vector<float> w_scales;
    for (int64_t j = 0; j < 130; ++j) {
        w_scales.push_back(0.01f + 0.0005f * static_cast<float>(j));
    }
    Tensor ref;
    {
        ScopedNumThreads one(1);
        ref = MatMulW8A8PerTensor(a_q, 0.015f, w_q, w_scales);
    }
    for (int threads : {2, 4}) {
        ScopedNumThreads t(threads);
        EXPECT_TRUE(
            MatMulW8A8PerTensor(a_q, 0.015f, w_q, w_scales).BitEquals(ref))
            << threads << " threads";
    }
}

TEST(KernelDeterminismTest, PerGroupBitwiseAcrossThreadCounts)
{
    Rng rng(110);
    Tensor a = RandomTensor(rng, {16, 128});
    Tensor w = RandomTensor(rng, {128, 130});
    PerGroupWeights pg = QuantizePerGroup(w, 32);
    Tensor ref;
    {
        ScopedNumThreads one(1);
        ref = MatMulPerGroup(a, pg);
    }
    for (int threads : {2, 4}) {
        ScopedNumThreads t(threads);
        EXPECT_TRUE(MatMulPerGroup(a, pg).BitEquals(ref))
            << threads << " threads";
    }
}

// ---------------------------------------------------------- thread pool

TEST(ThreadPoolTest, CoversRangeExactlyOnce)
{
    ScopedNumThreads four(4);
    std::mutex mu;
    std::vector<std::pair<int64_t, int64_t>> blocks;
    ThreadPool::Global().ParallelFor(1000, 1, [&](int64_t b, int64_t e) {
        std::lock_guard<std::mutex> lock(mu);
        blocks.emplace_back(b, e);
    });
    std::vector<int> hits(1000, 0);
    for (const auto& [b, e] : blocks) {
        ASSERT_LE(0, b);
        ASSERT_LE(b, e);
        ASSERT_LE(e, 1000);
        for (int64_t i = b; i < e; ++i) ++hits[static_cast<size_t>(i)];
    }
    for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, SmallRangeRunsInline)
{
    ScopedNumThreads four(4);
    int calls = 0;
    // 5 items at grain 4 -> one block -> must run inline on the caller.
    ThreadPool::Global().ParallelFor(5, 4, [&](int64_t b, int64_t e) {
        ++calls;
        EXPECT_EQ(b, 0);
        EXPECT_EQ(e, 5);
    });
    EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, EmptyRangeNeverCalls)
{
    std::atomic<int> calls{0};
    ThreadPool::Global().ParallelFor(0, 1, [&](int64_t, int64_t) {
        ++calls;
    });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline)
{
    ScopedNumThreads four(4);
    std::atomic<int64_t> total{0};
    ThreadPool::Global().ParallelFor(64, 1, [&](int64_t b, int64_t e) {
        // The nested region must execute inline (no deadlock, full range).
        ThreadPool::Global().ParallelFor(e - b, 1,
                                         [&](int64_t ib, int64_t ie) {
                                             total += ie - ib;
                                         });
    });
    EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPoolTest, RequestedThreadsHonorsEnv)
{
    {
        ScopedNumThreads two(2);
        EXPECT_EQ(ThreadPool::RequestedThreads(), 2);
    }
    {
        ScopedNumThreads huge(9999);
        EXPECT_EQ(ThreadPool::RequestedThreads(), ThreadPool::kMaxThreads);
    }
}

TEST(ThreadPoolTest, ConsecutiveJobsReuseWorkers)
{
    ScopedNumThreads four(4);
    for (int round = 0; round < 20; ++round) {
        std::atomic<int64_t> total{0};
        ThreadPool::Global().ParallelFor(128, 1, [&](int64_t b, int64_t e) {
            total += e - b;
        });
        ASSERT_EQ(total.load(), 128);
    }
    EXPECT_LE(ThreadPool::Global().NumWorkers(), ThreadPool::kMaxThreads);
}

}  // namespace
}  // namespace llmnpu
