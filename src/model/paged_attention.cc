#include "src/model/paged_attention.h"

#include <algorithm>
#include <cmath>

#include "src/obs/trace.h"
#include "src/util/check.h"
#include "src/util/threadpool.h"

namespace llmnpu {

namespace {

/**
 * Eight f32 lanes (one 256-bit register under -mavx2, an SSE pair with the
 * same per-lane results without it). aligned(4): page and tensor storage
 * carries no 32-byte guarantee. may_alias: the loads/stores reinterpret
 * float storage.
 */
typedef float VecF32x8
    __attribute__((vector_size(32), aligned(4), may_alias));

/** Lanes of one VecF32x8. */
constexpr int kVec = 8;

/** Query rows processed together: they share every K and V load. */
constexpr int kRowBlock = 4;

/**
 * W f32 lanes: W = 8 is one VecF32x8, W = 1 a plain float, so one kernel
 * body serves both the vector blocks and the scalar leftovers. (The vector
 * typedef is never a template argument, which would drop its attributes.)
 */
template <int W>
struct Lanes;

template <>
struct Lanes<1> {
    using T = float;
    static void Load(T& v, const float* p) { v = *p; }
    static void Store(float* p, const T& v) { *p = v; }
};

// By reference, not by value: without -mavx2 a 32-byte vector argument or
// return value would change the calling convention (-Wpsabi).
template <>
struct Lanes<kVec> {
    using T = VecF32x8;
    static void Load(T& v, const float* p)
    {
        v = *reinterpret_cast<const VecF32x8*>(p);
    }
    static void Store(float* p, const T& v)
    {
        *reinterpret_cast<VecF32x8*>(p) = v;
    }
};

/**
 * Scaled scores of R query rows against NV * W consecutive key
 * positions of one d-major K block (`k` points at the first position's
 * d = 0 element; channel d of the run sits `d * ps` further on). Each lane
 * is one position's dot product in the scalar reference order
 * (dot = dot + q[d] * k[d], d ascending, multiply and add rounded
 * separately), so W = 1 is that scalar loop and the vector lanes agree
 * with it bit for bit.
 */
template <int W, int R, int NV>
inline void
ScoreBlock(const float* const* q, const float* k, int64_t ps, int head_dim,
           float scale, float* const* out, int64_t j)
{
    using L = Lanes<W>;
    typename L::T acc[R][NV] = {};
    for (int d = 0; d < head_dim; ++d, k += ps) {
        typename L::T kv[NV];
        for (int v = 0; v < NV; ++v) L::Load(kv[v], k + v * W);
        for (int r = 0; r < R; ++r) {
            const float qd = q[r][d];
            for (int v = 0; v < NV; ++v) acc[r][v] = acc[r][v] + qd * kv[v];
        }
    }
    for (int r = 0; r < R; ++r) {
        for (int v = 0; v < NV; ++v) {
            L::Store(out[r] + j + v * W, acc[r][v] * scale);
        }
    }
}

/**
 * out[r][d..] = sum over positions j < vis[r], ascending, of
 * p[r][j] * V[j][kv_off + d..] for NV * W columns starting at d.
 * The R rows share each V-row load; lanes run over columns, so every lane
 * is the scalar accumulation of its column.
 */
template <int W, int R, int NV>
inline void
WeightedValues(const float* const* p, const int64_t* vis,
               const KvPagePool& pool, const std::vector<int64_t>& pages,
               int layer, int64_t kv_off, int d, float* const* out)
{
    const int64_t ps = pool.page_size();
    const int64_t kv_dim = pool.kv_dim();
    using L = Lanes<W>;
    typename L::T acc[R][NV] = {};
    for (int64_t j = 0; j < vis[R - 1];) {
        const int64_t run = std::min(vis[R - 1] - j, ps - j % ps);
        const float* vrow =
            pool.PageV(pages[static_cast<size_t>(j / ps)], layer) +
            (j % ps) * kv_dim + kv_off + d;
        for (const int64_t e = j + run; j < e; ++j, vrow += kv_dim) {
            typename L::T vv[NV];
            for (int v = 0; v < NV; ++v) L::Load(vv[v], vrow + v * W);
            for (int r = 0; r < R; ++r) {
                if (j >= vis[r]) continue;  // row r's causal horizon
                const float w = p[r][j];
                for (int v = 0; v < NV; ++v) acc[r][v] = acc[r][v] + w * vv[v];
            }
        }
    }
    for (int r = 0; r < R; ++r) {
        for (int v = 0; v < NV; ++v) {
            L::Store(out[r] + d + v * W, acc[r][v]);
        }
    }
}

/** What one (sequence, head) tile reads and writes. */
struct Tile {
    const KvPagePool* pool;
    const std::vector<int64_t>* pages;
    int layer;
    int head_dim;
    int64_t kv_off;  ///< first channel of this head's KV group
    float scale;
};

/**
 * Attention for R consecutive query rows of one tile. Scores go to
 * `scores` rows (stride >= vis[R-1]); output rows are written whole.
 */
template <int R>
void
RowBlock(const Tile& t, const float* const* q, const int64_t* vis,
         float* const* scores, float* const* out)
{
    const KvPagePool& pool = *t.pool;
    const std::vector<int64_t>& pages = *t.pages;
    const int64_t ps = pool.page_size();

    // QK^T: lanes over key positions. Every row scores the block's widest
    // horizon; a row ignores the (at most R-1) positions past its own.
    for (int64_t j = 0; j < vis[R - 1];) {
        const int64_t e = j + std::min(vis[R - 1] - j, ps - j % ps);
        const float* k =
            pool.PageK(pages[static_cast<size_t>(j / ps)], t.layer) +
            t.kv_off * ps;
        for (; e - j >= 2 * kVec; j += 2 * kVec) {
            ScoreBlock<kVec, R, 2>(q, k + j % ps, ps, t.head_dim, t.scale,
                                   scores, j);
        }
        for (; e - j >= kVec; j += kVec) {
            ScoreBlock<kVec, R, 1>(q, k + j % ps, ps, t.head_dim, t.scale,
                                   scores, j);
        }
        for (; j < e; ++j) {  // the run's leftover positions
            ScoreBlock<1, R, 1>(q, k + j % ps, ps, t.head_dim, t.scale,
                                scores, j);
        }
    }

    // Softmax, per row in position order: the reference's max, exp and
    // double sum, then the normalized weights in place.
    for (int r = 0; r < R; ++r) {
        float* s = scores[r];
        float mx = -1e30f;
        for (int64_t j = 0; j < vis[r]; ++j) mx = std::max(mx, s[j]);
        double sum = 0.0;
        for (int64_t j = 0; j < vis[r]; ++j) {
            s[j] = std::exp(s[j] - mx);
            sum += s[j];
        }
        const float inv = static_cast<float>(1.0 / sum);
        for (int64_t j = 0; j < vis[r]; ++j) s[j] = s[j] * inv;
    }

    // P.V: lanes over head_dim columns.
    const float* const* p = scores;
    int d = 0;
    for (; t.head_dim - d >= 2 * kVec; d += 2 * kVec) {
        WeightedValues<kVec, R, 2>(p, vis, pool, pages, t.layer, t.kv_off,
                                   d, out);
    }
    for (; t.head_dim - d >= kVec; d += kVec) {
        WeightedValues<kVec, R, 1>(p, vis, pool, pages, t.layer, t.kv_off,
                                   d, out);
    }
    for (; d < t.head_dim; ++d) {
        WeightedValues<1, R, 1>(p, vis, pool, pages, t.layer, t.kv_off, d,
                                out);
    }
}

}  // namespace

Tensor
PagedCausalAttention(const Tensor& q, const std::vector<int64_t>& segments,
                     const std::vector<int>& seqs,
                     const std::vector<int64_t>& pos_offsets,
                     const BatchedKvCache& cache, int layer, int num_heads,
                     int num_kv_heads)
{
    LLMNPU_CHECK_EQ(q.Rank(), 2);
    LLMNPU_CHECK_GE(segments.size(), 2u);
    const size_t b = segments.size() - 1;
    LLMNPU_CHECK_EQ(seqs.size(), b);
    LLMNPU_CHECK_EQ(pos_offsets.size(), b);
    LLMNPU_CHECK_EQ(segments.front(), 0);
    LLMNPU_CHECK_EQ(segments.back(), q.Rows());
    LLMNPU_CHECK_EQ(q.Cols() % num_heads, 0);
    LLMNPU_CHECK_EQ(num_heads % num_kv_heads, 0);
    const int head_dim = static_cast<int>(q.Cols()) / num_heads;
    LLMNPU_CHECK_EQ(static_cast<int64_t>(num_kv_heads) * head_dim,
                    cache.kv_dim());

    const int heads_per_kv = num_heads / num_kv_heads;
    const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));

    // Every member's history (this step's rows included) must already be
    // appended, and the page tables must cover it.
    for (size_t i = 0; i < b; ++i) {
        const int64_t q_len = segments[i + 1] - segments[i];
        LLMNPU_CHECK_GE(cache.SeqLen(seqs[i], layer),
                        pos_offsets[i] + q_len);
    }

    Tensor out({q.Rows(), q.Cols()}, DType::kF32);
    const float* pq = q.Data<float>();
    float* po = out.Data<float>();
    const int64_t q_cols = q.Cols();

    // One tile = one (sequence, head) pair: disjoint output regions, a
    // fixed per-tile reduction order, hence bitwise-deterministic output
    // for any block partition the pool picks.
    const int64_t tiles = static_cast<int64_t>(b) * num_heads;
    LLMNPU_TRACE_SPAN_ID("attention.paged", "attention", -1, -1, layer);
    ThreadPool::Global().ParallelFor(
        tiles, /*grain=*/1, [&](int64_t begin, int64_t end) {
            std::vector<float> scores;
            for (int64_t tile = begin; tile < end; ++tile) {
                const size_t i = static_cast<size_t>(tile / num_heads);
                const int h = static_cast<int>(tile % num_heads);
                LLMNPU_TRACE_SPAN_TILE("attention.tile", "attention", -1,
                                       seqs[i], layer, "head", h);
                const Tile t{&cache.pool(),
                             &cache.PageTable(seqs[i]),
                             layer,
                             head_dim,
                             static_cast<int64_t>(h / heads_per_kv) *
                                 head_dim,
                             scale};
                const int64_t q_off = static_cast<int64_t>(h) * head_dim;
                const int64_t r0 = segments[i];
                const int64_t q_len = segments[i + 1] - r0;
                // One score row per block row, each as wide as the tile's
                // longest horizon.
                const int64_t stride = pos_offsets[i] + q_len;
                if (scores.size() < static_cast<size_t>(kRowBlock * stride)) {
                    scores.resize(static_cast<size_t>(kRowBlock * stride));
                }

                for (int64_t r = 0; r < q_len; r += kRowBlock) {
                    const float* qr[kRowBlock];
                    int64_t vis[kRowBlock];
                    float* sr[kRowBlock];
                    float* orow[kRowBlock];
                    const int rows = static_cast<int>(
                        std::min<int64_t>(kRowBlock, q_len - r));
                    for (int k = 0; k < rows; ++k) {
                        qr[k] = pq + (r0 + r + k) * q_cols + q_off;
                        vis[k] = pos_offsets[i] + r + k + 1;  // causal
                        sr[k] = scores.data() + k * stride;
                        orow[k] = po + (r0 + r + k) * q_cols + q_off;
                    }
                    switch (rows) {
                        case 4: RowBlock<4>(t, qr, vis, sr, orow); break;
                        case 3: RowBlock<3>(t, qr, vis, sr, orow); break;
                        case 2: RowBlock<2>(t, qr, vis, sr, orow); break;
                        default: RowBlock<1>(t, qr, vis, sr, orow); break;
                    }
                }
            }
        });
    return out;
}

}  // namespace llmnpu
