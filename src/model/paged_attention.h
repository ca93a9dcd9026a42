/**
 * @file
 * Fused batched causal attention over paged KV.
 *
 * This is the model's only attention kernel: every forward runs it, the
 * single-sequence Forward included. Rather than looping attention per
 * sequence — copying each Q segment out of the stacked activation,
 * materializing the whole K/V history into dense tensors and pasting the
 * result back — it fuses the loop: one call covers every sequence of the
 * batch, reads K/V directly out of the pool pages through each sequence's
 * page table, writes straight into the stacked output, and tile-parallels
 * the work across the persistent ThreadPool.
 *
 * Parallel shape: one tile = one (sequence, query head) pair, so B
 * sequences x H heads tiles per call — enough parallelism at B=64+ decode
 * to keep every core busy on what is otherwise the float-side critical
 * path of NPU decode. Tiles write disjoint output regions and the per-tile
 * arithmetic is a fixed sequential reduction, so output is bitwise
 * identical at any thread count and bitwise identical to the per-sequence
 * CausalAttention reference (same dot/softmax/accumulate ordering) — the
 * batched-equals-sequential contract extends through this kernel
 * unchanged.
 *
 * Vectorized without changing a bit: a tile takes its query rows four at
 * a time, and SIMD lanes run across *key positions* for QK^T — eight
 * consecutive positions per vector, read straight from the d-major K page
 * (KvPagePool::PageK) — so each lane computes one position's dot product
 * in the scalar order, dot = dot + q[d] * k[d] for d ascending. Multiply
 * and add stay separate instructions (the file is built with AVX2 but no
 * FMA, and -ffp-contract=off), so every lane rounds exactly as the scalar
 * loop does; a page run's leftover positions go through the same code
 * with one-float lanes. Softmax (max, std::exp, the double sum) stays
 * scalar per row in position order. For P.V the lanes run across head_dim
 * columns, the block's rows share each V-row load, and each row adds its
 * visible positions in ascending order. Lanes are never reduced against
 * each other, so no float sum is reassociated.
 */
#ifndef LLMNPU_MODEL_PAGED_ATTENTION_H
#define LLMNPU_MODEL_PAGED_ATTENTION_H

#include <cstdint>
#include <vector>

#include "src/model/batched_kv_cache.h"
#include "src/tensor/tensor.h"

namespace llmnpu {

/**
 * Causal grouped-query attention for B stacked sequences over paged KV.
 *
 * @param q stacked RoPE'd queries [sum(m_i) x num_heads*head_dim]; rows
 *        [segments[i], segments[i+1]) belong to sequence i.
 * @param segments stacked-row boundaries, size B+1.
 * @param seqs cache slot of each batch member, size B.
 * @param pos_offsets global position of each member's first Q row, size B;
 *        member i attends to its cache positions <= pos_offsets[i] + r.
 * @param cache the paged KV holding every member's appended K/V history
 *        for `layer` (this step's rows included).
 * @return stacked attention output, same shape as `q`.
 */
Tensor PagedCausalAttention(const Tensor& q, const std::vector<int64_t>& segments,
                            const std::vector<int>& seqs,
                            const std::vector<int64_t>& pos_offsets,
                            const BatchedKvCache& cache, int layer,
                            int num_heads, int num_kv_heads);

}  // namespace llmnpu

#endif  // LLMNPU_MODEL_PAGED_ATTENTION_H
