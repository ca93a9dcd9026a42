/**
 * @file
 * Tests for the model layer: configs match the public model cards, synthetic
 * weights carry the injected outlier structure, and — the core §3.2
 * property — chunked prefill is exactly equivalent to one-shot prefill.
 * A golden-hash test pins the bytes of every executor's hidden states and
 * generated tokens, so refactors of the forward path must stay bitwise.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>

#include "src/core/shadow_executor.h"
#include "src/model/config.h"
#include "src/model/transformer.h"
#include "src/model/weights.h"
#include "src/quant/baselines.h"
#include "src/tensor/ops.h"
#include "src/util/format.h"
#include "tests/support/golden.h"
#include "tests/support/tiny_model.h"

namespace llmnpu {
namespace {

TEST(ConfigTest, PaperModelsPresent)
{
    const auto models = PaperModels();
    ASSERT_EQ(models.size(), 5u);
    EXPECT_EQ(models[0].name, "Qwen1.5-1.8B");
    EXPECT_EQ(models[4].name, "Mistral-7B");
}

TEST(ConfigTest, QwenParameterCountNearNominal)
{
    const ModelConfig qwen = Qwen15_1_8B();
    const double billions =
        static_cast<double>(qwen.TotalParams()) / 1e9;
    EXPECT_GT(billions, 1.4);
    EXPECT_LT(billions, 2.1);
}

TEST(ConfigTest, Llama7BParameterCountNearNominal)
{
    const double billions =
        static_cast<double>(Llama2_7B().TotalParams()) / 1e9;
    EXPECT_GT(billions, 6.2);
    EXPECT_LT(billions, 7.2);
}

TEST(ConfigTest, GemmaUsesMqa)
{
    const ModelConfig gemma = Gemma2B();
    EXPECT_EQ(gemma.num_kv_heads, 1);
    EXPECT_EQ(gemma.num_heads * gemma.head_dim, 2048);
}

TEST(ConfigTest, MistralUsesGqa)
{
    const ModelConfig mistral = Mistral7B();
    EXPECT_EQ(mistral.num_heads / mistral.num_kv_heads, 4);
}

TEST(ConfigTest, LayerLinearsShapesChain)
{
    for (const auto& config : PaperModels()) {
        const auto specs = config.LayerLinears();
        // Gated models have 7 linears; non-gated 6.
        EXPECT_EQ(specs.size(), config.gated_ffn ? 7u : 6u) << config.name;
        for (const auto& spec : specs) {
            EXPECT_GT(spec.k, 0) << config.name;
            EXPECT_GT(spec.n, 0) << config.name;
        }
    }
}

TEST(ConfigTest, MaxContextMatchesTable1)
{
    EXPECT_EQ(Qwen15_1_8B().max_context, 32768);  // Table 1: 32K
    EXPECT_EQ(Gemma2B().max_context, 8192);       // Table 1: 8K
    EXPECT_EQ(Phi2_2_7B().max_context, 2048);     // Table 1: 2K
}

TEST(ConfigTest, ModelByNameRoundTrips)
{
    for (const auto& config : PaperModels()) {
        EXPECT_EQ(ModelByName(config.name).hidden_size, config.hidden_size);
    }
}

TEST(ConfigTest, ScaledProxyPreservesStructure)
{
    for (const auto& base : PaperModels()) {
        const ModelConfig proxy = ScaledProxy(base, 256, 4, 512);
        EXPECT_EQ(proxy.num_layers, 4);
        EXPECT_EQ(proxy.hidden_size, 256);
        EXPECT_EQ(proxy.gated_ffn, base.gated_ffn);
        EXPECT_EQ(proxy.norm == NormKind::kRMSNorm,
                  base.norm == NormKind::kRMSNorm);
        EXPECT_EQ(proxy.num_heads / proxy.num_kv_heads,
                  base.num_heads / base.num_kv_heads)
            << base.name;
        // FFN expansion ratio approximately preserved.
        const double base_ratio = static_cast<double>(base.ffn_hidden) /
                                  static_cast<double>(base.hidden_size);
        const double proxy_ratio = static_cast<double>(proxy.ffn_hidden) /
                                   static_cast<double>(proxy.hidden_size);
        EXPECT_NEAR(proxy_ratio, base_ratio, 0.2) << base.name;
    }
}

TEST(WeightsTest, DeterministicGeneration)
{
    const ModelConfig config = TinyTestConfig();
    ModelWeights a = GenerateSyntheticWeights(config);
    ModelWeights b = GenerateSyntheticWeights(config);
    EXPECT_TRUE(a.embedding.BitEquals(b.embedding));
    EXPECT_TRUE(a.layers[0].wq.BitEquals(b.layers[0].wq));
    EXPECT_EQ(a.hot_channels, b.hot_channels);
}

TEST(WeightsTest, DifferentSeedsDiffer)
{
    const ModelConfig config = TinyTestConfig();
    SyntheticWeightsOptions opts;
    opts.seed = 99;
    ModelWeights a = GenerateSyntheticWeights(config);
    ModelWeights b = GenerateSyntheticWeights(config, opts);
    EXPECT_FALSE(a.embedding.BitEquals(b.embedding));
}

TEST(WeightsTest, HotChannelsHaveAmplifiedNormGains)
{
    const ModelConfig config = TinyTestConfig();
    ModelWeights mw = GenerateSyntheticWeights(config);
    ASSERT_FALSE(mw.hot_channels.empty());
    const float* gamma = mw.layers[0].attn_norm_gamma.Data<float>();
    double hot_mean = 0.0, cold_mean = 0.0;
    int cold_count = 0;
    for (int64_t c = 0; c < config.hidden_size; ++c) {
        const bool hot = std::find(mw.hot_channels.begin(),
                                   mw.hot_channels.end(),
                                   static_cast<int>(c)) !=
                         mw.hot_channels.end();
        if (hot) {
            hot_mean += std::abs(gamma[c]) /
                        static_cast<double>(mw.hot_channels.size());
        } else {
            cold_mean += std::abs(gamma[c]);
            ++cold_count;
        }
    }
    cold_mean /= cold_count;
    EXPECT_GT(hot_mean, 4.0 * cold_mean);
}

TEST(WeightsTest, LinearAccessorCoversAllKinds)
{
    const ModelConfig config = TinyTestConfig();
    ModelWeights mw = GenerateSyntheticWeights(config);
    for (const auto& spec : config.LayerLinears()) {
        const Tensor& w = mw.Linear(0, spec.kind);
        EXPECT_EQ(w.Rows(), spec.k) << LinearKindName(spec.kind);
        EXPECT_EQ(w.Cols(), spec.n) << LinearKindName(spec.kind);
    }
}

TEST(KvCacheTest, AppendAndReadBack)
{
    // Chunks go to every layer in turn (Append enforces layer lockstep).
    KvCache cache(2, 8, /*num_sequences=*/1, PagedKvOptions{/*page_size=*/4});
    Tensor k = Tensor::Full({3, 8}, 1.0f);
    Tensor v = Tensor::Full({3, 8}, 2.0f);
    cache.Append(0, 0, k, v);
    EXPECT_EQ(cache.SeqLen(0, 0), 3);
    EXPECT_EQ(cache.SeqLen(0, 1), 0);
    EXPECT_EQ(cache.Keys(0, 0).At(2, 7), 1.0f);
    EXPECT_EQ(cache.Values(0, 0).At(0, 0), 2.0f);
    cache.Append(0, 1, k, v);
    cache.Append(0, 0, k, v);
    cache.Append(0, 1, k, v);
    EXPECT_EQ(cache.SeqLen(0, 0), 6);
    EXPECT_EQ(cache.SeqLen(0, 1), 6);
    // Page-granular: 6 positions at page_size 4 hold two pages, each
    // k + v for both layers, 4 rows of 8 floats.
    EXPECT_EQ(cache.SizeBytes(), 2 * (2 * 2 * 4 * 8 * 4));
}

class TransformerChunkTest : public ::testing::TestWithParam<int>
{};

TEST_P(TransformerChunkTest, ChunkedPrefillEqualsOneShot)
{
    // The enabling insight of §3.2: decoder-only models make chunked
    // prefill exact. Verified end-to-end through all blocks here.
    const int chunk = GetParam();
    const ModelConfig config = TinyTestConfig();
    ModelWeights mw = GenerateSyntheticWeights(config);
    Transformer model(mw);
    Fp32LinearExecutor fp32(mw);

    std::vector<int> tokens;
    for (int i = 0; i < 13; ++i) tokens.push_back((i * 37) % 256);

    KvCache full_cache = model.MakeCache();
    Tensor full = model.Forward(tokens, full_cache, fp32);

    KvCache chunk_cache = model.MakeCache();
    std::vector<Tensor> parts;
    for (size_t start = 0; start < tokens.size();
         start += static_cast<size_t>(chunk)) {
        const size_t len =
            std::min(static_cast<size_t>(chunk), tokens.size() - start);
        std::vector<int> part(tokens.begin() + static_cast<long>(start),
                              tokens.begin() + static_cast<long>(start + len));
        parts.push_back(model.Forward(part, chunk_cache, fp32));
    }

    int64_t row = 0;
    for (const Tensor& part : parts) {
        for (int64_t r = 0; r < part.Rows(); ++r, ++row) {
            EXPECT_LT(MaxAbsDiff(part.CopyRows(r, 1), full.CopyRows(row, 1)),
                      2e-3)
                << "chunk=" << chunk << " row=" << row;
        }
    }
    EXPECT_EQ(chunk_cache.SeqLen(0), full_cache.SeqLen(0));
}

INSTANTIATE_TEST_SUITE_P(ChunkLens, TransformerChunkTest,
                         ::testing::Values(1, 2, 4, 5, 13));

TEST(TransformerTest, GenerateIsDeterministic)
{
    const ModelConfig config = TinyTestConfig();
    ModelWeights mw = GenerateSyntheticWeights(config);
    Transformer model(mw);
    Fp32LinearExecutor fp32(mw);
    const std::vector<int> prompt = {1, 2, 3, 4, 5};
    const auto a = model.Generate(prompt, 4, fp32);
    const auto b = model.Generate(prompt, 4, fp32);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.size(), 4u);
    for (int t : a) {
        EXPECT_GE(t, 0);
        EXPECT_LT(t, config.vocab_size);
    }
}

TEST(TransformerTest, LogitsShape)
{
    const ModelConfig config = TinyTestConfig();
    ModelWeights mw = GenerateSyntheticWeights(config);
    Transformer model(mw);
    Fp32LinearExecutor fp32(mw);
    KvCache cache = model.MakeCache();
    Tensor hidden = model.Forward({1, 2, 3}, cache, fp32);
    Tensor logits = model.Logits(hidden);
    EXPECT_EQ(logits.Rows(), 3);
    EXPECT_EQ(logits.Cols(), config.vocab_size);
}

TEST(TransformerTest, ActivationOutliersAppearAtHotChannels)
{
    // End-to-end check of the synthetic outlier mechanism: post-norm
    // activations (the quantizer inputs) spike at the injected channels.
    const ModelConfig config = TinyTestConfig();
    ModelWeights mw = GenerateSyntheticWeights(config);
    Transformer model(mw);

    std::vector<int> tokens;
    for (int i = 0; i < 24; ++i) tokens.push_back((i * 13 + 5) % 256);
    Tensor x = model.Embed(tokens);
    Tensor normed = RMSNorm(x, mw.layers[0].attn_norm_gamma);

    double hot_absmax = 0.0, cold_absmax = 0.0;
    for (int64_t r = 0; r < normed.Rows(); ++r) {
        for (int64_t c = 0; c < normed.Cols(); ++c) {
            const bool hot = std::find(mw.hot_channels.begin(),
                                       mw.hot_channels.end(),
                                       static_cast<int>(c)) !=
                             mw.hot_channels.end();
            const double a = std::abs(normed.At(r, c));
            if (hot) {
                hot_absmax = std::max(hot_absmax, a);
            } else {
                cold_absmax = std::max(cold_absmax, a);
            }
        }
    }
    EXPECT_GT(hot_absmax, 3.0 * cold_absmax);
}

/** 64-bit FNV-1a over raw bytes, chained through `h`. */
uint64_t
Fnv1a(const void* data, size_t bytes, uint64_t h)
{
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < bytes; ++i) {
        h = (h ^ p[i]) * 0x100000001b3ull;
    }
    return h;
}

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;

uint64_t
HashTensor(const Tensor& t, uint64_t h)
{
    return Fnv1a(t.Data<float>(),
                 static_cast<size_t>(t.NumElements()) * sizeof(float), h);
}

/**
 * Golden record for this build flavor. The kernel TU built with -mfma
 * (LLMNPU_KERNELS_FMA) contracts scalar multiply-adds into fused ones only
 * when optimizing, so the fp32 and float-scaled paths round differently in
 * the last bits at -O0 or without FMA; each flavor keeps its own record,
 * both taken from the same code.
 */
#if defined(__OPTIMIZE__) && defined(LLMNPU_KERNELS_FMA)
constexpr const char* kForwardGolden = "forward_hashes.txt";
#else
constexpr const char* kForwardGolden = "forward_hashes_O0.txt";
#endif

class ForwardGoldenTest : public TinyModelTest
{};

TEST_F(ForwardGoldenTest, HiddenStatesAndTokensMatchRecordedHashes)
{
    // Every evaluation context runs a two-chunk prefill and four greedy
    // decode steps through Forward, then Generate from scratch. The hashes
    // cover every hidden-state byte and every generated token, so any
    // change to the forward path's arithmetic (kernel, cache, accumulation
    // order) shows up as a golden diff. Executors span the stacked
    // ForwardBatch overrides (fp32, SmoothQuant, llm.npu) and the base
    // per-segment path (PerTensor, K-Quant).
    constexpr int kDecodeSteps = 4;
    const Transformer& model = tiny_.model;
    Fp32LinearExecutor fp32(tiny_.weights);
    PerTensorExecutor pertensor(tiny_.weights);
    KQuantExecutor kquant(tiny_.weights);
    SmoothQuantExecutor smoothquant(tiny_.weights, tiny_.calib);
    NpuShadowExecutor npu(tiny_.weights, tiny_.profile, 0.85);
    const std::pair<const char*, LinearExecutor*> execs[] = {
        {"fp32", &fp32},
        {"pertensor", &pertensor},
        {"kquant", &kquant},
        {"smoothquant", &smoothquant},
        {"llmnpu", &npu}};

    std::string summary = StrFormat(
        "FNV-1a of Forward hidden states (two-chunk prefill + %d decode "
        "steps) and Generate tokens, tiny model, %d eval contexts\n",
        kDecodeSteps, static_cast<int>(tiny_.eval_corpus.size()));
    for (const auto& [name, ex] : execs) {
        uint64_t forward = kFnvOffset, generate = kFnvOffset;
        for (const std::vector<int>& ctx : tiny_.eval_corpus) {
            const auto mid = ctx.begin() + static_cast<long>(ctx.size() / 2);
            KvCache cache = model.MakeCache();
            Tensor hidden = model.Forward({ctx.begin(), mid}, cache, *ex);
            forward = HashTensor(hidden, forward);
            hidden = model.Forward({mid, ctx.end()}, cache, *ex);
            forward = HashTensor(hidden, forward);
            for (int step = 0; step < kDecodeSteps; ++step) {
                const int token = model.ArgmaxLastRow(model.Logits(
                    hidden.CopyRows(hidden.Rows() - 1, 1)));
                hidden = model.Forward({token}, cache, *ex);
                forward = HashTensor(hidden, forward);
            }
            const std::vector<int> tokens =
                model.Generate(ctx, kDecodeSteps, *ex);
            generate = Fnv1a(tokens.data(), tokens.size() * sizeof(int),
                             generate);
        }
        summary += StrFormat("%-12s forward=%016llx generate=%016llx\n", name,
                             static_cast<unsigned long long>(forward),
                             static_cast<unsigned long long>(generate));
    }
    EXPECT_TRUE(MatchesGolden(kForwardGolden, summary));
}

}  // namespace
}  // namespace llmnpu
