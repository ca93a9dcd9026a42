// Self-tests of the benchmark: seeded inputs, the tail rule, self-time
// attribution and the LinearExecutor decorator.
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "perfbench/src/inputs.h"
#include "perfbench/src/spans.h"
#include "perfbench/src/stats.h"
#include "perfbench/src/timed_executor.h"
#include "perfbench/src/workloads.h"
#include "src/core/outlier_profile.h"
#include "src/core/shadow_executor.h"
#include "src/model/decode_backend.h"
#include "src/quant/calibration.h"
#include "src/workloads/corpus.h"

namespace perfbench {
namespace {

using namespace llmnpu;

TEST(Inputs, SameSeedGivesByteIdenticalInputs)
{
    for (const std::string& w : WorkloadNames()) {
        EXPECT_EQ(SerializeInputs(w, 7), SerializeInputs(w, 7)) << w;
    }
}

TEST(Inputs, DifferentSeedGivesDifferentInputs)
{
    for (const std::string& w : WorkloadNames()) {
        EXPECT_NE(SerializeInputs(w, 7), SerializeInputs(w, 8)) << w;
    }
}

TEST(Tail, ElevenLargestLeavesTenBeyond)
{
    std::vector<double> xs;
    for (int i = 100; i >= 1; --i) xs.push_back(i);  // unsorted input
    const Tail t = TailOf(xs);
    ASSERT_TRUE(t.Valid());
    EXPECT_EQ(t.count, 100u);
    EXPECT_DOUBLE_EQ(t.value, 90.0);  // 91..100 lie beyond it
    EXPECT_DOUBLE_EQ(t.percentile, 90.0);
}

TEST(Tail, SmallestSupportedSample)
{
    std::vector<double> xs;
    for (int i = 0; i < 11; ++i) xs.push_back(i);
    const Tail t = TailOf(xs);
    ASSERT_TRUE(t.Valid());
    EXPECT_DOUBLE_EQ(t.value, 0.0);
    EXPECT_NEAR(t.percentile, 100.0 / 11.0, 1e-12);

    xs.pop_back();  // ten samples: no percentile has ten beyond it
    EXPECT_FALSE(TailOf(xs).Valid());
}

TEST(Tail, BlockedTailIsMedianOfBlockTails)
{
    // Three blocks of 110: block b holds (b+1)*1000 + 0..109, shuffled
    // within the block.
    std::vector<double> xs;
    for (int b = 0; b < 3; ++b) {
        for (int i = 0; i < 110; ++i) {
            xs.push_back((b + 1) * 1000 + (i * 37) % 110);
        }
    }
    const Tail t = BlockedTailOf(xs);
    EXPECT_EQ(t.blocks, 3u);
    EXPECT_EQ(t.count, 330u);
    EXPECT_DOUBLE_EQ(t.value, 2099.0);  // block tails 1099, 2099, 3099
    EXPECT_DOUBLE_EQ(t.percentile, 100.0 * 100.0 / 110.0);

    // Fewer than two blocks' worth: the pooled rule.
    xs.resize(219);
    const Tail pooled = BlockedTailOf(xs);
    EXPECT_EQ(pooled.blocks, 1u);
    EXPECT_DOUBLE_EQ(pooled.value, TailOf(xs).value);
}

TEST(Tail, MedianOfEvenAndOdd)
{
    EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
    EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
    EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

Span
MakeSpan(const char* name, int64_t start, int64_t end, int parent)
{
    Span s;
    s.name = name;
    s.start_ns = start;
    s.end_ns = end;
    s.parent = parent;
    return s;
}

TEST(SelfTime, HandBuiltTree)
{
    // forward [0,100) with linears [10,30) and [50,60), the first holding a
    // kernel [15,20); a second forward [100,140) with linears [105,125) and
    // [125,135); a third forward still open, holding one closed linear.
    const std::vector<Span> spans = {
        MakeSpan("forward", 0, 100, -1),   // 0
        MakeSpan("linear", 10, 30, 0),     // 1
        MakeSpan("kernel", 15, 20, 1),     // 2
        MakeSpan("linear", 50, 60, 0),     // 3
        MakeSpan("forward", 100, 140, -1), // 4
        MakeSpan("linear", 105, 125, 4),   // 5
        MakeSpan("linear", 125, 135, 4),   // 6
        MakeSpan("forward", 150, -1, -1),  // 7
        MakeSpan("linear", 155, 160, 7),   // 8
    };
    const std::vector<int64_t> self = SelfTimesNs(spans);
    EXPECT_EQ(self[0], 70);
    EXPECT_EQ(self[1], 15);
    EXPECT_EQ(self[2], 5);
    EXPECT_EQ(self[3], 10);
    EXPECT_EQ(self[4], 10);
    EXPECT_EQ(self[7], 0);
    EXPECT_EQ(self[8], 5);

    const auto by_name = SelfTimeByName(spans);
    EXPECT_EQ(by_name.at("forward"), 80);
    EXPECT_EQ(by_name.at("linear"), 15 + 10 + 20 + 10 + 5);
    EXPECT_EQ(by_name.at("kernel"), 5);
}

TEST(SelfTime, RecorderNestsSpans)
{
    SpanRecorder rec;
    {
        ScopedSpan outer(&rec, "outer", 3);
        ScopedSpan inner(&rec, "inner", 3);
    }
    ScopedSpan ignored(nullptr, "untraced", 0);
    ASSERT_EQ(rec.spans().size(), 2u);
    EXPECT_EQ(rec.spans()[0].parent, -1);
    EXPECT_EQ(rec.spans()[1].parent, 0);
    EXPECT_EQ(rec.spans()[1].request, 3);
    EXPECT_LE(rec.spans()[1].end_ns, rec.spans()[0].end_ns);
}

bool
BitwiseEqual(const Tensor& a, const Tensor& b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.Data<float>(), b.Data<float>(),
                       static_cast<size_t>(a.NumElements()) * sizeof(float)) ==
               0;
}

class DecoratorTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        weights_ = GenerateSyntheticWeights(TinyTestConfig());
        model_ = std::make_unique<Transformer>(weights_);
        CorpusOptions corpus;
        corpus.vocab_size = weights_.config.vocab_size;
        corpus.num_sequences = 4;
        const auto tokens = MakeCorpus(corpus);
        calib_ = CalibrationData::Collect(*model_, tokens);
        profile_ = OutlierProfile::Collect(*model_, calib_, tokens);
    }

    Tensor
    Activations(int64_t rows, int64_t cols) const
    {
        Tensor x({rows, cols}, DType::kF32);
        for (int64_t i = 0; i < x.NumElements(); ++i) {
            // Spread wide enough to cross the shadow clip now and then.
            x.Data<float>()[i] = static_cast<float>((i * 37 % 101) - 50) / 5.0f;
        }
        return x;
    }

    ModelWeights weights_;
    std::unique_ptr<Transformer> model_;
    CalibrationData calib_;
    OutlierProfile profile_;
};

TEST_F(DecoratorTest, OutputsBitwiseEqualWrappedExecutor)
{
    NpuShadowExecutor raw_npu(weights_, profile_, 0.85);
    NpuShadowExecutor inner_npu(weights_, profile_, 0.85);
    Fp32LinearExecutor raw_cpu(weights_), inner_cpu(weights_);
    StepClock clock;
    TimedExecutor npu(inner_npu, "linear.npu", 1, &clock);
    TimedExecutor cpu(inner_cpu, "linear.cpu", 4, &clock);
    const int64_t hidden = weights_.config.hidden_size;
    const Tensor x = Activations(5, hidden);
    const BatchSegments segs = {0, 2, 3, 5};
    for (LinearKind kind : {LinearKind::kWq, LinearKind::kWo}) {
        EXPECT_TRUE(BitwiseEqual(npu.Forward(0, kind, x),
                                 raw_npu.Forward(0, kind, x)));
        EXPECT_TRUE(BitwiseEqual(cpu.Forward(0, kind, x),
                                 raw_cpu.Forward(0, kind, x)));
        EXPECT_TRUE(BitwiseEqual(npu.ForwardBatch(0, kind, x, segs),
                                 raw_npu.ForwardBatch(0, kind, x, segs)));
        EXPECT_TRUE(BitwiseEqual(cpu.ForwardBatch(0, kind, x, segs),
                                 raw_cpu.ForwardBatch(0, kind, x, segs)));
    }
    EXPECT_EQ(npu.Name(), raw_npu.Name());
    EXPECT_EQ(npu.counters().calls, 4);
    EXPECT_GT(npu.counters().flops, 0.0);

    // Whole forwards through DecodeBackend, decorated vs not.
    DecodeBackend timed(cpu, npu), plain(raw_cpu, raw_npu);
    const std::vector<int> prompt = {1, 5, 9, 2, 7, 3};
    for (DecodePlacement p :
         {DecodePlacement::kNpuQuant, DecodePlacement::kCpuFloat}) {
        timed.SetUniformPlacement(p);
        plain.SetUniformPlacement(p);
        KvCache a = model_->MakeCache(), b = model_->MakeCache();
        EXPECT_TRUE(BitwiseEqual(model_->Forward(prompt, a, timed),
                                 model_->Forward(prompt, b, plain)));
    }
}

TEST_F(DecoratorTest, StepClockCountsOneStepPerForward)
{
    NpuShadowExecutor inner_npu(weights_, profile_, 0.85);
    Fp32LinearExecutor inner_cpu(weights_);
    StepClock clock;
    TimedExecutor npu(inner_npu, "linear.npu", 1, &clock);
    TimedExecutor cpu(inner_cpu, "linear.cpu", 4, &clock);
    DecodeBackend backend(cpu, npu);
    BatchedKvCache cache = model_->MakeBatchedCache(3);

    // Prefill three sequences in one step, then one mixed-placement decode
    // step: the backend splits it into per-placement runs, each calling
    // q_proj, and the clock must still see a single step.
    backend.SetStepPlacements(std::vector<DecodePlacement>(
        3, DecodePlacement::kNpuQuant));
    (void)model_->ForwardBatch({{0, {1, 2, 3}}, {1, {4, 5}}, {2, {6, 7, 8}}},
                               cache, backend);
    backend.SetStepPlacements({DecodePlacement::kNpuQuant,
                               DecodePlacement::kCpuFloat,
                               DecodePlacement::kNpuQuant});
    (void)model_->ForwardBatch({{0, {9}}, {1, {10}}, {2, {11}}}, cache,
                               backend);
    clock.Close(NowNs());

    ASSERT_EQ(clock.steps().size(), 2u);
    EXPECT_FALSE(clock.steps()[0].IsDecode());
    EXPECT_EQ(clock.steps()[0].rows, 8);
    EXPECT_EQ(clock.steps()[0].segments, 3);
    EXPECT_TRUE(clock.steps()[1].IsDecode());
    EXPECT_EQ(clock.steps()[1].rows, 3);
    for (const StepClock::Step& st : clock.steps()) {
        EXPECT_GE(st.end_ns, st.start_ns);
        EXPECT_LE(st.linear_ns, st.end_ns - st.start_ns);
        EXPECT_GT(st.linear_ns, 0);
    }
}

}  // namespace
}  // namespace perfbench
