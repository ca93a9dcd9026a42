/**
 * @file
 * Benchmark-owned span recorder: wall-clock spans (name, start, end, parent
 * span, request id) recorded around every call the benchmark makes into the
 * program, kept in memory and written out once at exit.
 *
 * The recorder lives entirely in the benchmark; it does not use or enable
 * the program's own tracer (src/obs), so the traced and untraced runs
 * execute identical program code. Single-threaded by design: every span is
 * opened and closed on the benchmark's main thread (the LinearExecutor
 * decorator runs on the thread that calls Transformer::Forward).
 */
#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic nanoseconds (steady_clock). */
int64_t NowNs();

/** One closed (or still open, end_ns < 0) span. */
struct Span {
    const char* name = "";  ///< string literal; outlives the recorder
    int64_t start_ns = 0;
    int64_t end_ns = -1;
    int parent = -1;   ///< index of the enclosing span, -1 for a root
    int request = -1;  ///< request id shared by a request's spans
};

/** In-memory span store with an implicit stack of open spans. */
class SpanRecorder
{
  public:
    /** Opens a span as a child of the innermost open span. @return id. */
    int Begin(const char* name, int request);
    /** Closes span `id`, which must be the innermost open span. */
    void End(int id);

    const std::vector<Span>& spans() const { return spans_; }

    /** Writes the spans as Chrome trace-event JSON (complete events, one
     *  per span; parent and request ids in args). @return false on I/O
     *  error. */
    bool WriteChromeTrace(const std::string& path) const;

  private:
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span; a null recorder makes it a no-op (the untraced path). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder* recorder, const char* name, int request)
        : recorder_(recorder),
          id_(recorder ? recorder->Begin(name, request) : -1)
    {}
    ~ScopedSpan()
    {
        if (recorder_ != nullptr) recorder_->End(id_);
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    SpanRecorder* recorder_;
    int id_;
};

/**
 * Exclusive (self) time of every span: its duration minus its children's
 * durations. The recorder nests spans strictly, so children never overlap
 * and never outlast their parent. Open spans count 0.
 */
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/** Self time summed per span name. */
std::map<std::string, int64_t> SelfTimeByName(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H
