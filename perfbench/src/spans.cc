#include "perfbench/src/spans.h"

#include <chrono>
#include <cstdio>

#include "src/util/check.h"

namespace perfbench {

int64_t
NowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

int
SpanRecorder::Begin(const char* name, int request)
{
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.request = request;
    span.start_ns = NowNs();
    spans_.push_back(span);
    const int id = static_cast<int>(spans_.size()) - 1;
    open_.push_back(id);
    return id;
}

void
SpanRecorder::End(int id)
{
    const int64_t now = NowNs();
    LLMNPU_CHECK(!open_.empty());
    LLMNPU_CHECK_EQ(open_.back(), id);
    open_.pop_back();
    spans_[static_cast<size_t>(id)].end_ns = now;
}

bool
SpanRecorder::WriteChromeTrace(const std::string& path) const
{
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        const int64_t end = s.end_ns < 0 ? s.start_ns : s.end_ns;
        std::fprintf(f,
                     "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                     "{\"id\": %zu, \"parent\": %d, \"request\": %d}}",
                     i == 0 ? "" : ",\n", s.name,
                     static_cast<double>(s.start_ns - t0) / 1e3,
                     static_cast<double>(end - s.start_ns) / 1e3, i,
                     s.parent, s.request);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

std::vector<int64_t>
SelfTimesNs(const std::vector<Span>& spans)
{
    auto closed = [&](size_t i) {
        return spans[i].end_ns >= spans[i].start_ns;
    };
    std::vector<int64_t> self(spans.size(), 0);
    for (size_t i = 0; i < spans.size(); ++i) {
        if (!closed(i)) continue;
        const int64_t dur = spans[i].end_ns - spans[i].start_ns;
        self[i] += dur;
        const int p = spans[i].parent;
        if (p >= 0 && closed(static_cast<size_t>(p))) {
            self[static_cast<size_t>(p)] -= dur;
        }
    }
    return self;
}

std::map<std::string, int64_t>
SelfTimeByName(const std::vector<Span>& spans)
{
    const std::vector<int64_t> self = SelfTimesNs(spans);
    std::map<std::string, int64_t> by_name;
    for (size_t i = 0; i < spans.size(); ++i) by_name[spans[i].name] += self[i];
    return by_name;
}

}  // namespace perfbench
