#include "span_sink.h"

#include <cstdio>
#include <cstring>

#include "trace/event.h"

namespace nesgx::perfbench {

namespace {

using trace::EventKind;

/** Span name of a non-leaf begin/end kind; nullptr for other kinds. */
const char*
layerSpanName(EventKind kind)
{
    switch (kind) {
      case EventKind::OsEvictBegin:
      case EventKind::OsEvictEnd: return "os.evict";
      case EventKind::OsReloadBegin:
      case EventKind::OsReloadEnd: return "os.reload";
      case EventKind::SdkEcallBegin:
      case EventKind::SdkEcallEnd: return "sdk.ecall";
      case EventKind::SdkNEcallBegin:
      case EventKind::SdkNEcallEnd: return "sdk.necall";
      case EventKind::ServeBatchBegin:
      case EventKind::ServeBatchEnd: return "serve.batch";
      default: return nullptr;
    }
}

const char*
phaseName(Phase phase)
{
    switch (phase) {
      case Phase::Setup: return "setup";
      case Phase::Warmup: return "warmup";
      case Phase::Window: return "window";
      case Phase::Tail: return "tail";
    }
    return "?";
}

bool
isBegin(EventKind kind)
{
    switch (kind) {
      case EventKind::LeafEnter:
      case EventKind::OsEvictBegin:
      case EventKind::OsReloadBegin:
      case EventKind::SdkEcallBegin:
      case EventKind::SdkNEcallBegin:
      case EventKind::ServeBatchBegin: return true;
      default: return false;
    }
}

}  // namespace

SpanSink::SpanSink(const hw::SimClock& clock)
    : clock_(&clock), epoch_(std::chrono::steady_clock::now())
{
}

std::int64_t
SpanSink::hostNow() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

void
SpanSink::onEvent(const trace::TraceEvent& event)
{
    const bool leaf = event.kind == EventKind::LeafEnter ||
                      event.kind == EventKind::LeafExit;
    const char* name = leaf ? trace::leafName(event.leaf)
                            : layerSpanName(event.kind);
    if (name == nullptr) return;
    if (!isBegin(event.kind)) {
        close(name, event.time);
        return;
    }
    std::uint32_t tenant = 0;
    std::uint32_t batchSeq = 0;
    if (event.kind == EventKind::ServeBatchBegin) {
        tenant = std::uint32_t(event.arg0);
        batchSeq = ++batchesBegun_[tenant];
    } else if (!stack_.empty()) {
        const Span& parent = spans_[stack_.back()];
        tenant = parent.tenant;
        batchSeq = parent.batchSeq;
    }
    open(name, leaf, event.time, tenant, batchSeq);
}

void
SpanSink::begin(const char* name)
{
    open(name, false, clock_->cycles(), 0, 0);
}

void
SpanSink::end(const char* name)
{
    close(name, clock_->cycles());
}

void
SpanSink::open(const char* name, bool leaf, std::uint64_t sim,
               std::uint32_t tenant, std::uint32_t batchSeq)
{
    Span span;
    span.name = name;
    span.leaf = leaf;
    span.phase = phase_;
    span.parent = stack_.empty() ? 0 : stack_.back() + 1;
    span.tenant = tenant;
    span.batchSeq = batchSeq;
    span.simBegin = sim;
    stack_.push_back(std::uint32_t(spans_.size()));
    spans_.push_back(span);
    // Stamped last, so the bookkeeping above is not billed to the span.
    spans_.back().hostBegin = hostNow();
}

void
SpanSink::close(const char* name, std::uint64_t sim)
{
    const std::int64_t now = hostNow();
    // Find the innermost open span of this name; anything opened above
    // it never saw its end event.
    std::size_t depth = stack_.size();
    while (depth > 0 && std::strcmp(spans_[stack_[depth - 1]].name, name)) {
        --depth;
    }
    if (depth == 0) {
        ++unbalanced_;
        return;
    }
    if (depth != stack_.size()) ++unbalanced_;
    while (stack_.size() >= depth) {
        Span& span = spans_[stack_.back()];
        stack_.pop_back();
        span.hostEnd = now;
        span.simEnd = sim;
        if (span.parent == 0) continue;
        Span& parent = spans_[span.parent - 1];
        parent.childHost += span.hostNs();
        parent.leafHost += span.leaf ? span.hostNs() : span.leafHost;
    }
}

SpanTotals
SpanSink::totals(std::string_view name, unsigned phases) const
{
    SpanTotals t;
    for (const Span& span : spans_) {
        if (!(unsigned(span.phase) & phases) || span.hostEnd == 0 ||
            name != span.name) {
            continue;
        }
        ++t.count;
        t.hostNs += span.hostNs();
        t.selfHostNs += span.selfHostNs();
        t.leafHostNs += span.leaf ? span.hostNs() : span.leafHost;
        t.simCycles += span.simCycles();
    }
    return t;
}

bool
SpanSink::writeCsv(const std::string& path) const
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "id,name,parent,phase,tenant,batch_seq,host_begin_ns,"
                    "host_end_ns,self_host_ns,sim_begin,sim_end\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::fprintf(f, "%zu,%s,%u,%s,%u,%u,%lld,%lld,%lld,%llu,%llu\n",
                     i + 1, s.name, s.parent,
                     phaseName(s.phase), s.tenant,
                     s.batchSeq, (long long)s.hostBegin, (long long)s.hostEnd,
                     (long long)s.selfHostNs(),
                     (unsigned long long)s.simBegin,
                     (unsigned long long)s.simEnd);
    }
    return std::fclose(f) == 0;
}

}  // namespace nesgx::perfbench
