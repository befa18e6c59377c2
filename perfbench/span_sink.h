/**
 * SpanSink: the benchmark's own trace subscriber.
 *
 * It stamps std::chrono::steady_clock on every begin/end event pair the
 * model publishes at a layer boundary — LeafEnter/LeafExit,
 * Os{Evict,Reload}{Begin,End}, Sdk{Ecall,NEcall}{Begin,End} and
 * ServeBatch{Begin,End} — plus the driver's own spans around public
 * calls (addTenant, pump), and pairs them into a span tree. Each span
 * records its name, host and sim-clock start/end, and its parent; spans
 * opened inside one ServeBatch share that batch's (tenant, batch-seq)
 * id. Spans stay in memory and are written out once, at exit.
 *
 * Self time is a span's duration minus the time its direct children
 * cover. `leafHostNs` is the host time covered by leaf spans anywhere
 * below a span (leaves never nest, so that is a plain sum).
 *
 * The sink only reads the clock and never calls back into the machine,
 * so a subscribed run must advance the simulated clock exactly as an
 * unsubscribed one does — the benchmark checks that.
 *
 * Serial dispatch only: under the bus's parallel mode events arrive
 * replayed after the fact, so their host stamps would be meaningless.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "hw/sim_clock.h"
#include "trace/sink.h"

namespace nesgx::perfbench {

/** Which part of a run a span was opened in; one bit each, so totals()
 *  can sum over several. */
enum class Phase : std::uint8_t { Setup = 1, Warmup = 2, Window = 4, Tail = 8 };

struct Span {
    const char* name = "";  ///< static string: leaf name or layer name
    bool leaf = false;
    Phase phase = Phase::Setup;
    std::uint32_t parent = 0;    ///< index + 1 of the enclosing span; 0 = root
    std::uint32_t tenant = 0;    ///< batch id, part 1: the batch's tenant
    std::uint32_t batchSeq = 0;  ///< batch id, part 2 (0 = outside a batch)
    std::int64_t hostBegin = 0;  ///< ns since the sink was created
    std::int64_t hostEnd = 0;
    std::uint64_t simBegin = 0;  ///< simulated cycles
    std::uint64_t simEnd = 0;
    std::int64_t childHost = 0;  ///< host ns covered by direct children
    std::int64_t leafHost = 0;   ///< host ns covered by leaf descendants

    std::int64_t hostNs() const { return hostEnd - hostBegin; }
    std::int64_t selfHostNs() const { return hostNs() - childHost; }
    std::uint64_t simCycles() const { return simEnd - simBegin; }
};

/** Sums over every closed span of one name opened in the given phases. */
struct SpanTotals {
    std::uint64_t count = 0;
    std::int64_t hostNs = 0;
    std::int64_t selfHostNs = 0;
    std::int64_t leafHostNs = 0;
    std::uint64_t simCycles = 0;
};

class SpanSink : public trace::TraceSink {
  public:
    explicit SpanSink(const hw::SimClock& clock);

    SpanSink(const SpanSink&) = delete;
    SpanSink& operator=(const SpanSink&) = delete;

    void onEvent(const trace::TraceEvent& event) override;

    /** Driver-side span around a public call (`name` must be static). */
    void begin(const char* name);
    void end(const char* name);

    void setPhase(Phase phase) { phase_ = phase; }

    const std::vector<Span>& spans() const { return spans_; }
    /** `phases` is a bitwise OR of Phase values. */
    SpanTotals totals(std::string_view name, unsigned phases) const;

    /** End events that did not close the innermost open span. Nonzero
     *  means the model's begin/end brackets are broken. */
    std::uint64_t unbalanced() const { return unbalanced_; }
    std::size_t openSpans() const { return stack_.size(); }

    /** Writes every span as one CSV row; false on I/O failure. */
    bool writeCsv(const std::string& path) const;

  private:
    std::int64_t hostNow() const;
    void open(const char* name, bool leaf, std::uint64_t sim,
              std::uint32_t tenant, std::uint32_t batchSeq);
    void close(const char* name, std::uint64_t sim);

    const hw::SimClock* clock_;
    std::chrono::steady_clock::time_point epoch_;
    Phase phase_ = Phase::Setup;
    std::vector<Span> spans_;
    std::vector<std::uint32_t> stack_;  ///< indexes of open spans
    std::unordered_map<std::uint32_t, std::uint32_t> batchesBegun_;
    std::uint64_t unbalanced_ = 0;
};

}  // namespace nesgx::perfbench
