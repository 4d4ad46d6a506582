// In-memory span recording for the end-to-end benchmark's traced pass.
//
// The benchmark wraps each call it makes into a library layer in a Span.
// A span records its name ("<module>.<layer>[.<detail>]"), start, end,
// thread, id, the enclosing span and the request it belongs to. Finished
// spans go into a buffer owned by the recording thread, so recording takes
// no lock; CollectSpans() gathers every thread's buffer once the work is
// done, and WriteChromeTrace() writes them out at exit.
#ifndef METALEAK_BENCH_E2E_TRACE_H_
#define METALEAK_BENCH_E2E_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace metaleak::e2e {

/// One finished span. Times are steady-clock nanoseconds.
struct SpanRecord {
  std::string name;
  uint64_t id = 0;
  /// Id of the span that caused this one; 0 for a root.
  uint64_t parent = 0;
  /// Request the span belongs to; 0 is the workload's set-up.
  uint64_t request = 0;
  uint32_t thread = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Rows the layer touched, when the call site knows them.
  uint64_t rows = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Where spans started on the current thread attach.
struct TraceContext {
  uint64_t parent = 0;
  uint64_t request = 0;
};

/// The calling thread's current context.
TraceContext CurrentContext();

/// Makes `context` current on this thread for the guard's lifetime. The
/// main thread adopts {0, request} to open a request; a pool worker adopts
/// the context captured before a ParallelFor so its spans attach to the
/// span that fanned the work out.
class AdoptContext {
 public:
  explicit AdoptContext(TraceContext context);
  ~AdoptContext();
  AdoptContext(const AdoptContext&) = delete;
  AdoptContext& operator=(const AdoptContext&) = delete;

 private:
  TraceContext saved_;
};

/// Records one span from construction to destruction.
class Span {
 public:
  explicit Span(std::string name, uint64_t rows = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecord record_;
  TraceContext saved_;
};

/// Every finished span of every thread. Call only while no thread is
/// recording.
std::vector<SpanRecord> CollectSpans();

/// Drops every recorded span. Call only while no thread is recording.
void ClearSpans();

/// Writes `spans` as Chrome trace-event JSON (complete "X" events,
/// microsecond timestamps relative to the earliest span). Returns false
/// when the file cannot be written.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<SpanRecord>& spans);

}  // namespace metaleak::e2e

#endif  // METALEAK_BENCH_E2E_TRACE_H_
