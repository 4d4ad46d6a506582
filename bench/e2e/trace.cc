#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <memory>
#include <mutex>
#include <utility>

namespace metaleak::e2e {
namespace {

struct ThreadBuffer {
  uint32_t thread = 0;
  std::vector<SpanRecord> spans;
};

// Buffers are owned here, not by their threads, so spans survive the pool
// workers that recorded them.
std::mutex g_buffers_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;
std::atomic<uint64_t> g_next_id{1};

thread_local ThreadBuffer* t_buffer = nullptr;
thread_local TraceContext t_context;

ThreadBuffer& LocalBuffer() {
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    g_buffers.back()->thread = static_cast<uint32_t>(g_buffers.size() - 1);
    t_buffer = g_buffers.back().get();
  }
  return *t_buffer;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

TraceContext CurrentContext() { return t_context; }

AdoptContext::AdoptContext(TraceContext context) : saved_(t_context) {
  t_context = context;
}

AdoptContext::~AdoptContext() { t_context = saved_; }

Span::Span(std::string name, uint64_t rows) : saved_(t_context) {
  record_.name = std::move(name);
  record_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  record_.parent = saved_.parent;
  record_.request = saved_.request;
  record_.rows = rows;
  t_context.parent = record_.id;
  record_.start_ns = NowNs();
}

Span::~Span() {
  record_.end_ns = NowNs();
  t_context = saved_;
  ThreadBuffer& buffer = LocalBuffer();
  record_.thread = buffer.thread;
  buffer.spans.push_back(std::move(record_));
}

std::vector<SpanRecord> CollectSpans() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  std::vector<SpanRecord> out;
  for (const auto& buffer : g_buffers) {
    out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return out;
}

void ClearSpans() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& buffer : g_buffers) buffer->spans.clear();
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<SpanRecord>& spans) {
  std::ofstream out(path);
  if (!out) return false;
  int64_t origin = 0;
  if (!spans.empty()) {
    origin = std::min_element(spans.begin(), spans.end(),
                              [](const SpanRecord& a, const SpanRecord& b) {
                                return a.start_ns < b.start_ns;
                              })
                 ->start_ns;
  }
  out << std::fixed << std::setprecision(3)
      << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const std::string module = s.name.substr(0, s.name.find('.'));
    out << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << JsonEscape(s.name)
        << "\", \"cat\": \"" << JsonEscape(module)
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.thread
        << ", \"ts\": " << static_cast<double>(s.start_ns - origin) / 1e3
        << ", \"dur\": " << static_cast<double>(s.duration_ns()) / 1e3
        << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << ", \"rows\": " << s.rows
        << "}}";
  }
  out << "\n]}\n";
  out.close();
  return static_cast<bool>(out);
}

}  // namespace metaleak::e2e
