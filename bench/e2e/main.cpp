// metaleak_e2e: the end-to-end benchmark of record.
//
// One process runs one workload. It builds the workload's input from
// --seed with the src/data/datasets generators (the library receives only
// the generated relations), sets the system up several times, timing each,
// then drives one client in a closed loop for --seconds -- the next request
// is issued when the previous one has returned -- and checks every output.
// The last line of stdout is one JSON object with the keys "correct",
// "attempted", "failed" and "metrics".
//
//   --trace 0  End-to-end metrics: request_p50_ms, setup_s, peak_rss_mb.
//   --trace 1  Per-layer metrics. Each request runs twice: once through
//              the library's entry point and once re-composed from the
//              public calls it makes, with a span around every call into
//              a layer (compose.h). The two results must be bit-identical.
//              A layer metric is its value over one set-up plus the median
//              request; the spans are written out as a Chrome trace.
//
// A failed Status or a failed output check counts as a failed operation,
// makes "correct" false and the exit code 1.
//
// usage: metaleak_e2e --workload NAME [--seed N] [--seconds S]
//                     [--trace 0|1] [--threads T] [--smoke] [--out-dir DIR]
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "compose.h"
#include "data/datasets/synthetic.h"
#include "stats.h"
#include "trace.h"

namespace metaleak::e2e {
namespace {

using Clock = std::chrono::steady_clock;

// Set-up repeats: at least kMinSetups, then more while the set-ups so far
// took under kSetupBudgetS, so cheap set-ups get a steadier median without
// costly ones getting longer runs.
constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 15;
constexpr double kSetupBudgetS = 2.0;
constexpr size_t kMaxRequests = 1000000;
constexpr size_t kSmokeDivisor = 50;
constexpr const char* kModules[] = {"data",       "partition", "discovery",
                                    "generation", "privacy",   "service"};

// The metrics of the final JSON line, as BENCHMARK.json lists them.
constexpr std::pair<const char*, const char*> kEndToEnd[] = {
    {"request_p50_ms", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};
constexpr std::pair<const char*, const char*> kPerLayer[] = {
    {"data.encode_ms", "ms"},
    {"data.encode_rows_per_s", "rows/s"},
    {"data.self_s", "s"},
    {"partition.pli_build_ms", "ms"},
    {"partition.pli_hits", "count"},
    {"partition.pli_misses", "count"},
    {"partition.pli_hit_rate", "ratio"},
    {"partition.self_s", "s"},
    {"discovery.profile_ms", "ms"},
    {"discovery.nodes_visited", "count"},
    {"discovery.validations", "count"},
    {"discovery.pruned", "count"},
    {"discovery.verdicts_reused", "count"},
    {"discovery.dependencies", "count"},
    {"discovery.useful_ratio", "ratio"},
    {"discovery.self_s", "s"},
    {"generation.plan_ms", "ms"},
    {"generation.generate_ms", "ms"},
    {"generation.generate_ms.random", "ms"},
    {"generation.self_s", "s"},
    {"privacy.estimator_bind_ms", "ms"},
    {"privacy.estimator_bind_ms.match_rate", "ms"},
    {"privacy.estimator_eval_ms", "ms"},
    {"privacy.estimator_eval_ms.match_rate", "ms"},
    {"privacy.rounds_ms", "ms"},
    {"privacy.self_s", "s"},
    {"data.failed", "count"},
    {"partition.failed", "count"},
    {"discovery.failed", "count"},
    {"generation.failed", "count"},
    {"privacy.failed", "count"},
    {"service.failed", "count"},
    {"trace.coverage", "ratio"},
    {"trace_gap_frac", "ratio"},
};

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double PeakRssMb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

struct Args {
  std::string workload;
  uint64_t seed = 21;
  double seconds = 15.0;
  bool trace = false;
  size_t threads = 0;
  bool smoke = false;
  std::string out_dir = ".bench_out";
};

// Whether to run another set-up; the traced pass sets up once.
bool MoreSetups(const Args& args, const std::vector<double>& setup_s) {
  if (args.trace) return setup_s.empty();
  if (setup_s.size() < kMinSetups) return true;
  double total = 0.0;
  for (double s : setup_s) total += s;
  return setup_s.size() < kMaxSetups && total < kSetupBudgetS;
}

// --- Output checks ----------------------------------------------------------

// FNV-1a over the bytes of everything added; doubles hash bitwise.
class Digest {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void F64(double v) { Bytes(&v, sizeof(v)); }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

// Round seeds, means, stddevs and round counts of every measure column.
uint64_t DigestOf(const std::vector<MethodResult>& results) {
  Digest d;
  for (const MethodResult& r : results) {
    d.U64(static_cast<uint64_t>(r.method));
    d.U64(r.round_seeds.size());
    for (uint64_t s : r.round_seeds) d.U64(s);
    for (const RiskMeasureStats& ms : r.measures) {
      d.Str(ms.estimator);
      d.Str(ms.measure);
      d.U64(ms.active);
      for (size_t c = 0; c < ms.mean.size(); ++c) {
        d.F64(ms.mean[c]);
        d.F64(ms.stddev[c]);
        d.U64(ms.rounds[c]);
      }
    }
  }
  return d.value();
}

uint64_t DigestOf(const AuditResult& audit) {
  Digest d;
  d.Str(audit.metadata.Serialize());
  d.F64(audit.identifiable_fraction);
  d.U64(DigestOf(audit.method_results));
  for (const AttributeAudit& a : audit.attributes) {
    d.F64(a.expected_random_matches);
    d.F64(a.measured_random_matches);
    d.F64(a.worst_dependency_matches);
    d.U64(a.dependency_adds_leakage);
    d.U64(a.domain_leaks);
  }
  return d.value();
}

void AddDependency(const Dependency& dep, Digest* d) {
  d->U64(static_cast<uint64_t>(dep.kind));
  d->U64(dep.lhs.mask());
  d->U64(dep.rhs);
  d->F64(dep.g3_error);
  d->U64(dep.max_fanout);
  d->F64(dep.lhs_epsilon);
  d->F64(dep.rhs_delta);
  for (double e : dep.lhs_epsilons) d->F64(e);
}

uint64_t DigestOf(const LeakageDelta& delta) {
  Digest d;
  d.U64(static_cast<uint64_t>(delta.rows_delta));
  for (double v : delta.expected_matches_delta) d.F64(v);
  for (size_t c : delta.newly_leaking) d.U64(c);
  d.U64(~0ULL);
  for (size_t c : delta.no_longer_leaking) d.U64(c);
  d.U64(~0ULL);
  for (const Dependency& dep : delta.dependencies_added) AddDependency(dep, &d);
  d.U64(~0ULL);
  for (const Dependency& dep : delta.dependencies_removed) {
    AddDependency(dep, &d);
  }
  for (const MeasureDrift& drift : delta.measure_drifts) {
    d.Str(drift.estimator);
    d.Str(drift.measure);
    d.U64(drift.attribute);
    d.F64(drift.before.value);
    d.U64(drift.before.present);
    d.F64(drift.after.value);
    d.U64(drift.after.present);
  }
  return d.value();
}

// A snapshot's identity: encoding fingerprint plus the serialized profile.
uint64_t StateDigest(uint64_t fingerprint, const MetadataPackage& metadata) {
  Digest d;
  d.U64(fingerprint);
  d.Str(metadata.Serialize());
  return d.value();
}

bool SameAudit(const AuditResult& untraced, const ComposedAudit& traced) {
  return untraced.metadata.Serialize() == traced.metadata.Serialize() &&
         std::memcmp(&untraced.identifiable_fraction,
                     &traced.identifiable_fraction, sizeof(double)) == 0 &&
         DigestOf(untraced.method_results) ==
             DigestOf(traced.method_results);
}

// --- Run record -------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

class RunRecord {
 public:
  /// Counts one checked operation; a failed check is a failed operation,
  /// charged to `module`.
  bool Check(bool ok, const std::string& module, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      ++failed_by_module_[module];
      std::fprintf(stderr, "FAILED [%s] %s\n", module.c_str(), what.c_str());
    }
    return ok;
  }

  template <typename T>
  bool Ok(const Result<T>& result, const std::string& module,
          const std::string& what) {
    return Check(result.ok(), module,
                 result.ok() ? what
                             : what + ": " + result.status().ToString());
  }

  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    if (!std::isfinite(value)) {
      Check(false, "bench", name + " is not finite");
      value = 0.0;
    }
    metrics_.push_back({name, value, unit, note});
  }

  /// One counter sample of the traced pass (request 0 is the set-up).
  void Count(uint64_t request, const std::string& name, double value) {
    counters_[name].push_back({request, value});
  }

  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }
  size_t failed_in(const std::string& module) const {
    auto it = failed_by_module_.find(module);
    return it == failed_by_module_.end() ? 0 : it->second;
  }
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::map<std::string, std::vector<std::pair<uint64_t, double>>>&
  counters() const {
    return counters_;
  }

 private:
  size_t attempted_ = 0;
  size_t failed_ = 0;
  std::map<std::string, size_t> failed_by_module_;
  std::vector<Metric> metrics_;
  std::map<std::string, std::vector<std::pair<uint64_t, double>>> counters_;
};

void CountDiscovery(uint64_t request,
                    const std::vector<ClassSearchStats>& search_stats,
                    size_t dependencies, RunRecord* run) {
  LatticeSearchStats total;
  for (const ClassSearchStats& s : search_stats) total.Accumulate(s.stats);
  run->Count(request, "discovery.nodes_visited",
             static_cast<double>(total.nodes_visited));
  run->Count(request, "discovery.validations",
             static_cast<double>(total.validator_invocations));
  run->Count(request, "discovery.pruned",
             static_cast<double>(total.candidates_pruned));
  run->Count(request, "discovery.verdicts_reused",
             static_cast<double>(total.verdicts_reused));
  run->Count(request, "discovery.dependencies",
             static_cast<double>(dependencies));
}

void CountAudit(uint64_t request, const ComposedAudit& audit,
                RunRecord* run) {
  run->Count(request, "partition.pli_hits",
             static_cast<double>(audit.pli_hits));
  run->Count(request, "partition.pli_misses",
             static_cast<double>(audit.pli_misses));
  CountDiscovery(request, audit.discovery_stats,
                 audit.metadata.dependencies.size(), run);
}

// --- Load generation --------------------------------------------------------

// One client in a closed loop: request(i) is issued only after
// request(i - 1) returned. Issues at least `min_requests`, then stops once
// `seconds` have elapsed or `max_requests` ran.
void ClosedLoop(double seconds, size_t min_requests, size_t max_requests,
                const std::function<void(size_t)>& request) {
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < max_requests; ++i) {
    if (i >= min_requests && MsSince(start) >= seconds * 1000.0) break;
    request(i);
  }
}

// Runs `fn` as traced request `request` (0 = the set-up) under a root span
// and returns its wall time in ms.
double TracedRequest(uint64_t request, const std::function<void()>& fn) {
  AdoptContext adopt({0, request});
  const Clock::time_point start = Clock::now();
  {
    Span root(request == 0 ? "bench.setup" : "bench.request");
    fn();
  }
  return MsSince(start);
}

// --- Reporting --------------------------------------------------------------

std::string UnitFor(const std::string& name) {
  auto ends_with = [&](const std::string& suffix) {
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
  };
  if (name.find("_ms") != std::string::npos) return "ms";
  if (ends_with("_per_s")) return "rows/s";
  if (ends_with("_s")) return "s";
  if (ends_with("_rate") || ends_with("_ratio") || ends_with("_frac") ||
      ends_with(".coverage")) {
    return "ratio";
  }
  return "count";
}

// Sample count and, from three samples on (below that the quartiles fall
// outside the samples), quartiles of a median's samples: the spread within
// one run, to set beside the spread between runs.
std::string SampleNote(const std::vector<double>& xs) {
  std::string note = "n=" + std::to_string(xs.size());
  if (xs.size() >= 3) {
    const std::array<double, 3> q = Quartiles(xs);
    char buf[64];
    std::snprintf(buf, sizeof(buf), " q1=%.4g q3=%.4g", q[0], q[2]);
    note += buf;
  }
  return note;
}

void ReportEndToEnd(const std::vector<double>& request_ms,
                    const std::vector<double>& setup_s, double peak_rss_mb,
                    RunRecord* run) {
  if (!request_ms.empty()) {
    run->Add("request_p50_ms", Median(request_ms), "ms",
             SampleNote(request_ms));
    if (std::optional<double> p = TailPercentile(request_ms.size())) {
      char name[32];
      std::snprintf(name, sizeof(name), "request_p%g_ms", *p);
      run->Add(name, Percentile(request_ms, *p), "ms",
               "n=" + std::to_string(request_ms.size()));
    }
  }
  if (!setup_s.empty()) {
    run->Add("setup_s", Median(setup_s), "s", SampleNote(setup_s));
  }
  run->Add("peak_rss_mb", peak_rss_mb, "MB");
}

// Per-layer metrics of the traced pass. A span named
// "<module>.<layer>[.<detail>]" adds its duration to "<module>.<layer>_ms"
// (and "<module>.<layer>_ms.<detail>") and its self time to
// "<module>.self_s". Spans on pool workers add their own busy time, so a
// layer fanned out over threads can exceed the wall time it spans.
void ReportLayers(const Args& args, const std::vector<double>& untraced_ms,
                  const std::vector<double>& traced_ms,
                  const std::vector<uint64_t>& requests, RunRecord* run) {
  const std::vector<SpanRecord> spans = CollectSpans();
  const std::unordered_map<uint64_t, int64_t> self = SelfTimesNs(spans);
  std::map<std::string, std::vector<std::pair<uint64_t, double>>> entries =
      run->counters();
  double encode_rows = 0.0;
  double encode_s = 0.0;
  for (const SpanRecord& s : spans) {
    const std::string module = ModuleOf(s.name);
    if (module == "bench") continue;
    const double ms = static_cast<double>(s.duration_ns()) / 1e6;
    const size_t dot = s.name.find('.', module.size() + 1);
    const std::string layer = s.name.substr(0, dot) + "_ms";
    entries[layer].push_back({s.request, ms});
    if (dot != std::string::npos) {
      entries[layer + s.name.substr(dot)].push_back({s.request, ms});
    }
    entries[module + ".self_s"].push_back(
        {s.request, static_cast<double>(self.at(s.id)) / 1e9});
    if (s.name == "data.encode") {
      encode_rows += static_cast<double>(s.rows);
      encode_s += ms / 1e3;
    }
  }
  std::map<std::string, double> value;
  for (const auto& [name, e] : entries) value[name] = PerPass(e, requests);
  value["data.encode_rows_per_s"] = encode_s > 0.0 ? encode_rows / encode_s
                                                   : 0.0;
  const double lookups =
      value["partition.pli_hits"] + value["partition.pli_misses"];
  value["partition.pli_hit_rate"] =
      lookups > 0.0 ? value["partition.pli_hits"] / lookups : 0.0;
  const double validations = value["discovery.validations"];
  value["discovery.useful_ratio"] =
      validations > 0.0 ? value["discovery.dependencies"] / validations : 0.0;
  for (const char* module : kModules) {
    value[std::string(module) + ".failed"] =
        static_cast<double>(run->failed_in(module));
  }
  value["trace.coverage"] = Coverage(spans, self);
  if (!untraced_ms.empty() && !traced_ms.empty()) {
    value["trace_gap_frac"] = Median(traced_ms) / Median(untraced_ms) - 1.0;
  }
  for (const auto& [name, v] : value) run->Add(name, v, UnitFor(name));

  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  const std::string path = args.out_dir + "/spans-" + args.workload +
                           "-seed" + std::to_string(args.seed) + ".json";
  run->Check(WriteChromeTrace(path, spans), "bench", "write " + path);
}

std::string JsonNumber(double v) {
  char buf[64];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string ResultLine(const Args& args, const RunRecord& run) {
  std::map<std::string, double> value;
  for (const Metric& m : run.metrics()) value[m.name] = m.value;
  std::ostringstream out;
  out << "{\"correct\": " << (run.failed() == 0 ? "true" : "false")
      << ", \"attempted\": " << run.attempted()
      << ", \"failed\": " << run.failed() << ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const auto& list) {
    for (const auto& [name, unit] : list) {
      out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
          << JsonNumber(value.count(name) != 0 ? value[name] : 0.0)
          << ", \"unit\": \"" << unit << "\"}";
      first = false;
    }
  };
  if (args.trace) {
    emit(kPerLayer);
  } else {
    emit(kEndToEnd);
  }
  out << "}}";
  return out.str();
}

void WriteResults(const Args& args, const std::string& line,
                  const RunRecord& run) {
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  const std::string path = args.out_dir + "/results-" + args.workload +
                           "-seed" + std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0") + ".json";
  std::ofstream out(path);
  out << "{\"workload\": \"" << args.workload << "\", \"seed\": " << args.seed
      << ", \"seconds\": " << JsonNumber(args.seconds)
      << ", \"threads\": " << GlobalThreadCount()
      << ", \"smoke\": " << (args.smoke ? "true" : "false")
      << ",\n \"all_metrics\": {";
  bool first = true;
  for (const Metric& m : run.metrics()) {
    out << (first ? "\n" : ",\n") << "  \"" << m.name
        << "\": {\"value\": " << JsonNumber(m.value) << ", \"unit\": \""
        << m.unit << "\", \"note\": \"" << m.note << "\"}";
    first = false;
  }
  out << "\n },\n \"result\": " << line << "}\n";
  out.close();
  if (!out) std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
}

// --- Workloads --------------------------------------------------------------

// The Section III and IV audits: cold RunAudit calls on a Zipf relation.
void RunAuditWorkload(const Args& args, size_t rows,
                      const AuditOptions& options, RunRecord* run) {
  std::optional<Relation> relation;
  std::vector<double> setup_s;
  while (MoreSetups(args, setup_s)) {
    relation.reset();  // one input alive at a time
    const Clock::time_point start = Clock::now();
    Result<Relation> made = datasets::SyntheticZipfScale(rows, args.seed);
    setup_s.push_back(MsSince(start) / 1e3);
    if (!run->Ok(made, "data", "SyntheticZipfScale")) return;
    relation.emplace(std::move(made).ValueUnsafe());
  }

  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  std::vector<uint64_t> requests;
  std::optional<uint64_t> first;
  ClosedLoop(args.seconds, args.trace ? 1 : 2, kMaxRequests, [&](size_t i) {
    const Clock::time_point start = Clock::now();
    Result<AuditResult> audit = RunAudit(*relation, options);
    untraced_ms.push_back(MsSince(start));
    if (!run->Ok(audit, "privacy", "RunAudit")) return;
    const uint64_t digest = DigestOf(*audit);
    if (!first.has_value()) first = digest;
    run->Check(digest == *first, "privacy",
               "RunAudit result differs between requests");
    if (!args.trace) return;

    const uint64_t request = i + 1;
    requests.push_back(request);
    Result<ComposedAudit> traced = Status::UnknownError("not run");
    traced_ms.push_back(TracedRequest(
        request, [&] { traced = TracedRunAudit(*relation, options); }));
    if (!run->Ok(traced, "privacy", "traced RunAudit")) return;
    run->Check(SameAudit(*audit, *traced), "privacy",
               "traced RunAudit differs from RunAudit");
    CountAudit(request, *traced, run);
  });

  if (args.trace) {
    ReportLayers(args, untraced_ms, traced_ms, requests, run);
    return;
  }
  ReportEndToEnd(untraced_ms, setup_s, PeakRssMb(), run);
  run->Add("audit_s", Median(untraced_ms) / 1e3, "s",
           "n=" + std::to_string(untraced_ms.size()));
}

void RunDomainsAudit(const Args& args, size_t rows, RunRecord* run) {
  AuditOptions options;
  DiscoveryOptions& d = options.discovery;
  d.discover_fds = d.discover_afds = d.discover_ods = d.discover_ofds =
      d.discover_nds = d.discover_dds = d.discover_cfds = false;
  options.methods = {};
  options.identifiability_max_width = 2;
  options.experiment.rounds = 4;
  options.experiment.threads = 0;
  options.experiment.estimators = &RiskEstimatorRegistry::All();
  RunAuditWorkload(args, rows, options, run);
}

void RunDepsAudit(const Args& args, size_t rows, RunRecord* run) {
  AuditOptions options;
  options.experiment.rounds = 4;
  options.experiment.threads = 0;
  RunAuditWorkload(args, rows, options, run);
}

constexpr size_t kChurnRows = 16;  // deletes and inserts per batch
constexpr size_t kChurnBatches = 256;

// Row provenance of the post-batch relation, replayed index by index: the
// value-level reference the final snapshot is checked against.
class ReferenceRows {
 public:
  explicit ReferenceRows(size_t rows) {
    for (size_t r = 0; r < rows; ++r) rows_.push_back({false, r});
  }

  // Mirrors DeltaRelation: survivors keep their order, inserts append.
  // Insert j of the batch is row first_fresh + j of the fresh relation.
  void Apply(const RowBatch& batch, size_t first_fresh) {
    std::vector<size_t> deletes = batch.delete_rows;
    std::sort(deletes.begin(), deletes.end());
    std::vector<std::pair<bool, size_t>> next;
    next.reserve(rows_.size() + batch.insert_rows.size());
    size_t d = 0;
    for (size_t r = 0; r < rows_.size(); ++r) {
      if (d < deletes.size() && deletes[d] == r) {
        ++d;
        continue;
      }
      next.push_back(rows_[r]);
    }
    for (size_t j = 0; j < batch.insert_rows.size(); ++j) {
      next.push_back({true, first_fresh + j});
    }
    rows_ = std::move(next);
  }

  Result<Relation> Materialize(const Relation& base,
                               const Relation& fresh) const {
    std::vector<std::vector<Value>> columns(base.num_columns());
    for (std::vector<Value>& column : columns) column.reserve(rows_.size());
    for (const auto& [is_fresh, r] : rows_) {
      const Relation& src = is_fresh ? fresh : base;
      for (size_t c = 0; c < columns.size(); ++c) {
        columns[c].push_back(src.at(r, c));
      }
    }
    return Relation::Make(base.schema(), std::move(columns));
  }

 private:
  std::vector<std::pair<bool, size_t>> rows_;
};

// Batch k deletes kChurnRows distinct rows and inserts rows
// [k * kChurnRows, (k + 1) * kChurnRows) of `fresh`; the row count stays
// `rows`.
std::vector<RowBatch> MakeChurnBatches(const Relation& fresh, size_t rows,
                                       uint64_t seed) {
  Rng rng(seed);
  std::vector<RowBatch> batches(fresh.num_rows() / kChurnRows);
  for (size_t k = 0; k < batches.size(); ++k) {
    batches[k].delete_rows = rng.SampleWithoutReplacement(rows, kChurnRows);
    for (size_t j = 0; j < kChurnRows; ++j) {
      batches[k].insert_rows.push_back(fresh.Row(k * kChurnRows + j));
    }
  }
  return batches;
}

// The long-lived service: write batches beside warm audits.
void RunServiceChurn(const Args& args, size_t rows, RunRecord* run) {
  Result<Relation> base =
      datasets::SyntheticUniform(rows, 10, 2, 48, args.seed);
  Result<Relation> fresh = datasets::SyntheticUniform(
      kChurnRows * kChurnBatches, 10, 2, 48, args.seed + 1);
  if (!run->Ok(base, "data", "SyntheticUniform") ||
      !run->Ok(fresh, "data", "SyntheticUniform")) {
    return;
  }
  const std::vector<RowBatch> batches =
      MakeChurnBatches(*fresh, rows, args.seed + 2);
  ServiceOptions service_options;
  // Cache only the session's current snapshot: superseded ones are freed
  // at once, so memory stays flat however many cycles a run fits in.
  service_options.max_cached_snapshots = 1;
  // Three-attribute LHSs over the two 10001-value continuous columns turn
  // into accidental keys on about one seed in ten, adding 18 spurious FDs
  // that double the cost of the FD audit. Width-2 LHSs never do at this
  // size, so the cycle's cost does not depend on the seed.
  service_options.discovery.tane.max_lhs_size = 2;
  AuditOptions audit;
  audit.experiment.rounds = 1;
  audit.experiment.threads = 0;
  audit.methods = {GenerationMethod::kFd};

  std::unique_ptr<AuditService> service;
  SessionId session = 0;
  std::vector<double> setup_s;
  std::optional<uint64_t> registered;
  while (MoreSetups(args, setup_s)) {
    service.reset();  // one service alive at a time
    service = std::make_unique<AuditService>(service_options);
    const Clock::time_point start = Clock::now();
    Result<SessionId> id = service->Register(*base);
    setup_s.push_back(MsSince(start) / 1e3);
    if (!run->Ok(id, "service", "Register")) return;
    session = *id;
    Result<std::shared_ptr<const RelationSnapshot>> snap =
        service->Snapshot(session);
    if (!run->Ok(snap, "service", "Snapshot")) return;
    const uint64_t digest =
        StateDigest((*snap)->fingerprint(), (*snap)->profile().metadata);
    if (!registered.has_value()) registered = digest;
    run->Check(digest == *registered, "service",
               "Register result differs between set-ups");
  }

  std::unique_ptr<TracedSession> traced;
  if (args.trace) {
    Result<std::unique_ptr<TracedSession>> made =
        Status::UnknownError("not run");
    TracedRequest(0, [&] {
      made = TracedSession::Register(*base, service_options);
    });
    if (!run->Ok(made, "service", "traced Register")) return;
    traced = std::move(made).ValueUnsafe();
    run->Check(StateDigest(traced->fingerprint(),
                           traced->profile().metadata) == *registered,
               "service", "traced Register differs from Register");
    CountDiscovery(0, traced->profile().search_stats,
                   traced->profile().metadata.dependencies.size(), run);
  }

  ReferenceRows reference(rows);
  std::vector<double> cycle_ms;
  std::vector<double> batch_ms;
  std::vector<double> audit_ms;
  std::vector<double> traced_ms;
  std::vector<uint64_t> requests;
  ClosedLoop(args.seconds, args.trace ? 1 : 2, batches.size(), [&](size_t k) {
    const Clock::time_point start = Clock::now();
    Result<LeakageDelta> delta = service->ApplyBatch(session, batches[k]);
    batch_ms.push_back(MsSince(start));
    const Clock::time_point audit_start = Clock::now();
    Result<AuditResult> result = service->Audit(session, audit);
    audit_ms.push_back(MsSince(audit_start));
    cycle_ms.push_back(MsSince(start));
    if (!run->Ok(delta, "service", "ApplyBatch")) return;
    reference.Apply(batches[k], k * kChurnRows);
    if (!run->Ok(result, "service", "Audit") || !args.trace) return;

    const uint64_t request = k + 1;
    requests.push_back(request);
    Result<LeakageDelta> traced_delta = Status::UnknownError("not run");
    Result<ComposedAudit> traced_audit = Status::UnknownError("not run");
    traced_ms.push_back(TracedRequest(request, [&] {
      traced_delta = traced->ApplyBatch(batches[k]);
      if (traced_delta.ok()) traced_audit = traced->Audit(audit);
    }));
    if (!run->Ok(traced_delta, "service", "traced ApplyBatch") ||
        !run->Ok(traced_audit, "service", "traced Audit")) {
      return;
    }
    run->Check(DigestOf(*delta) == DigestOf(*traced_delta), "service",
               "traced LeakageDelta differs from ApplyBatch");
    run->Check(SameAudit(*result, *traced_audit), "service",
               "traced Audit differs from Audit");
    Result<std::shared_ptr<const RelationSnapshot>> snap =
        service->Snapshot(session);
    run->Check(snap.ok() && (*snap)->fingerprint() == traced->fingerprint(),
               "service", "traced snapshot fingerprint differs");
    CountAudit(request, *traced_audit, run);
  });
  const double peak_rss_mb = PeakRssMb();

  // The final snapshot must equal a from-scratch build of the reference
  // rows.
  Result<Relation> expected = reference.Materialize(*base, *fresh);
  if (run->Ok(expected, "data", "reference relation")) {
    DiscoveryMemo memo;
    Result<std::shared_ptr<const RelationSnapshot>> rebuilt =
        RelationSnapshot::FromRelation(*expected, service_options.discovery,
                                       service_options.leakage, &memo);
    Result<std::shared_ptr<const RelationSnapshot>> last =
        service->Snapshot(session);
    if (run->Ok(rebuilt, "service", "FromRelation") &&
        run->Ok(last, "service", "Snapshot")) {
      run->Check(StateDigest((*last)->fingerprint(),
                             (*last)->profile().metadata) ==
                     StateDigest((*rebuilt)->fingerprint(),
                                 (*rebuilt)->profile().metadata),
                 "service",
                 "final snapshot differs from a rebuild of the same rows");
    }
  }

  if (args.trace) {
    ReportLayers(args, cycle_ms, traced_ms, requests, run);
    return;
  }
  ReportEndToEnd(cycle_ms, setup_s, peak_rss_mb, run);
  run->Add("batch_p50_ms", Median(batch_ms), "ms", SampleNote(batch_ms));
  run->Add("audit_warm_p50_ms", Median(audit_ms), "ms", SampleNote(audit_ms));
}

// bench_generation_perf's planted fixture: a categorical base, a
// continuous base, a monotone derivation (FD/OD/OFD) and a bounded-fanout
// derivation (ND).
Result<Relation> PlantedFixture(size_t rows, uint64_t seed) {
  using Kind = datasets::SyntheticAttribute::Kind;
  datasets::SyntheticConfig config;
  config.num_rows = rows;
  config.seed = seed;
  datasets::SyntheticAttribute a;
  a.name = "a";
  a.kind = Kind::kCategoricalBase;
  a.domain_size = 16;
  datasets::SyntheticAttribute b;
  b.name = "b";
  b.kind = Kind::kContinuousBase;
  b.lo = 0;
  b.hi = 1000;
  datasets::SyntheticAttribute c;
  c.name = "c";
  c.kind = Kind::kDerivedMonotone;
  c.source = 1;
  c.domain_size = 0;
  datasets::SyntheticAttribute d;
  d.name = "d";
  d.kind = Kind::kDerivedBoundedFanout;
  d.source = 0;
  d.domain_size = 24;
  d.fanout = 3;
  config.attributes = {a, b, c, d};
  return datasets::Synthetic(config);
}

// The Tables III/IV loop: Monte-Carlo rounds of every generation method.
void RunAttackRounds(const Args& args, size_t rows, RunRecord* run) {
  Result<Relation> relation = PlantedFixture(rows, args.seed);
  if (!run->Ok(relation, "data", "Synthetic")) return;
  const std::vector<GenerationMethod> methods = {
      GenerationMethod::kRandom, GenerationMethod::kFd,
      GenerationMethod::kNd,     GenerationMethod::kOd,
      GenerationMethod::kDd,     GenerationMethod::kOfd};
  ExperimentConfig config;
  config.rounds = 100;
  config.threads = 0;
  config.estimators = &RiskEstimatorRegistry::Default();

  // The engine borrows the metadata, so both live behind one pointer.
  struct Setup {
    MetadataPackage metadata;
    std::unique_ptr<ExperimentEngine> engine;
  };
  std::unique_ptr<Setup> setup;
  std::vector<double> setup_s;
  std::optional<std::string> profiled;
  while (MoreSetups(args, setup_s)) {
    setup.reset();
    const Clock::time_point start = Clock::now();
    Result<DiscoveryReport> profile = ProfileRelation(*relation);
    if (profile.ok()) {
      setup = std::make_unique<Setup>();
      setup->metadata = std::move(profile->metadata);
      setup->engine =
          std::make_unique<ExperimentEngine>(*relation, setup->metadata);
    }
    setup_s.push_back(MsSince(start) / 1e3);
    if (!run->Ok(profile, "discovery", "ProfileRelation")) return;
    const std::string serialized = setup->metadata.Serialize();
    if (!profiled.has_value()) profiled = serialized;
    run->Check(serialized == *profiled, "discovery",
               "ProfileRelation result differs between set-ups");
  }

  // Traced set-up: ProfileRelation(relation) encodes and profiles over a
  // transient cache; the engine's constructor encodes again.
  std::optional<EncodedRelation> traced_encoding;
  MetadataPackage traced_metadata;
  if (args.trace) {
    Result<DiscoveryReport> report = Status::UnknownError("not run");
    TracedRequest(0, [&] {
      {
        std::optional<EncodedRelation> encoded;
        {
          Span span("data.encode", rows);
          encoded.emplace(EncodedRelation::Encode(*relation));
        }
        std::optional<PliCache> cache;
        {
          Span span("partition.pli_build", rows);
          cache.emplace(&*encoded);
        }
        {
          Span span("discovery.profile", rows);
          report = ProfileRelation(&*cache, DiscoveryOptions{});
        }
        run->Count(0, "partition.pli_hits",
                   static_cast<double>(cache->hits()));
        run->Count(0, "partition.pli_misses",
                   static_cast<double>(cache->misses()));
      }
      Span span("data.encode", rows);
      traced_encoding.emplace(EncodedRelation::Encode(*relation));
    });
    if (!run->Ok(report, "discovery", "traced ProfileRelation")) return;
    traced_metadata = report->metadata;
    run->Check(traced_metadata.Serialize() == *profiled, "discovery",
               "traced ProfileRelation differs from ProfileRelation");
    CountDiscovery(0, report->search_stats,
                   traced_metadata.dependencies.size(), run);
  }

  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  std::vector<uint64_t> requests;
  std::optional<uint64_t> first;
  ClosedLoop(args.seconds, args.trace ? 1 : 2, kMaxRequests, [&](size_t i) {
    const Clock::time_point start = Clock::now();
    Result<std::vector<MethodResult>> results =
        setup->engine->RunAll(methods, config);
    untraced_ms.push_back(MsSince(start));
    if (!run->Ok(results, "privacy", "RunAll")) return;
    const uint64_t digest = DigestOf(*results);
    if (!first.has_value()) first = digest;
    run->Check(digest == *first, "privacy",
               "RunAll result differs between calls");
    if (!args.trace) return;

    const uint64_t request = i + 1;
    requests.push_back(request);
    Result<std::vector<MethodResult>> traced = Status::UnknownError("not run");
    traced_ms.push_back(TracedRequest(request, [&] {
      traced = TracedRunAll(*traced_encoding, traced_metadata, methods, config);
    }));
    if (!run->Ok(traced, "privacy", "traced RunAll")) return;
    run->Check(DigestOf(*traced) == digest, "privacy",
               "traced RunAll differs from RunAll");
  });

  if (args.trace) {
    ReportLayers(args, untraced_ms, traced_ms, requests, run);
    return;
  }
  ReportEndToEnd(untraced_ms, setup_s, PeakRssMb(), run);
  run->Add("rounds_per_s",
           static_cast<double>(methods.size() * config.rounds) /
               (Median(untraced_ms) / 1e3),
           "1/s", "n=" + std::to_string(untraced_ms.size()));
}

struct Workload {
  const char* name;
  size_t rows;
  void (*run)(const Args&, size_t, RunRecord*);
};

constexpr Workload kWorkloads[] = {
    {"domains_audit_1m", 1000000, RunDomainsAudit},
    {"deps_audit_100k", 100000, RunDepsAudit},
    {"service_churn_200k", 200000, RunServiceChurn},
    {"attack_rounds_50k", 50000, RunAttackRounds},
};

// --- Entry point ------------------------------------------------------------

void Usage() {
  std::fprintf(stderr,
               "usage: metaleak_e2e --workload NAME [--seed N] [--seconds S]"
               " [--trace 0|1] [--threads T] [--smoke] [--out-dir DIR]\n"
               "workloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      size_t used = 0;
      if (flag == "--workload") {
        args->workload = value;
        used = value.size();
      } else if (flag == "--seed") {
        args->seed = std::stoull(value, &used);
      } else if (flag == "--seconds") {
        args->seconds = std::stod(value, &used);
        if (!(args->seconds > 0.0)) return false;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return false;
        args->trace = value == "1";
        used = value.size();
      } else if (flag == "--threads") {
        args->threads = std::stoul(value, &used);
        if (args->threads == 0) return false;
      } else if (flag == "--out-dir") {
        args->out_dir = value;
        used = value.size();
      } else {
        return false;
      }
      if (used != value.size()) return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return !args->workload.empty();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    Usage();
    return 2;
  }
  const size_t hardware =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  SetGlobalThreadCount(args.threads != 0 ? args.threads
                                         : std::min<size_t>(4, hardware));
  const size_t rows = workload->rows / (args.smoke ? kSmokeDivisor : 1);
  std::printf("workload %s  rows %zu  seed %llu  seconds %g  trace %d  "
              "threads %zu\n",
              workload->name, rows,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, GlobalThreadCount());

  RunRecord run;
  workload->run(args, rows, &run);
  if (run.attempted() == 0) run.Check(false, "bench", "nothing ran");

  for (const Metric& m : run.metrics()) {
    std::printf("%-44s %16.4f %-7s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::printf("%-44s %16.4f %-7s %zu of %zu operations\n", "failed_frac",
              static_cast<double>(run.failed()) /
                  static_cast<double>(run.attempted()),
              "ratio", run.failed(), run.attempted());
  const std::string line = ResultLine(args, run);
  WriteResults(args, line, run);
  std::printf("%s\n", line.c_str());
  return run.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace metaleak::e2e

int main(int argc, char** argv) { return metaleak::e2e::Main(argc, argv); }
