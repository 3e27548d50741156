// Process probes and the benchmark's own span tracer.
//
// Probes: a thread-safe operator new counter (sharded legs allocate
// from worker threads), getrusage for peak RSS and process CPU time,
// and the usable core count from the affinity mask — the cores this
// process can actually run on, which is what a sharded leg may use.
//
// Spans: when tracing is on, Span guards placed around every call into
// a layer record (name, start, end, parent, op id) in memory; the trace
// is written once at exit as Chrome trace-event JSON. When tracing is
// off a Span costs one null-pointer test.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Global operator new calls so far (all threads).
std::uint64_t allocs();
/// Monotonic wall clock, seconds.
double now_s();
/// Process CPU time (user + system, all threads), seconds.
double cpu_s();
/// Peak resident set of this process, MB.
double peak_rss_mb();
/// Returns freed heap pages to the OS between passes, so the peak
/// resident set reflects one pass rather than the fragmentation left by
/// the ones before it.
void release_memory();

struct Machine {
  unsigned usable_cores = 1;  // sched_getaffinity
  long nproc = 1;             // online processors
  std::string cpu_model;
};
Machine machine();

class Tracer {
 public:
  struct Record {
    const char* name = nullptr;  // "<layer>.<call>", static storage
    double start_s = 0;
    double end_s = 0;
    std::int64_t parent = -1;  // index into records, -1 for a root
    std::uint64_t op = 0;
  };

  /// The tracer spans record into, or nullptr when tracing is off.
  static Tracer* active() { return active_; }
  static void set_active(Tracer* t) { active_ = t; }

  /// Op id stamped on spans opened from now on.
  void set_op(std::uint64_t op) { op_ = op; }
  /// Spans opened from now on are kept only while enabled (the traced
  /// run alternates traced and untraced passes).
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  std::int64_t open(const char* name);
  void close(std::int64_t idx);

  const std::vector<Record>& records() const { return records_; }

  /// Self time per span name: duration minus the part covered by child
  /// spans, summed over every record whose start lies in [from, to).
  std::map<std::string, double> self_seconds(double from_s,
                                             double to_s) const;

  /// Writes every record as Chrome trace-event JSON ("X" events, times
  /// in microseconds from the first span). False on I/O failure.
  bool write_chrome(const std::string& path) const;

 private:
  static inline Tracer* active_ = nullptr;
  std::vector<Record> records_;
  std::vector<std::int64_t> stack_;
  std::uint64_t op_ = 0;
  bool enabled_ = true;
};

/// RAII span around one call into a layer. `name` must have static
/// storage duration.
class Span {
 public:
  explicit Span(const char* name) {
    if (Tracer* t = Tracer::active(); t != nullptr && t->enabled()) {
      tracer_ = t;
      idx_ = t->open(name);
    }
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->close(idx_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_ = nullptr;
  std::int64_t idx_ = -1;
};

/// Sorted-sample percentiles for wall-time series.
double quantile(std::vector<double> v, double q);
double median(const std::vector<double>& v);

/// Every pass runs the same ops in the same order: each op's time is
/// its median over `passes` (vectors of equal length), so one slow
/// pass moves no op.
std::vector<double> per_op_median(
    const std::vector<const std::vector<double>*>& passes);

/// The op-tail rule: the highest of p90 / p99 / p99.9 that still has
/// at least ten samples beyond it, and p90 when fewer than 100 samples
/// exist. `pct_out` receives the percentile used.
double tail(const std::vector<double>& v, double* pct_out);
/// "op_tail_us is p99 of N ops (K beyond)".
std::string tail_note(double pct, std::size_t samples);

}  // namespace perfbench
