// The three end-to-end workloads and the result record they fill.
//
// Every workload follows one shape. Set-up (population, directory,
// tables or overlay growth, script generation) is built in-process and
// repeated; the timed phase then repeats one deterministic pass until
// the requested seconds have elapsed. Each pass starts from the same
// state, so every simulated figure must repeat exactly from pass to
// pass — a pass that disagrees with the first is a failed check. Wall
// figures are medians over passes and ops.
//
// With tracing on, passes alternate traced and untraced: per-layer self
// times come from the traced passes, and the traced/untraced ratio is
// the tracing overhead.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // Chrome trace path (trace runs)
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  /// One timed pass (set-up excluded): wall interval, whether its spans
  /// were recorded, and whether the program's telemetry was attached.
  struct Pass {
    double t0_s = 0;
    double t1_s = 0;
    bool traced = false;
    bool telemetry = false;
  };

  std::uint64_t attempted = 0;  // ops issued
  std::uint64_t failed = 0;     // failed checks (each belongs to one op)
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;  // printed before the result line
  std::vector<Pass> passes;

  /// Counts one check; a failure is recorded with its reason, never
  /// hidden and never fatal.
  void check(bool ok, const std::string& what) {
    if (ok) return;
    ++failed;
    if (failure_notes_ < 20) notes.push_back("check failed: " + what);
    ++failure_notes_;
  }
  void e2e(const std::string& name, double v, const std::string& unit) {
    end_to_end.push_back({name, v, unit});
  }
  void layer(const std::string& name, double v, const std::string& unit) {
    per_layer.push_back({name, v, unit});
  }

 private:
  std::size_t failure_notes_ = 0;
};

Result run_fleet(const Args& args);
Result run_cast(const Args& args);
Result run_async(const Args& args);

}  // namespace perfbench
