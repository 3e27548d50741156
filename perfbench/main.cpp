// perfbench_e2e — one run of one workload.
//
//   perfbench_e2e --workload fleet|cast|async --seed N --seconds S
//                 --trace 0|1 [--trace-out FILE]
//
// Prints the machine line, the workload's notes and every metric as
// "name value unit", then, as the last line, one JSON object with the
// keys correct, attempted, failed and metrics: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. A failed check
// is counted, described and reported; it never aborts the output.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "probe.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Spans recorded inside timed passes, grouped by layer. Every span a
// workload opens inside a pass must be listed here, so layer self
// times add up to the traced pass wall time.
struct LayerSpans {
  const char* layer;
  std::vector<const char*> spans;
  std::vector<const char*> reported;  // spans reported as <span>_s
};

const std::vector<LayerSpans>& layer_spans() {
  static const std::vector<LayerSpans> k = {
      {"overlay", {"overlay.cast", "overlay.fail_wave"}, {"overlay.cast"}},
      {"sim.shard", {"sim.shard.cast"}, {"sim.shard.cast"}},
      {"proto",
       {"proto.run", "proto.cast", "proto.set_loss", "proto.crash_wave"},
       {"proto.run", "proto.cast"}},
      {"session",
       {"session.create", "session.join", "session.leave", "session.fail",
        "session.check"},
       {"session.join", "session.leave", "session.fail", "session.check"}},
      {"strategy", {"strategy.lookup"}, {"strategy.lookup"}},
      {"failover", {"failover.fail_node"}, {}},
      {"dataplane", {"dataplane.ctor", "dataplane.run"},
       {"dataplane.ctor", "dataplane.run"}},
      {"bench", {"bench.plan", "bench.check"}, {}},
  };
  return k;
}

// The end-to-end metrics every untraced run reports, in order.
const std::vector<std::pair<std::string, std::string>>& e2e_metrics() {
  static const std::vector<std::pair<std::string, std::string>> k = {
      {"setup_s", "s"},          {"run_s", "s"},
      {"ops_per_s", "1/s"},      {"op_p50_us", "us"},
      {"op_tail_us", "us"},      {"copies_per_s", "1/s"},
      {"peak_rss_mb", "MB"},     {"delivered_frac", "ratio"},
      {"path_len_mean", "hops"},
  };
  return k;
}

// The per-layer metrics every traced run reports, in order; a workload
// that never reaches a layer reports 0 for it (fleet never runs the
// event engine, cast and async never run the session layer).
const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> k = [] {
    std::vector<std::pair<std::string, std::string>> v = {
        {"workload.generate_s", "s"},
        {"workload.events", "count"},
        {"overlay.build_s", "s"},
        {"overlay.net_msgs", "count"},
        {"sim.events", "count"},
        {"sim.events_per_s", "1/s"},
        {"sim.allocs_per_event", "ratio"},
        {"sim.shard.speedup", "ratio"},
        {"sim.shard.cores_busy", "ratio"},
        {"sim.shard.allocs_per_event", "ratio"},
        {"proto.msgs_data", "count"},
        {"proto.msgs_control", "count"},
        {"proto.msgs_maintenance", "count"},
        {"proto.msgs_repair", "count"},
        {"proto.loss_drops", "count"},
        {"proto.rpc_timeouts", "count"},
        {"proto.retransmits", "count"},
        {"proto.repair_pulls", "count"},
        {"proto.redundant_copies", "count"},
        {"proto.koorde_missed", "count"},
        {"session.apply_s", "s"},
        {"session.joins", "count"},
        {"session.joins_rejected", "count"},
        {"session.reparented", "count"},
        {"strategy.lookups", "count"},
        {"strategy.lookup_hops_mean", "hops"},
        {"failover.fail_node_us", "us"},
        {"failover.reattaches", "count"},
        {"failover.repaired_copies", "count"},
        {"failover.gap_packets", "count"},
        {"failover.parked", "count"},
        {"failover.readmitted", "count"},
        {"failover.reattach_p50_ms", "ms"},
        {"dataplane.copies", "count"},
        {"dataplane.allocs_per_copy", "ratio"},
        {"dataplane.max_backlog_ms", "ms"},
        {"dataplane.goodput_kbps", "kbps"},
        {"dataplane.delivery_p99_ms", "ms"},
        {"telemetry.overhead_frac", "ratio"},
    };
    for (const LayerSpans& l : layer_spans()) {
      for (const char* s : l.reported) v.push_back({std::string(s) + "_s", "s"});
    }
    for (const LayerSpans& l : layer_spans()) {
      v.push_back({std::string(l.layer) + ".share", "ratio"});
    }
    v.push_back({"trace.coverage", "ratio"});
    v.push_back({"trace.overhead_frac", "ratio"});
    v.push_back({"checks.failed", "count"});
    v.push_back({"checks.fail_frac", "ratio"});
    return v;
  }();
  return k;
}

/// Self times of the traced passes, per span and per layer, plus the
/// tracing overhead against the plain passes (neither traced nor with
/// telemetry attached) of the same run.
void add_trace_metrics(const Tracer& tracer, Result& res) {
  double traced_wall = 0;
  std::vector<double> traced_s, untraced_s;
  std::map<std::string, double> self;
  for (const Result::Pass& p : res.passes) {
    if (!p.traced) {
      if (!p.telemetry) untraced_s.push_back(p.t1_s - p.t0_s);
      continue;
    }
    traced_wall += p.t1_s - p.t0_s;
    traced_s.push_back(p.t1_s - p.t0_s);
    for (const auto& [name, s] : tracer.self_seconds(p.t0_s, p.t1_s)) {
      self[name] += s;
    }
  }
  const double passes = static_cast<double>(std::max<std::size_t>(1, traced_s.size()));
  std::set<std::string> known;
  double covered = 0;
  for (const LayerSpans& l : layer_spans()) {
    double layer_self = 0;
    for (const char* s : l.spans) {
      known.insert(s);
      layer_self += self.count(s) ? self.at(s) : 0;
    }
    for (const char* s : l.reported) {
      res.layer(std::string(s) + "_s", (self.count(s) ? self.at(s) : 0) / passes,
                "s");
    }
    res.layer(std::string(l.layer) + ".share",
              traced_wall > 0 ? layer_self / traced_wall : 0, "ratio");
    covered += layer_self;
  }
  for (const auto& [name, s] : self) {
    if (!known.contains(name)) {
      res.check(false, "span " + name + " inside a pass belongs to no layer");
    }
  }
  res.layer("trace.coverage", traced_wall > 0 ? covered / traced_wall : 0,
            "ratio");
  res.layer("trace.overhead_frac",
            untraced_s.empty() || traced_s.empty()
                ? 0
                : median(traced_s) / median(untraced_s) - 1.0,
            "ratio");
}

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return false;
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0)) return false;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      a.trace = val == "1";
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else {
      return false;
    }
  }
  return have_workload &&
         (a.workload == "fleet" || a.workload == "cast" ||
          a.workload == "async");
}

void print_json(const Result& res, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              res.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench_e2e --workload fleet|cast|async --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE]\n");
    return 2;
  }
  Tracer tracer;
  if (args.trace) Tracer::set_active(&tracer);

  Result res;
  if (args.workload == "fleet") {
    res = run_fleet(args);
  } else if (args.workload == "cast") {
    res = run_cast(args);
  } else {
    res = run_async(args);
  }
  Tracer::set_active(nullptr);
  res.attempted = std::max<std::uint64_t>(res.attempted, 1);
  res.e2e("peak_rss_mb", peak_rss_mb(), "MB");

  if (args.trace) {
    add_trace_metrics(tracer, res);
    res.layer("checks.failed", static_cast<double>(res.failed), "count");
    res.layer("checks.fail_frac",
              static_cast<double>(res.failed) /
                  static_cast<double>(res.attempted),
              "ratio");
    if (!args.trace_out.empty() && !tracer.write_chrome(args.trace_out)) {
      res.notes.push_back("could not write trace " + args.trace_out);
    }
  }

  // Every listed metric, in order; a per-layer metric the workload
  // never reached reads 0, a missing end-to-end metric is a failed check.
  std::vector<Metric> out;
  std::map<std::string, Metric> have;
  for (const Metric& mt : args.trace ? res.per_layer : res.end_to_end) {
    have[mt.name] = mt;
  }
  for (const auto& [name, unit] : args.trace ? layer_metrics() : e2e_metrics()) {
    auto it = have.find(name);
    if (it == have.end()) {
      res.check(args.trace, "end-to-end metric " + name + " not measured");
      out.push_back(Metric{name, 0, unit});
      continue;
    }
    res.check(it->second.unit == unit,
              "metric " + name + " reported in " + it->second.unit);
    out.push_back(it->second);
    have.erase(it);
  }
  for (const auto& [name, mt] : have) {
    res.check(false, "metric " + name + " is not listed");
  }
  const Machine m = machine();
  std::printf("# machine: usable_cores=%u nproc=%ld cpu=\"%s\"\n",
              m.usable_cores, m.nproc, m.cpu_model.c_str());
  for (const std::string& n : res.notes) std::printf("# %s\n", n.c_str());

  for (const Metric& mt : out) {
    std::printf("%-28s %.6g %s\n", mt.name.c_str(), mt.value, mt.unit.c_str());
  }
  std::fflush(stdout);
  print_json(res, out);
  return 0;
}
