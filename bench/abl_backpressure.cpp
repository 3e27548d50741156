// Ablation A12 — backpressure vs FIFO forwarding under a hotspot link.
//
// The same multicast trees carry the same paced packet stream twice:
// once through the FIFO uplink plane (kShared) and once in the
// forwarder's kBackpressure mode (src/dataplane). Uncongested, the two must
// agree bit for bit — backpressure with shallow queues IS the FIFO
// schedule (tests/dataplane_test.cpp pins this). Then the busiest relay
// has its uplink cut to 25% and the comparison repeats: FIFO serializes
// every copy through the hotspot and the session rate collapses to the
// hotspot's drain rate, while backpressure sheds forwarding duty to
// children that already hold each packet and sustains a measurably
// higher rate. Each grid cell is a runtime::run_cells stream cell;
// --jobs parallelism is byte-identical to serial.
//
// --json emits the rows as JSON for scripts/bench.sh (BENCH_PR6.json).
#include <cstring>
#include <iostream>
#include <vector>

#include "experiments/figures.h"
#include "experiments/table.h"
#include "runtime/cells.h"

int main(int argc, char** argv) {
  using namespace cam;
  using namespace cam::exp;
  using namespace cam::runtime;

  bool json = false;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  FigureScale scale = parse_scale(static_cast<int>(args.size()), args.data(),
                                  FigureScale{.n = 2000, .seed = 7});

  workload::PopulationSpec spec;
  spec.n = scale.n;
  spec.ring_bits = scale.ring_bits;
  spec.seed = scale.seed;
  FrozenDirectory dir =
      workload::bandwidth_derived_population(spec, 100.0, 4).freeze();

  // Paced source: slow enough that the intact tree carries it without
  // queueing (so FIFO and backpressure agree exactly), fast enough that
  // a quartered hotspot uplink cannot keep up on its own.
  dataplane::GroupTraffic traffic;
  traffic.packet_bytes = 1250;
  traffic.num_packets = 96;
  traffic.source_rate_kbps = 60.0;

  const dataplane::SchedMode modes[] = {dataplane::SchedMode::kShared,
                                        dataplane::SchedMode::kBackpressure};
  auto mode_name = [](dataplane::SchedMode m) {
    return m == dataplane::SchedMode::kBackpressure ? "backpressure" : "fifo";
  };
  const char* strategies[] = {"camchord", "camkoorde"};
  const double hotspots[] = {1.0, 0.25};

  std::vector<StreamCellSpec> cells;
  for (const char* key : strategies) {
    for (double h : hotspots) {
      for (dataplane::SchedMode m : modes) {
        StreamCellSpec cell;
        cell.strategy = key;
        cell.prebuilt = &dir;
        cell.seed = scale.seed;
        cell.traffic = traffic;
        cell.fwd.mode = m;
        cell.hotspot_factor = h;
        cells.push_back(cell);
      }
    }
  }
  std::vector<StreamCellResult> results =
      run_cells(cells, RunOptions{scale.jobs});

  if (json) {
    std::cout << "{\"rows\":[";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const StreamCellResult& r = results[i];
      const char* mode = mode_name(cells[i].fwd.mode);
      if (i > 0) std::cout << ",";
      std::cout << "{\"system\":\"" << strategy::registry().display_name(cells[i].strategy)
                << "\",\"hotspot\":" << cells[i].hotspot_factor
                << ",\"mode\":\"" << mode
                << "\",\"session_kbps\":" << r.stats.session.session_rate_kbps
                << ",\"analytic_kbps\":" << r.analytic_kbps
                << ",\"delegated\":" << r.stats.delegated_copies
                << ",\"zombies\":" << r.stats.zombie_copies
                << ",\"pauses\":" << r.stats.admission_pauses
                << ",\"completion_ms\":" << r.stats.session.completion_ms
                << "}";
    }
    std::cout << "]}\n";
    return 0;
  }

  std::cout << "# Ablation A12: backpressure vs FIFO under a hotspot uplink "
               "(n=" << scale.n << ", " << traffic.num_packets
            << " packets of " << traffic.packet_bytes << " B paced at "
            << traffic.source_rate_kbps << " kbps, 10 ms links)\n";
  Table t({"system", "hotspot", "mode", "session_kbps", "analytic_kbps",
           "delegated", "zombies", "pauses", "complete_ms"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const StreamCellResult& r = results[i];
    t.add_row({strategy::registry().display_name(cells[i].strategy),
               fmt(cells[i].hotspot_factor, 2),
               mode_name(cells[i].fwd.mode),
               fmt(r.stats.session.session_rate_kbps, 1),
               fmt(r.analytic_kbps, 1),
               std::to_string(r.stats.delegated_copies),
               std::to_string(r.stats.zombie_copies),
               std::to_string(r.stats.admission_pauses),
               fmt(r.stats.session.completion_ms, 0)});
  }
  t.print(std::cout);
  return 0;
}
