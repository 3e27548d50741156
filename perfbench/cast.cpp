// cast — the paper's MULTICAST on oracle tables at n = 100k (the A3
// churn shape): casts from random sources on converged tables, then a
// 15% abrupt failure wave, then casts from the same sources over the
// stale tables.
//
// Op = one source, cast before and after the wave: each time CAM-Chord
// and CAM-Koorde cast on the serial Simulator, then through
// sharded_multicast on a ShardGroup of S = usable cores, then the four
// trees are cross-checked. The event engine, the routing tables and
// the sharded engine do all the work; the session layer and the data
// plane do none.
//
// The failure wave mutates the overlays, so each pass builds them
// afresh: set-up is measured once per pass and reported as a median.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "camchord/net.h"
#include "camkoorde/net.h"
#include "overlay/sharded_cast.h"
#include "probe.h"
#include "runtime/shard_team.h"
#include "sim/latency.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "workload/population.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace cam;

constexpr std::size_t kNodes = 100'000;
constexpr int kRingBits = 22;  // id space >= 32x the population
constexpr std::size_t kSources = 3;  // each casts before and after the wave
constexpr double kFailFraction = 0.15;

struct World {
  Simulator sim;
  // Per-pair uniform draws make latency tie-free, so the serial and
  // sharded CAM-Chord trees must agree exactly.
  UniformLatency lat;
  Network net;
  camchord::CamChordNet chord;
  camkoorde::CamKoordeNet koorde;

  explicit World(std::uint64_t seed, const RingSpace& ring)
      : lat(2.0, 9.0, seed ^ 0xca5cULL),
        net(sim, lat),
        chord(ring, net),
        koorde(ring, net) {}
};

template <typename Net>
void build_overlay(Net& overlay, const FrozenDirectory& dir) {
  overlay.bootstrap(dir.ids()[0], dir.info_at(0));
  for (std::size_t i = 1; i < dir.size(); ++i) {
    overlay.join(dir.ids()[i], dir.info_at(i), dir.ids()[i - 1]);
  }
  overlay.oracle_fill();
}

std::unique_ptr<World> build_world(std::uint64_t seed, double* build_s) {
  workload::PopulationSpec spec;
  spec.n = kNodes;
  spec.ring_bits = kRingBits;
  spec.seed = seed;
  FrozenDirectory dir = [&] {
    Span span("workload.population");
    return workload::uniform_capacity_population(spec, 4, 10).freeze();
  }();
  auto w = std::make_unique<World>(seed, dir.ring());
  const double t0 = now_s();
  Span span("overlay.build");
  build_overlay(w->chord, dir);
  build_overlay(w->koorde, dir);
  w->sim.run();  // drain the join notifications
  w->net.reset_stats();
  *build_s = now_s() - t0;
  return w;
}

using Shape = std::vector<std::tuple<Id, Id, int>>;

Shape shape_of(const MulticastTree& t) {
  Shape v;
  v.reserve(t.size());
  for (const auto& [node, rec] : t.entries()) {
    v.emplace_back(node, rec.parent, rec.depth);
  }
  std::sort(v.begin(), v.end());
  return v;
}

std::vector<Id> delivered_set(const MulticastTree& t) {
  std::vector<Id> v;
  v.reserve(t.size());
  for (const auto& [node, rec] : t.entries()) v.push_back(node);
  std::sort(v.begin(), v.end());
  return v;
}

/// Members whose tree children exceed their capacity c_x.
template <typename Net>
std::size_t capacity_violations(const MulticastTree& t, const Net& overlay) {
  std::size_t bad = 0;
  for (const auto& [node, kids] : t.children_counts()) {
    if (overlay.contains(node) && kids > overlay.info(node).capacity) ++bad;
  }
  return bad;
}

/// Everything a pass simulates; two passes must agree exactly.
struct SimOut {
  std::uint64_t signature = 0;  // folded delivery signatures
  std::uint64_t delivered = 0;  // serial-cast members reached
  std::uint64_t expected = 0;   // live members at cast time
  double depth_sum = 0;
  std::uint64_t serial_events = 0;
  std::uint64_t sharded_events = 0;
  std::uint64_t net_msgs = 0;

  bool same_as(const SimOut& o) const {
    return signature == o.signature && delivered == o.delivered &&
           expected == o.expected && depth_sum == o.depth_sum &&
           serial_events == o.serial_events &&
           sharded_events == o.sharded_events && net_msgs == o.net_msgs;
  }
};

struct WallOut {
  double setup_s = 0;
  double build_s = 0;  // the overlays' part of set-up
  double pass_s = 0;
  double serial_s = 0;
  double sharded_s = 0;
  double sharded_cpu_s = 0;
  std::uint64_t serial_allocs = 0;
  std::uint64_t sharded_allocs = 0;
  std::vector<double> op_us;
};

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return h ^ (v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2));
}

void run_pass(std::uint64_t seed, unsigned shards, Result& res,
              std::uint64_t& op_id, SimOut& sim, WallOut& wall,
              double* pass_t0) {
  Tracer* tracer = Tracer::active();
  const double s0 = now_s();
  std::unique_ptr<World> w = build_world(seed, &wall.build_s);
  wall.setup_s = now_s() - s0;

  const ShardMap map{static_cast<std::uint32_t>(kRingBits), shards};
  runtime::ShardTeam team(shards);
  Rng rng(seed ^ 0x50c7ceULL);

  *pass_t0 = now_s();
  std::vector<Id> sources;
  {
    Span span("bench.plan");
    const std::vector<Id> members = w->chord.members_sorted();
    while (sources.size() < kSources) {
      const Id src = members[rng.next_below(members.size())];
      if (std::find(sources.begin(), sources.end(), src) == sources.end()) {
        sources.push_back(src);
      }
    }
  }
  wall.op_us.assign(kSources, 0.0);
  for (int phase = 0; phase < 2; ++phase) {
    if (phase == 1) {
      // The same members fail in both overlays; the sources survive so
      // each op casts from one source before and after the wave.
      Span span("overlay.fail_wave");
      std::vector<Id> pool;
      for (Id m : w->chord.members_sorted()) {
        if (std::find(sources.begin(), sources.end(), m) == sources.end()) {
          pool.push_back(m);
        }
      }
      const auto victims = static_cast<std::size_t>(
          kFailFraction * static_cast<double>(w->chord.size()));
      for (std::size_t i = 0; i < victims; ++i) {
        const std::size_t k = i + rng.next_below(pool.size() - i);
        std::swap(pool[i], pool[k]);
        w->chord.fail(pool[i]);
        w->koorde.fail(pool[i]);
      }
    }
    const char* when = phase == 0 ? "pre-wave" : "post-wave";
    for (std::size_t op = 0; op < kSources; ++op) {
      const Id src = sources[op];
      if (tracer != nullptr) tracer->set_op(op_id + op + 1);
      const double op_t0 = now_s();
      // Serial casts on the one Simulator.
      double t0 = now_s();
      std::uint64_t a0 = allocs();
      std::uint64_t e0 = w->sim.events_executed();
      const std::uint64_t m0 = w->net.stats().total_messages();
      std::unique_ptr<MulticastTree> chord_serial, koorde_serial;
      {
        Span span("overlay.cast");
        chord_serial = std::make_unique<MulticastTree>(w->chord.multicast(src));
      }
      {
        Span span("overlay.cast");
        koorde_serial =
            std::make_unique<MulticastTree>(w->koorde.multicast(src));
      }
      wall.serial_s += now_s() - t0;
      wall.serial_allocs += allocs() - a0;
      sim.serial_events += w->sim.events_executed() - e0;
      sim.net_msgs += w->net.stats().total_messages() - m0;

      // The same casts on the sharded engine.
      t0 = now_s();
      a0 = allocs();
      const double cpu0 = cpu_s();
      ShardedCastResult chord_sharded{MulticastTree(src), 0, 0};
      ShardedCastResult koorde_sharded{MulticastTree(src), 0, 0};
      {
        Span span("sim.shard.cast");
        chord_sharded = sharded_multicast(w->chord, w->lat, src, map, team);
      }
      {
        Span span("sim.shard.cast");
        koorde_sharded = sharded_multicast(w->koorde, w->lat, src, map, team);
      }
      wall.sharded_cpu_s += cpu_s() - cpu0;
      wall.sharded_s += now_s() - t0;
      wall.sharded_allocs += allocs() - a0;
      sim.sharded_events += chord_sharded.events + koorde_sharded.events;

      {
        Span span("bench.check");
        const std::string tag =
            std::string("cast ") + when + " source " + std::to_string(src);
        res.check(shape_of(chord_sharded.tree) == shape_of(*chord_serial),
                  tag + ": sharded CAM-Chord tree differs from serial");
        res.check(delivered_set(koorde_sharded.tree) ==
                      delivered_set(*koorde_serial),
                  tag + ": sharded CAM-Koorde delivered set differs");
        res.check(capacity_violations(*chord_serial, w->chord) == 0,
                  tag + ": CAM-Chord node exceeds its capacity");
        res.check(capacity_violations(*koorde_serial, w->koorde) == 0,
                  tag + ": CAM-Koorde node exceeds its capacity");
        if (phase == 0) {
          res.check(chord_serial->size() == w->chord.size(),
                    tag + ": CAM-Chord tree misses a member");
          res.check(koorde_serial->size() == w->koorde.size(),
                    tag + ": CAM-Koorde tree misses a member");
        }
        sim.signature = fold(sim.signature, chord_sharded.tree.delivery_signature());
        sim.signature = fold(sim.signature, koorde_sharded.tree.delivery_signature());
        sim.delivered += chord_serial->size() + koorde_serial->size();
        sim.expected += w->chord.size() + w->koorde.size();
        for (const MulticastTree* t : {chord_serial.get(), koorde_serial.get()}) {
          for (const auto& [node, rec] : t->entries()) sim.depth_sum += rec.depth;
        }
      }
      wall.op_us[op] += (now_s() - op_t0) * 1e6;
    }
  }
  op_id += kSources;
  res.attempted += kSources;
  wall.pass_s = now_s() - *pass_t0;
}

}  // namespace

Result run_cast(const Args& args) {
  Result res;
  Tracer* tracer = Tracer::active();
  const unsigned shards = machine().usable_cores;

  std::uint64_t op_id = 0;
  std::vector<SimOut> sims;
  std::vector<WallOut> walls;
  double timed = 0;
  do {
    const bool trace_this = args.trace && (walls.size() % 2 == 0);
    if (tracer != nullptr) tracer->set_enabled(trace_this);
    SimOut sim;
    WallOut wall;
    double t0 = 0;
    run_pass(args.seed, shards, res, op_id, sim, wall, &t0);
    res.passes.push_back({t0, t0 + wall.pass_s, trace_this});
    timed += wall.pass_s;
    if (!sims.empty()) {
      res.check(sim.same_as(sims.front()),
                "cast pass " + std::to_string(sims.size()) +
                    " simulated a different outcome than pass 0");
    }
    sims.push_back(std::move(sim));
    walls.push_back(std::move(wall));
    release_memory();
  } while (timed < args.seconds || (args.trace && walls.size() < 2));
  if (tracer != nullptr) tracer->set_enabled(false);

  const SimOut& sim0 = sims.front();
  std::vector<const std::vector<double>*> op_passes;
  std::vector<double> setup_s, build_s, pass_s, copies_rate, speedup, busy,
      events_rate, serial_ape, sharded_ape;
  double ops = 0, ops_wall = 0;
  for (const WallOut& w : walls) {
    setup_s.push_back(w.setup_s);
    build_s.push_back(w.build_s);
    pass_s.push_back(w.pass_s);
    op_passes.push_back(&w.op_us);
    ops += static_cast<double>(w.op_us.size());
    for (double us : w.op_us) ops_wall += us * 1e-6;
    // Every cast delivers to the serial reach (the sharded trees equal
    // them by the cross-check), four casts per op.
    copies_rate.push_back(2.0 * static_cast<double>(sim0.delivered) /
                          (w.serial_s + w.sharded_s));
    speedup.push_back(w.serial_s / w.sharded_s);
    busy.push_back(w.sharded_cpu_s / w.sharded_s);
    events_rate.push_back(static_cast<double>(sim0.serial_events) / w.serial_s);
    serial_ape.push_back(static_cast<double>(w.serial_allocs) /
                         static_cast<double>(sim0.serial_events));
    sharded_ape.push_back(static_cast<double>(w.sharded_allocs) /
                          static_cast<double>(sim0.sharded_events));
  }
  const std::vector<double> op_us = per_op_median(op_passes);
  double tail_pct = 0;
  const double op_tail = tail(op_us, &tail_pct);
  res.notes.push_back(
      "cast: " + std::to_string(walls.size()) + " passes, n=" +
      std::to_string(kNodes) + ", " + std::to_string(kSources) +
      " sources/pass, shards=" + std::to_string(shards) +
      " (usable cores); sim.shard.speedup base = serial casts of the same "
      "sources on one Simulator; " +
      tail_note(tail_pct, op_us.size()) +
      " (each op's median over " + std::to_string(op_passes.size()) +
      " passes)");

  res.e2e("setup_s", median(setup_s), "s");
  res.e2e("run_s", median(pass_s), "s");
  res.e2e("ops_per_s", ops / ops_wall, "1/s");
  res.e2e("op_p50_us", median(op_us), "us");
  res.e2e("op_tail_us", op_tail, "us");
  res.e2e("copies_per_s", median(copies_rate), "1/s");
  res.e2e("delivered_frac",
          static_cast<double>(sim0.delivered) /
              static_cast<double>(sim0.expected),
          "ratio");
  res.e2e("path_len_mean",
          sim0.depth_sum / static_cast<double>(sim0.delivered), "hops");

  res.layer("overlay.build_s", median(build_s), "s");
  res.layer("overlay.net_msgs", static_cast<double>(sim0.net_msgs), "count");
  res.layer("sim.events", static_cast<double>(sim0.serial_events), "count");
  res.layer("sim.events_per_s", median(events_rate), "1/s");
  res.layer("sim.allocs_per_event", median(serial_ape), "ratio");
  res.layer("sim.shard.speedup", median(speedup), "ratio");
  res.layer("sim.shard.cores_busy", median(busy), "ratio");
  res.layer("sim.shard.allocs_per_event", median(sharded_ape), "ratio");
  return res;
}

}  // namespace perfbench
