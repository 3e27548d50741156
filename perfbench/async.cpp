// async — the full protocol stack: asynchronous CAM-Chord and
// CAM-Koorde grown to n = 400 by joins over a HostBus, stabilized for
// at most 20 virtual seconds, then rounds of maintenance (run_for) and
// one multicast per overlay: clean rounds, rounds under 1% HostBus
// loss, then a 10% crash wave and more lossy rounds. HostBus, RPC and
// timers do the work — timer-heavy maintenance writes beside multicast
// reads, on the same Simulator the cast workload drives with one-shot
// delivery bursts.
//
// The grown world and its fault plan (loss stream, crash victims, the
// sources of the degraded rounds) are fixed; --seed picks the sources
// of the clean rounds, which run on a second, identically grown world.
// Worlds grown from different populations fall into two regimes — the
// CAM-Koorde ring converges or it stalls — and in a lossy, crashing
// async overlay one different source changes every later round's cost,
// so seeding either would measure input luck more than the code.
//
// Op = one round (one multicast per overlay). Checks: exactly-once
// delivery past the dedupe layer in every round (fault::InvariantChecker
// over a delivery-only Tracer), and CAM-Chord reaching every live
// member in loss-free, crash-free rounds. In this world async
// CAM-Koorde leaves live members unreached even in clean rounds (its
// ring stalls short of consistency); that known defect is kept
// visible, not gated: it is counted as proto.koorde_missed and lowers
// delivered_frac.
//
// In the traced run, passes cycle through (traced), (untraced) and
// (untraced, metrics Registry attached); the other passes and every
// end-to-end run attach only the delivery Tracer.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "fault/invariants.h"
#include "probe.h"
#include "proto/async_camchord.h"
#include "proto/async_camkoorde.h"
#include "proto/host_bus.h"
#include "sim/latency.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace cam;

constexpr std::size_t kNodes = 400;
constexpr int kRingBits = 16;
constexpr std::uint64_t kWorldSeed = 5;
constexpr int kCleanRounds = 6;
constexpr int kLossyRounds = 6;
constexpr int kCrashRounds = 6;
constexpr double kLoss = 0.01;
constexpr double kCrashFraction = 0.10;
constexpr SimTime kRoundMaintMs = 1'000;
constexpr SimTime kDetectMs = 4'000;  // maintenance right after the wave
constexpr SimTime kSettleMs = 20'000;
constexpr SimTime kRefreshMs = 10'000;

/// One overlay with its private engine, network, bus and the delivery
/// Tracer the exactly-once check reads.
template <typename Net>
struct Stack {
  Simulator sim;
  UniformLatency lat;
  Network net;
  proto::HostBus bus;
  telemetry::Tracer deliveries{
      1 << 13, telemetry::event_bit(telemetry::EventType::kMulticastDeliver)};
  Net overlay;

  Stack()
      : lat(5, 25, kWorldSeed), net(sim, lat), bus(net),
        overlay(RingSpace(kRingBits), bus) {}

  void grow() {
    Rng rng(kWorldSeed ^ 0xc0deULL);
    auto info = [&] {
      return NodeInfo{static_cast<std::uint32_t>(rng.uniform(4, 10)),
                      400 + rng.next_double() * 600};
    };
    const RingSpace& ring = overlay.ring();
    overlay.bootstrap(rng.next_below(ring.size()), info());
    overlay.run_for(500);
    while (overlay.size() < kNodes) {
      const std::size_t batch =
          std::min<std::size_t>(8, kNodes - overlay.size());
      const std::vector<Id> members = overlay.members_sorted();
      for (std::size_t i = 0; i < batch; ++i) {
        const Id id = rng.next_below(ring.size());
        if (overlay.known(id)) continue;
        overlay.spawn(id, info(), members[rng.next_below(members.size())]);
      }
      overlay.run_for(400);
    }
    // Stabilize until the ring is consistent, for at most the settle
    // budget (async CAM-Koorde stalls short of it), then give every node
    // a full table-refresh interval.
    const SimTime deadline = sim.now() + kSettleMs;
    while (overlay.ring_consistency() < 1.0 && sim.now() < deadline) {
      overlay.run_for(2'000);
    }
    overlay.run_for(kRefreshMs);
  }
};

/// Everything a pass simulates; two passes must agree exactly.
struct SimOut {
  std::uint64_t reached = 0;    // live non-source members delivered
  std::uint64_t expected = 0;   // live non-source members
  std::uint64_t depth_sum = 0;  // over every recorded delivery
  std::uint64_t deliveries = 0;
  std::uint64_t redundant = 0;  // second copies received (and suppressed)
  std::uint64_t koorde_missed = 0;  // clean rounds only
  std::uint64_t events = 0;

  bool same_as(const SimOut& o) const {
    return reached == o.reached && expected == o.expected &&
           depth_sum == o.depth_sum && deliveries == o.deliveries &&
           redundant == o.redundant && koorde_missed == o.koorde_missed &&
           events == o.events;
  }
};

struct WallOut {
  double setup_s = 0;
  double pass_s = 0;
  double cast_s = 0;  // multicast()
  std::uint64_t allocs = 0;
  std::vector<double> op_us;
};

struct ProtoCounters {
  std::uint64_t msgs[kNumMsgClasses] = {};
  std::uint64_t loss_drops = 0;
  std::uint64_t rpc_timeouts = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t repair_pulls = 0;

  void add(const telemetry::Registry& reg) {
    for (int k = 0; k < kNumMsgClasses; ++k) {
      msgs[k] += reg.value("bus.msgs", static_cast<MsgClass>(k));
    }
    loss_drops += reg.value("bus.drops.loss");
    rpc_timeouts += reg.value("rpc.timeouts");
    retransmits += reg.value("mc.retransmits");
    repair_pulls += reg.value("repair.pulls");
  }
};

template <typename Net>
void maintain(Stack<Net>& st, SimTime ms) {
  Span span("proto.run");
  st.overlay.run_for(ms);
}

template <typename Net>
void cast_once(Stack<Net>& st, Rng& rng, bool clean, bool is_chord, int round,
               Result& res, SimOut& sim, WallOut& wall) {
  maintain(st, kRoundMaintMs);
  Id src = 0;
  std::vector<Id> members;
  {
    Span span("bench.plan");
    members = st.overlay.members_sorted();
    src = members[rng.next_below(members.size())];
    st.deliveries.clear();
  }
  const double t0 = now_s();
  std::unique_ptr<MulticastTree> tree;
  {
    Span span("proto.cast");
    tree = std::make_unique<MulticastTree>(st.overlay.multicast(src));
  }
  wall.cast_s += now_s() - t0;

  Span span("bench.check");
  const std::string tag = std::string(is_chord ? "CAM-Chord" : "CAM-Koorde") +
                          " round " + std::to_string(round);
  const fault::InvariantChecker checker(st.overlay);
  const auto dupes = checker.check_trace_dedupe(st.deliveries.events(),
                                                st.overlay.last_stream_id());
  res.check(dupes.empty() && st.deliveries.dropped() == 0,
            "async " + tag + ": " + std::to_string(dupes.size()) +
                " members delivered more than once");
  const std::uint64_t want = members.size() - 1;
  std::uint64_t got = 0;
  for (const auto& [node, rec] : tree->entries()) {
    if (node == src) continue;
    if (st.overlay.running(node)) ++got;
    sim.depth_sum += static_cast<std::uint64_t>(rec.depth);
    ++sim.deliveries;
  }
  sim.reached += got;
  sim.expected += want;
  sim.redundant += tree->duplicate_deliveries();
  if (!clean) return;
  if (is_chord) {
    res.check(got == want, "async " + tag + ": reached " +
                               std::to_string(got) + " of " +
                               std::to_string(want) +
                               " live members in a clean round");
  } else {
    sim.koorde_missed += want - got;
  }
}

template <typename Net>
void crash_wave(Stack<Net>& st, Rng& rng) {
  std::vector<Id> members = st.overlay.members_sorted();
  const auto n = static_cast<std::size_t>(
      kCrashFraction * static_cast<double>(members.size()));
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t k = rng.next_below(members.size());
    st.overlay.crash(members[k]);
    members.erase(members.begin() + static_cast<std::ptrdiff_t>(k));
  }
}

/// One CAM-Chord and one CAM-Koorde stack grown from the fixed
/// population, with the metrics registries the traced run attaches.
struct World {
  // The registries outlive the overlays they are attached to.
  telemetry::Registry chord_reg, koorde_reg;
  Stack<proto::AsyncCamChordNet> chord;
  Stack<proto::AsyncCamKoordeNet> koorde;

  World() {
    chord.grow();
    koorde.grow();
  }

  void attach(bool with_metrics) {
    chord.overlay.set_telemetry(
        {with_metrics ? &chord_reg : nullptr, &chord.deliveries});
    koorde.overlay.set_telemetry(
        {with_metrics ? &koorde_reg : nullptr, &koorde.deliveries});
  }

  std::uint64_t events() const {
    return chord.sim.events_executed() + koorde.sim.events_executed();
  }
};

void run_pass(std::uint64_t seed, bool with_metrics, Result& res,
              std::uint64_t& op_id, SimOut& sim, WallOut& wall,
              ProtoCounters& counters, double* pass_t0) {
  Tracer* tracer = Tracer::active();
  // Clean rounds run on one world and the degraded rounds on a second,
  // identically grown one: the fixed fault plan then starts from the
  // same state whatever the seeded clean rounds left behind in the
  // first (seen streams, repair digests, timers).
  const double s0 = now_s();
  auto clean = std::make_unique<World>();
  auto degraded = std::make_unique<World>();
  wall.setup_s = now_s() - s0;
  clean->attach(with_metrics);
  degraded->attach(with_metrics);

  // The degraded rounds' sources belong to the fixed fault plan too:
  // which datagram the loss stream drops depends on every message sent
  // before it.
  Rng clean_rng(seed ^ 0xa5f0ULL);
  Rng fault_rng(kWorldSeed ^ 0xa5f0ULL);
  const std::uint64_t e0 = clean->events() + degraded->events();
  const std::uint64_t a0 = allocs();
  *pass_t0 = now_s();
  const int rounds = kCleanRounds + kLossyRounds + kCrashRounds;
  for (int r = 0; r < rounds; ++r) {
    World& w = r < kCleanRounds ? *clean : *degraded;
    if (r == kCleanRounds) {
      Span span("proto.set_loss");
      w.chord.bus.set_loss(kLoss, kWorldSeed ^ 0x1055ULL);
      w.koorde.bus.set_loss(kLoss, kWorldSeed ^ 0x1055ULL);
    }
    if (r == kCleanRounds + kLossyRounds) {
      {
        Span span("proto.crash_wave");
        Rng victims(kWorldSeed ^ 0xdeadULL);
        crash_wave(w.chord, victims);
        crash_wave(w.koorde, victims);
      }
      maintain(w.chord, kDetectMs);
      maintain(w.koorde, kDetectMs);
    }
    ++op_id;
    if (tracer != nullptr) tracer->set_op(op_id);
    const double t0 = now_s();
    const bool is_clean = r < kCleanRounds;
    Rng& rng = is_clean ? clean_rng : fault_rng;
    cast_once(w.chord, rng, is_clean, true, r, res, sim, wall);
    cast_once(w.koorde, rng, is_clean, false, r, res, sim, wall);
    wall.op_us.push_back((now_s() - t0) * 1e6);
    ++res.attempted;
  }
  wall.pass_s = now_s() - *pass_t0;
  wall.allocs = allocs() - a0;
  sim.events = clean->events() + degraded->events() - e0;
  if (with_metrics) {
    for (const World* w : {clean.get(), degraded.get()}) {
      counters.add(w->chord_reg);
      counters.add(w->koorde_reg);
    }
  }
}

}  // namespace

Result run_async(const Args& args) {
  Result res;
  Tracer* tracer = Tracer::active();
  std::uint64_t op_id = 0;
  std::vector<SimOut> sims;
  std::vector<WallOut> walls;
  ProtoCounters counters;
  int metric_passes = 0;
  double timed = 0;
  do {
    const std::size_t k = walls.size();
    const bool trace_this = args.trace && k % 3 == 0;
    const bool with_metrics = args.trace && k % 3 == 2;
    if (tracer != nullptr) tracer->set_enabled(trace_this);
    SimOut sim;
    WallOut wall;
    double t0 = 0;
    run_pass(args.seed, with_metrics, res, op_id, sim, wall, counters, &t0);
    res.passes.push_back({t0, t0 + wall.pass_s, trace_this, with_metrics});
    if (with_metrics) ++metric_passes;
    timed += wall.pass_s;
    if (!sims.empty()) {
      res.check(sim.same_as(sims.front()),
                "async pass " + std::to_string(sims.size()) +
                    " simulated a different outcome than pass 0");
    }
    sims.push_back(sim);
    walls.push_back(std::move(wall));
    release_memory();
  } while (timed < args.seconds || (args.trace && walls.size() < 3));
  if (tracer != nullptr) tracer->set_enabled(false);

  const SimOut& sim0 = sims.front();
  std::vector<const std::vector<double>*> op_passes;
  std::vector<double> setup_s, pass_s, copies_rate, events_rate, ape,
      with_reg, without_reg;
  double ops = 0, ops_wall = 0;
  for (std::size_t i = 0; i < walls.size(); ++i) {
    const WallOut& w = walls[i];
    setup_s.push_back(w.setup_s);
    const Result::Pass& p = res.passes[i];
    if (p.telemetry) {
      with_reg.push_back(w.pass_s);
      continue;  // end-to-end figures come from Registry-free passes
    }
    if (!p.traced) without_reg.push_back(w.pass_s);
    op_passes.push_back(&w.op_us);
    ops += static_cast<double>(w.op_us.size());
    for (double us : w.op_us) ops_wall += us * 1e-6;
    pass_s.push_back(w.pass_s);
    copies_rate.push_back(static_cast<double>(sim0.deliveries) / w.cast_s);
    events_rate.push_back(static_cast<double>(sim0.events) / w.pass_s);
    ape.push_back(static_cast<double>(w.allocs) /
                  static_cast<double>(sim0.events));
  }
  const std::vector<double> op_us = per_op_median(op_passes);
  double tail_pct = 0;
  const double op_tail = tail(op_us, &tail_pct);
  res.notes.push_back(
      "async: " + std::to_string(walls.size()) + " passes, n=" +
      std::to_string(kNodes) + ", " +
      std::to_string(kCleanRounds + kLossyRounds + kCrashRounds) +
      " rounds/pass; known defect: async CAM-Koorde left " +
      std::to_string(sim0.koorde_missed) +
      " live members unreached in clean rounds; " +
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
          static_cast<double>(sim0.reached) /
              static_cast<double>(sim0.expected),
          "ratio");
  res.e2e("path_len_mean",
          static_cast<double>(sim0.depth_sum) /
              static_cast<double>(sim0.deliveries),
          "hops");

  res.layer("sim.events", static_cast<double>(sim0.events), "count");
  res.layer("sim.events_per_s", median(events_rate), "1/s");
  res.layer("sim.allocs_per_event", median(ape), "ratio");
  res.layer("proto.koorde_missed", static_cast<double>(sim0.koorde_missed),
            "count");
  res.layer("proto.redundant_copies", static_cast<double>(sim0.redundant),
            "count");
  if (args.trace) {
    // Per pass with the metrics Registry attached.
    const double per = 1.0 / std::max(1, metric_passes);
    for (int k = 0; k < kNumMsgClasses; ++k) {
      res.layer(std::string("proto.msgs_") +
                    msg_class_name(static_cast<MsgClass>(k)),
                static_cast<double>(counters.msgs[k]) * per, "count");
    }
    res.layer("proto.loss_drops", counters.loss_drops * per, "count");
    res.layer("proto.rpc_timeouts", counters.rpc_timeouts * per, "count");
    res.layer("proto.retransmits", counters.retransmits * per, "count");
    res.layer("proto.repair_pulls", counters.repair_pulls * per, "count");
    res.layer("telemetry.overhead_frac",
              without_reg.empty() || with_reg.empty()
                  ? 0
                  : median(with_reg) / median(without_reg) - 1.0,
              "ratio");
  }
  return res;
}

}  // namespace perfbench
