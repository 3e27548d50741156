// fleet — the ROADMAP end-to-end path: workload -> placement ->
// streaming -> failover.
//
// A workload-DSL script (zipf group fleet, one flash wave, a diurnal
// churn window, two region-failure bursts) is generated against a
// 200k-node U[4..10] population and replayed event by event through a
// SessionLayer with standby parents and parking on. Every group with a
// receiver then streams through the MultiGroupForwarder (shared FIFO
// uplinks) while interior members crash mid-stream; the crashes reach
// the data plane as a FailoverScript — parent/child prunes at the
// heartbeat detector's instants, reattaches where fail_node's failover
// log re-hung each orphan.
//
// Op = one SessionEvent. The event engine (Simulator) is never used
// here, so engine changes are predicted flat on this workload.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "overlay/directory.h"
#include "probe.h"
#include "session/failover.h"
#include "session/multi_forwarder.h"
#include "session/session.h"
#include "sim/latency.h"
#include "strategy/strategy.h"
#include "util/rng.h"
#include "workload/population.h"
#include "workload/session_workload.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace cam;
using session::GroupId;

constexpr std::size_t kNodes = 200'000;
constexpr int kRingBits = 23;  // id space >= 32x the population
constexpr std::uint32_t kPackets = 12;   // per streamed group
constexpr std::size_t kStreamCrashes = 24;
constexpr SimTime kCrashStartMs = 40;
constexpr SimTime kCrashGapMs = 40;  // > detection + reattach cost
constexpr double kHeartbeatMs = 2.0;
constexpr double kHeartbeatJitter = 0.5;
constexpr double kStandbyRttMs = 2.0;
constexpr double kHopRttMs = 2.0;

/// Delegating strategy: every lookup() SessionLayer issues during
/// placement is timed as a strategy.lookup span nested in its
/// session.* span, and counted with its hop count.
class TimedStrategy final : public strategy::MulticastStrategy {
 public:
  explicit TimedStrategy(const strategy::MulticastStrategy& inner)
      : inner_(inner) {}

  std::string_view name() const override { return inner_.name(); }
  std::string_view display_name() const override {
    return inner_.display_name();
  }
  bool capacity_aware() const override { return inner_.capacity_aware(); }
  bool has_protocol_mode() const override {
    return inner_.has_protocol_mode();
  }
  MulticastTree build_tree(const FrozenDirectory& dir, Id source,
                           const strategy::StrategyParams& p) const override {
    return inner_.build_tree(dir, source, p);
  }
  bool supports_lookup() const override { return inner_.supports_lookup(); }
  LookupResult lookup(const FrozenDirectory& dir, Id from, Id target,
                      const strategy::StrategyParams& p) const override {
    Span span("strategy.lookup");
    LookupResult r = inner_.lookup(dir, from, target, p);
    ++lookups;
    hops += r.hops();
    return r;
  }
  std::uint32_t provisioned_links(
      const FrozenDirectory& dir, Id x,
      const strategy::StrategyParams& p) const override {
    return inner_.provisioned_links(dir, x, p);
  }

  mutable std::uint64_t lookups = 0;
  mutable std::uint64_t hops = 0;

 private:
  const strategy::MulticastStrategy& inner_;
};

struct Setup {
  std::unique_ptr<FrozenDirectory> dir;
  std::vector<workload::SessionEvent> events;
  std::string plan_text;
};

/// The fleet script. The flash wave is large enough that its last joins
/// (into a group of ~600) are the slowest ops whatever the seed, so the
/// op tail measures placement into a big group rather than which nodes
/// the region failures happened to hit.
std::string plan_text(std::uint64_t seed, const RingSpace& ring) {
  Rng rng(seed ^ 0xf1ee7ULL);
  const Id c1 = rng.next_below(ring.size());
  const Id c2 = rng.next_below(ring.size());
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "groups n=5000 alpha=1 min=2 max=64\n"
                "flash group=1 at=10 joins=600 spacing=0.5\n"
                "diurnal start=200 end=1200 period=500 amp=0.5 join=3 "
                "leave=2\n"
                "regionfail at=600 center=%llu radius=0.001 n=16\n"
                "regionfail at=1000 center=%llu radius=0.001 n=16\n",
                static_cast<unsigned long long>(c1),
                static_cast<unsigned long long>(c2));
  return buf;
}

Setup build_setup(std::uint64_t seed, double* generate_s) {
  Setup s;
  workload::PopulationSpec spec;
  spec.n = kNodes;
  spec.ring_bits = kRingBits;
  spec.bw_lo_kbps = 400;
  spec.bw_hi_kbps = 1000;
  spec.seed = seed;
  {
    Span span("workload.population");
    s.dir = std::make_unique<FrozenDirectory>(
        workload::uniform_capacity_population(spec, 4, 10).freeze());
  }
  s.plan_text = plan_text(seed, s.dir->ring());
  const double t0 = now_s();
  {
    Span span("workload.generate");
    std::string error;
    const auto plan = workload::WorkloadPlan::parse(s.plan_text, &error);
    if (!plan) {
      std::fprintf(stderr, "fleet: bad plan: %s\n", error.c_str());
      return s;
    }
    s.events = workload::generate_events(*plan, *s.dir, seed);
  }
  *generate_s = now_s() - t0;
  return s;
}

/// Everything a pass simulates; two passes must agree exactly.
struct SimOut {
  session::SessionCounters counters;
  std::uint64_t joins_rejected = 0;
  std::uint64_t copies_delivered = 0;
  std::uint64_t copies_expected = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t reattaches = 0;
  std::uint64_t repaired = 0;
  std::uint64_t gap_packets = 0;
  std::uint64_t copies_sent = 0;
  std::size_t streamed_groups = 0;
  std::size_t victims = 0;
  double goodput_kbps = 0;
  double delivery_p99_ms = 0;
  double max_backlog_ms = 0;
  double reattach_p50_ms = 0;
  double mean_depth = 0;

  bool same_as(const SimOut& o) const {
    const session::SessionCounters& a = counters;
    const session::SessionCounters& b = o.counters;
    return a.joins_ok == b.joins_ok && a.joins_rejected == b.joins_rejected &&
           a.leaves == b.leaves && a.failures == b.failures &&
           a.reparented == b.reparented &&
           a.parked_subtrees == b.parked_subtrees &&
           a.readmitted_subtrees == b.readmitted_subtrees &&
           copies_delivered == o.copies_delivered &&
           copies_expected == o.copies_expected &&
           duplicates == o.duplicates && reattaches == o.reattaches &&
           repaired == o.repaired && gap_packets == o.gap_packets &&
           copies_sent == o.copies_sent && goodput_kbps == o.goodput_kbps &&
           delivery_p99_ms == o.delivery_p99_ms &&
           reattach_p50_ms == o.reattach_p50_ms &&
           mean_depth == o.mean_depth;
  }
};

/// Wall figures of one pass.
struct WallOut {
  double pass_s = 0;
  double session_s = 0;  // the script, one op per event
  double stream_s = 0;   // MultiGroupForwarder::run
  std::uint64_t stream_allocs = 0;
  std::vector<double> op_us;
  std::vector<double> fail_node_us;  // mid-stream failover surgery
};

/// The mid-stream victims: in the largest streamed groups, the deepest
/// interior member that sources no group; victims share no group, so
/// one victim's surgery never reshapes another victim's neighborhood.
std::vector<Id> pick_victims(const session::SessionLayer& layer,
                             const std::vector<GroupId>& streamed) {
  std::set<Id> sources;
  for (GroupId g : layer.group_ids()) sources.insert(layer.group(g)->source());
  std::vector<GroupId> by_size = streamed;
  std::stable_sort(by_size.begin(), by_size.end(), [&](GroupId a, GroupId b) {
    return layer.group(a)->size() > layer.group(b)->size();
  });
  std::set<GroupId> touched;
  std::vector<Id> victims;
  for (GroupId g : by_size) {
    if (victims.size() >= kStreamCrashes) break;
    if (touched.contains(g)) continue;
    const session::GroupTree* tree = layer.group(g);
    Id best = 0;
    int best_depth = 0;
    for (Id m : tree->sorted_members()) {
      const session::GroupTree::Member& mem = tree->member(m);
      if (mem.depth < 1 || mem.children.empty() || sources.contains(m)) {
        continue;
      }
      if (mem.depth > best_depth) {
        best = m;
        best_depth = mem.depth;
      }
    }
    if (best_depth == 0) continue;
    std::vector<GroupId> mine;
    bool clash = false;
    for (GroupId h : streamed) {
      if (!layer.group(h)->contains(best)) continue;
      if (touched.contains(h)) clash = true;
      mine.push_back(h);
    }
    if (clash) continue;
    touched.insert(mine.begin(), mine.end());
    victims.push_back(best);
  }
  return victims;
}

/// Detector instants of one mid-stream crash: every watcher of `victim`
/// in a streamed group (its parent and children) prunes its edge once
/// its strike windows close, strikes * max(floor, period * (1 + jitter
/// * (u - 0.5))) after the crash, u being the edge's schedule hash.
/// Returns the first watcher's instant — when the control plane learns
/// of the crash (the crash instant when nobody watches).
SimTime plan_prunes(const session::SessionLayer& layer,
                    const std::vector<GroupId>& streamed, Id victim,
                    SimTime t_crash, session::FailoverScript& script) {
  const session::HeartbeatSchedule sched(0x5eedULL, kHeartbeatMs,
                                         kHeartbeatJitter);
  const session::DetectorParams dp;
  SimTime announce = 0;
  bool watched = false;
  for (GroupId g : streamed) {
    const session::GroupTree* tree = layer.group(g);
    if (!tree->contains(victim) || layer.is_parked(g, victim)) continue;
    const session::GroupTree::Member& mem = tree->member(victim);
    std::vector<Id> watchers = mem.children;
    watchers.push_back(mem.parent);
    for (Id w : watchers) {
      const double u = sched.hash_uniform(w, victim, 0x9E3779B97F4A7C15ULL);
      const double window = std::max(
          dp.floor_ms, kHeartbeatMs * (1 + kHeartbeatJitter * (u - 0.5)));
      const SimTime at = t_crash + static_cast<double>(dp.strikes) * window;
      if (w == mem.parent) {
        script.prunes.push_back({at, g, mem.parent, victim});
      } else {
        script.prunes.push_back({at, g, victim, w});
      }
      if (!watched || at < announce) announce = at;
      watched = true;
    }
  }
  return watched ? announce : t_crash;
}

void run_pass(const Setup& s, const TimedStrategy& strat, Result& res,
              std::uint64_t& op_id, SimOut& sim, WallOut& wall) {
  Tracer* tracer = Tracer::active();
  const double pass_t0 = now_s();

  auto layer = std::make_unique<session::SessionLayer>(*s.dir, strat);
  layer->set_failover_policy(session::FailoverPolicy{true, true});

  // --- session phase: one op per SessionEvent --------------------------
  wall.op_us.reserve(s.events.size());
  const double session_t0 = now_s();
  for (const workload::SessionEvent& e : s.events) {
    ++op_id;
    if (tracer != nullptr) tracer->set_op(op_id);
    const double t0 = now_s();
    switch (e.op) {
      case workload::SessionOp::kCreate: {
        Span span("session.create");
        layer->create_group(e.group, e.node);
        break;
      }
      case workload::SessionOp::kJoin: {
        Span span("session.join");
        const session::JoinResult r = layer->join(e.group, e.node);
        if (r.outcome == session::JoinOutcome::kNoCapacity) {
          ++sim.joins_rejected;
        }
        break;
      }
      case workload::SessionOp::kLeave: {
        Span span("session.leave");
        layer->leave(e.group, e.node);
        (void)layer->take_failover_log();  // readmissions
        break;
      }
      case workload::SessionOp::kFail: {
        Span span("session.fail");
        layer->fail_node(e.node);
        (void)layer->take_failover_log();
        break;
      }
    }
    wall.op_us.push_back((now_s() - t0) * 1e6);
  }
  wall.session_s = now_s() - session_t0;
  res.attempted += s.events.size();

  auto check_layer = [&](const char* when) {
    Span span("session.check");
    for (const std::string& line : layer->check()) {
      res.check(false, std::string("fleet session.check ") + when + ": " +
                           line);
    }
  };
  check_layer("after script");
  sim.counters = layer->counters();

  // --- streaming with mid-stream failover ------------------------------
  std::vector<session::GroupTraffic> traffic;
  std::vector<GroupId> streamed;
  std::vector<Id> victims;
  {
    Span span("bench.plan");
    double depth_sum = 0;
    std::size_t receivers = 0;
    for (GroupId g : layer->group_ids()) {
      const session::GroupTree* tree = layer->group(g);
      if (tree->size() < 2) continue;
      streamed.push_back(g);
      session::GroupTraffic t;
      t.group = g;
      t.num_packets = kPackets;
      traffic.push_back(t);
      for (Id m : tree->sorted_members()) {
        if (m == tree->source()) continue;
        depth_sum += tree->member(m).depth;
        ++receivers;
      }
    }
    sim.mean_depth = receivers == 0 ? 0 : depth_sum / receivers;
    victims = pick_victims(*layer, streamed);
  }
  sim.streamed_groups = traffic.size();
  sim.victims = victims.size();

  const UniformLatency latency(2.0, 9.0, 0x5eedULL);
  std::unique_ptr<session::MultiGroupForwarder> fwd;
  {
    Span span("dataplane.ctor");
    // Snapshot before any surgery: the data plane learns of the crashes
    // only through the FailoverScript, like one whose control plane
    // lags detection.
    fwd = std::make_unique<session::MultiGroupForwarder>(
        *layer, latency, session::MultiGroupConfig{session::SchedMode::kShared});
  }

  session::FailoverScript script;
  std::vector<double> reattach_ms;
  for (std::size_t i = 0; i < victims.size(); ++i) {
    const Id victim = victims[i];
    const SimTime t_crash = kCrashStartMs + kCrashGapMs * static_cast<double>(i);
    SimTime announce = 0;
    {
      Span span("bench.plan");
      script.crashes.push_back({t_crash, victim});
      announce = plan_prunes(*layer, streamed, victim, t_crash, script);
    }
    const double f0 = now_s();
    std::vector<session::ReattachRecord> log;
    {
      Span span("failover.fail_node");
      layer->fail_node(victim);
      log = layer->take_failover_log();
    }
    wall.fail_node_us.push_back((now_s() - f0) * 1e6);
    // A standby re-hang costs one control round trip; a full placement
    // one round trip per lookup hop plus the attach.
    Span span("bench.plan");
    using How = session::ReattachRecord::How;
    for (const session::ReattachRecord& r : log) {
      if (r.how != How::kStandby && r.how != How::kPlacement) continue;
      const SimTime done =
          r.how == How::kStandby
              ? announce + kStandbyRttMs
              : announce + static_cast<double>(r.lookup_hops + 1) * kHopRttMs;
      reattach_ms.push_back(done - t_crash);
      script.reattaches.push_back({done, r.group, r.child, r.parent});
    }
  }
  {
    // Parked members throttle their sources instead of being dropped.
    Span span("bench.plan");
    for (session::GroupTraffic& t : traffic) t.throttle = layer->throttle(t.group);
  }
  check_layer("after stream surgery");
  sim.reattach_p50_ms = reattach_ms.empty() ? 0 : quantile(reattach_ms, 0.5);

  const double t0 = now_s();
  const std::uint64_t a0 = allocs();
  session::MultiGroupStats stats;
  {
    Span span("dataplane.run");
    stats = fwd->run(traffic, script);
  }
  wall.stream_allocs = allocs() - a0;
  wall.stream_s = now_s() - t0;

  {
    Span span("bench.check");
    for (const session::GroupRunStats& g : stats.groups) {
      sim.copies_delivered += g.copies_delivered;
      sim.copies_expected += g.copies_expected;
      sim.duplicates += g.duplicate_deliveries;
      sim.reattaches += g.reattaches;
      sim.repaired += g.repaired_copies;
      sim.gap_packets += g.gap_packets_total;
      res.check(g.duplicate_deliveries == 0,
                "fleet group " + std::to_string(g.group) + ": " +
                    std::to_string(g.duplicate_deliveries) +
                    " duplicate deliveries");
      res.check(g.copies_delivered == g.copies_expected,
                "fleet group " + std::to_string(g.group) + ": delivered " +
                    std::to_string(g.copies_delivered) + " of " +
                    std::to_string(g.copies_expected) +
                    " outside crashed subtrees");
    }
    sim.copies_sent = stats.copies_sent;
    sim.goodput_kbps = stats.aggregate_goodput_kbps;
    sim.delivery_p99_ms = stats.p99_latency_ms;
    sim.max_backlog_ms = stats.max_backlog_ms;
  }
  wall.pass_s = now_s() - pass_t0;
  // Tear-down is outside the pass: it is not part of the measured path.
  fwd.reset();
  layer.reset();
}

}  // namespace

Result run_fleet(const Args& args) {
  Result res;
  Tracer* tracer = Tracer::active();

  const strategy::MulticastStrategy& base =
      strategy::registry().make("camchord");

  // --- passes: set-up, then the timed phase ----------------------------
  std::uint64_t op_id = 0;
  std::vector<SimOut> sims;
  std::vector<WallOut> walls;
  std::vector<double> setup_s, generate_s;
  std::uint64_t lookups = 0, lookup_hops = 0;
  std::size_t events = 0;
  double timed = 0;
  do {
    const bool trace_this = args.trace && (walls.size() % 2 == 0);
    if (tracer != nullptr) tracer->set_enabled(trace_this);
    const double s0 = now_s();
    double gen = 0;
    const Setup s = build_setup(args.seed, &gen);
    setup_s.push_back(now_s() - s0);
    generate_s.push_back(gen);
    events = s.events.size();
    if (s.events.empty()) {
      res.check(false, "fleet: empty event script");
      ++res.attempted;
      break;
    }
    SimOut sim;
    WallOut wall;
    const TimedStrategy strat(base);
    const double t0 = now_s();
    run_pass(s, strat, res, op_id, sim, wall);
    res.passes.push_back({t0, t0 + wall.pass_s, trace_this});
    timed += wall.pass_s;
    if (sims.empty()) {
      lookups = strat.lookups;
      lookup_hops = strat.hops;
    } else {
      res.check(sim.same_as(sims.front()),
                "fleet pass " + std::to_string(sims.size()) +
                    " simulated a different outcome than pass 0");
    }
    sims.push_back(sim);
    walls.push_back(std::move(wall));
    release_memory();
  } while (timed < args.seconds || (args.trace && walls.size() < 2));
  if (tracer != nullptr) tracer->set_enabled(false);
  if (sims.empty()) return res;

  const SimOut& sim0 = sims.front();
  std::vector<double> pass_s, session_s, copies_rate;
  std::vector<const std::vector<double>*> op_passes;
  double ops = 0, session_total = 0;
  for (const WallOut& w : walls) {
    pass_s.push_back(w.pass_s);
    session_s.push_back(w.session_s);
    copies_rate.push_back(static_cast<double>(sim0.copies_delivered) /
                          w.stream_s);
    op_passes.push_back(&w.op_us);
    ops += static_cast<double>(w.op_us.size());
    session_total += w.session_s;
  }
  const std::vector<double> op_us = per_op_median(op_passes);
  double tail_pct = 0;
  const double op_tail = tail(op_us, &tail_pct);
  res.notes.push_back("fleet: " + std::to_string(walls.size()) +
                      " passes, " + std::to_string(events) +
                      " session events/pass, " +
                      std::to_string(sim0.streamed_groups) +
                      " streamed groups, " + std::to_string(sim0.victims) +
                      " mid-stream crashes; " + tail_note(tail_pct, op_us.size()) +
      " (each op's median over " + std::to_string(op_passes.size()) +
      " passes)");

  res.e2e("setup_s", median(setup_s), "s");
  res.e2e("run_s", median(pass_s), "s");
  res.e2e("ops_per_s", ops / session_total, "1/s");
  res.e2e("op_p50_us", median(op_us), "us");
  res.e2e("op_tail_us", op_tail, "us");
  res.e2e("copies_per_s", median(copies_rate), "1/s");
  res.e2e("delivered_frac",
          static_cast<double>(sim0.copies_delivered) /
              static_cast<double>(std::max<std::uint64_t>(
                  1, sim0.copies_expected)),
          "ratio");
  res.e2e("path_len_mean", sim0.mean_depth, "hops");

  // --- per-layer --------------------------------------------------------
  res.layer("workload.generate_s", median(generate_s), "s");
  res.layer("workload.events", static_cast<double>(events), "count");
  res.layer("session.joins", static_cast<double>(sim0.counters.joins_ok),
            "count");
  res.layer("session.joins_rejected",
            static_cast<double>(sim0.joins_rejected), "count");
  res.layer("session.reparented",
            static_cast<double>(sim0.counters.reparented), "count");
  res.layer("strategy.lookups", static_cast<double>(lookups), "count");
  res.layer("strategy.lookup_hops_mean",
            lookups == 0 ? 0
                         : static_cast<double>(lookup_hops) /
                               static_cast<double>(lookups),
            "hops");
  res.layer("failover.reattaches", static_cast<double>(sim0.reattaches),
            "count");
  res.layer("failover.repaired_copies", static_cast<double>(sim0.repaired),
            "count");
  res.layer("failover.gap_packets", static_cast<double>(sim0.gap_packets),
            "count");
  res.layer("failover.parked",
            static_cast<double>(sim0.counters.parked_subtrees), "count");
  res.layer("failover.readmitted",
            static_cast<double>(sim0.counters.readmitted_subtrees), "count");
  res.layer("failover.reattach_p50_ms", sim0.reattach_p50_ms, "ms");
  std::vector<double> fail_us, allocs_per_copy;
  for (const WallOut& w : walls) {
    fail_us.insert(fail_us.end(), w.fail_node_us.begin(), w.fail_node_us.end());
    allocs_per_copy.push_back(static_cast<double>(w.stream_allocs) /
                              static_cast<double>(std::max<std::uint64_t>(
                                  1, sim0.copies_sent)));
  }
  res.layer("failover.fail_node_us", median(fail_us), "us");
  res.layer("dataplane.copies", static_cast<double>(sim0.copies_delivered),
            "count");
  res.layer("dataplane.allocs_per_copy", median(allocs_per_copy), "ratio");
  res.layer("dataplane.max_backlog_ms", sim0.max_backlog_ms, "ms");
  res.layer("dataplane.goodput_kbps", sim0.goodput_kbps, "kbps");
  res.layer("dataplane.delivery_p99_ms", sim0.delivery_p99_ms, "ms");
  res.layer("session.apply_s", median(session_s), "s");
  return res;
}

}  // namespace perfbench
