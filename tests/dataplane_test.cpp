#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

#include "camchord/oracle.h"
#include "dataplane/bin_queue.h"
#include "dataplane/forwarder.h"
#include "dataplane/packet_pool.h"
#include "multicast/metrics.h"
#include "runtime/cells.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "test_util.h"

namespace cam {
namespace {

using dataplane::BinQueue;
using dataplane::FailoverScript;
using dataplane::Forwarder;
using dataplane::ForwarderConfig;
using dataplane::ForwardStats;
using dataplane::GroupRunStats;
using dataplane::GroupSpec;
using dataplane::GroupTraffic;
using dataplane::kNullPacket;
using dataplane::MultiGroupStats;
using dataplane::PacketPool;
using dataplane::PacketRef;
using dataplane::QueuedCopy;
using dataplane::SchedMode;
using dataplane::TreeForwarder;
using dataplane::UplinkFn;
using test::capacity_fn;
using test::make_population;

// ---------------------------------------------------------------- pool --

TEST(PacketPoolTest, AllocInitializesAndTracksUse) {
  PacketPool pool;
  EXPECT_EQ(pool.capacity(), 0u);
  PacketRef a = pool.alloc(7, 3, 1250, 12.5);
  ASSERT_NE(a, kNullPacket);
  const dataplane::Packet& p = pool.get(a);
  EXPECT_EQ(p.stream, 7u);
  EXPECT_EQ(p.seq, 3u);
  EXPECT_EQ(p.bytes, 1250u);
  EXPECT_DOUBLE_EQ(p.emitted_ms, 12.5);
  EXPECT_EQ(p.refs, 1u);
  EXPECT_EQ(pool.in_use(), 1u);
  EXPECT_EQ(pool.capacity(), PacketPool::kSlabPackets);
  pool.release(a);
  EXPECT_EQ(pool.in_use(), 0u);
  EXPECT_EQ(pool.recycled(), 1u);
}

TEST(PacketPoolTest, RefCountKeepsPacketLive) {
  PacketPool pool;
  PacketRef a = pool.alloc(0, 0, 100, 0);
  pool.add_ref(a);
  pool.release(a);
  EXPECT_EQ(pool.in_use(), 1u);  // one ref still out
  EXPECT_EQ(pool.recycled(), 0u);
  pool.release(a);
  EXPECT_EQ(pool.in_use(), 0u);
  EXPECT_EQ(pool.recycled(), 1u);
}

TEST(PacketPoolTest, ReleaseRecyclesHandle) {
  PacketPool pool;
  PacketRef a = pool.alloc(0, 0, 100, 0);
  pool.release(a);
  PacketRef b = pool.alloc(0, 1, 100, 0);
  EXPECT_EQ(b, a);  // LIFO free list hands the slot straight back
  EXPECT_EQ(pool.total_allocs(), 2u);
  EXPECT_EQ(pool.slab_count(), 1u);
  pool.release(b);
}

TEST(PacketPoolTest, ReservePresizesSlabs) {
  PacketPool pool;
  pool.reserve(3 * PacketPool::kSlabPackets - 5);
  EXPECT_EQ(pool.slab_count(), 3u);
  EXPECT_GE(pool.capacity(), 3 * PacketPool::kSlabPackets - 5);
  // Churn below the reserved bound: no further slab growth.
  std::vector<PacketRef> live;
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 2000; ++i) live.push_back(pool.alloc(0, i, 64, 0));
    EXPECT_EQ(pool.slab_count(), 3u);
    for (PacketRef r : live) pool.release(r);
    live.clear();
  }
  EXPECT_EQ(pool.peak_in_use(), 2000u);
}

TEST(PacketPoolTest, GrowsWhenExhausted) {
  PacketPool pool;
  std::vector<PacketRef> live;
  for (std::size_t i = 0; i < PacketPool::kSlabPackets + 1; ++i) {
    live.push_back(pool.alloc(0, 0, 1, 0));
  }
  EXPECT_EQ(pool.slab_count(), 2u);
  for (PacketRef r : live) pool.release(r);
  EXPECT_EQ(pool.in_use(), 0u);
}

// ---------------------------------------------------------- bin queues --

QueuedCopy copy_of(PacketRef pkt, std::uint32_t dest, std::uint64_t order) {
  QueuedCopy c;
  c.pkt = pkt;
  c.dest = dest;
  c.order = order;
  return c;
}

TEST(BinQueueTest, FifoViewFollowsGlobalOrderAcrossBins) {
  BinQueue q;
  q.push(/*stream=*/1, copy_of(10, 0, 5), 100);
  q.push(/*stream=*/2, copy_of(11, 1, 3), 100);
  q.push(/*stream=*/1, copy_of(12, 2, 7), 100);
  ASSERT_NE(q.peek_fifo(), nullptr);
  EXPECT_EQ(q.peek_fifo()->order, 3u);  // lowest stamp, regardless of bin
  EXPECT_EQ(q.pop_fifo(100).pkt, 11u);
  EXPECT_EQ(q.pop_fifo(100).pkt, 10u);
  EXPECT_EQ(q.pop_fifo(100).pkt, 12u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.depth_bytes(), 0u);
}

TEST(BinQueueTest, PressureViewPicksDeepestBinDeterministically) {
  BinQueue q;
  q.push(1, copy_of(20, 0, 1), 100);
  q.push(2, copy_of(21, 0, 2), 100);
  q.push(2, copy_of(22, 0, 3), 100);  // stream 2: 200 bytes, deepest
  EXPECT_EQ(q.depth_bytes(1), 100u);
  EXPECT_EQ(q.depth_bytes(2), 200u);
  ASSERT_NE(q.peek_pressure(), nullptr);
  EXPECT_EQ(q.peek_pressure()->pkt, 21u);  // head of the deepest bin
  EXPECT_EQ(q.pop_pressure(100).pkt, 21u);
  // Now both bins hold 100 bytes: tie breaks to the lower head stamp,
  // the same answer every time — pressure service is deterministic.
  EXPECT_EQ(q.peek_pressure()->pkt, 20u);
  EXPECT_EQ(q.pop_pressure(100).pkt, 20u);
  EXPECT_EQ(q.pop_pressure(100).pkt, 22u);
  EXPECT_TRUE(q.empty());
}

TEST(BinQueueTest, ReserveKeepsAccountingIntact) {
  BinQueue q;
  q.reserve(/*streams=*/2, /*copies_per_bin=*/16);
  for (std::uint64_t i = 0; i < 16; ++i) {
    q.push(i % 2, copy_of(static_cast<PacketRef>(i), 0, i), 50);
  }
  EXPECT_EQ(q.size(), 16u);
  EXPECT_EQ(q.depth_bytes(), 16u * 50);
  for (std::uint64_t i = 0; i < 16; ++i) {
    EXPECT_EQ(q.pop_fifo(50).order, i);
  }
  EXPECT_TRUE(q.empty());
}

// ------------------------------------------------------------ forwarder --

/// source -> hub -> {4 leaves}: the hotspot shape. The hub serializes
/// four copies of every packet through its (weak) uplink.
MulticastTree hub_tree() {
  MulticastTree tree(1);
  tree.record(1, 2, 1);
  for (Id leaf : {3, 4, 5, 6}) tree.record(2, leaf, 2);
  return tree;
}

ForwardStats run_tree(const MulticastTree& tree, const UplinkFn& uplink,
                      double latency_ms, ForwarderConfig cfg,
                      GroupTraffic traffic, telemetry::Sink sink = {}) {
  ConstantLatency lat(latency_ms);
  TreeForwarder f(tree, lat, cfg, sink);
  f.resolve_uplinks(uplink);
  return f.run(traffic);
}

// FIFO mode reproduces the legacy plane's exact arithmetic: 100 ms
// transmission + 30 ms propagation = 130.0 ms first packet, to the bit.
TEST(DataplaneForwarder, FifoModeMatchesLegacyNumbersExactly) {
  MulticastTree tree(1);
  tree.record(1, 2, 1);
  ForwarderConfig cfg;
  cfg.mode = SchedMode::kShared;
  GroupTraffic traffic;
  traffic.num_packets = 32;
  ForwardStats s =
      run_tree(tree, [](Id) { return 100.0; }, 30.0, cfg, traffic);
  EXPECT_EQ(s.session.receivers, 1u);
  EXPECT_DOUBLE_EQ(s.session.max_first_packet_ms, 130.0);
  // 32 back-to-back packets of 100 ms each: last leaves at 3200 ms.
  EXPECT_DOUBLE_EQ(s.session.completion_ms, 3230.0);
  EXPECT_NEAR(s.session.session_rate_kbps, 100.0, 1e-9);
  EXPECT_EQ(s.copies_sent, 32u);
  EXPECT_EQ(s.copies_delivered, 32u);
  EXPECT_EQ(s.delegated_copies, 0u);
}

// The public stream API is a view of the data plane: identical structs.
TEST(DataplaneForwarder, StreamOverTreeIsTheFifoForwarder) {
  MulticastTree tree = hub_tree();
  auto uplink = [](Id x) { return x == 2 ? 80.0 : 500.0; };
  ConstantLatency lat(10.0);
  GroupTraffic cfg;
  cfg.num_packets = 24;
  dataplane::SessionStats via_api = stream_over_tree(tree, uplink, lat, cfg);

  ForwarderConfig fwd;
  fwd.mode = SchedMode::kShared;
  ForwardStats direct = run_tree(tree, uplink, 10.0, fwd, cfg);
  EXPECT_EQ(via_api.session_rate_kbps, direct.session.session_rate_kbps);
  EXPECT_EQ(via_api.completion_ms, direct.session.completion_ms);
  EXPECT_EQ(via_api.mean_rate_kbps, direct.session.mean_rate_kbps);
  EXPECT_EQ(via_api.max_first_packet_ms, direct.session.max_first_packet_ms);
  EXPECT_EQ(via_api.receivers, direct.session.receivers);
}

// Uncongested, backpressure IS the FIFO schedule — every measured field
// equal to the last bit, zero deviations, zero delegations.
TEST(DataplaneForwarder, BackpressureEqualsFifoWhenUncongested) {
  NodeDirectory dir = make_population(300, 16, 4, 10, 11);
  FrozenDirectory f = dir.freeze();
  MulticastTree tree =
      camchord::multicast(f.ring(), f, capacity_fn(f), f.ids()[0]);
  auto bw = [&f](Id x) { return f.info(x).bandwidth_kbps; };
  double analytic = tree_throughput_kbps(tree, bw);
  ASSERT_GT(analytic, 0);

  GroupTraffic traffic;
  traffic.num_packets = 48;
  traffic.source_rate_kbps = analytic * 0.5;  // comfortably sustainable

  ForwarderConfig fifo;
  fifo.mode = SchedMode::kShared;
  ForwarderConfig bp;
  bp.mode = SchedMode::kBackpressure;
  ForwardStats a = run_tree(tree, bw, 10.0, fifo, traffic);
  ForwardStats b = run_tree(tree, bw, 10.0, bp, traffic);

  EXPECT_EQ(a.session.session_rate_kbps, b.session.session_rate_kbps);
  EXPECT_EQ(a.session.completion_ms, b.session.completion_ms);
  EXPECT_EQ(a.session.mean_rate_kbps, b.session.mean_rate_kbps);
  EXPECT_EQ(a.session.max_first_packet_ms, b.session.max_first_packet_ms);
  EXPECT_EQ(a.copies_sent, b.copies_sent);
  EXPECT_EQ(a.copies_delivered, b.copies_delivered);
  EXPECT_EQ(b.delegated_copies, 0u);
  EXPECT_EQ(a.copies_delivered, a.copies_expected);
}

// The tentpole behavior: with the hub uplink far below the offered
// load, FIFO collapses to hub_bw / children while backpressure sheds
// duty to leaves that already hold each packet and sustains a
// multiplicatively higher session rate.
TEST(DataplaneForwarder, DelegationBeatsFifoAtHotspot) {
  MulticastTree tree = hub_tree();
  auto uplink = [](Id x) { return x == 2 ? 40.0 : 1000.0; };
  GroupTraffic traffic;
  traffic.num_packets = 48;
  traffic.source_rate_kbps = 80.0;  // hub alone could carry 40/4 = 10

  ForwarderConfig fifo;
  fifo.mode = SchedMode::kShared;
  ForwarderConfig bp;
  bp.mode = SchedMode::kBackpressure;
  ForwardStats f = run_tree(tree, uplink, 10.0, fifo, traffic);
  ForwardStats b = run_tree(tree, uplink, 10.0, bp, traffic);

  EXPECT_NEAR(f.session.session_rate_kbps, 10.0, 1.0);
  EXPECT_GT(b.delegated_copies, 0u);
  // The hub still transmits the first copies itself (a helper must hold
  // a packet before it can relay it), so the steady state here is two
  // transmissions + two delegations per packet: ~2x FIFO exactly.
  EXPECT_GT(b.session.session_rate_kbps, 1.8 * f.session.session_rate_kbps);
  // Delegation reroutes copies, it never loses them.
  EXPECT_EQ(b.copies_delivered, b.copies_expected);
  EXPECT_LT(b.session.completion_ms, f.session.completion_ms);
}

// Latency-constrained mode: copies stuck behind a congested uplink past
// the deadline are zombied (dropped + counted), not queued forever.
TEST(DataplaneForwarder, DeadlineExpiresZombies) {
  MulticastTree tree(1);
  tree.record(1, 2, 1);
  tree.record(2, 3, 2);
  auto uplink = [](Id x) { return x == 2 ? 20.0 : 1000.0; };
  GroupTraffic traffic;
  traffic.num_packets = 32;
  traffic.source_rate_kbps = 100.0;  // node 2 drains at 20: queue grows

  telemetry::Registry reg;
  telemetry::Tracer tracer;
  telemetry::Sink sink{&reg, &tracer};

  ForwarderConfig cfg;
  cfg.mode = SchedMode::kBackpressure;
  cfg.deadline_ms = 1500.0;
  ForwardStats s = run_tree(tree, uplink, 10.0, cfg, traffic, sink);

  EXPECT_GT(s.zombie_copies, 0u);
  EXPECT_EQ(s.zombie_bytes, s.zombie_copies * traffic.packet_bytes);
  EXPECT_LT(s.copies_delivered, s.copies_expected);
  EXPECT_EQ(s.copies_delivered + s.zombie_copies, s.copies_expected);
  EXPECT_EQ(reg.counter("dataplane.zombie.copies").value(), s.zombie_copies);
  bool saw_zombie_event = false;
  for (const auto& e : tracer.events()) {
    if (e.type == telemetry::EventType::kPacketZombie) saw_zombie_event = true;
  }
  EXPECT_TRUE(saw_zombie_event);
}

// Admission control: congestion flags climb the tree and gate the
// source. Emission pauses at least once, resumes, and every packet is
// still delivered (throttled, not dropped).
TEST(DataplaneForwarder, AdmissionThrottlesSource) {
  MulticastTree tree(1);
  tree.record(1, 2, 1);
  tree.record(2, 3, 2);
  auto uplink = [](Id x) { return x == 2 ? 50.0 : 1000.0; };
  GroupTraffic traffic;
  traffic.num_packets = 24;
  traffic.source_rate_kbps = 200.0;  // 4x what node 2 can relay

  telemetry::Registry reg;
  telemetry::Sink sink{&reg, nullptr};

  ForwarderConfig cfg;
  cfg.mode = SchedMode::kBackpressure;
  cfg.admission_high_ms = 400.0;
  cfg.admission_low_ms = 100.0;
  ForwardStats s = run_tree(tree, uplink, 10.0, cfg, traffic, sink);

  EXPECT_GT(s.admission_pauses, 0u);
  EXPECT_GT(s.admission_paused_ms, 0.0);
  EXPECT_EQ(s.packets_emitted, traffic.num_packets);
  EXPECT_EQ(s.copies_delivered, s.copies_expected);
  EXPECT_EQ(reg.counter("dataplane.admission.pauses").value(),
            s.admission_pauses);
  // Throttled to roughly the bottleneck's drain rate, not the offered 200.
  EXPECT_LT(s.session.session_rate_kbps, 80.0);
}

TEST(DataplaneForwarder, PoolStaysWithinReserveAndQuiesces) {
  MulticastTree tree = hub_tree();
  ForwarderConfig cfg;
  GroupTraffic traffic;
  traffic.num_packets = 64;
  ForwardStats s =
      run_tree(tree, [](Id) { return 200.0; }, 5.0, cfg, traffic);
  EXPECT_EQ(s.pool_allocs, traffic.num_packets);
  EXPECT_EQ(s.pool_recycled, traffic.num_packets);  // all returned
  EXPECT_LE(s.pool_peak_in_use, 2 * tree.size() + 64);
}

// ------------------------------------------- failover and misuse checks --

/// Group 5: source 1 -> relay 2 -> {3, 4}. The relay's slow uplink backs
/// copies up on both child edges.
GroupSpec relay_group() {
  GroupSpec spec;
  spec.id = 5;
  spec.source = 1;
  spec.members = {{1, 1, {2}, 0}, {2, 1, {3, 4}, 0}, {3, 2, {}, 0},
                  {4, 2, {}, 0}};
  return spec;
}

MultiGroupStats run_relay_group(SchedMode mode, const FailoverScript& script) {
  ConstantLatency lat(5.0);
  Forwarder f({relay_group()}, lat, ForwarderConfig{mode});
  f.resolve_uplinks([](Id id) { return id == 2 ? 100.0 : 1000.0; });
  GroupTraffic traffic;
  traffic.group = 5;
  traffic.num_packets = 16;
  return f.run({traffic}, script);
}

// Copies queued on an edge before its prune still drain and evaporate
// at the dead child — under the per-group transmitters too, which once
// stopped serving the pruned edge and stranded them. A sole ledger
// debtor runs the kShared plane, so both modes lose the same copies.
TEST(DataplaneForwarder, LedgerSharesDrainPrunedEdges) {
  FailoverScript script;
  script.crashes.push_back({50.0, 3});
  script.prunes.push_back({60.0, 5, 2, 3});
  const MultiGroupStats ledger =
      run_relay_group(SchedMode::kLedgerShares, script);
  const MultiGroupStats shared = run_relay_group(SchedMode::kShared, script);
  ASSERT_EQ(ledger.groups.size(), 1u);
  const GroupRunStats& g = ledger.groups[0];
  EXPECT_EQ(g.duplicate_deliveries, 0u);
  EXPECT_EQ(g.copies_delivered, g.copies_expected);
  EXPECT_EQ(g.copies_delivered, 32u);  // relay and the surviving leaf
  EXPECT_GT(g.copies_lost, 0u);
  EXPECT_EQ(g.copies_lost, shared.groups[0].copies_lost);
  EXPECT_EQ(ledger.copies_sent, shared.copies_sent);
  EXPECT_EQ(ledger.completion_ms, shared.completion_ms);
}

// A member whose parent does not list it as a child leaves the parent
// no edge to file its depth report under. Release builds once filed it
// under link 0; every build now throws.
TEST(DataplaneForwarder, DepthReportWithoutParentEdgeThrows) {
  GroupSpec spec = relay_group();
  spec.members[1].children = {4};  // relay 2 forgets child 3
  ConstantLatency lat(5.0);
  Forwarder f({spec}, lat, ForwarderConfig{SchedMode::kBackpressure});
  f.resolve_uplinks([](Id) { return 100.0; });
  GroupTraffic traffic;
  traffic.group = 5;
  traffic.num_packets = 16;
  EXPECT_THROW(f.run({traffic}), std::logic_error);
}

TEST(DataplaneForwarder, ScriptNamingUnknownNodeThrows) {
  FailoverScript script;
  script.crashes.push_back({50.0, 99});
  EXPECT_THROW(run_relay_group(SchedMode::kShared, script),
               std::invalid_argument);
}

// ---------------------------------------------------------- sweep cells --

bool same_result(const runtime::StreamCellResult& a,
                 const runtime::StreamCellResult& b) {
  return a.stats.session.session_rate_kbps ==
             b.stats.session.session_rate_kbps &&
         a.stats.session.completion_ms == b.stats.session.completion_ms &&
         a.stats.session.mean_rate_kbps == b.stats.session.mean_rate_kbps &&
         a.stats.session.max_first_packet_ms ==
             b.stats.session.max_first_packet_ms &&
         a.stats.session.receivers == b.stats.session.receivers &&
         a.stats.copies_sent == b.stats.copies_sent &&
         a.stats.copies_delivered == b.stats.copies_delivered &&
         a.stats.delegated_copies == b.stats.delegated_copies &&
         a.stats.zombie_copies == b.stats.zombie_copies &&
         a.stats.admission_pauses == b.stats.admission_pauses &&
         a.analytic_kbps == b.analytic_kbps && a.hotspot == b.hotspot &&
         a.hotspot_children == b.hotspot_children;
}

// The abl_backpressure grid: serial and parallel runs byte-identical.
TEST(DataplaneSweep, StreamCellsDeterministicAcrossJobs) {
  workload::PopulationSpec spec;
  spec.n = 200;
  spec.ring_bits = 16;
  spec.seed = 5;
  FrozenDirectory dir =
      workload::bandwidth_derived_population(spec, 100.0, 4).freeze();

  dataplane::GroupTraffic traffic;
  traffic.num_packets = 32;
  traffic.source_rate_kbps = 50.0;

  std::vector<runtime::StreamCellSpec> cells;
  for (const char* key : {"camchord", "camkoorde"}) {
    for (double h : {1.0, 0.25}) {
      for (bool bp : {false, true}) {
        runtime::StreamCellSpec cell;
        cell.strategy = key;
        cell.prebuilt = &dir;
        cell.seed = 5;
        cell.traffic = traffic;
        cell.fwd.mode = bp ? SchedMode::kBackpressure : SchedMode::kShared;
        cell.hotspot_factor = h;
        cells.push_back(cell);
      }
    }
  }
  auto serial = runtime::run_cells(cells, runtime::RunOptions{1});
  auto parallel = runtime::run_cells(cells, runtime::RunOptions{4});
  ASSERT_EQ(serial.size(), cells.size());
  ASSERT_EQ(parallel.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_TRUE(same_result(serial[i], parallel[i])) << "cell " << i;
  }
  // The grid exercises the tentpole claim at this scale too: for each
  // system, the hotspot backpressure cell beats the hotspot FIFO cell.
  for (std::size_t base : {std::size_t{0}, std::size_t{4}}) {
    const auto& fifo_hot = serial[base + 2].stats.session;
    const auto& bp_hot = serial[base + 3].stats.session;
    EXPECT_GT(bp_hot.session_rate_kbps, fifo_hot.session_rate_kbps)
        << "system block at " << base;
  }
}

}  // namespace
}  // namespace cam
