#include "dataplane/forwarder.h"

#include <gtest/gtest.h>

#include "camchord/oracle.h"
#include "multicast/metrics.h"
#include "test_util.h"

namespace cam {
namespace {

using dataplane::GroupTraffic;
using dataplane::SessionStats;
using test::capacity_fn;
using test::make_population;

// A two-node chain: source -> A. Source uplink 100 kbps, packets of
// 1250 bytes (10 kbit) take 100 ms each; steady-state rate at A must be
// ~100 kbps regardless of latency.
TEST(Streaming, SingleLinkRateEqualsUplink) {
  MulticastTree tree(1);
  tree.record(1, 2, 1);
  ConstantLatency lat(30.0);
  GroupTraffic cfg;
  cfg.num_packets = 32;
  SessionStats r =
      stream_over_tree(tree, [](Id) { return 100.0; }, lat, cfg);
  EXPECT_EQ(r.receivers, 1u);
  EXPECT_NEAR(r.session_rate_kbps, 100.0, 1.0);
  // First packet: 100 ms transmission + 30 ms propagation.
  EXPECT_NEAR(r.max_first_packet_ms, 130.0, 1e-6);
}

// Source with two children: each copy serializes on the uplink, so each
// child receives at B/2.
TEST(Streaming, FanoutHalvesPerChildRate) {
  MulticastTree tree(1);
  tree.record(1, 2, 1);
  tree.record(1, 3, 1);
  ConstantLatency lat(5.0);
  GroupTraffic cfg;
  cfg.num_packets = 64;
  SessionStats r =
      stream_over_tree(tree, [](Id) { return 100.0; }, lat, cfg);
  EXPECT_EQ(r.receivers, 2u);
  EXPECT_NEAR(r.session_rate_kbps, 50.0, 1.0);
}

// Chain source -> A -> B where A is slower than the source: B drains at
// A's rate (the weakest-uplink bound), not the source's.
TEST(Streaming, BottleneckRelayGovernsDownstream) {
  MulticastTree tree(1);
  tree.record(1, 2, 1);
  tree.record(2, 3, 2);
  ConstantLatency lat(1.0);
  GroupTraffic cfg;
  cfg.num_packets = 64;
  auto uplink = [](Id x) { return x == 2 ? 40.0 : 400.0; };
  SessionStats r = stream_over_tree(tree, uplink, lat, cfg);
  EXPECT_NEAR(r.session_rate_kbps, 40.0, 1.0);
}

// Paced source: the stream cannot run faster than the source emits.
TEST(Streaming, SourcePacingCapsRate) {
  MulticastTree tree(1);
  tree.record(1, 2, 1);
  ConstantLatency lat(1.0);
  GroupTraffic cfg;
  cfg.num_packets = 64;
  cfg.source_rate_kbps = 25.0;
  SessionStats r =
      stream_over_tree(tree, [](Id) { return 1000.0; }, lat, cfg);
  EXPECT_NEAR(r.session_rate_kbps, 25.0, 0.5);
}

TEST(Streaming, DegenerateInputs) {
  MulticastTree lone(9);
  ConstantLatency lat(1.0);
  SessionStats r =
      stream_over_tree(lone, [](Id) { return 100.0; }, lat, GroupTraffic{});
  EXPECT_EQ(r.receivers, 0u);
  EXPECT_EQ(r.session_rate_kbps, 0.0);

  MulticastTree pair(1);
  pair.record(1, 2, 1);
  GroupTraffic none;
  none.num_packets = 0;
  r = stream_over_tree(pair, [](Id) { return 100.0; }, lat, none);
  EXPECT_EQ(r.receivers, 0u);
}

// End-to-end: the packet-level session rate over a real CAM-Chord tree
// agrees with the analytic min B_x/children(x) bound within a small
// factor (queueing can only push it below the bound).
TEST(Streaming, MatchesAnalyticThroughputOnCamChordTree) {
  NodeDirectory dir = make_population(300, 16, 4, 10, 11);
  FrozenDirectory f = dir.freeze();
  MulticastTree tree =
      camchord::multicast(f.ring(), f, capacity_fn(f), f.ids()[0]);
  auto bw = [&f](Id x) { return f.info(x).bandwidth_kbps; };
  double analytic = tree_throughput_kbps(tree, bw);

  ConstantLatency lat(10.0);
  GroupTraffic cfg;
  cfg.num_packets = 48;
  SessionStats r = stream_over_tree(tree, bw, lat, cfg);
  EXPECT_EQ(r.receivers, tree.size() - 1);
  EXPECT_LE(r.session_rate_kbps, analytic * 1.02);
  EXPECT_GE(r.session_rate_kbps, analytic * 0.5);
}

}  // namespace
}  // namespace cam
