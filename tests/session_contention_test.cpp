// Multi-group contention tests: two groups forced through the same
// hotspot relay (one shared source uplink serving both trees).
//
//   * kShared really contends: the light group's deliveries are
//     measurably delayed by the heavy group's burst versus a solo run.
//   * kLedgerShares really isolates: the uncongested group's per-group
//     stats are BIT-identical to its solo run under the same ledger —
//     the other group's queue depth never leaks into its schedule.
//   * Admission control is per group: only the congested group's source
//     pauses; the other group never stalls (ISSUE 7 satellite).
//   * kBackpressure sheds duty per group at the shared hotspot: both
//     groups delegate, every copy still lands exactly once.
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "session/multi_forwarder.h"
#include "session/session.h"
#include "strategy/strategy.h"
#include "workload/population.h"

namespace cam {
namespace {

using session::GroupRunStats;
using session::GroupTraffic;
using session::JoinOutcome;
using session::MultiGroupConfig;
using session::MultiGroupForwarder;
using session::MultiGroupStats;
using session::SchedMode;
using session::SessionLayer;

// Both groups rooted at ids[0] with the same membership: every copy of
// either group crosses ids[0]'s single uplink, the hotspot.
struct World {
  FrozenDirectory dir;
  std::unique_ptr<SessionLayer> layer;

  static FrozenDirectory make_world(std::uint64_t seed) {
    workload::PopulationSpec spec;
    spec.n = 16;
    spec.ring_bits = 12;
    spec.seed = seed;
    // Fixed uplinks: the share arithmetic below stays predictable, so
    // the admission test can place its watermarks between the two
    // groups' backlog regimes with confidence.
    spec.bw_lo_kbps = 1000;
    spec.bw_hi_kbps = 1000;
    return workload::uniform_capacity_population(spec, 16, 16).freeze();
  }

  explicit World(std::uint64_t seed, std::size_t g2_members = 8)
      : dir(make_world(seed)) {
    layer = std::make_unique<SessionLayer>(dir, strategy::registry().make("camchord"));
    const std::vector<Id>& ids = dir.ids();
    EXPECT_TRUE(layer->create_group(1, ids[0]));
    EXPECT_TRUE(layer->create_group(2, ids[0]));
    for (std::size_t i = 1; i <= 8; ++i) {
      EXPECT_EQ(layer->join(1, ids[i]).outcome, JoinOutcome::kJoined);
      if (i <= g2_members) {
        EXPECT_EQ(layer->join(2, ids[i]).outcome, JoinOutcome::kJoined);
      }
    }
    EXPECT_TRUE(layer->check().empty());
  }
};

GroupTraffic heavy() {
  GroupTraffic t;
  t.group = 1;
  t.num_packets = 64;  // back-to-back burst: saturates the hotspot
  return t;
}

GroupTraffic light() {
  GroupTraffic t;
  t.group = 2;
  t.num_packets = 8;
  t.source_rate_kbps = 200;  // paced, nowhere near its share
  return t;
}

void expect_same_group_stats(const GroupRunStats& a,
                             const GroupRunStats& b) {
  EXPECT_EQ(a.group, b.group);
  // Exact doubles on purpose: "bit-identical", not "close".
  EXPECT_EQ(a.session.session_rate_kbps, b.session.session_rate_kbps);
  EXPECT_EQ(a.session.completion_ms, b.session.completion_ms);
  EXPECT_EQ(a.session.mean_rate_kbps, b.session.mean_rate_kbps);
  EXPECT_EQ(a.session.max_first_packet_ms, b.session.max_first_packet_ms);
  EXPECT_EQ(a.session.receivers, b.session.receivers);
  EXPECT_EQ(a.packets_emitted, b.packets_emitted);
  EXPECT_EQ(a.copies_delivered, b.copies_delivered);
  EXPECT_EQ(a.copies_expected, b.copies_expected);
  EXPECT_EQ(a.duplicate_deliveries, b.duplicate_deliveries);
  EXPECT_EQ(a.admission_pauses, b.admission_pauses);
  EXPECT_EQ(a.p99_latency_ms, b.p99_latency_ms);
  EXPECT_EQ(a.mean_latency_ms, b.mean_latency_ms);
}

TEST(SessionContention, SharedUplinkReallyContends) {
  const World w(21);
  const ConstantLatency latency(5.0);
  const MultiGroupConfig cfg{SchedMode::kShared};

  const MultiGroupStats solo =
      MultiGroupForwarder(*w.layer, latency, cfg).run({light()});
  const MultiGroupStats both =
      MultiGroupForwarder(*w.layer, latency, cfg).run({heavy(), light()});
  ASSERT_EQ(solo.groups.size(), 1u);
  ASSERT_EQ(both.groups.size(), 2u);

  const GroupRunStats& solo2 = solo.groups[0];
  const GroupRunStats& with2 = both.groups[1];
  ASSERT_EQ(with2.group, 2u);
  // Same payload delivered either way (FIFO delays, it never drops)...
  EXPECT_EQ(with2.copies_delivered, solo2.copies_delivered);
  EXPECT_EQ(with2.duplicate_deliveries, 0u);
  // ...but the heavy group's burst in the shared FIFO visibly delays
  // the light group versus running alone.
  EXPECT_GT(with2.session.completion_ms, solo2.session.completion_ms);
  EXPECT_GT(with2.mean_latency_ms, solo2.mean_latency_ms);
}

TEST(SessionContention, LedgerSharesIsolateTheUncongestedGroup) {
  const World w(22);
  const ConstantLatency latency(5.0);
  const MultiGroupConfig cfg{SchedMode::kLedgerShares};

  const MultiGroupStats solo =
      MultiGroupForwarder(*w.layer, latency, cfg).run({light()});
  const MultiGroupStats both =
      MultiGroupForwarder(*w.layer, latency, cfg).run({heavy(), light()});
  ASSERT_EQ(both.groups.size(), 2u);
  ASSERT_EQ(both.groups[1].group, 2u);

  // The uncongested group cannot tell the heavy group exists: its whole
  // scoreboard matches the solo run bit for bit.
  expect_same_group_stats(both.groups[1], solo.groups[0]);

  // Sanity: the heavy group did queue (this was a real contention run,
  // not two idle groups agreeing trivially).
  EXPECT_GT(both.max_backlog_ms, 0.0);
  EXPECT_GT(both.groups[0].copies_delivered, 0u);
}

TEST(SessionContention, AdmissionPausesArePerGroup) {
  // Group 2 is a single source->child link paced far below its ledger
  // share: its transient backlog is one 10-kbit packet against at least
  // 1000/9 kbps (worst case: group 1 holds eight slots at the source),
  // i.e. under ~90 ms. Group 1 bursts 64 packets back-to-back, piling
  // seconds of backlog. Watermarks at 120/40 ms separate the regimes.
  const World w(23, 1);
  const ConstantLatency latency(5.0);
  MultiGroupConfig cfg{SchedMode::kLedgerShares};
  cfg.admission_high_ms = 120.0;
  cfg.admission_low_ms = 40.0;

  GroupTraffic paced = light();
  paced.num_packets = 8;
  paced.source_rate_kbps = 40;  // one packet per 250 ms

  const MultiGroupStats both =
      MultiGroupForwarder(*w.layer, latency, cfg).run({heavy(), paced});
  ASSERT_EQ(both.groups.size(), 2u);
  const GroupRunStats& g1 = both.groups[0];
  const GroupRunStats& g2 = both.groups[1];

  // The burst group trips its watermark and pauses...
  EXPECT_GT(g1.admission_pauses, 0u);
  EXPECT_GT(g1.admission_paused_ms, 0.0);
  // ...while the paced group never stalls: pauses are per group, not a
  // global emergency brake.
  EXPECT_EQ(g2.admission_pauses, 0u);
  EXPECT_EQ(g2.admission_paused_ms, 0.0);

  // Pausing is flow control, not loss: everything still arrives once.
  EXPECT_EQ(g1.copies_delivered, g1.copies_expected);
  EXPECT_EQ(g2.copies_delivered, g2.copies_expected);
  EXPECT_EQ(g1.duplicate_deliveries + g2.duplicate_deliveries, 0u);
}

TEST(SessionContention, BackpressureDelegatesAcrossGroupsExactlyOnce) {
  // Both groups burst back-to-back through the shared source uplink, so
  // its backlog clears the congestion gate and the forwarder hands
  // copies of each group to children of that group already holding the
  // packet. Delegation reroutes copies; it must never lose or repeat one.
  const World w(24);
  const ConstantLatency latency(5.0);
  const MultiGroupConfig cfg{SchedMode::kBackpressure};
  GroupTraffic second = heavy();
  second.group = 2;
  auto run = [&] {
    return MultiGroupForwarder(*w.layer, latency, cfg).run({heavy(), second});
  };
  const MultiGroupStats a = run();
  const MultiGroupStats b = run();
  ASSERT_EQ(a.groups.size(), 2u);
  ASSERT_EQ(b.groups.size(), 2u);
  for (std::size_t i = 0; i < a.groups.size(); ++i) {
    const GroupRunStats& g = a.groups[i];
    EXPECT_EQ(g.duplicate_deliveries, 0u) << "group " << g.group;
    EXPECT_GT(g.copies_delivered, 0u) << "group " << g.group;
    EXPECT_EQ(g.copies_delivered, g.copies_expected) << "group " << g.group;
    EXPECT_GT(g.delegated_copies, 0u) << "group " << g.group;
    // Deterministic: a second run is bit-identical.
    expect_same_group_stats(g, b.groups[i]);
    EXPECT_EQ(g.delegated_copies, b.groups[i].delegated_copies);
  }
  EXPECT_EQ(a.copies_sent, b.copies_sent);
  EXPECT_EQ(a.max_backlog_ms, b.max_backlog_ms);
  EXPECT_EQ(a.completion_ms, b.completion_ms);
}

TEST(SessionContention, BackpressureRejectsFailoverScripts) {
  // Delegated duties ride relay queues outside the tree edges that
  // failover prunes and re-hangs, so the forwarder replays scripts only
  // in the FIFO and ledger-share modes.
  const World w(25);
  const ConstantLatency latency(5.0);
  session::FailoverScript script;
  script.crashes.push_back({100.0, w.dir.ids()[3]});
  MultiGroupForwarder fwd(*w.layer, latency,
                          MultiGroupConfig{SchedMode::kBackpressure});
  EXPECT_THROW(fwd.run({heavy()}, script), std::invalid_argument);
}

}  // namespace
}  // namespace cam
