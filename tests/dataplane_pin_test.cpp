// Bit-identity pins for the multi-group forwarder: every field of
// MultiGroupStats and of each GroupRunStats, doubles in %a, for four
// seeded worlds that exercise what the single-tree pins never reach:
//
//   * kShared over overlapping groups with a FailoverScript (crashes,
//     parent- and child-side prunes, reattaches with gap repair and a
//     repair deadline) and per-group admission control;
//   * kShared under ConstantLatency with equal uplinks and back-to-back
//     sources, where most events tie on time and only the event
//     sequence number orders them;
//   * kLedgerShares with per-node ledger shares and admission control;
//   * kBackpressure at a shared hotspot with admission and zombies.
//
// The goldens in tests/golden/dataplane_pin_*.txt were rendered by the
// forwarder before its queues and event heap were made O(1)/compact;
// any change to service order, arithmetic or accounting shows up here.
// CAM_REGEN_GOLDENS=1 rewrites them (and fails the run).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "dataplane/forwarder.h"
#include "sim/latency.h"
#include "util/rng.h"

namespace cam {
namespace {

using dataplane::FailoverScript;
using dataplane::Forwarder;
using dataplane::ForwarderConfig;
using dataplane::GroupRunStats;
using dataplane::GroupSpec;
using dataplane::GroupTraffic;
using dataplane::MultiGroupStats;
using dataplane::SchedMode;

struct PinWorld {
  std::vector<GroupSpec> specs;
  std::vector<GroupTraffic> traffic;
  FailoverScript script;
};

struct WorldShape {
  std::uint64_t seed = 1;
  std::size_t pool = 120;      // distinct node ids to draw members from
  std::size_t groups = 14;
  std::size_t min_size = 6, max_size = 36;
  std::uint32_t max_fanout = 5;
  std::uint32_t packets = 16;
  bool paced = true;           // some sources paced, staggered starts
  std::size_t victims = 0;     // mid-stream crashes
};

/// Random overlapping trees over a shared node pool: each member hangs
/// under a random earlier member with spare fan-out. Members ascend by
/// id, children ascend (GroupSpec's contract).
PinWorld make_world(const WorldShape& shape) {
  Rng rng(shape.seed);
  std::vector<Id> pool;
  std::set<Id> seen;
  while (pool.size() < shape.pool) {
    const Id id = 1 + rng.next_below(1u << 20);
    if (seen.insert(id).second) pool.push_back(id);
  }
  PinWorld w;
  for (std::size_t gi = 0; gi < shape.groups; ++gi) {
    const std::size_t size =
        shape.min_size + rng.next_below(shape.max_size - shape.min_size + 1);
    std::vector<Id> picks = pool;
    for (std::size_t i = 0; i < size; ++i) {
      std::swap(picks[i], picks[i + rng.next_below(picks.size() - i)]);
    }
    picks.resize(size);
    std::vector<Id> parent(size, 0);
    std::vector<std::uint32_t> kids(size, 0);
    parent[0] = picks[0];
    for (std::size_t i = 1; i < size; ++i) {
      std::size_t p;
      do {
        p = rng.next_below(i);
      } while (kids[p] >= shape.max_fanout);
      ++kids[p];
      parent[i] = picks[p];
    }
    GroupSpec spec;
    spec.id = 100 + gi * 7;
    spec.source = picks[0];
    for (std::size_t i = 0; i < size; ++i) {
      spec.members.push_back({picks[i], parent[i], {}, 0});
    }
    std::sort(spec.members.begin(), spec.members.end(),
              [](const auto& a, const auto& b) { return a.id < b.id; });
    for (const GroupSpec::Member& m : spec.members) {
      if (m.id == spec.source) continue;
      for (GroupSpec::Member& p : spec.members) {
        if (p.id == m.parent) p.children.push_back(m.id);
      }
    }
    w.specs.push_back(std::move(spec));

    GroupTraffic t;
    t.group = w.specs.back().id;
    t.num_packets = shape.packets;
    if (shape.paced) {
      t.start_ms = static_cast<SimTime>(rng.next_below(40));
      if (gi % 3 == 1) t.source_rate_kbps = 150 + rng.next_below(200);
      if (gi % 5 == 2) t.throttle = 0.5;
    }
    w.traffic.push_back(t);
  }

  // Crash interior non-source members that share no edge with another
  // victim; every watcher prunes its edge after a detection delay, and
  // each orphan re-hangs under the victim's parent, which backfills it.
  std::set<Id> sources, victims;
  for (const GroupSpec& s : w.specs) sources.insert(s.source);
  auto adjacent = [&](Id x) {
    for (const GroupSpec& s : w.specs) {
      for (const GroupSpec::Member& m : s.members) {
        if (m.id == s.source) continue;
        if ((m.id == x && victims.count(m.parent)) ||
            (m.parent == x && victims.count(m.id))) {
          return true;
        }
      }
    }
    return false;
  };
  std::size_t attempts = 0;
  while (victims.size() < shape.victims && attempts++ < 10'000) {
    const GroupSpec& s = w.specs[rng.next_below(w.specs.size())];
    const GroupSpec::Member& m = s.members[rng.next_below(s.members.size())];
    if (m.children.empty() || sources.count(m.id) || victims.count(m.id) ||
        adjacent(m.id)) {
      continue;
    }
    const SimTime t_crash = 60.0 + 25.0 * static_cast<double>(victims.size());
    victims.insert(m.id);
    w.script.crashes.push_back({t_crash, m.id});
    for (const GroupSpec& g : w.specs) {
      for (const GroupSpec::Member& v : g.members) {
        if (v.id != m.id) continue;
        const SimTime detect = t_crash + 6.0 + rng.next_below(6);
        w.script.prunes.push_back({detect, g.id, v.parent, v.id});
        for (Id c : v.children) {
          w.script.prunes.push_back(
              {t_crash + 6.0 + rng.next_below(6), g.id, v.id, c});
          w.script.reattaches.push_back({t_crash + 15.0, g.id, c, v.parent});
        }
      }
    }
  }
  return w;
}

double uplink_kbps(Id id) { return 300.0 + static_cast<double>(id % 701); }

MultiGroupStats run_world(const PinWorld& w, const LatencyModel& latency,
                          ForwarderConfig cfg,
                          double (*kbps_of)(Id) = uplink_kbps) {
  Forwarder fwd(w.specs, latency, cfg);
  fwd.resolve_uplinks(kbps_of);
  return fwd.run(w.traffic, w.script);
}

std::string render(const MultiGroupStats& m) {
  std::ostringstream out;
  char buf[1024];
  std::snprintf(buf, sizeof buf,
                "run copies_sent=%llu max_backlog=%a pool_peak=%zu "
                "pool_allocs=%llu pool_recycled=%llu goodput=%a jain=%a "
                "p99=%a completion=%a groups=%zu\n",
                static_cast<unsigned long long>(m.copies_sent),
                m.max_backlog_ms, m.pool_peak_in_use,
                static_cast<unsigned long long>(m.pool_allocs),
                static_cast<unsigned long long>(m.pool_recycled),
                m.aggregate_goodput_kbps, m.jain_fairness, m.p99_latency_ms,
                m.completion_ms, m.groups.size());
  out << buf;
  for (const GroupRunStats& g : m.groups) {
    const auto u = [](std::uint64_t v) {
      return static_cast<unsigned long long>(v);
    };
    std::snprintf(
        buf, sizeof buf,
        "g=%llu rate=%a completion=%a mean_rate=%a first=%a receivers=%zu "
        "emitted=%llu delivered=%llu expected=%llu dups=%llu delegated=%llu "
        "zombies=%llu zombie_bytes=%llu pauses=%llu paused=%a p99=%a "
        "mean=%a lost=%llu reattaches=%llu repaired=%llu "
        "repair_zombies=%llu zombie_lost=%llu gap_total=%llu gap_max=%llu "
        "suppressed=%llu\n",
        u(g.group), g.session.session_rate_kbps, g.session.completion_ms,
        g.session.mean_rate_kbps, g.session.max_first_packet_ms,
        g.session.receivers, u(g.packets_emitted), u(g.copies_delivered),
        u(g.copies_expected), u(g.duplicate_deliveries),
        u(g.delegated_copies), u(g.zombie_copies), u(g.zombie_bytes),
        u(g.admission_pauses), g.admission_paused_ms, g.p99_latency_ms,
        g.mean_latency_ms, u(g.copies_lost), u(g.reattaches),
        u(g.repaired_copies), u(g.repair_zombies),
        u(g.zombie_lost_deliveries), u(g.gap_packets_total),
        u(g.gap_packets_max), u(g.suppressed_relays));
    out << buf;
  }
  return out.str();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void expect_golden(const std::string& name, const std::string& text) {
  const std::string path = std::string(CAM_GOLDEN_DIR) + "/" + name;
  if (std::getenv("CAM_REGEN_GOLDENS") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    out << text;
    FAIL() << "regenerated " << path << " (" << text.size() << " bytes)";
  }
  const std::string want = read_file(path);
  ASSERT_FALSE(want.empty()) << "missing golden " << path;
  EXPECT_EQ(text, want) << "forwarder output diverged from golden " << name;
}

std::uint64_t sum_of(const MultiGroupStats& m,
                     std::uint64_t GroupRunStats::*field) {
  std::uint64_t total = 0;
  for (const GroupRunStats& g : m.groups) total += g.*field;
  return total;
}

TEST(DataplanePin, SharedFailoverWithAdmissionMatchesGolden) {
  WorldShape shape;
  shape.seed = 11;
  shape.victims = 4;
  const PinWorld w = make_world(shape);
  ASSERT_EQ(w.script.crashes.size(), 4u);
  const UniformLatency latency(2.0, 9.0, 0x5eedULL);
  ForwarderConfig cfg{SchedMode::kShared};
  cfg.admission_high_ms = 60;
  cfg.admission_low_ms = 20;
  cfg.deadline_ms = 80;
  const MultiGroupStats m = run_world(w, latency, cfg);
  // The world exercises the surgery, not just tolerates it.
  EXPECT_EQ(sum_of(m, &GroupRunStats::duplicate_deliveries), 0u);
  EXPECT_GT(sum_of(m, &GroupRunStats::reattaches), 0u);
  EXPECT_GT(sum_of(m, &GroupRunStats::repaired_copies), 0u);
  EXPECT_GT(sum_of(m, &GroupRunStats::repair_zombies), 0u);
  EXPECT_GT(sum_of(m, &GroupRunStats::copies_lost), 0u);
  EXPECT_GT(sum_of(m, &GroupRunStats::admission_pauses), 0u);
  expect_golden("dataplane_pin_shared_failover.txt", render(m));
}

TEST(DataplanePin, ConstantLatencyTiesMatchGolden) {
  WorldShape shape;
  shape.seed = 23;
  shape.paced = false;  // every source starts at 0, back to back
  const PinWorld w = make_world(shape);
  const ConstantLatency latency(5.0);
  const MultiGroupStats m =
      run_world(w, latency, ForwarderConfig{SchedMode::kShared},
                [](Id) { return 500.0; });
  EXPECT_EQ(sum_of(m, &GroupRunStats::copies_delivered),
            sum_of(m, &GroupRunStats::copies_expected));
  expect_golden("dataplane_pin_constant_ties.txt", render(m));
}

TEST(DataplanePin, LedgerSharesMatchGolden) {
  WorldShape shape;
  shape.seed = 37;
  PinWorld w = make_world(shape);
  // Ledger shares: each forwarding node splits its uplink evenly over
  // the groups it forwards in; a sole debtor keeps the full uplink.
  std::vector<Id> forwarding;
  for (const GroupSpec& s : w.specs) {
    for (const GroupSpec::Member& m : s.members) {
      if (!m.children.empty()) forwarding.push_back(m.id);
    }
  }
  for (GroupSpec& s : w.specs) {
    for (GroupSpec::Member& m : s.members) {
      const auto debts = std::count(forwarding.begin(), forwarding.end(), m.id);
      if (debts > 1) {
        m.share_kbps = uplink_kbps(m.id) / static_cast<double>(debts);
      }
    }
  }
  const UniformLatency latency(2.0, 9.0, 0x5eedULL);
  ForwarderConfig cfg{SchedMode::kLedgerShares};
  cfg.admission_high_ms = 80;
  cfg.admission_low_ms = 30;
  const MultiGroupStats m = run_world(w, latency, cfg);
  EXPECT_EQ(sum_of(m, &GroupRunStats::copies_delivered),
            sum_of(m, &GroupRunStats::copies_expected));
  EXPECT_GT(sum_of(m, &GroupRunStats::admission_pauses), 0u);
  expect_golden("dataplane_pin_ledger.txt", render(m));
}

TEST(DataplanePin, BackpressureHotspotMatchesGolden) {
  WorldShape shape;
  shape.seed = 53;
  shape.pool = 60;  // denser overlap: shared hot uplinks
  shape.groups = 10;
  const PinWorld w = make_world(shape);
  const UniformLatency latency(2.0, 9.0, 0x5eedULL);
  ForwarderConfig cfg{SchedMode::kBackpressure};
  cfg.admission_high_ms = 150;
  cfg.admission_low_ms = 50;
  cfg.deadline_ms = 600;
  const MultiGroupStats m = run_world(w, latency, cfg, [](Id id) {
    return id % 5 == 0 ? 120.0 : 300.0 + static_cast<double>(id % 701);
  });
  EXPECT_EQ(sum_of(m, &GroupRunStats::duplicate_deliveries), 0u);
  EXPECT_GT(sum_of(m, &GroupRunStats::delegated_copies), 0u);
  expect_golden("dataplane_pin_backpressure_hotspot.txt", render(m));
}

}  // namespace
}  // namespace cam
