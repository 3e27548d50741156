// Allocation-count probes for the data plane.
//
// Default mode proves the steady-state packet cycle — pool alloc, bin
// enqueue per child, pressure/FIFO dequeue, release — performs ZERO
// heap allocations per packet. The workload is the forwarder's hot
// shape without the event engine: a reserved PacketPool feeding a fan of
// reserved BinQueues across several streams, with queues kept partially
// full so rings wrap and the FlatMap stream index is exercised on every
// push. After reserve(), the measured 500k-packet churn must allocate
// nothing — exactly allocation-free, not amortized-free.
//
// `forwarder` mode counts every allocation of one complete multi-group
// kShared Forwarder::run — 400 overlapping groups of 2..64 members, 12
// packets each, with mid-stream crashes, prunes and gap-repairing
// reattaches — after construction, and requires at most 0.1 per copy
// sent: per-run setup (bitmaps, latency vectors, slabs) amortizes, the
// per-copy path allocates nothing.
//
// A standalone binary (not part of cam_tests) because it replaces global
// operator new to count allocations. Exits 0 on success, 1 with a
// diagnostic otherwise.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <set>
#include <vector>

#include "dataplane/bin_queue.h"
#include "dataplane/forwarder.h"
#include "dataplane/packet_pool.h"
#include "sim/latency.h"
#include "util/rng.h"

namespace {
bool g_counting = false;
unsigned long long g_allocs = 0;
}  // namespace

void* operator new(std::size_t size) {
  if (g_counting) ++g_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using cam::dataplane::BinQueue;
using cam::dataplane::PacketPool;
using cam::dataplane::PacketRef;
using cam::dataplane::QueuedCopy;

constexpr std::size_t kLinks = 8;       // fan-out of the simulated node
constexpr std::size_t kStreams = 4;     // bins per link
constexpr std::size_t kDepth = 32;      // copies kept resident per queue
constexpr std::uint32_t kBytes = 1250;  // 10 kbit, the bench packet size

}  // namespace

namespace {

int steady_state_cycle() {
  PacketPool pool;
  BinQueue queues[kLinks];

  // The in-flight bound: every queue full plus the packet being cycled.
  pool.reserve(kLinks * kDepth + 1);
  for (BinQueue& q : queues) q.reserve(kStreams, kDepth);

  std::uint64_t order = 0;
  std::uint64_t lcg = 0x9E3779B97F4A7C15ULL;

  // Prefill: keep queues at kDepth so pops hit wrapped ring positions
  // and pressure selection scans real depth, as mid-stream service does.
  auto churn = [&](std::uint64_t packets) {
    for (std::uint64_t i = 0; i < packets; ++i) {
      lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
      const std::uint64_t stream = (lcg >> 33) % kStreams;
      const PacketRef pkt =
          pool.alloc(stream, static_cast<std::uint32_t>(i), kBytes,
                     static_cast<double>(i));
      // Fan one copy to every link, the relay_to_children shape.
      for (std::size_t l = 0; l < kLinks; ++l) {
        pool.add_ref(pkt);
        QueuedCopy c;
        c.pkt = pkt;
        c.dest = static_cast<std::uint32_t>(l);
        c.order = order++;
        queues[l].push(stream, c, kBytes);
      }
      pool.release(pkt);  // creator's reference
      // Serve one copy per link, alternating the two service views so
      // both selection paths stay hot.
      for (std::size_t l = 0; l < kLinks; ++l) {
        if (queues[l].size() <= kDepth) continue;
        const QueuedCopy served = (i & 1) != 0 ? queues[l].pop_pressure(kBytes)
                                               : queues[l].pop_fifo(kBytes);
        pool.release(served.pkt);
      }
    }
  };

  churn(4 * kDepth);  // warm-up: rings and stream index reach capacity

  g_allocs = 0;
  g_counting = true;
  constexpr std::uint64_t kMeasured = 500'000;
  churn(kMeasured);
  g_counting = false;

  if (g_allocs != 0) {
    std::fprintf(stderr,
                 "steady-state packet cycle allocated: %llu allocations over "
                 "%llu packets (%.6f/packet) — data-plane hot path "
                 "regressed\n",
                 g_allocs, static_cast<unsigned long long>(kMeasured),
                 static_cast<double>(g_allocs) /
                     static_cast<double>(kMeasured));
    return 1;
  }

  // Drain and sanity-check the books before declaring victory.
  for (BinQueue& q : queues) {
    while (!q.empty()) pool.release(q.pop_fifo(kBytes).pkt);
  }
  if (pool.in_use() != 0) {
    std::fprintf(stderr, "leak: %zu packets still in use after drain\n",
                 pool.in_use());
    return 1;
  }
  std::printf("ok: %llu packets through %zu links, 0 allocations "
              "(recycled=%llu)\n",
              static_cast<unsigned long long>(kMeasured), kLinks,
              static_cast<unsigned long long>(pool.recycled()));
  return 0;
}

namespace fwd = cam::dataplane;

/// Random overlapping trees over a shared node pool (each member hangs
/// under a random earlier member with spare fan-out), plus a failover
/// script: interior non-source victims crash, every watcher prunes its
/// edge, and each orphan re-hangs under the victim's parent.
struct World {
  std::vector<fwd::GroupSpec> specs;
  std::vector<fwd::GroupTraffic> traffic;
  fwd::FailoverScript script;
};

World make_world() {
  constexpr std::size_t kPool = 4000, kGroups = 400, kVictims = 6;
  cam::Rng rng(0xa110c);
  std::vector<cam::Id> pool;
  std::set<cam::Id> seen;
  while (pool.size() < kPool) {
    const cam::Id id = 1 + rng.next_below(1u << 24);
    if (seen.insert(id).second) pool.push_back(id);
  }
  World w;
  std::set<cam::Id> sources;
  for (std::size_t gi = 0; gi < kGroups; ++gi) {
    const std::size_t size = 2 + rng.next_below(63);
    std::vector<cam::Id> picks = pool;
    for (std::size_t i = 0; i < size; ++i) {
      std::swap(picks[i], picks[i + rng.next_below(picks.size() - i)]);
    }
    picks.resize(size);
    std::vector<std::uint32_t> kids(size, 0);
    fwd::GroupSpec spec;
    spec.id = gi + 1;
    spec.source = picks[0];
    spec.members.push_back({picks[0], picks[0], {}, 0});
    for (std::size_t i = 1; i < size; ++i) {
      std::size_t p;
      do {
        p = rng.next_below(i);
      } while (kids[p] >= 6);
      ++kids[p];
      spec.members.push_back({picks[i], picks[p], {}, 0});
    }
    std::sort(spec.members.begin(), spec.members.end(),
              [](const auto& a, const auto& b) { return a.id < b.id; });
    for (const auto& m : spec.members) {
      if (m.id == spec.source) continue;
      for (auto& p : spec.members) {
        if (p.id == m.parent) p.children.push_back(m.id);
      }
    }
    sources.insert(spec.source);
    w.specs.push_back(std::move(spec));
    fwd::GroupTraffic t;
    t.group = gi + 1;
    t.num_packets = 12;
    w.traffic.push_back(t);
  }
  std::set<cam::Id> victims;
  while (victims.size() < kVictims) {
    const fwd::GroupSpec& s = w.specs[rng.next_below(w.specs.size())];
    const auto& m = s.members[rng.next_below(s.members.size())];
    if (m.children.empty() || sources.count(m.id) || victims.count(m.id)) {
      continue;
    }
    bool adjacent = false;
    for (const fwd::GroupSpec& g : w.specs) {
      for (const auto& v : g.members) {
        if (v.id != g.source &&
            ((v.id == m.id && victims.count(v.parent)) ||
             (v.parent == m.id && victims.count(v.id)))) {
          adjacent = true;
        }
      }
    }
    if (adjacent) continue;
    const double t_crash = 40.0 + 20.0 * static_cast<double>(victims.size());
    victims.insert(m.id);
    w.script.crashes.push_back({t_crash, m.id});
    for (const fwd::GroupSpec& g : w.specs) {
      for (const auto& v : g.members) {
        if (v.id != m.id) continue;
        w.script.prunes.push_back({t_crash + 8.0, g.id, v.parent, v.id});
        for (cam::Id c : v.children) {
          w.script.prunes.push_back({t_crash + 8.0, g.id, v.id, c});
          w.script.reattaches.push_back({t_crash + 12.0, g.id, c, v.parent});
        }
      }
    }
  }
  return w;
}

int forwarder_run() {
  const World w = make_world();
  const cam::UniformLatency latency(2.0, 9.0, 0x5eedULL);
  fwd::Forwarder forwarder(w.specs, latency,
                           fwd::ForwarderConfig{fwd::SchedMode::kShared});
  forwarder.resolve_uplinks(
      [](cam::Id id) { return 400.0 + static_cast<double>(id % 601); });

  g_allocs = 0;
  g_counting = true;
  const fwd::MultiGroupStats stats = forwarder.run(w.traffic, w.script);
  g_counting = false;

  std::uint64_t delivered = 0, expected = 0, dups = 0, reattaches = 0;
  for (const fwd::GroupRunStats& g : stats.groups) {
    delivered += g.copies_delivered;
    expected += g.copies_expected;
    dups += g.duplicate_deliveries;
    reattaches += g.reattaches;
  }
  if (dups != 0 || delivered != expected || reattaches == 0) {
    std::fprintf(stderr,
                 "forwarder run broke its books: delivered %llu of %llu, "
                 "%llu duplicates, %llu reattaches\n",
                 static_cast<unsigned long long>(delivered),
                 static_cast<unsigned long long>(expected),
                 static_cast<unsigned long long>(dups),
                 static_cast<unsigned long long>(reattaches));
    return 1;
  }
  const double per_copy = static_cast<double>(g_allocs) /
                          static_cast<double>(stats.copies_sent);
  if (per_copy > 0.1) {
    std::fprintf(stderr,
                 "forwarder run allocated %llu times for %llu copies "
                 "(%.4f/copy, budget 0.1) — data-plane hot path "
                 "regressed\n",
                 g_allocs, static_cast<unsigned long long>(stats.copies_sent),
                 per_copy);
    return 1;
  }
  std::printf("ok: forwarder run, %llu copies over %zu groups, %llu "
              "allocations (%.4f/copy)\n",
              static_cast<unsigned long long>(stats.copies_sent),
              stats.groups.size(), g_allocs, per_copy);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "forwarder") == 0) {
    return forwarder_run();
  }
  return steady_state_cycle();
}
