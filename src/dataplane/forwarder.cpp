#include "dataplane/forwarder.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace cam::dataplane {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

// kBackpressure tuning. Hysteresis: the minimum gradient advantage (ms
// of serialization backlog) before service order deviates from FIFO or
// a copy is delegated; zero would flap on ties, and ties always fall
// back to the recorded tree order. Slack: congestion margin (ms) past
// two full fan-out bursts. Reports: cadence of child -> parent backlog
// advertisements.
constexpr double kHysteresisMs = 2.0;
constexpr double kCongestionSlackMs = 8.0;
constexpr double kDepthReportIntervalMs = 20.0;

constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;

/// An event time as an unsigned integer of the same order: IEEE-754
/// doubles ordered by flipping the sign bit of non-negatives and every
/// bit of negatives. Adding +0.0 folds -0.0 onto +0.0, which compare
/// equal as doubles; event times are never NaN.
std::uint64_t time_key(SimTime t) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(t + 0.0);
  return (bits & kSignBit) != 0 ? ~bits : bits | kSignBit;
}

SimTime key_time(std::uint64_t key) {
  return std::bit_cast<SimTime>((key & kSignBit) != 0 ? key & ~kSignBit
                                                      : ~key);
}

/// Members ascending by id, children ascending (the relay rotation
/// order of the recorded tree).
GroupSpec tree_spec(const MulticastTree& tree) {
  GroupSpec spec;
  spec.source = tree.source();
  spec.members.reserve(tree.size());
  for (const auto& [id, rec] : tree.entries()) {
    spec.members.push_back({id, id == tree.source() ? id : rec.parent, {}, 0});
  }
  const auto by_id = [](const GroupSpec::Member& m, Id id) {
    return m.id < id;
  };
  std::sort(spec.members.begin(), spec.members.end(),
            [](const auto& a, const auto& b) { return a.id < b.id; });
  // Visiting children in ascending id keeps every child list sorted.
  for (const GroupSpec::Member& m : spec.members) {
    if (m.id == spec.source) continue;
    auto parent = std::lower_bound(spec.members.begin(), spec.members.end(),
                                   m.parent, by_id);
    parent->children.push_back(m.id);
  }
  return spec;
}

}  // namespace

Forwarder::Forwarder(const std::vector<GroupSpec>& groups,
                     const LatencyModel& latency, ForwarderConfig cfg,
                     telemetry::Sink sink)
    : latency_(latency), cfg_(cfg), sink_(sink) {
  assert(cfg_.admission_low_ms <= cfg_.admission_high_ms &&
         "admission low watermark above high watermark");
  // Dense node table: the ascending-id union of every group's members.
  for (const GroupSpec& spec : groups) {
    for (const GroupSpec::Member& m : spec.members) ids_.push_back(m.id);
  }
  std::sort(ids_.begin(), ids_.end());
  ids_.erase(std::unique(ids_.begin(), ids_.end()), ids_.end());
  FlatMap<Id, std::uint32_t> index;
  index.reserve(ids_.size());
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    index.emplace(ids_[i], static_cast<std::uint32_t>(i));
  }
  nodes_.resize(ids_.size());
  dead_.assign(ids_.size(), 0);

  // One Link per (node, child) pair across ALL groups: two groups that
  // share an edge share its BinQueue, so their copies contend in the
  // same place. Links sorted ascending by child id.
  std::vector<std::vector<Id>> kids(ids_.size());
  for (const GroupSpec& spec : groups) {
    for (const GroupSpec::Member& m : spec.members) {
      auto& row = kids[index.at(m.id)];
      row.insert(row.end(), m.children.begin(), m.children.end());
    }
  }
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    std::sort(kids[i].begin(), kids[i].end());
    kids[i].erase(std::unique(kids[i].begin(), kids[i].end()),
                  kids[i].end());
    nodes_[i].links.reserve(kids[i].size());
    for (Id c : kids[i]) {
      nodes_[i].links.push_back(
          Link{index.at(c), latency_.latency(c, ids_[i]), 0, 0});
    }
    if (cfg_.mode != SchedMode::kShared) {
      nodes_[i].queues.resize(nodes_[i].links.size());
    }
  }

  // Per-group views: member slots ascending by id and per-member link
  // subsets. Serving rates are resolved with the uplinks, in run().
  groups_.reserve(groups.size());
  for (const GroupSpec& spec : groups) {
    Group g;
    g.id = spec.id;
    g.members.resize(spec.members.size());
    g.slot_of.reserve(spec.members.size());
    for (std::size_t s = 0; s < spec.members.size(); ++s) {
      assert((s == 0 || spec.members[s - 1].id < spec.members[s].id) &&
             "group members must ascend by id");
      g.slot_of.emplace(index.at(spec.members[s].id),
                        static_cast<std::uint32_t>(s));
    }
    for (std::size_t s = 0; s < spec.members.size(); ++s) {
      const GroupSpec::Member& mem = spec.members[s];
      GroupNode& gn = g.members[s];
      gn.node = index.at(mem.id);
      if (mem.id == spec.source) {
        g.source_slot = static_cast<std::uint32_t>(s);
        gn.parent_slot = static_cast<std::uint32_t>(s);
      } else {
        gn.parent_slot = g.slot_of.at(index.at(mem.parent));
        gn.parent_latency_ms = latency_.latency(mem.parent, mem.id);
      }
      const std::vector<Link>& links = nodes_[gn.node].links;
      gn.links.reserve(mem.children.size());
      for (Id c : mem.children) {
        const std::uint32_t child = index.at(c);
        const auto it = std::lower_bound(
            links.begin(), links.end(), child,
            [](const Link& l, std::uint32_t v) { return l.child < v; });
        gn.links.push_back({static_cast<std::uint32_t>(it - links.begin()),
                            g.slot_of.at(child),
                            static_cast<std::uint32_t>(edge_bytes_.size())});
        edge_bytes_.push_back(0);
      }
      if (cfg_.mode == SchedMode::kLedgerShares) gn.rate_kbps = mem.share_kbps;
    }
    groups_.push_back(std::move(g));
  }
}

void Forwarder::resolve_uplinks(const std::function<double(Id)>& kbps_of) {
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    nodes_[i].kbps = kbps_of(ids_[i]);
    assert(nodes_[i].kbps > 0 && "uplink capacity must be positive");
  }
}

void Forwarder::push_event(SimTime at, const Event& e) {
  std::uint32_t slot;
  if (!free_events_.empty()) {
    slot = free_events_.back();
    free_events_.pop_back();
    events_[slot] = e;
  } else {
    if (events_.size() >= (std::size_t{1} << kSlotBits)) {
      throw std::length_error("forwarder: too many pending events");
    }
    slot = static_cast<std::uint32_t>(events_.size());
    events_.push_back(e);
  }
  if (next_event_seq_ >> (64 - kSlotBits) != 0) {
    throw std::overflow_error("forwarder: event sequence numbers exhausted");
  }
  const EventKey key = EventKey{time_key(at)} << 64 |
                       (next_event_seq_++ << kSlotBits | slot);
  heap_.push_back(key);
  sift_up(heap_.size() - 1, key);
}

void Forwarder::sift_up(std::size_t i, EventKey key) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!(key < heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = key;
}

Forwarder::EventKey Forwarder::pop_event() {
  const EventKey top = heap_.front();
  const EventKey last = heap_.back();
  heap_.pop_back();
  const std::size_t size = heap_.size();
  if (size == 0) return top;
  // Floyd's pop on a 4-ary heap (half a binary heap's depth): walk the
  // hole down to a leaf along the smallest child, then sift the old
  // last key up from there. It nearly always belongs near the bottom,
  // so this skips comparing it at every level on the way down.
  std::size_t i = 0;
  for (std::size_t first = 1; first < size; first = 4 * i + 1) {
    std::size_t best = first;
    const std::size_t end = std::min(first + 4, size);
    for (std::size_t c = first + 1; c < end; ++c) {
      best = heap_[c] < heap_[best] ? c : best;
    }
    heap_[i] = heap_[best];
    i = best;
  }
  sift_up(i, last);
  return top;
}

double Forwarder::node_backlog_ms(std::uint32_t node) const {
  const Node& n = nodes_[node];
  return static_cast<double>(n.depth_bytes) * 8.0 / n.kbps;
}

double Forwarder::group_backlog_ms(std::uint32_t gidx,
                                   const GroupNode& gn) const {
  std::uint64_t bytes =
      relays_.empty() ? 0 : relays_[gn.node].depth_bytes(gidx);
  for (const GroupLink& gl : gn.links) bytes += edge_bytes_[gl.edge];
  return static_cast<double>(bytes) * 8.0 / gn.rate_kbps;
}

bool Forwarder::holds(const Group& g, std::uint32_t slot,
                      std::uint32_t seq) const {
  const std::uint64_t word =
      g.delivered_bits[slot * g.words_per_member + seq / 64];
  return (word >> (seq % 64)) & 1;
}

std::uint32_t Forwarder::dense_index(Id id) const {
  const auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
  if (it == ids_.end() || *it != id) {
    throw std::invalid_argument("failover script names a node in no tree");
  }
  return static_cast<std::uint32_t>(it - ids_.begin());
}

std::uint32_t Forwarder::link_index(const Node& n, std::uint32_t child) const {
  for (std::size_t i = 0; i < n.links.size(); ++i) {
    if (n.links[i].child == child) return static_cast<std::uint32_t>(i);
  }
  throw std::logic_error("forwarder: no link from a parent to its child");
}

void Forwarder::enqueue(std::uint32_t node, std::uint32_t gidx,
                        const GroupLink& gl, PacketRef pkt) {
  Node& n = nodes_[node];
  const Link& l = n.links[gl.link];
  const std::uint32_t bytes = groups_[gidx].packet_bytes;
  if (cfg_.mode == SchedMode::kShared) {
    std::uint32_t idx = fifo_free_;
    if (idx != kNil) {
      fifo_free_ = fifo_[idx].next;
    } else {
      idx = static_cast<std::uint32_t>(fifo_.size());
      fifo_.emplace_back();
    }
    fifo_[idx] = FifoCopy{l.latency_ms, pkt, l.child, gl.slot, gidx, gl.edge,
                          kNil};
    if (n.fifo_tail == kNil) {
      n.fifo_head = idx;
    } else {
      fifo_[n.fifo_tail].next = idx;
    }
    n.fifo_tail = idx;
  } else {
    n.queues[gl.link].push(
        gidx, QueuedCopy{pkt, l.child, next_order_++, false, gl.slot, gl.edge},
        bytes);
  }
  n.depth_bytes += bytes;
  edge_bytes_[gl.edge] += bytes;
  ++live_copies_;
}

void Forwarder::relay_to_children(std::uint32_t gidx, std::uint32_t slot,
                                  PacketRef pkt, SimTime now) {
  Group& g = groups_[gidx];
  GroupNode& gn = g.members[slot];
  if (gn.links.empty()) return;
  // Round-robin rotation by sequence number over THIS group's children:
  // no child permanently pays the full serialization delay.
  const std::uint32_t seq = pool_.get(pkt).seq;
  const std::size_t rot = seq % gn.links.size();
  for (std::size_t j = 0; j < gn.links.size(); ++j) {
    const GroupLink& gl = gn.links[(j + rot) % gn.links.size()];
    // Bitmap-aware relay: a reattached child may already hold packets
    // this parent has yet to see (delivered along its pre-failover
    // path). The child's bitmap arrived with the reattach handshake, so
    // the parent suppresses those relays instead of double-delivering.
    // Off the failover path the bit can never be set before the relay —
    // tree delivery is single-path — so this changes nothing there.
    if (holds(g, gl.slot, seq)) {
      ++g.stats.suppressed_relays;
      continue;
    }
    pool_.add_ref(pkt);
    enqueue(gn.node, gidx, gl, pkt);
  }
  start_service(gidx, slot, now);
  update_congestion(gidx, slot, now);
}

void Forwarder::start_service(std::uint32_t gidx, std::uint32_t slot,
                              SimTime now) {
  GroupNode& gn = groups_[gidx].members[slot];
  if (cfg_.mode == SchedMode::kLedgerShares) {
    if (!gn.vtx_busy) serve_group(gidx, slot, now);
  } else if (!nodes_[gn.node].tx_busy) {
    serve_node(gn.node, now);
  }
}

void Forwarder::serve_node(std::uint32_t node, SimTime now) {
  if (dead_[node]) return;
  if (cfg_.mode == SchedMode::kShared) {
    serve_fifo(node, now);
  } else {
    serve_pressure(node, now);
  }
}

void Forwarder::transmit(std::uint32_t node, std::uint32_t gidx,
                         PacketRef pkt, std::uint32_t dest, std::uint32_t slot,
                         SimTime latency_ms, double backlog_ms, SimTime now) {
  Node& n = nodes_[node];
  const double tx = groups_[gidx].packet_kbit / n.kbps * 1000.0;
  n.tx_busy = true;
  ++totals_.copies_sent;
  sink_.observe("dataplane.backlog_ms", backlog_ms);
  const SimTime done = now + tx;
  push_event(done, {.node = node, .kind = EventKind::kTxFree});
  // The queued ref rides the transmission; arrivals from a sender that
  // has died meanwhile are discarded.
  push_event(done + latency_ms,
             {.aux = node, .node = dest, .dest = slot, .gidx = gidx,
              .pkt = pkt, .kind = EventKind::kArrival});
}

Forwarder::FifoCopy Forwarder::pop_fifo(Node& n) {
  const std::uint32_t idx = n.fifo_head;
  const FifoCopy copy = fifo_[idx];
  n.fifo_head = copy.next;
  if (n.fifo_head == kNil) n.fifo_tail = kNil;
  fifo_[idx].next = fifo_free_;
  fifo_free_ = idx;
  return copy;
}

void Forwarder::serve_fifo(std::uint32_t node, SimTime now) {
  // The paper's uplink: the oldest copy queued at the node, whatever
  // its group or link — the one place where groups contend.
  Node& n = nodes_[node];
  if (n.fifo_head == kNil) return;  // transmitter idles
  const double my_backlog = node_backlog_ms(node);
  if (my_backlog > totals_.max_backlog_ms) totals_.max_backlog_ms = my_backlog;
  const FifoCopy copy = pop_fifo(n);
  const std::uint32_t bytes = groups_[copy.gidx].packet_bytes;
  n.depth_bytes -= bytes;
  edge_bytes_[copy.edge] -= bytes;
  transmit(node, copy.gidx, copy.pkt, copy.dest, copy.slot, copy.latency_ms,
           my_backlog, now);
  if (admission_on()) {
    update_congestion(copy.gidx, groups_[copy.gidx].slot_of.at(node), now);
  }
}

void Forwarder::serve_pressure(std::uint32_t node, SimTime now) {
  Node& n = nodes_[node];
  for (;;) {
    // Global-FIFO head: lowest enqueue stamp across the relay queue and
    // every group's bins on every link. -1 marks the relay queue.
    int fifo_q = -1;
    const QueuedCopy* fifo = relays_[node].peek_fifo();
    for (std::size_t i = 0; i < n.queues.size(); ++i) {
      const QueuedCopy* c = n.queues[i].peek_fifo();
      if (c != nullptr && (fifo == nullptr || c->order < fifo->order)) {
        fifo = c;
        fifo_q = static_cast<int>(i);
      }
    }
    if (fifo == nullptr) return;  // transmitter idles

    const double my_backlog = node_backlog_ms(node);
    if (my_backlog > totals_.max_backlog_ms) {
      totals_.max_backlog_ms = my_backlog;
    }
    // Congestion gate: one packet's fan-out burst (one copy per child)
    // is normal operation — a node that has just received a packet holds
    // exactly that much. Upstream queueing can also bunch two packets
    // closer than the pacing interval, transiently stacking a second
    // burst, so only backlog in EXCESS of two full bursts (plus the
    // congestion slack) marks the uplink congested; until then the
    // service order is pure FIFO, which is what keeps the uncongested
    // backpressure schedule bit-identical to kShared. A real hotspot
    // grows without bound and clears the gate regardless.
    const double kbit = groups_[pool_.get(fifo->pkt).stream].packet_kbit;
    const double burst_ms =
        static_cast<double>(n.links.size()) * (kbit / n.kbps * 1000.0);
    const bool congested_here =
        my_backlog > 2.0 * burst_ms + kCongestionSlackMs;

    int chosen_q = fifo_q;
    const QueuedCopy* chosen = fifo;
    bool by_pressure = false;
    if (congested_here) {
      // Congestion-gradient selection: local link backlog minus the
      // child's advertised uplink backlog (corrected by what we have
      // delegated to it since its last report). Deviating from FIFO
      // requires a hysteresis-sized advantage; ties keep tree order.
      auto gradient = [&](int q) {
        if (q < 0) return relays_[node].depth_bytes() * 8.0 / n.kbps;
        const std::size_t i = static_cast<std::size_t>(q);
        const Link& l = n.links[i];
        const double local = n.queues[i].depth_bytes() * 8.0 / n.kbps;
        const double remote =
            l.adv_backlog_ms +
            l.delegated_since_bytes * 8.0 / nodes_[l.child].kbps;
        return local - remote;
      };
      int best_q = -2;
      double best_grad = -kInf;
      for (std::size_t i = 0; i < n.queues.size(); ++i) {
        if (n.queues[i].empty()) continue;
        const double g = gradient(static_cast<int>(i));
        if (g > best_grad) {
          best_grad = g;
          best_q = static_cast<int>(i);
        }
      }
      if (best_q >= -1 && best_q != fifo_q &&
          best_grad > gradient(fifo_q) + kHysteresisMs) {
        chosen_q = best_q;
        chosen = n.queues[static_cast<std::size_t>(best_q)].peek_pressure();
        by_pressure = true;
      }
    }

    const Packet& pkt = pool_.get(chosen->pkt);
    const std::uint32_t gidx = static_cast<std::uint32_t>(pkt.stream);
    Group& g = groups_[gidx];
    const std::uint32_t bytes = pkt.bytes;
    auto pop_chosen = [&]() -> QueuedCopy {
      BinQueue& q = chosen_q < 0
                        ? relays_[node]
                        : n.queues[static_cast<std::size_t>(chosen_q)];
      const QueuedCopy copy =
          by_pressure ? q.pop_pressure(bytes) : q.pop_fifo(bytes);
      n.depth_bytes -= bytes;
      if (chosen_q >= 0) edge_bytes_[copy.edge] -= bytes;
      return copy;
    };
    auto after_dequeue = [&] {
      if (admission_on()) update_congestion(gidx, g.slot_of.at(node), now);
    };

    // Latency-constrained mode: a copy past its deadline at service
    // time becomes a zombie — dropped, counted, never transmitted.
    if (cfg_.deadline_ms > 0 && now - pkt.emitted_ms > cfg_.deadline_ms) {
      const QueuedCopy copy = pop_chosen();
      ++g.stats.zombie_copies;
      g.stats.zombie_bytes += bytes;
      sink_.count("dataplane.zombie.copies");
      sink_.count("dataplane.zombie.bytes", bytes);
      sink_.trace(telemetry::EventType::kPacketZombie, now, ids_[node],
                  ids_[copy.dest], g.id, pkt.seq);
      pool_.release(copy.pkt);
      --live_copies_;
      after_dequeue();
      continue;
    }

    // Duty shedding: a congested node hands the copy to another child
    // of the group that already holds the packet and has the shallower
    // uplink, via a control token — the data bytes route around this
    // uplink entirely.
    if (congested_here && chosen_q >= 0 && !chosen->delegated) {
      const GroupNode& gn = g.members[g.slot_of.at(node)];
      int best_l = -1;
      double best_est = kInf;
      for (const GroupLink& gl : gn.links) {
        const Link& l = n.links[gl.link];
        if (l.child == chosen->dest) continue;
        if (!holds(g, gl.slot, pkt.seq)) continue;
        const double est = l.adv_backlog_ms +
                           l.delegated_since_bytes * 8.0 /
                               nodes_[l.child].kbps;
        if (est < best_est) {
          best_est = est;
          best_l = static_cast<int>(gl.link);
        }
      }
      if (best_l >= 0 && best_est + kHysteresisMs < my_backlog) {
        const QueuedCopy copy = pop_chosen();
        Link& helper = n.links[static_cast<std::size_t>(best_l)];
        helper.delegated_since_bytes += bytes;
        ++g.stats.delegated_copies;
        sink_.count("dataplane.delegated");
        // The queued ref rides the token.
        push_event(now + helper.latency_ms,
                   {.aux = copy.slot, .node = helper.child, .dest = copy.dest,
                    .gidx = gidx, .pkt = copy.pkt,
                    .kind = EventKind::kDelegateArrive});
        after_dequeue();
        continue;
      }
    }

    const QueuedCopy copy = pop_chosen();
    transmit(node, gidx, copy.pkt, copy.dest, copy.slot,
             chosen_q >= 0
                 ? n.links[static_cast<std::size_t>(chosen_q)].latency_ms
                 : latency_.latency(ids_[node], ids_[copy.dest]),
             my_backlog, now);
    after_dequeue();
    return;
  }
}

void Forwarder::serve_group(std::uint32_t gidx, std::uint32_t slot,
                            SimTime now) {
  Group& g = groups_[gidx];
  GroupNode& gn = g.members[slot];
  if (dead_[gn.node]) return;
  Node& n = nodes_[gn.node];
  // FIFO head among THIS group's bins only: the virtual transmitter
  // never sees other groups' queued bytes. Pruned edges drain too.
  const GroupLink* from = nullptr;
  const QueuedCopy* fifo = nullptr;
  auto scan = [&](const std::vector<GroupLink>& links) {
    for (const GroupLink& gl : links) {
      const QueuedCopy* c = n.queues[gl.link].peek_stream(gidx);
      if (c != nullptr && (fifo == nullptr || c->order < fifo->order)) {
        fifo = c;
        from = &gl;
      }
    }
  };
  scan(gn.links);
  scan(gn.pruned_links);
  if (fifo == nullptr) return;

  const double my_backlog = group_backlog_ms(gidx, gn);
  if (my_backlog > totals_.max_backlog_ms) totals_.max_backlog_ms = my_backlog;

  const QueuedCopy copy =
      n.queues[from->link].pop_stream(gidx, g.packet_bytes);
  n.depth_bytes -= g.packet_bytes;
  edge_bytes_[copy.edge] -= g.packet_bytes;

  const double tx = g.packet_kbit / gn.rate_kbps * 1000.0;
  gn.vtx_busy = true;
  ++totals_.copies_sent;
  const SimTime done = now + tx;
  push_event(done, {.node = gn.node, .dest = slot, .gidx = gidx,
                    .kind = EventKind::kVtxFree});
  push_event(done + n.links[from->link].latency_ms,
             {.aux = gn.node, .node = copy.dest, .dest = copy.slot,
              .gidx = gidx, .pkt = copy.pkt, .kind = EventKind::kArrival});
  update_congestion(gidx, slot, now);
}

void Forwarder::handle_arrival(const Event& e, SimTime now) {
  Group& g = groups_[e.gidx];
  // A copy to or from a crashed node evaporates: the dead can't
  // receive, and late frames from a dead sender must not land after the
  // child's reattach bitmap was diffed (that would double-deliver what
  // gap repair already backfilled) — exactly-once leans on this.
  if (dead_[e.node] || dead_[static_cast<std::uint32_t>(e.aux)]) {
    ++g.stats.copies_lost;
    pool_.release(e.pkt);
    --live_copies_;
    return;
  }
  const std::uint32_t slot = e.dest;
  assert(g.slot_of.at(e.node) == slot);
  GroupNode& gn = g.members[slot];
  const Packet& pkt = pool_.get(e.pkt);
  std::uint64_t& word =
      g.delivered_bits[slot * g.words_per_member + pkt.seq / 64];
  if ((word >> (pkt.seq % 64)) & 1) ++g.stats.duplicate_deliveries;
  word |= std::uint64_t{1} << (pkt.seq % 64);
  ++gn.delivered;
  ++g.stats.copies_delivered;
  if (now < gn.first_arrival_ms) gn.first_arrival_ms = now;
  if (now > gn.last_arrival_ms) gn.last_arrival_ms = now;
  g.latencies_ms.push_back(now - pkt.emitted_ms);
  relay_to_children(e.gidx, slot, e.pkt, now);
  pool_.release(e.pkt);
  --live_copies_;
}

void Forwarder::handle_delegate(const Event& e, SimTime now) {
  // The helper queues the duty in its relay queue; the token's ref
  // becomes the queued copy's ref.
  const std::uint32_t bytes = groups_[e.gidx].packet_bytes;
  relays_[e.node].push(e.gidx,
                       QueuedCopy{e.pkt, e.dest, next_order_++, true,
                                  static_cast<std::uint32_t>(e.aux), 0},
                       bytes);
  nodes_[e.node].depth_bytes += bytes;
  if (!nodes_[e.node].tx_busy) serve_node(e.node, now);
  if (admission_on()) {
    update_congestion(e.gidx, groups_[e.gidx].slot_of.at(e.node), now);
  }
}

void Forwarder::handle_depth_report(const Event& e, SimTime now) {
  if (!active()) return;  // traffic drained; stop the chain
  const Group& g = groups_[e.gidx];
  const GroupNode& gn = g.members[e.dest];
  const double backlog = node_backlog_ms(e.node);
  if (feed_) {
    // Piggyback mode: the value travels through the external
    // transport; the event only marks when the parent looks.
    feed_.publish(ids_[e.node], backlog, now);
  }
  push_event(now + gn.parent_latency_ms,
             {.aux = std::bit_cast<std::uint64_t>(backlog),
              .node = g.members[gn.parent_slot].node, .dest = e.node,
              .kind = EventKind::kDepthArrive});
  push_event(now + kDepthReportIntervalMs, e);
}

void Forwarder::handle_depth_arrive(const Event& e, SimTime now) {
  Node& n = nodes_[e.node];
  Link& l = n.links[link_index(n, e.dest)];
  double value = std::bit_cast<double>(e.aux);
  if (feed_) {
    feed_.advance(now);
    value = feed_.sample(ids_[e.node], ids_[e.dest]);
    if (std::isnan(value)) return;  // lost in transit: keep old view
  }
  l.adv_backlog_ms = value;
  l.delegated_since_bytes = 0;
}

void Forwarder::handle_flag(const Event& e, SimTime now) {
  Group& g = groups_[e.gidx];
  GroupNode& parent = g.members[e.dest];
  GroupNode& sender = g.members[g.slot_of.at(e.node)];
  // Stale control traffic around failover: flags from (or to) the dead
  // are void, as is a flag aimed at a parent the sender has since been
  // re-hung away from — reattach already synthesized the sender's
  // standing contribution at the new parent.
  if (dead_[e.node] || dead_[parent.node] || sender.pruned ||
      sender.parent_slot != e.dest) {
    return;
  }
  sender.flag_landed = e.aux != 0;
  if (e.aux != 0) {
    ++parent.congested_children;
  } else {
    assert(parent.congested_children > 0);
    --parent.congested_children;
  }
  update_congestion(e.gidx, e.dest, now);
}

void Forwarder::update_congestion(std::uint32_t gidx, std::uint32_t slot,
                                  SimTime now) {
  if (!admission_on()) return;
  Group& g = groups_[gidx];
  GroupNode& gn = g.members[slot];
  if (dead_[gn.node]) return;  // the dead raise no flags
  const double b = group_backlog_ms(gidx, gn);
  if (!gn.own_congested && b > cfg_.admission_high_ms) {
    gn.own_congested = true;
  } else if (gn.own_congested && b < cfg_.admission_low_ms) {
    gn.own_congested = false;
  }
  const bool subtree = gn.own_congested || gn.congested_children > 0;
  if (slot == g.source_slot) {
    if (!subtree) maybe_resume(gidx, now);
    return;
  }
  if (subtree != gn.flag_sent) {
    gn.flag_sent = subtree;
    push_event(now + gn.parent_latency_ms,
               {.aux = subtree ? 1u : 0u, .node = gn.node,
                .dest = gn.parent_slot, .gidx = gidx,
                .kind = EventKind::kFlagArrive});
  }
}

void Forwarder::maybe_resume(std::uint32_t gidx, SimTime now) {
  Group& g = groups_[gidx];
  if (!g.emission_paused) return;
  g.emission_paused = false;
  g.stats.admission_paused_ms += now - g.pause_start_ms;
  const std::uint32_t source = g.members[g.source_slot].node;
  sink_.trace(telemetry::EventType::kAdmissionGate, now, ids_[source], 0, 0,
              g.next_emit);
  // Re-anchor this group's emission clock; the others are untouched.
  g.emit_offset = now - static_cast<SimTime>(g.next_emit) * g.gen_interval;
  push_event(now, {.aux = g.next_emit, .node = source, .gidx = gidx,
                   .kind = EventKind::kSourceEmit});
}

void Forwarder::emit(std::uint32_t gidx, std::uint32_t seq, SimTime now) {
  Group& g = groups_[gidx];
  GroupNode& src = g.members[g.source_slot];
  if (admission_on() && (src.own_congested || src.congested_children > 0)) {
    // Only THIS group's emission gates; other groups keep streaming.
    g.emission_paused = true;
    g.pause_start_ms = now;
    ++g.stats.admission_pauses;
    sink_.count("dataplane.admission.pauses");
    sink_.trace(telemetry::EventType::kAdmissionGate, now, ids_[src.node], 0,
                1, seq);
    return;  // maybe_resume() re-schedules this seq when the flag clears
  }
  const PacketRef pkt = pool_.alloc(gidx, seq, g.packet_bytes, now);
  g.delivered_bits[g.source_slot * g.words_per_member + seq / 64] |=
      std::uint64_t{1} << (seq % 64);
  g.emit_ms[seq] = now;
  ++g.stats.packets_emitted;
  --unemitted_;
  relay_to_children(gidx, g.source_slot, pkt, now);
  pool_.release(pkt);
  g.next_emit = seq + 1;
  if (g.next_emit < g.traffic.num_packets) {
    push_event(
        g.emit_offset + static_cast<SimTime>(g.next_emit) * g.gen_interval,
        {.aux = g.next_emit, .node = src.node, .gidx = gidx,
         .kind = EventKind::kSourceEmit});
  }
}

MultiGroupStats Forwarder::run(const std::vector<GroupTraffic>& traffic,
                               const FailoverScript& script) {
  assert(!ran_ && "Forwarder is single-shot");
  // Delegated duties ride relay queues outside the tree edges that
  // failover prunes and re-hangs, so exactly-once would not hold.
  if (!script.empty() && cfg_.mode == SchedMode::kBackpressure) {
    throw std::invalid_argument(
        "failover scripts need kShared or kLedgerShares");
  }
  ran_ = true;
  failover_active_ = !script.empty();

  group_index_.reserve(groups_.size());
  for (std::size_t i = 0; i < groups_.size(); ++i) {
    group_index_.emplace(groups_[i].id, static_cast<std::uint32_t>(i));
  }
  for (Group& g : groups_) {
    for (GroupNode& gn : g.members) {
      if (gn.rate_kbps == 0) gn.rate_kbps = nodes_[gn.node].kbps;
      assert(gn.rate_kbps > 0 && "set or resolve the uplinks before run()");
    }
  }

  for (const GroupTraffic& t : traffic) {
    auto it = group_index_.find(t.group);
    assert(it != group_index_.end() && "traffic for an unknown group");
    const std::uint32_t gidx = it->second;
    Group& g = groups_[gidx];
    assert(g.words_per_member == 0 && "one traffic entry per group");
    assert(t.throttle > 0 && t.throttle <= 1.0);
    g.traffic = t;
    g.packet_bytes = static_cast<std::uint32_t>(t.packet_bytes);
    g.packet_kbit = static_cast<double>(t.packet_bytes) * 8.0 / 1000.0;
    if (t.throttle < 1.0) {
      // Degraded source: pace at throttle * the nominal rate. A
      // back-to-back source throttles against its own uplink B_src —
      // the fastest it could have emitted.
      const double nominal =
          t.source_rate_kbps > 0
              ? t.source_rate_kbps
              : nodes_[g.members[g.source_slot].node].kbps;
      g.gen_interval = g.packet_kbit / (nominal * t.throttle) * 1000.0;
    } else {
      g.gen_interval = t.source_rate_kbps > 0
                           ? g.packet_kbit / t.source_rate_kbps * 1000.0
                           : 0.0;
    }
    g.words_per_member = (t.num_packets + 63) / 64;
    g.delivered_bits.assign(g.members.size() * g.words_per_member, 0);
    g.emit_ms.assign(t.num_packets, 0);
    g.stats.group = g.id;
    g.stats.copies_expected =
        g.members.size() > 1
            ? static_cast<std::uint64_t>(g.members.size() - 1) *
                  t.num_packets
            : 0;
    g.latencies_ms.reserve(g.stats.copies_expected);
    g.emit_offset = t.start_ms;
    for (GroupNode& gn : g.members) {
      gn.first_arrival_ms = kInf;
      gn.last_arrival_ms = 0;
    }
    if (g.members.size() > 1) unemitted_ += t.num_packets;
    active_.push_back(gidx);
  }

  // Pre-size the hot-path storage: the pool covers a few packets' worth
  // of full-tree fan-out before its first mid-run slab growth, the
  // event heap and the kShared FIFO slab a few events or copies per
  // node, each bin queue its own small working set.
  const bool backpressure = cfg_.mode == SchedMode::kBackpressure;
  pool_.reserve(2 * nodes_.size() + 64);
  heap_.reserve(4 * nodes_.size() + 16);
  events_.reserve(4 * nodes_.size() + 16);
  free_events_.reserve(4 * nodes_.size() + 16);
  if (cfg_.mode == SchedMode::kShared) {
    fifo_.reserve(2 * nodes_.size() + 64);
  } else {
    for (Node& n : nodes_) {
      for (BinQueue& q : n.queues) q.reserve(1, 8);
    }
  }
  if (backpressure) {
    relays_.resize(nodes_.size());
    for (BinQueue& q : relays_) q.reserve(1, 8);
  }

  for (std::uint32_t gidx : active_) {
    Group& g = groups_[gidx];
    if (g.members.size() <= 1 || g.traffic.num_packets == 0) continue;
    push_event(g.traffic.start_ms,
               {.node = g.members[g.source_slot].node, .gidx = gidx,
                .kind = EventKind::kSourceEmit});
  }
  if (backpressure) {
    for (std::uint32_t gidx : active_) {
      const Group& g = groups_[gidx];
      if (g.members.size() <= 1 || g.traffic.num_packets == 0) continue;
      for (std::uint32_t slot = 0; slot < g.members.size(); ++slot) {
        if (slot == g.source_slot) continue;
        push_event(kDepthReportIntervalMs,
                   {.node = g.members[slot].node, .dest = slot, .gidx = gidx,
                    .kind = EventKind::kDepthReport});
      }
    }
  }

  // Failover surgery rides the same heap. Crashes are pushed first so a
  // same-instant tie resolves crash-before-consequence; prunes before
  // reattaches for the same reason.
  for (const FailoverScript::Crash& c : script.crashes) {
    push_event(c.at_ms,
               {.node = dense_index(c.node), .kind = EventKind::kCrash});
  }
  for (const FailoverScript::Prune& p : script.prunes) {
    push_event(p.at_ms, {.node = dense_index(p.parent),
                         .dest = dense_index(p.child),
                         .gidx = group_index_.at(p.group),
                         .kind = EventKind::kPrune});
  }
  for (const FailoverScript::Reattach& r : script.reattaches) {
    push_event(r.at_ms, {.node = dense_index(r.child),
                         .dest = dense_index(r.parent),
                         .gidx = group_index_.at(r.group),
                         .kind = EventKind::kReattach});
  }

  while (!heap_.empty()) {
    const EventKey key = pop_event();
    const SimTime now = key_time(static_cast<std::uint64_t>(key >> 64));
    const auto slot = static_cast<std::uint32_t>(
        static_cast<std::uint64_t>(key) & ((std::uint64_t{1} << kSlotBits) - 1));
    const Event e = events_[slot];
    free_events_.push_back(slot);
    switch (e.kind) {
      case EventKind::kSourceEmit:
        emit(e.gidx, static_cast<std::uint32_t>(e.aux), now);
        break;
      case EventKind::kArrival:
        handle_arrival(e, now);
        break;
      case EventKind::kTxFree:
        nodes_[e.node].tx_busy = false;
        serve_node(e.node, now);
        break;
      case EventKind::kVtxFree:
        groups_[e.gidx].members[e.dest].vtx_busy = false;
        serve_group(e.gidx, e.dest, now);
        break;
      case EventKind::kDelegateArrive:
        handle_delegate(e, now);
        break;
      case EventKind::kDepthReport:
        handle_depth_report(e, now);
        break;
      case EventKind::kDepthArrive:
        handle_depth_arrive(e, now);
        break;
      case EventKind::kFlagArrive:
        handle_flag(e, now);
        break;
      case EventKind::kCrash:
        crash_node(e.node);
        break;
      case EventKind::kPrune:
        prune_link(e.gidx, e.node, e.dest, now);
        break;
      case EventKind::kReattach:
        reattach(e.gidx, e.node, e.dest, now);
        break;
    }
  }
  // Checked in release builds too: a leak here means some copy was
  // stranded in a queue nothing serves, and every count is suspect.
  if (pool_.in_use() != 0 || live_copies_ != 0) {
    throw std::logic_error("forwarder: packets left queued at quiesce");
  }

  MultiGroupStats out;
  finalize(out);
  return out;
}

void Forwarder::crash_node(std::uint32_t node) {
  assert(!dead_[node] && "node crashed twice");
  dead_[node] = 1;
  // Everything queued at the dead node's uplink evaporates with it.
  Node& n = nodes_[node];
  while (n.fifo_head != kNil) {
    const FifoCopy copy = pop_fifo(n);
    lose_copy(copy.gidx, copy.pkt, copy.edge, n);
  }
  for (BinQueue& q : n.queues) {
    while (const QueuedCopy* c = q.peek_fifo()) {
      const std::uint32_t gidx =
          static_cast<std::uint32_t>(pool_.get(c->pkt).stream);
      const QueuedCopy copy = q.pop_fifo(groups_[gidx].packet_bytes);
      lose_copy(gidx, copy.pkt, copy.edge, n);
    }
  }
  // The member can never deliver more than it had: freeze expectation
  // at the crash-time count (finalize swaps it in for dead members).
  for (std::uint32_t gidx : active_) {
    Group& g = groups_[gidx];
    const auto it = g.slot_of.find(node);
    if (it == g.slot_of.end()) continue;
    assert(it->second != g.source_slot &&
           "script crashed a streamed group's source");
    g.members[it->second].frozen_delivered = g.members[it->second].delivered;
  }
}

void Forwarder::lose_copy(std::uint32_t gidx, PacketRef pkt,
                          std::uint32_t edge, Node& n) {
  Group& g = groups_[gidx];
  ++g.stats.copies_lost;
  n.depth_bytes -= g.packet_bytes;
  edge_bytes_[edge] -= g.packet_bytes;
  pool_.release(pkt);
  --live_copies_;
}

void Forwarder::mark_detached(Group& g, std::uint32_t slot, bool detached) {
  std::vector<std::uint32_t> stack{slot};
  while (!stack.empty()) {
    const std::uint32_t s = stack.back();
    stack.pop_back();
    GroupNode& gn = g.members[s];
    gn.detached = detached;
    for (const GroupLink& gl : gn.links) stack.push_back(gl.slot);
  }
}

void Forwarder::prune_link(std::uint32_t gidx, std::uint32_t parent,
                           std::uint32_t child, SimTime now) {
  Group& g = groups_[gidx];
  GroupNode& pn = g.members[g.slot_of.at(parent)];
  GroupNode& cn = g.members[g.slot_of.at(child)];
  // The whole limb below the dead child is cut off until each orphan's
  // reattach lands (expectation accounting for members still detached
  // at the end of the run).
  mark_detached(g, g.slot_of.at(child), true);
  cn.pruned = true;
  // Copies already queued on the pruned link still drain — the parent
  // spent that uplink before detection — and evaporate on arrival at
  // the dead child. Only future relays skip the edge.
  for (auto it = pn.links.begin(); it != pn.links.end(); ++it) {
    if (nodes_[pn.node].links[it->link].child == child) {
      pn.pruned_links.push_back(*it);
      pn.links.erase(it);
      break;
    }
  }
  // Retract the dead child's standing congestion vote so the parent's
  // subtree flag (and ultimately the source pause) can clear.
  if (cn.flag_landed) {
    cn.flag_landed = false;
    assert(pn.congested_children > 0);
    --pn.congested_children;
  }
  update_congestion(gidx, g.slot_of.at(parent), now);
}

void Forwarder::reattach(std::uint32_t gidx, std::uint32_t child,
                         std::uint32_t parent, SimTime now) {
  Group& g = groups_[gidx];
  // A cascade can kill either end between the announce and this event;
  // the next detection round re-hangs the orphan elsewhere.
  if (dead_[child] || dead_[parent]) return;
  const std::uint32_t cslot = g.slot_of.at(child);
  const std::uint32_t pslot = g.slot_of.at(parent);
  GroupNode& cn = g.members[cslot];
  GroupNode& pn = g.members[pslot];
  Node& n = nodes_[pn.node];

  // Find-or-create the node-level link (two groups sharing the new edge
  // share it, same as at construction). Appending keeps every stored
  // link index valid. Latency argument order mirrors the ctor.
  std::uint32_t li = static_cast<std::uint32_t>(n.links.size());
  for (std::uint32_t i = 0; i < n.links.size(); ++i) {
    if (n.links[i].child == child) {
      li = i;
      break;
    }
  }
  if (li == n.links.size()) {
    n.links.push_back(
        Link{child, latency_.latency(ids_[child], ids_[parent]), 0, 0});
    if (cfg_.mode != SchedMode::kShared) n.queues.emplace_back().reserve(1, 8);
  }
  // A member edge pruned earlier over this link comes back with the
  // copies still queued on it, as the per-group bin did.
  GroupLink gl{li, cslot, 0};
  const auto old = std::find_if(
      pn.pruned_links.begin(), pn.pruned_links.end(),
      [li](const GroupLink& p) { return p.link == li; });
  if (old != pn.pruned_links.end()) {
    gl.edge = old->edge;
    pn.pruned_links.erase(old);
  } else {
    gl.edge = static_cast<std::uint32_t>(edge_bytes_.size());
    edge_bytes_.push_back(0);
  }
  pn.links.push_back(gl);
  cn.parent_slot = pslot;
  cn.parent_latency_ms = latency_.latency(ids_[parent], ids_[child]);
  cn.pruned = false;
  mark_detached(g, cslot, false);
  ++g.stats.reattaches;
  // Transfer the child's standing congestion vote to the new parent:
  // flag_sent is what the child believes it has raised; any flag still
  // in flight toward the old (dead) parent is void.
  cn.flag_landed = cn.flag_sent;
  if (cn.flag_sent) ++pn.congested_children;

  // Pull gap repair: the child reports its delivery bitmap; the parent
  // backfills every packet it has that the child lacks, oldest first,
  // unless the packet is past the zombie deadline (a repair nobody
  // would play out). Repairs re-enter the ordinary queues, so they
  // contend with live traffic and relay onward through the child's
  // subtree like any other copy.
  std::uint64_t gap = 0;
  for (std::size_t w = 0; w < g.words_per_member; ++w) {
    std::uint64_t missing =
        g.delivered_bits[pslot * g.words_per_member + w] &
        ~g.delivered_bits[cslot * g.words_per_member + w];
    while (missing != 0) {
      const std::uint32_t bit =
          static_cast<std::uint32_t>(__builtin_ctzll(missing));
      missing &= missing - 1;
      const std::uint32_t seq = static_cast<std::uint32_t>(w * 64 + bit);
      if (cfg_.deadline_ms > 0 && now - g.emit_ms[seq] > cfg_.deadline_ms) {
        ++g.stats.repair_zombies;
        // Count every subtree member that will now never see this seq.
        std::vector<std::uint32_t> stack{cslot};
        while (!stack.empty()) {
          const std::uint32_t s = stack.back();
          stack.pop_back();
          const GroupNode& sn = g.members[s];
          if (!holds(g, s, seq)) ++g.stats.zombie_lost_deliveries;
          for (const GroupLink& gl : sn.links) stack.push_back(gl.slot);
        }
        continue;
      }
      // Re-materialize the packet with its ORIGINAL emission time so
      // latency and any later zombie checks measure from the source
      // emit, not the repair.
      enqueue(pn.node, gidx, gl,
              pool_.alloc(gidx, seq, g.packet_bytes, g.emit_ms[seq]));
      ++g.stats.repaired_copies;
      ++gap;
    }
  }
  g.stats.gap_packets_total += gap;
  if (gap > g.stats.gap_packets_max) g.stats.gap_packets_max = gap;
  start_service(gidx, pslot, now);
  update_congestion(gidx, pslot, now);
}

SessionStats Forwarder::session_stats(const Group& g) const {
  SessionStats s;
  double min_rate = kInf;
  double rate_sum = 0;
  for (std::uint32_t slot = 0; slot < g.members.size(); ++slot) {
    if (slot == g.source_slot) continue;
    const GroupNode& n = g.members[slot];
    ++s.receivers;
    if (n.delivered > 0) {
      if (n.last_arrival_ms > s.completion_ms) {
        s.completion_ms = n.last_arrival_ms;
      }
      if (n.first_arrival_ms > s.max_first_packet_ms) {
        s.max_first_packet_ms = n.first_arrival_ms;
      }
    }
    double rate;
    if (n.delivered >= 2 && n.last_arrival_ms > n.first_arrival_ms) {
      rate = static_cast<double>(n.delivered - 1) * g.packet_kbit /
             (n.last_arrival_ms - n.first_arrival_ms) * 1000.0;
    } else {
      rate = kInf;
    }
    if (rate < min_rate) min_rate = rate;
    rate_sum += rate == kInf ? 0 : rate;
  }
  s.session_rate_kbps = min_rate == kInf ? 0 : min_rate;
  s.mean_rate_kbps =
      s.receivers > 0 ? rate_sum / static_cast<double>(s.receivers) : 0;
  return s;
}

void Forwarder::finalize(MultiGroupStats& out) {
  double all_sum = 0, all_sumsq = 0;
  std::size_t rated_groups = 0;
  double goodput_kbit = 0;
  std::uint64_t packets = 0;
  std::size_t deliveries = 0;
  for (std::uint32_t gidx : active_) {
    deliveries += groups_[gidx].latencies_ms.size();
  }
  std::vector<double> all_latencies;
  all_latencies.reserve(deliveries);

  for (std::uint32_t gidx : active_) {
    Group& g = groups_[gidx];
    // Under failover the flat (members-1) * packets expectation no
    // longer holds: dead members are owed only what they had at the
    // crash, members still detached at quiesce only what actually
    // reached them, and zombie-skipped repairs are deliveries the run
    // deliberately abandoned.
    if (failover_active_) {
      std::uint64_t expected = 0;
      for (std::uint32_t slot = 0; slot < g.members.size(); ++slot) {
        if (slot == g.source_slot) continue;
        const GroupNode& gn = g.members[slot];
        if (dead_[gn.node]) {
          expected += gn.frozen_delivered;
        } else if (gn.detached) {
          expected += gn.delivered;
        } else {
          expected += g.traffic.num_packets;
        }
      }
      expected -= std::min<std::uint64_t>(expected,
                                          g.stats.zombie_lost_deliveries);
      g.stats.copies_expected = expected;
    }
    const SessionStats& s = g.stats.session = session_stats(g);

    if (!g.latencies_ms.empty()) {
      std::vector<double>& sorted = g.latencies_ms;
      std::sort(sorted.begin(), sorted.end());
      double sum = 0;
      for (double v : sorted) sum += v;
      g.stats.mean_latency_ms = sum / static_cast<double>(sorted.size());
      const std::size_t idx = (sorted.size() * 99 + 99) / 100 - 1;
      g.stats.p99_latency_ms = sorted[idx];
      all_latencies.insert(all_latencies.end(), sorted.begin(),
                           sorted.end());
    }
    goodput_kbit +=
        static_cast<double>(g.stats.copies_delivered) * g.packet_kbit;
    packets += g.stats.packets_emitted;
    if (s.receivers > 0) {
      ++rated_groups;
      all_sum += s.session_rate_kbps;
      all_sumsq += s.session_rate_kbps * s.session_rate_kbps;
    }
    if (s.completion_ms > out.completion_ms) {
      out.completion_ms = s.completion_ms;
    }
    out.groups.push_back(g.stats);
  }

  out.aggregate_goodput_kbps =
      out.completion_ms > 0 ? goodput_kbit / out.completion_ms * 1000.0 : 0;
  // Jain's index over per-group session rates; degenerate cases (no
  // rated group, or every rate zero) count as perfectly fair.
  out.jain_fairness =
      rated_groups == 0 || all_sumsq == 0
          ? 1.0
          : all_sum * all_sum /
                (static_cast<double>(rated_groups) * all_sumsq);
  if (!all_latencies.empty()) {
    const std::size_t idx = (all_latencies.size() * 99 + 99) / 100 - 1;
    std::nth_element(all_latencies.begin(), all_latencies.begin() + idx,
                     all_latencies.end());
    out.p99_latency_ms = all_latencies[idx];
  }
  totals_.pool_peak_in_use = pool_.peak_in_use();
  totals_.pool_allocs = pool_.total_allocs();
  totals_.pool_recycled = pool_.recycled();
  static_cast<RunTotals&>(out) = totals_;
  if (sink_.metrics != nullptr) {
    sink_.count("dataplane.packets", packets);
    sink_.count("dataplane.copies", totals_.copies_sent);
    sink_.set_gauge("dataplane.max_backlog_ms", totals_.max_backlog_ms);
    sink_.set_gauge("dataplane.pool.peak",
                    static_cast<double>(totals_.pool_peak_in_use));
  }
}

TreeForwarder::TreeForwarder(const MulticastTree& tree,
                             const LatencyModel& latency, ForwarderConfig cfg,
                             telemetry::Sink sink)
    : Forwarder({tree_spec(tree)}, latency, cfg, sink) {}

ForwardStats TreeForwarder::run(const GroupTraffic& traffic) {
  ForwardStats out;
  out.group = traffic.group;
  if (node_ids().size() <= 1 || traffic.num_packets == 0) return out;
  set_group_id(0, traffic.group);
  const MultiGroupStats m = Forwarder::run({traffic});
  static_cast<GroupRunStats&>(out) = m.groups.front();
  static_cast<RunTotals&>(out) = m;
  return out;
}

SessionStats stream_over_tree(const MulticastTree& tree, const UplinkFn& uplink,
                              const LatencyModel& latency,
                              const GroupTraffic& traffic) {
  TreeForwarder forwarder(tree, latency, ForwarderConfig{SchedMode::kShared});
  if (tree.size() > 1) forwarder.resolve_uplinks(uplink);
  return forwarder.run(traffic).session;
}

}  // namespace cam::dataplane
