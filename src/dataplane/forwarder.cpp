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
          Link{index.at(c), latency_.latency(c, ids_[i]), {}, 0, 0});
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
                            g.slot_of.at(child)});
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

void Forwarder::push_event(Event e) {
  e.seq = next_event_seq_++;
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), EventLater{});
}

double Forwarder::node_backlog_ms(std::uint32_t node) const {
  const Node& n = nodes_[node];
  std::uint64_t bytes = relays_.empty() ? 0 : relays_[node].depth_bytes();
  for (const Link& l : n.links) bytes += l.queue.depth_bytes();
  return static_cast<double>(bytes) * 8.0 / n.kbps;
}

double Forwarder::group_backlog_ms(std::uint32_t gidx,
                                   const GroupNode& gn) const {
  const Node& n = nodes_[gn.node];
  std::uint64_t bytes =
      relays_.empty() ? 0 : relays_[gn.node].depth_bytes(gidx);
  for (const GroupLink& gl : gn.links) {
    bytes += n.links[gl.link].queue.depth_bytes(gidx);
  }
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
  assert(it != ids_.end() && *it == id && "script id not in any tree");
  return static_cast<std::uint32_t>(it - ids_.begin());
}

std::uint32_t Forwarder::link_index(const Node& n, std::uint32_t child) const {
  for (std::size_t i = 0; i < n.links.size(); ++i) {
    if (n.links[i].child == child) return static_cast<std::uint32_t>(i);
  }
  assert(false && "no link to that child");
  return 0;
}

void Forwarder::relay_to_children(std::uint32_t gidx, std::uint32_t slot,
                                  PacketRef pkt, SimTime now) {
  Group& g = groups_[gidx];
  GroupNode& gn = g.members[slot];
  if (gn.links.empty()) return;
  Node& n = nodes_[gn.node];
  // Round-robin rotation by sequence number over THIS group's children:
  // no child permanently pays the full serialization delay.
  const std::uint32_t seq = pool_.get(pkt).seq;
  const std::size_t rot = seq % gn.links.size();
  for (std::size_t j = 0; j < gn.links.size(); ++j) {
    const GroupLink& gl = gn.links[(j + rot) % gn.links.size()];
    Link& l = n.links[gl.link];
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
    const std::uint32_t bytes = pool_.get(pkt).bytes;
    l.queue.push(gidx,
                 QueuedCopy{pkt, l.child, next_order_++, now, false, gl.slot},
                 bytes);
    ++live_copies_;
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
  Node& n = nodes_[node];
  const bool backpressure = cfg_.mode == SchedMode::kBackpressure;
  for (;;) {
    // Global-FIFO head: lowest enqueue stamp across the relay queue and
    // every group's bins on every link — the one place where groups
    // contend for the uplink. -1 marks the relay queue.
    int fifo_q = -1;
    const QueuedCopy* fifo =
        backpressure ? relays_[node].peek_fifo() : nullptr;
    for (std::size_t i = 0; i < n.links.size(); ++i) {
      const QueuedCopy* c = n.links[i].queue.peek_fifo();
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
    bool congested_here = false;
    if (backpressure) {
      const double kbit = groups_[pool_.get(fifo->pkt).stream].packet_kbit;
      const double burst_ms =
          static_cast<double>(n.links.size()) * (kbit / n.kbps * 1000.0);
      congested_here = my_backlog > 2.0 * burst_ms + kCongestionSlackMs;
    }

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
        const Link& l = n.links[static_cast<std::size_t>(q)];
        const double local = l.queue.depth_bytes() * 8.0 / n.kbps;
        const double remote =
            l.adv_backlog_ms +
            l.delegated_since_bytes * 8.0 / nodes_[l.child].kbps;
        return local - remote;
      };
      int best_q = -2;
      double best_grad = -kInf;
      for (std::size_t i = 0; i < n.links.size(); ++i) {
        if (n.links[i].queue.empty()) continue;
        const double g = gradient(static_cast<int>(i));
        if (g > best_grad) {
          best_grad = g;
          best_q = static_cast<int>(i);
        }
      }
      if (best_q >= -1 && best_q != fifo_q &&
          best_grad > gradient(fifo_q) + kHysteresisMs) {
        chosen_q = best_q;
        chosen = n.links[static_cast<std::size_t>(best_q)]
                     .queue.peek_pressure();
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
                        : n.links[static_cast<std::size_t>(chosen_q)].queue;
      return by_pressure ? q.pop_pressure(bytes) : q.pop_fifo(bytes);
    };
    auto after_dequeue = [&] {
      if (admission_on()) update_congestion(gidx, g.slot_of.at(node), now);
    };

    // Latency-constrained mode: a copy past its deadline at service
    // time becomes a zombie — dropped, counted, never transmitted.
    if (backpressure && cfg_.deadline_ms > 0 &&
        now - pkt.emitted_ms > cfg_.deadline_ms) {
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
        Event e;
        e.time = now + helper.latency_ms;
        e.kind = EventKind::kDelegateArrive;
        e.node = helper.child;
        e.dest = copy.dest;
        e.gidx = gidx;
        e.pkt = copy.pkt;  // the queued ref rides the token
        e.aux = copy.slot;
        push_event(e);
        after_dequeue();
        continue;
      }
    }

    // Transmit: done = start + tx, arrival = done + link latency.
    const QueuedCopy copy = pop_chosen();
    const double tx = g.packet_kbit / n.kbps * 1000.0;
    n.tx_busy = true;
    ++totals_.copies_sent;
    sink_.observe("dataplane.backlog_ms", my_backlog);
    const SimTime done = now + tx;
    Event free;
    free.time = done;
    free.kind = EventKind::kTxFree;
    free.node = node;
    push_event(free);
    Event arr;
    arr.time = done + (chosen_q >= 0
                           ? n.links[static_cast<std::size_t>(chosen_q)]
                                 .latency_ms
                           : latency_.latency(ids_[node], ids_[copy.dest]));
    arr.kind = EventKind::kArrival;
    arr.node = copy.dest;
    arr.dest = copy.slot;
    arr.gidx = gidx;
    arr.pkt = copy.pkt;  // the queued ref rides the transmission
    arr.aux = node;      // sender: arrivals from the dead are discarded
    push_event(arr);
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
  // never sees other groups' queued bytes.
  int fifo_q = -1;
  const QueuedCopy* fifo = nullptr;
  for (const GroupLink& gl : gn.links) {
    const QueuedCopy* c = n.links[gl.link].queue.peek_stream(gidx);
    if (c != nullptr && (fifo == nullptr || c->order < fifo->order)) {
      fifo = c;
      fifo_q = static_cast<int>(gl.link);
    }
  }
  if (fifo == nullptr) return;

  const double my_backlog = group_backlog_ms(gidx, gn);
  if (my_backlog > totals_.max_backlog_ms) totals_.max_backlog_ms = my_backlog;

  Link& l = n.links[static_cast<std::size_t>(fifo_q)];
  const QueuedCopy copy = l.queue.pop_stream(gidx, pool_.get(fifo->pkt).bytes);

  const double tx = g.packet_kbit / gn.rate_kbps * 1000.0;
  gn.vtx_busy = true;
  ++totals_.copies_sent;
  const SimTime done = now + tx;
  Event free;
  free.time = done;
  free.kind = EventKind::kVtxFree;
  free.node = gn.node;
  free.dest = slot;
  free.gidx = gidx;
  push_event(free);
  Event arr;
  arr.time = done + l.latency_ms;
  arr.kind = EventKind::kArrival;
  arr.node = copy.dest;
  arr.dest = copy.slot;
  arr.gidx = gidx;
  arr.pkt = copy.pkt;
  arr.aux = gn.node;  // sender: arrivals from the dead are discarded
  push_event(arr);
  update_congestion(gidx, slot, now);
}

void Forwarder::handle_arrival(const Event& e) {
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
  if (e.time < gn.first_arrival_ms) gn.first_arrival_ms = e.time;
  if (e.time > gn.last_arrival_ms) gn.last_arrival_ms = e.time;
  g.latencies_ms.push_back(e.time - pkt.emitted_ms);
  relay_to_children(e.gidx, slot, e.pkt, e.time);
  pool_.release(e.pkt);
  --live_copies_;
}

void Forwarder::handle_delegate(const Event& e) {
  // The helper queues the duty in its relay queue; the token's ref
  // becomes the queued copy's ref.
  relays_[e.node].push(e.gidx,
                       QueuedCopy{e.pkt, e.dest, next_order_++, e.time, true,
                                  static_cast<std::uint32_t>(e.aux)},
                       pool_.get(e.pkt).bytes);
  if (!nodes_[e.node].tx_busy) serve_node(e.node, e.time);
  if (admission_on()) {
    update_congestion(e.gidx, groups_[e.gidx].slot_of.at(e.node), e.time);
  }
}

void Forwarder::handle_depth_report(const Event& e) {
  if (!active()) return;  // traffic drained; stop the chain
  const Group& g = groups_[e.gidx];
  const GroupNode& gn = g.members[e.dest];
  const double backlog = node_backlog_ms(e.node);
  Event adv;
  adv.time = e.time + gn.parent_latency_ms;
  adv.kind = EventKind::kDepthArrive;
  adv.node = g.members[gn.parent_slot].node;
  adv.dest = e.node;
  adv.aux = std::bit_cast<std::uint64_t>(backlog);
  if (feed_) {
    // Piggyback mode: the value travels through the external
    // transport; the event only marks when the parent looks.
    feed_.publish(ids_[e.node], backlog, e.time);
  }
  push_event(adv);
  Event next = e;
  next.time = e.time + kDepthReportIntervalMs;
  push_event(next);
}

void Forwarder::handle_depth_arrive(const Event& e) {
  Node& n = nodes_[e.node];
  Link& l = n.links[link_index(n, e.dest)];
  double value = std::bit_cast<double>(e.aux);
  if (feed_) {
    feed_.advance(e.time);
    value = feed_.sample(ids_[e.node], ids_[e.dest]);
    if (std::isnan(value)) return;  // lost in transit: keep old view
  }
  l.adv_backlog_ms = value;
  l.delegated_since_bytes = 0;
}

void Forwarder::handle_flag(const Event& e) {
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
  update_congestion(e.gidx, e.dest, e.time);
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
    Event e;
    e.time = now + gn.parent_latency_ms;
    e.kind = EventKind::kFlagArrive;
    e.node = gn.node;
    e.dest = gn.parent_slot;
    e.gidx = gidx;
    e.aux = subtree ? 1 : 0;
    push_event(e);
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
  Event e;
  e.time = now;
  e.kind = EventKind::kSourceEmit;
  e.node = source;
  e.gidx = gidx;
  e.aux = g.next_emit;
  push_event(e);
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
  const PacketRef pkt = pool_.alloc(
      gidx, seq, static_cast<std::uint32_t>(g.traffic.packet_bytes), now);
  g.delivered_bits[g.source_slot * g.words_per_member + seq / 64] |=
      std::uint64_t{1} << (seq % 64);
  g.emit_ms[seq] = now;
  ++g.stats.packets_emitted;
  --unemitted_;
  relay_to_children(gidx, g.source_slot, pkt, now);
  pool_.release(pkt);
  g.next_emit = seq + 1;
  if (g.next_emit < g.traffic.num_packets) {
    Event e;
    e.time = g.emit_offset +
             static_cast<SimTime>(g.next_emit) * g.gen_interval;
    e.kind = EventKind::kSourceEmit;
    e.node = src.node;
    e.gidx = gidx;
    e.aux = g.next_emit;
    push_event(e);
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
    g.emit_offset = t.start_ms;
    for (GroupNode& gn : g.members) {
      gn.first_arrival_ms = kInf;
      gn.last_arrival_ms = 0;
    }
    if (g.members.size() > 1) unemitted_ += t.num_packets;
    active_.push_back(gidx);
  }

  // Pre-size the hot-path storage: the pool covers a few packets' worth
  // of full-tree fan-out before its first mid-run slab growth, each
  // queue its own small working set.
  const bool backpressure = cfg_.mode == SchedMode::kBackpressure;
  pool_.reserve(2 * nodes_.size() + 64);
  heap_.reserve(4 * nodes_.size() + 16);
  for (Node& n : nodes_) {
    for (Link& l : n.links) l.queue.reserve(1, 8);
  }
  if (backpressure) {
    relays_.resize(nodes_.size());
    for (BinQueue& q : relays_) q.reserve(1, 8);
  }

  for (std::uint32_t gidx : active_) {
    Group& g = groups_[gidx];
    if (g.members.size() <= 1 || g.traffic.num_packets == 0) continue;
    Event first;
    first.time = g.traffic.start_ms;
    first.kind = EventKind::kSourceEmit;
    first.node = g.members[g.source_slot].node;
    first.gidx = gidx;
    push_event(first);
  }
  if (backpressure) {
    for (std::uint32_t gidx : active_) {
      const Group& g = groups_[gidx];
      if (g.members.size() <= 1 || g.traffic.num_packets == 0) continue;
      for (std::uint32_t slot = 0; slot < g.members.size(); ++slot) {
        if (slot == g.source_slot) continue;
        Event e;
        e.time = kDepthReportIntervalMs;
        e.kind = EventKind::kDepthReport;
        e.node = g.members[slot].node;
        e.dest = slot;
        e.gidx = gidx;
        push_event(e);
      }
    }
  }

  // Failover surgery rides the same heap. Crashes are pushed first so a
  // same-instant tie resolves crash-before-consequence; prunes before
  // reattaches for the same reason.
  for (const FailoverScript::Crash& c : script.crashes) {
    Event e;
    e.time = c.at_ms;
    e.kind = EventKind::kCrash;
    e.node = dense_index(c.node);
    push_event(e);
  }
  for (const FailoverScript::Prune& p : script.prunes) {
    Event e;
    e.time = p.at_ms;
    e.kind = EventKind::kPrune;
    e.node = dense_index(p.parent);
    e.dest = dense_index(p.child);
    e.gidx = group_index_.at(p.group);
    push_event(e);
  }
  for (const FailoverScript::Reattach& r : script.reattaches) {
    Event e;
    e.time = r.at_ms;
    e.kind = EventKind::kReattach;
    e.node = dense_index(r.child);
    e.dest = dense_index(r.parent);
    e.gidx = group_index_.at(r.group);
    push_event(e);
  }

  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), EventLater{});
    const Event e = heap_.back();
    heap_.pop_back();
    switch (e.kind) {
      case EventKind::kSourceEmit:
        emit(e.gidx, static_cast<std::uint32_t>(e.aux), e.time);
        break;
      case EventKind::kArrival:
        handle_arrival(e);
        break;
      case EventKind::kTxFree:
        nodes_[e.node].tx_busy = false;
        serve_node(e.node, e.time);
        break;
      case EventKind::kVtxFree:
        groups_[e.gidx].members[e.dest].vtx_busy = false;
        serve_group(e.gidx, e.dest, e.time);
        break;
      case EventKind::kDelegateArrive:
        handle_delegate(e);
        break;
      case EventKind::kDepthReport:
        handle_depth_report(e);
        break;
      case EventKind::kDepthArrive:
        handle_depth_arrive(e);
        break;
      case EventKind::kFlagArrive:
        handle_flag(e);
        break;
      case EventKind::kCrash:
        crash_node(e.node);
        break;
      case EventKind::kPrune:
        prune_link(e.gidx, e.node, e.dest, e.time);
        break;
      case EventKind::kReattach:
        reattach(e.gidx, e.node, e.dest, e.time);
        break;
    }
  }
  assert(pool_.in_use() == 0 && "packet leak: refs left at quiesce");
  assert(live_copies_ == 0);

  MultiGroupStats out;
  finalize(out);
  return out;
}

void Forwarder::crash_node(std::uint32_t node) {
  assert(!dead_[node] && "node crashed twice");
  dead_[node] = 1;
  // Everything queued at the dead node's uplink evaporates with it.
  for (Link& l : nodes_[node].links) {
    while (const QueuedCopy* c = l.queue.peek_fifo()) {
      const Packet& pkt = pool_.get(c->pkt);
      ++groups_[pkt.stream].stats.copies_lost;
      const QueuedCopy copy = l.queue.pop_fifo(pkt.bytes);
      pool_.release(copy.pkt);
      --live_copies_;
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
  // share its BinQueue, same as at construction). Appending keeps every
  // stored link index valid. Latency argument order mirrors the ctor.
  std::uint32_t li = static_cast<std::uint32_t>(n.links.size());
  for (std::uint32_t i = 0; i < n.links.size(); ++i) {
    if (n.links[i].child == child) {
      li = i;
      break;
    }
  }
  if (li == n.links.size()) {
    n.links.push_back(
        Link{child, latency_.latency(ids_[child], ids_[parent]), {}, 0, 0});
    n.links[li].queue.reserve(1, 8);
  }
  pn.links.push_back({li, cslot});
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
  Link& l = n.links[li];
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
      const PacketRef pkt = pool_.alloc(
          gidx, seq, static_cast<std::uint32_t>(g.traffic.packet_bytes),
          g.emit_ms[seq]);
      l.queue.push(gidx,
                   QueuedCopy{pkt, child, next_order_++, now, false, cslot},
                   static_cast<std::uint32_t>(g.traffic.packet_bytes));
      ++live_copies_;
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
  std::vector<double> all_latencies;

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
      std::vector<double> sorted = g.latencies_ms;
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
    std::sort(all_latencies.begin(), all_latencies.end());
    const std::size_t idx = (all_latencies.size() * 99 + 99) / 100 - 1;
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
