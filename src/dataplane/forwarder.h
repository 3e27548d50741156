// The packet data plane: one forwarder for one or many multicast groups.
//
// The paper's throughput model (Section 4.3) serializes every copy a
// node forwards through one FIFO uplink. This forwarder runs that model
// packet by packet over the recorded trees of any number of groups
// (DESIGN.md §11-§12). Every node in the union of the trees owns one
// uplink, shared by every group that relays through it. Three service
// modes:
//
//   * kShared — one FIFO transmitter per node at the full uplink rate
//     B_x: the paper's uplink verbatim. The node's copies of every group
//     wait in one FIFO in enqueue order, so service pops its head in
//     O(1). Its service order and transmit arithmetic (done = start +
//     tx, arrival = done + link latency) must stay bit-exact, because
//     runs are pinned field for field against committed numbers and
//     golden files.
//   * kBackpressure — the same transmitter in the IRON/GNAT mold, over
//     one BinQueue per outbound link with one bin per group:
//       - service deviates from the FIFO head to the steepest positive
//         depth gradient (local link backlog minus the child's
//         advertised uplink backlog), but only past a congestion gate
//         and a hysteresis, so with shallow queues the kShared schedule
//         is reproduced bit for bit;
//       - a congested node sheds a copy whose destination another child
//         (one that already holds the packet) can serve more cheaply: a
//         control token puts the duty in that child's relay queue, and
//         the data bytes route around the congested uplink;
//       - children advertise their uplink backlog to their parent on a
//         periodic depth report (or through DepthFeedHooks); between
//         reports the parent corrects its view by the bytes it has
//         delegated since;
//       - a copy older than `deadline_ms` at service time is dropped as
//         a zombie (IRON's term for expired-but-accounted packets).
//   * kLedgerShares — each (node, group) pair gets a virtual
//     transmitter at its ledger share rate, serving only that group's
//     bins of the same per-link BinQueues: a group's schedule depends
//     only on its own traffic and its allocation, never on what other
//     groups queue. A sole ledger debtor gets the full B_x, so one group
//     is again the kShared plane.
//
// Every mode keeps running byte counts of what is queued per node and
// per member edge, so backlog figures are O(1) reads. Events wait in a
// 4-ary heap of 16-byte (time, sequence | slot) integer keys over a slab
// of payloads; same-instant events pop in push order.
//
// Source admission control is per group in every mode: a (node, group)
// backlog above the high watermark raises that group's congestion flag
// up its tree and pauses only that group's source, until the backlog
// drains below the low watermark. A FailoverScript replays mid-stream
// crashes, prunes and reattaches (with pull gap repair).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "dataplane/bin_queue.h"
#include "dataplane/packet_pool.h"
#include "ids/ring.h"
#include "multicast/tree.h"
#include "sim/latency.h"
#include "telemetry/sink.h"
#include "util/flat_table.h"

namespace cam::dataplane {

using GroupId = std::uint64_t;

enum class SchedMode : std::uint8_t {
  kShared,        // one FIFO uplink per node, all groups contend
  kBackpressure,  // the same uplink with gradients, delegation, zombies
  kLedgerShares,  // per-(node, group) virtual transmitters, isolated
};

struct ForwarderConfig {
  SchedMode mode = SchedMode::kBackpressure;
  /// Per-group admission watermarks (ms of that group's backlog at a
  /// node, against its serving rate). 0 disables admission control.
  double admission_high_ms = 0;
  double admission_low_ms = 0;
  /// The zombie deadline (0 = none). kBackpressure drops a copy older
  /// than this at service time; in every mode, gap repair skips packets
  /// older than this at reattach time (a repair that would arrive after
  /// any playout point is wasted uplink).
  double deadline_ms = 0;
};

/// One group's stream for a run.
struct GroupTraffic {
  GroupId group = 0;
  std::uint64_t packet_bytes = 1250;  // 10 kbit per packet
  std::uint32_t num_packets = 64;
  double source_rate_kbps = 0;  // 0 = back-to-back
  SimTime start_ms = 0;         // emission start offset
  /// Source admission throttle in (0, 1] — SessionLayer::throttle(g)
  /// under graceful degradation. Below 1.0 the source spaces emissions
  /// at throttle * the nominal rate (back-to-back becomes paced at
  /// throttle * B_src) instead of dropping the parked subtree's share.
  double throttle = 1.0;
};

/// One group's recorded tree as the forwarder consumes it.
struct GroupSpec {
  struct Member {
    Id id = 0;
    Id parent = 0;             // == id for the source
    std::vector<Id> children;  // ascending: the relay rotation order
    /// Ledger share of the member's uplink (kbps), read only under
    /// kLedgerShares; 0 = the full uplink.
    double share_kbps = 0;
  };
  GroupId id = 0;
  Id source = 0;
  std::vector<Member> members;  // ascending id
};

/// Per-receiver session results of one group's stream.
struct SessionStats {
  /// Steady-state rate at the slowest receiver (kbps): delivered-1
  /// packet payloads over the time between its first and last arrival.
  double session_rate_kbps = 0;
  /// Time (ms) until the last delivered packet lands anywhere.
  SimTime completion_ms = 0;
  /// Mean per-receiver steady-state rate (kbps).
  double mean_rate_kbps = 0;
  /// First-packet delivery spread (ms): max over receivers.
  SimTime max_first_packet_ms = 0;
  std::size_t receivers = 0;
};

/// External transport for child -> parent backlog advertisements
/// (DESIGN.md §11). The forwarder's default is an oracle: the depth
/// value rides inside its own simulation event. With hooks installed,
/// the value instead travels through a real protocol stack — publish()
/// hands the child's fresh backlog to the transport at report time,
/// advance() runs the transport clock forward, and sample() returns the
/// last depth the parent has actually *received* from the child (NaN =
/// nothing delivered yet; the parent keeps its previous view). See
/// proto/depth_feed.h for the HostBus piggyback binding.
struct DepthFeedHooks {
  std::function<void(Id child, double backlog_ms, SimTime now)> publish;
  std::function<void(SimTime now)> advance;
  std::function<double(Id observer, Id peer)> sample;

  explicit operator bool() const {
    return publish != nullptr && advance != nullptr && sample != nullptr;
  }
};

/// Mid-stream failover surgery, replayed by the event loop: oracle (or
/// detector-derived) crash instants plus the per-edge consequences the
/// control plane worked out — parent-side prunes at each watcher's
/// detection time and child reattaches (with pull gap-repair) once the
/// session layer re-hung the orphan. Ids are overlay ids; groups must
/// be streamed groups.
struct FailoverScript {
  struct Crash {
    SimTime at_ms = 0;
    Id node = 0;
  };
  struct Prune {  // `parent` stops forwarding group `group` to `child`
    SimTime at_ms = 0;
    GroupId group = 0;
    Id parent = 0;
    Id child = 0;
  };
  struct Reattach {  // `child` re-hangs under `parent`, then backfills
    SimTime at_ms = 0;
    GroupId group = 0;
    Id child = 0;
    Id parent = 0;
  };
  std::vector<Crash> crashes;
  std::vector<Prune> prunes;
  std::vector<Reattach> reattaches;

  bool empty() const {
    return crashes.empty() && prunes.empty() && reattaches.empty();
  }
};

/// Per-group results.
struct GroupRunStats {
  GroupId group = 0;
  SessionStats session;
  std::uint64_t packets_emitted = 0;
  std::uint64_t copies_delivered = 0;
  std::uint64_t copies_expected = 0;
  std::uint64_t duplicate_deliveries = 0;  // exactly-once: must be 0
  std::uint64_t delegated_copies = 0;  // duties steered off a hot uplink
  std::uint64_t zombie_copies = 0;     // expired under deadline_ms
  std::uint64_t zombie_bytes = 0;
  std::uint64_t admission_pauses = 0;
  SimTime admission_paused_ms = 0;
  double p99_latency_ms = 0;   // per-copy (arrival - emit), 99th pct
  double mean_latency_ms = 0;
  // Failover accounting (all zero when the run had no FailoverScript).
  std::uint64_t copies_lost = 0;       // flushed at crashes / dead drops
  std::uint64_t reattaches = 0;        // applied reattach events
  std::uint64_t repaired_copies = 0;   // pull-repair copies enqueued
  std::uint64_t repair_zombies = 0;    // missing seqs past the deadline
  std::uint64_t zombie_lost_deliveries = 0;  // deliveries abandoned
  std::uint64_t gap_packets_total = 0;  // sum of reattach bitmap gaps
  std::uint64_t gap_packets_max = 0;    // worst single reattach gap
  /// Relays skipped because the (reattached) child's bitmap already
  /// held the sequence — the exactly-once guard on the failover path.
  std::uint64_t suppressed_relays = 0;
};

/// Run-wide transmitter and packet-pool counters.
struct RunTotals {
  std::uint64_t copies_sent = 0;  // actual uplink transmissions
  double max_backlog_ms = 0;      // deepest serving-rate backlog observed
  std::size_t pool_peak_in_use = 0;
  std::uint64_t pool_allocs = 0;
  std::uint64_t pool_recycled = 0;
};

struct MultiGroupStats : RunTotals {
  std::vector<GroupRunStats> groups;  // in traffic order
  /// Sum over groups of delivered payload over the whole-run makespan.
  double aggregate_goodput_kbps = 0;
  /// Jain index over per-group session rates (groups with receivers).
  double jain_fairness = 0;
  double p99_latency_ms = 0;  // across every delivery of every group
  SimTime completion_ms = 0;
};

/// A one-group run: the group's stats plus the run-wide counters.
struct ForwardStats : GroupRunStats, RunTotals {};

class Forwarder {
 public:
  /// Builds the per-node link structure from the groups' trees. Nodes
  /// are indexed by ascending id (deterministic across platforms); two
  /// groups that share an edge share its link. The latency model must
  /// outlive the forwarder; the run is single-shot.
  Forwarder(const std::vector<GroupSpec>& groups, const LatencyModel& latency,
            ForwarderConfig cfg, telemetry::Sink sink = {});

  /// Resolves every node's uplink capacity (kbps, positive) with one
  /// call per node at setup time, so the per-packet hot path never
  /// touches a std::function.
  void resolve_uplinks(const std::function<double(Id)>& kbps_of);

  /// Routes depth advertisements through an external transport instead
  /// of the oracle event payload. Install before run().
  void set_depth_feed(DepthFeedHooks feed) { feed_ = std::move(feed); }

  /// Streams every group in `traffic` (each group at most once).
  /// Returns per-group and aggregate stats. A non-empty `script`
  /// injects mid-stream failover: crashed nodes flush their queues and
  /// stop delivering, pruned edges stop forwarding, and reattached
  /// children backfill their delivery-bitmap gap from the new parent
  /// (pull repair, zombie deadline permitting). Throws
  /// std::invalid_argument for a script under kBackpressure or one that
  /// names a node in no tree, and std::logic_error, in every build, when
  /// a depth report finds no edge from a member's parent to it (a spec
  /// whose parent and children lists disagree) or packets are left
  /// queued at quiesce.
  MultiGroupStats run(const std::vector<GroupTraffic>& traffic,
                      const FailoverScript& script = {});

 protected:
  /// Dense node table, ascending id; index i is the `dest` space of
  /// QueuedCopy.
  const std::vector<Id>& node_ids() const { return ids_; }
  /// The single-tree API learns its group id from the traffic.
  void set_group_id(std::uint32_t gidx, GroupId id) { groups_[gidx].id = id; }

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  struct Link {
    std::uint32_t child = 0;  // dense node index
    SimTime latency_ms = 0;
    // kBackpressure depth-gradient accounting: the child's last
    // advertised uplink backlog, plus a local correction for bytes
    // delegated to it since that report.
    double adv_backlog_ms = 0;
    double delegated_since_bytes = 0;
  };

  /// One kShared copy in its node's FIFO uplink queue, carrying what its
  /// transmission needs, so service reads neither links nor the pool.
  /// Queued copies of every node live in one slab; `next` threads a
  /// node's FIFO (or the slab's free list).
  struct FifoCopy {
    SimTime latency_ms = 0;  // the link's propagation delay
    PacketRef pkt = kNullPacket;
    std::uint32_t dest = 0;  // dense node index
    std::uint32_t slot = 0;  // dest's member slot
    std::uint32_t gidx = 0;
    std::uint32_t edge = 0;  // index into edge_bytes_
    std::uint32_t next = kNil;
  };

  struct Node {
    double kbps = 0;          // full uplink B_x
    std::vector<Link> links;  // ascending child id; reattaches append
    /// kBackpressure / kLedgerShares: one BinQueue per link, bins keyed
    /// by group index. Empty under kShared, which queues in the FIFO.
    std::vector<BinQueue> queues;
    std::uint64_t depth_bytes = 0;  // every queued byte, relay queue too
    std::uint32_t fifo_head = kNil;  // kShared FIFO, oldest copy first
    std::uint32_t fifo_tail = kNil;
    bool tx_busy = false;     // kShared / kBackpressure transmitter
  };

  /// One child edge of a member in its group.
  struct GroupLink {
    std::uint32_t link = 0;  // index into Node::links
    std::uint32_t slot = 0;  // the child's member slot
    std::uint32_t edge = 0;  // index into edge_bytes_
  };

  /// Per-group view of one member node.
  struct GroupNode {
    std::uint32_t node = 0;            // dense node index
    std::uint32_t parent_slot = 0;     // group-local index; self for source
    SimTime parent_latency_ms = 0;
    std::vector<GroupLink> links;      // ascending child id
    /// Edges pruned by failover. Their queued copies still drain (the
    /// kLedgerShares transmitter serves them), and a reattach over the
    /// same link takes its edge back.
    std::vector<GroupLink> pruned_links;
    double rate_kbps = 0;  // serving rate: B_x, or the ledger share
    bool vtx_busy = false;             // kLedgerShares transmitter
    // Per-group admission state (flags climb this group's tree).
    bool own_congested = false;
    std::uint32_t congested_children = 0;
    bool flag_sent = false;
    /// What the parent last heard from this member (set/clear), so a
    /// prune can retract exactly the standing contribution and a
    /// reattach can transfer it to the new parent.
    bool flag_landed = false;
    bool pruned = false;    // parent stopped forwarding (member is dead)
    bool detached = false;  // upstream edge severed, reattach pending
    // Measurement.
    SimTime first_arrival_ms = 0;
    SimTime last_arrival_ms = 0;
    std::uint32_t delivered = 0;
    std::uint32_t frozen_delivered = 0;  // delivered count at crash time
  };

  struct Group {
    GroupId id = 0;
    GroupTraffic traffic;
    std::uint32_t packet_bytes = 0;  // every copy of the group's packets
    double packet_kbit = 0;
    SimTime gen_interval = 0;
    std::uint32_t source_slot = 0;
    std::vector<GroupNode> members;        // group-local slots
    FlatMap<std::uint32_t, std::uint32_t> slot_of;  // node idx -> slot
    std::vector<std::uint64_t> delivered_bits;
    std::size_t words_per_member = 0;
    std::vector<SimTime> emit_ms;  // source emission time per seq
    // Emission state.
    SimTime emit_offset = 0;
    std::uint32_t next_emit = 0;
    bool emission_paused = false;
    SimTime pause_start_ms = 0;
    std::vector<double> latencies_ms;  // every delivery's arrival - emit
    GroupRunStats stats;
  };

  enum class EventKind : std::uint8_t {
    kSourceEmit,      // gidx streams packet aux
    kArrival,         // copy lands at node (slot dest); aux = sender
    kTxFree,          // node's transmitter idle
    kVtxFree,         // kLedgerShares: (gidx, slot dest) transmitter idle
    kDelegateArrive,  // duty (pkt -> node dest, slot aux) reaches `node`
    kDepthReport,     // advertisement tick at member slot dest of gidx
    kDepthArrive,     // node hears child dest's backlog (aux = bits)
    kFlagArrive,      // per-group congestion flag at member slot `dest`
    kCrash,           // node dies: flush queues, freeze delivery expectation
    kPrune,           // node (parent) stops forwarding gidx to dest (child)
    kReattach,        // node (child) re-hangs under dest (parent) in gidx
  };

  /// An event's payload, parked in the event slab while its key waits
  /// in the heap.
  struct Event {
    std::uint64_t aux = 0;
    std::uint32_t node = 0;
    std::uint32_t dest = 0;  // member slot / copy dest / peer node
    std::uint32_t gidx = 0;
    PacketRef pkt = kNullPacket;
    EventKind kind = EventKind::kSourceEmit;
  };
  /// Heap entry: the event time, mapped to an integer of the same
  /// order, in the high 64 bits; below it the push sequence number over
  /// the slab slot in the low kSlotBits. One unsigned compare orders by
  /// (time, push order), so same-instant events pop in push order.
  using EventKey = unsigned __int128;
  static constexpr unsigned kSlotBits = 24;

  void push_event(SimTime at, const Event& e);
  EventKey pop_event();
  void sift_up(std::size_t i, EventKey key);
  double node_backlog_ms(std::uint32_t node) const;
  double group_backlog_ms(std::uint32_t gidx, const GroupNode& gn) const;
  bool holds(const Group& g, std::uint32_t slot, std::uint32_t seq) const;
  std::uint32_t dense_index(Id id) const;
  std::uint32_t link_index(const Node& n, std::uint32_t child) const;
  bool admission_on() const { return cfg_.admission_high_ms > 0; }
  bool active() const { return unemitted_ > 0 || live_copies_ > 0; }

  /// Queues one copy of `pkt` on member edge `gl` of node `node`; the
  /// caller hands the copy one packet reference.
  void enqueue(std::uint32_t node, std::uint32_t gidx, const GroupLink& gl,
               PacketRef pkt);
  /// Unlinks the head of `n`'s kShared FIFO (non-empty).
  FifoCopy pop_fifo(Node& n);
  /// Drops a queued copy at a crash: counted lost, reference released.
  void lose_copy(std::uint32_t gidx, PacketRef pkt, std::uint32_t edge,
                 Node& n);

  void crash_node(std::uint32_t node);
  void prune_link(std::uint32_t gidx, std::uint32_t parent,
                  std::uint32_t child, SimTime now);
  void reattach(std::uint32_t gidx, std::uint32_t child,
                std::uint32_t parent, SimTime now);
  /// Flips `detached` on the subtree currently hanging from `slot`
  /// (link-reachable members), `slot` included.
  void mark_detached(Group& g, std::uint32_t slot, bool detached);

  void emit(std::uint32_t gidx, std::uint32_t seq, SimTime now);
  void relay_to_children(std::uint32_t gidx, std::uint32_t slot,
                         PacketRef pkt, SimTime now);
  void start_service(std::uint32_t gidx, std::uint32_t slot, SimTime now);
  void serve_node(std::uint32_t node, SimTime now);
  void serve_fifo(std::uint32_t node, SimTime now);
  void serve_pressure(std::uint32_t node, SimTime now);
  void serve_group(std::uint32_t gidx, std::uint32_t slot, SimTime now);
  /// Starts one transmission on `node`'s uplink: done = now + tx,
  /// arrival = done + link latency.
  void transmit(std::uint32_t node, std::uint32_t gidx, PacketRef pkt,
                std::uint32_t dest, std::uint32_t slot, SimTime latency_ms,
                double backlog_ms, SimTime now);
  void handle_arrival(const Event& e, SimTime now);
  void handle_delegate(const Event& e, SimTime now);
  void handle_depth_report(const Event& e, SimTime now);
  void handle_depth_arrive(const Event& e, SimTime now);
  void handle_flag(const Event& e, SimTime now);
  void update_congestion(std::uint32_t gidx, std::uint32_t slot,
                         SimTime now);
  void maybe_resume(std::uint32_t gidx, SimTime now);
  SessionStats session_stats(const Group& g) const;
  void finalize(MultiGroupStats& out);

  const LatencyModel& latency_;
  ForwarderConfig cfg_;
  telemetry::Sink sink_;
  DepthFeedHooks feed_;

  std::vector<Id> ids_;  // dense node table, ascending id
  std::vector<Node> nodes_;
  /// kBackpressure: duties delegated to each node (foreign dests), by
  /// dense node index. Empty in the other modes.
  std::vector<BinQueue> relays_;
  std::vector<Group> groups_;
  std::vector<std::uint32_t> active_;  // streamed groups, traffic order
  FlatMap<GroupId, std::uint32_t> group_index_;
  /// Bytes queued per member edge (GroupLink::edge): a group's backlog
  /// at a node without a per-group bin scan.
  std::vector<std::uint64_t> edge_bytes_;

  PacketPool pool_;
  std::vector<FifoCopy> fifo_;  // kShared queued copies, every node
  std::uint32_t fifo_free_ = kNil;
  std::vector<EventKey> heap_;  // 4-ary min-heap
  std::vector<Event> events_;   // slab, indexed by EventKey slot
  std::vector<std::uint32_t> free_events_;
  std::uint64_t next_event_seq_ = 0;
  std::uint64_t next_order_ = 0;
  std::uint64_t live_copies_ = 0;
  std::uint64_t unemitted_ = 0;  // packets streamed groups still owe
  bool ran_ = false;
  bool failover_active_ = false;
  std::vector<std::uint8_t> dead_;  // by dense node index

  RunTotals totals_;
};

/// The single-tree API: one recorded tree, one stream.
class TreeForwarder : public Forwarder {
 public:
  TreeForwarder(const MulticastTree& tree, const LatencyModel& latency,
                ForwarderConfig cfg = {}, telemetry::Sink sink = {});

  /// Streams `traffic` from the tree's source; every node relays packet
  /// by packet through its uplink, children in round-robin order.
  ForwardStats run(const GroupTraffic& traffic);
};

/// Upload bandwidth (kbps) of a node, resolved once per run into a
/// dense table; the hot path indexes the table, it never calls this.
using UplinkFn = std::function<double(Id)>;

/// The paper's Section 4.3 plane in one call: streams `traffic` through
/// the recorded tree over kShared FIFO uplinks. The sustainable session
/// rate measured here validates the analytic throughput model of
/// multicast/metrics.h mechanistically (bench/abl_streaming).
SessionStats stream_over_tree(const MulticastTree& tree, const UplinkFn& uplink,
                              const LatencyModel& latency,
                              const GroupTraffic& traffic);

}  // namespace cam::dataplane
