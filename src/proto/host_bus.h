// HostBus: the unicast datagram layer of the asynchronous stack.
//
// Maps host ids to message handlers and delivers Messages through the
// simulated Network (latency + traffic accounting). Messages to detached
// (crashed) hosts are dropped silently — the sender learns nothing, which
// is what forces the protocol layer to use timeouts. Optional uniform
// message loss supports fault-injection tests.
//
// Drops are counted per cause: `loss_drops()` (injected loss ate the
// datagram in flight) vs `detached_drops()` (it arrived at a crashed
// host). `messages_dropped()` is their sum.
//
// Beyond the uniform loss knob, a Shaper hook (fault/injector.h installs
// one) can drop, duplicate, and stretch individual datagrams for
// deterministic fault injection; see set_shaper below.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "proto/messages.h"
#include "sim/network.h"
#include "telemetry/sink.h"
#include "util/flat_table.h"
#include "util/rng.h"

namespace cam::proto {

class HostBus {
 public:
  using Handler = std::function<void(Id from, Message msg)>;

  explicit HostBus(Network& net) : net_(net) {}

  Simulator& sim() { return net_.sim(); }
  Network& network() { return net_; }

  /// Registers a host. Replaces any previous handler for the id.
  void attach(Id host, Handler handler);

  /// Crashes a host: its handler is removed and all in-flight and future
  /// messages to it vanish.
  void detach(Id host);

  bool attached(Id host) const { return handlers_.contains(host); }

  /// Sends a message; delivery happens after the network latency, unless
  /// the destination is detached by then or the message is lost.
  void post(Id from, Id to, Message msg, std::size_t bytes,
            MsgClass cls = MsgClass::kControl);

  /// Drops each message independently with probability `p`. The RNG is
  /// seeded on the first call (or when `seed` changes); repeating the
  /// same configuration mid-run — e.g. re-applying a fault plan phase —
  /// continues the original drop stream instead of replaying it, so one
  /// run stays one deterministic sequence w.r.t. the original seed.
  void set_loss(double p, std::uint64_t seed);

  /// Delivery-time fault shaping, consulted once per post() before the
  /// uniform-loss check. On entry `delays` holds {0} (one copy, no extra
  /// delay); the shaper edits it: empty = drop the datagram, entry 0 =
  /// extra one-way delay of the primary copy, further entries = extra
  /// copies (duplication) with their own delays. Delays must be
  /// non-negative — delivery never precedes the send, which is what
  /// keeps RPC request/reply causality intact (see messages.h). The
  /// shaper must not call post() reentrantly. Pass {} to uninstall.
  using Shaper =
      std::function<void(Id from, Id to, const Message& msg,
                         std::size_t bytes, MsgClass cls,
                         std::vector<SimTime>& delays)>;
  void set_shaper(Shaper shaper) { shaper_ = std::move(shaper); }

  /// Queue-depth piggyback (DESIGN.md §11): a host publishes its local
  /// data-plane uplink backlog (ms); every datagram it posts from then
  /// on carries a snapshot of that depth taken at post() time, and the
  /// receiver records it on delivery. Congestion gradients thus ride
  /// existing traffic — no dedicated advertisement messages, no extra
  /// bytes on the simulated wire. Hosts that never publish pay one
  /// empty() test per post.
  void set_local_depth(Id host, double backlog_ms) {
    depths_[host] = backlog_ms;
  }
  /// Last depth the host published (0 if never).
  double local_depth(Id host) const;
  /// Last depth `observer` has received piggybacked from `peer` (0 if
  /// no carrying datagram has been delivered).
  double advertised_depth(Id observer, Id peer) const;

  /// Attaches telemetry; per-class message/byte counters and the drop
  /// counters are resolved once so posting stays one pointer test per
  /// metric when metrics are on and a single null test when off.
  void set_telemetry(telemetry::Sink sink);
  const telemetry::Sink& telemetry() const { return sink_; }

  std::uint64_t loss_drops() const { return loss_drops_; }
  std::uint64_t detached_drops() const { return detached_drops_; }
  std::uint64_t messages_dropped() const {
    return loss_drops_ + detached_drops_;
  }

 private:
  /// Ships one datagram copy (counters + network hand-off). `depth`
  /// is the sender's piggybacked queue depth (NaN = none published).
  void deliver(Id from, Id to, Message msg, std::size_t bytes, MsgClass cls,
               SimTime extra_delay_ms, double depth);

  /// The delivery moment of one datagram copy: handler lookup, depth
  /// recording, drop accounting. Runs at arrival time on this bus's
  /// simulator; `slot` is released back to the pool here.
  void deliver_now(Id from, Id to, double depth, std::uint32_t slot);

  /// Parks `msg` in the slot pool and returns its index. The delivery
  /// closure captures the index (4 bytes) instead of the Message itself,
  /// so the scheduled event stays far inside InlineAction's inline
  /// buffer no matter how large Message grows — the pool, not the
  /// closure, is the in-flight datagram store. Slots recycle through a
  /// free list; steady state allocates nothing.
  std::uint32_t acquire_slot(Message&& msg);

  Network& net_;
  FlatMap<Id, Handler> handlers_;
  double loss_ = 0;
  Rng loss_rng_{0};
  std::uint64_t loss_seed_ = 0;
  bool loss_seeded_ = false;
  std::uint64_t loss_drops_ = 0;
  std::uint64_t detached_drops_ = 0;
  Shaper shaper_;
  std::vector<SimTime> shape_delays_;  // reused per post()

  // In-flight datagram pool (see acquire_slot). High-water-mark sized:
  // capacity tracks the peak number of simultaneously in-flight
  // messages, then recycles.
  std::vector<Message> slots_;
  std::vector<std::uint32_t> slot_free_;

  // Queue-depth piggyback state: published depths by host, and per
  // (observer, peer) the last depth delivered to the observer.
  FlatMap<Id, double> depths_;
  FlatMap<Id, FlatMap<Id, double>> advertised_;

  telemetry::Sink sink_;
  // Cached metric handles (null when no metrics attached).
  std::array<telemetry::Counter*, kNumMsgClasses> msgs_{};
  std::array<telemetry::Counter*, kNumMsgClasses> bytes_{};
  telemetry::Counter* msgs_total_ = nullptr;
  telemetry::Counter* bytes_total_ = nullptr;
  telemetry::Counter* loss_ctr_ = nullptr;
  telemetry::Counter* detached_ctr_ = nullptr;
};

}  // namespace cam::proto
