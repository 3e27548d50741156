#include "proto/host_bus.h"

#include <cmath>
#include <limits>
#include <utility>

namespace cam::proto {

namespace {
// Sentinel for "the sender never published a depth": a datagram from
// such a host must not overwrite what the receiver learned elsewhere.
constexpr double kNoDepth = std::numeric_limits<double>::quiet_NaN();
}  // namespace

void HostBus::attach(Id host, Handler handler) {
  handlers_[host] = std::move(handler);
}

void HostBus::detach(Id host) { handlers_.erase(host); }

void HostBus::post(Id from, Id to, Message msg, std::size_t bytes,
                   MsgClass cls) {
  // Piggyback snapshot: the depth carried is the sender's backlog AT
  // POST TIME, not at delivery — the advertisement is as stale as the
  // network is slow, exactly like a real header field.
  double depth = kNoDepth;
  if (!depths_.empty()) {
    auto it = depths_.find(from);
    if (it != depths_.end()) depth = it->second;
  }
  SimTime primary_extra = 0;
  if (shaper_) {
    shape_delays_.clear();
    shape_delays_.push_back(0);
    shaper_(from, to, msg, bytes, cls, shape_delays_);
    if (shape_delays_.empty()) return;  // shaper ate it (it keeps the books)
    // Extra entries are duplicate copies; each is a real datagram and
    // pays counters and network traffic like any other.
    for (std::size_t i = 1; i < shape_delays_.size(); ++i) {
      deliver(from, to, msg, bytes, cls, shape_delays_[i], depth);
    }
    primary_extra = shape_delays_.front();
  }
  if (loss_ > 0 && loss_rng_.chance(loss_)) {
    ++loss_drops_;
    if (loss_ctr_ != nullptr) loss_ctr_->add();
    return;
  }
  deliver(from, to, std::move(msg), bytes, cls, primary_extra, depth);
}

double HostBus::local_depth(Id host) const {
  auto it = depths_.find(host);
  return it == depths_.end() ? 0 : it->second;
}

double HostBus::advertised_depth(Id observer, Id peer) const {
  auto it = advertised_.find(observer);
  if (it == advertised_.end()) return 0;
  auto jt = it->second.find(peer);
  return jt == it->second.end() ? 0 : jt->second;
}

std::uint32_t HostBus::acquire_slot(Message&& msg) {
  if (slot_free_.empty()) {
    slots_.push_back(std::move(msg));
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }
  const std::uint32_t s = slot_free_.back();
  slot_free_.pop_back();
  slots_[s] = std::move(msg);
  return s;
}

void HostBus::deliver(Id from, Id to, Message msg, std::size_t bytes,
                      MsgClass cls, SimTime extra_delay_ms, double depth) {
  if (msgs_total_ != nullptr) {
    auto idx = static_cast<std::size_t>(cls);
    msgs_total_->add();
    msgs_[idx]->add();
    bytes_total_->add(bytes);
    bytes_[idx]->add(bytes);
  }
  const std::uint32_t slot = acquire_slot(std::move(msg));
  net_.send(
      from, to, bytes,
      [this, from, to, depth, slot] { deliver_now(from, to, depth, slot); },
      cls, extra_delay_ms);
}

void HostBus::deliver_now(Id from, Id to, double depth, std::uint32_t slot) {
  // Move out before releasing: the handler may post() and recycle
  // (or grow) the pool, so no reference into slots_ may survive past
  // this line.
  Message m = std::move(slots_[slot]);
  slot_free_.push_back(slot);
  auto it = handlers_.find(to);
  if (it == handlers_.end()) {  // crashed before delivery
    ++detached_drops_;
    if (detached_ctr_ != nullptr) detached_ctr_->add();
    return;
  }
  if (!std::isnan(depth)) advertised_[to][from] = depth;
  it->second(from, std::move(m));
}

void HostBus::set_loss(double p, std::uint64_t seed) {
  loss_ = p;
  // Reseed only on the first configuration or a genuinely new seed:
  // repeating set_loss(p, seed) mid-run must continue the original drop
  // stream, not replay it from the start (which would correlate the
  // drops of the two phases).
  if (!loss_seeded_ || seed != loss_seed_) {
    loss_rng_.reseed(seed);
    loss_seed_ = seed;
    loss_seeded_ = true;
  }
}

void HostBus::set_telemetry(telemetry::Sink sink) {
  sink_ = sink;
  if (sink.metrics == nullptr) {
    msgs_.fill(nullptr);
    bytes_.fill(nullptr);
    msgs_total_ = bytes_total_ = loss_ctr_ = detached_ctr_ = nullptr;
    return;
  }
  telemetry::Registry& reg = *sink.metrics;
  msgs_total_ = &reg.counter("bus.msgs");
  bytes_total_ = &reg.counter("bus.bytes");
  for (int c = 0; c < kNumMsgClasses; ++c) {
    msgs_[static_cast<std::size_t>(c)] =
        &reg.counter("bus.msgs", static_cast<MsgClass>(c));
    bytes_[static_cast<std::size_t>(c)] =
        &reg.counter("bus.bytes", static_cast<MsgClass>(c));
  }
  loss_ctr_ = &reg.counter("bus.drops.loss");
  detached_ctr_ = &reg.counter("bus.drops.detached");
}

}  // namespace cam::proto
