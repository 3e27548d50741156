#include "sim/network.h"

namespace cam {

SimTime Network::send(Id from, Id to, std::size_t bytes,
                      Simulator::Action on_arrival, MsgClass cls,
                      SimTime extra_delay_ms) {
  const SimTime delay = latency_.latency(from, to) + extra_delay_ms;
  auto idx = static_cast<int>(cls);
  stats_.messages[idx] += 1;
  stats_.bytes[idx] += bytes;
  // The histogram records the experienced one-way delay, injected
  // stretch included — that is what a receiver would measure.
  if (latency_hist_ != nullptr) latency_hist_->record(delay);
  SimTime arrive = sim_.now() + delay;
  sim_.at(arrive, std::move(on_arrival));
  return arrive;
}

void Network::set_telemetry(telemetry::Sink sink) {
  sink_ = sink;
  latency_hist_ = sink.metrics != nullptr
                      ? &sink.metrics->histogram("net.latency_ms")
                      : nullptr;
}

}  // namespace cam
