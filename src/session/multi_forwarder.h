// MultiGroupForwarder: the data plane (dataplane/forwarder.h) over a
// SessionLayer's groups. It snapshots every group's tree, the uplink
// capacities and, under kLedgerShares, each member's ledger share at
// construction; everything else is the one forwarder.
#pragma once

#include "dataplane/forwarder.h"
#include "session/session.h"
#include "sim/latency.h"

namespace cam::session {

using dataplane::FailoverScript;
using dataplane::GroupRunStats;
using dataplane::GroupTraffic;
using dataplane::MultiGroupStats;
using dataplane::SchedMode;

/// The forwarder config with the many-group default: kShared FIFO.
struct MultiGroupConfig : dataplane::ForwarderConfig {
  MultiGroupConfig(SchedMode m = SchedMode::kShared) { mode = m; }
};

class MultiGroupForwarder : public dataplane::Forwarder {
 public:
  /// The session and latency model must outlive the forwarder; the run
  /// is single-shot.
  MultiGroupForwarder(const SessionLayer& session,
                      const LatencyModel& latency, MultiGroupConfig cfg = {});
};

}  // namespace cam::session
