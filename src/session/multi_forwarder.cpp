#include "session/multi_forwarder.h"

#include <vector>

namespace cam::session {

namespace {

std::vector<dataplane::GroupSpec> group_specs(const SessionLayer& session,
                                              SchedMode mode) {
  std::vector<dataplane::GroupSpec> specs;
  const std::vector<GroupId> gids = session.group_ids();
  specs.reserve(gids.size());
  for (GroupId gid : gids) {
    const GroupTree* tree = session.group(gid);
    dataplane::GroupSpec& spec = specs.emplace_back();
    spec.id = gid;
    spec.source = tree->source();
    const std::vector<Id> members = tree->sorted_members();
    spec.members.reserve(members.size());
    for (Id m : members) {
      const GroupTree::Member& mem = tree->member(m);
      const double share =
          mode == SchedMode::kLedgerShares && !mem.children.empty()
              ? session.ledger().share_kbps(m, gid)
              : 0;
      spec.members.push_back({m, mem.parent, mem.children, share});
    }
  }
  return specs;
}

}  // namespace

MultiGroupForwarder::MultiGroupForwarder(const SessionLayer& session,
                                         const LatencyModel& latency,
                                         MultiGroupConfig cfg)
    : Forwarder(group_specs(session, cfg.mode), latency, cfg) {
  resolve_uplinks([&](Id x) { return session.ledger().uplink_kbps(x); });
}

}  // namespace cam::session
