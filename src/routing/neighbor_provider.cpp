#include "routing/neighbor_provider.hpp"

#include <algorithm>

namespace precinct::routing {

BeaconNeighborProvider::BeaconNeighborProvider(net::WirelessNet& network,
                                               std::size_t n_nodes,
                                               double lifetime_s)
    : net_(network),
      lifetime_s_(lifetime_s),
      tables_(n_nodes),
      versions_(n_nodes, 1) {}

void BeaconNeighborProvider::on_beacon(net::NodeId receiver,
                                       net::NodeId source, geo::Point pos,
                                       double now_s) {
  tables_.at(receiver)[source] = Entry{pos, now_s};
  ++versions_.at(receiver);
}

void BeaconNeighborProvider::clear_node(net::NodeId node) {
  tables_.at(node).clear();
  ++versions_.at(node);
}

void BeaconNeighborProvider::neighbors_into(net::NodeId self,
                                            std::vector<net::NodeId>& out) {
  const double now = net_.simulator().now();
  auto& table = tables_.at(self);
  out.clear();
  out.reserve(table.size());
  for (auto it = table.begin(); it != table.end();) {
    if (now - it->second.heard_at > lifetime_s_) {
      it = table.erase(it);  // lazy expiry
    } else {
      out.push_back(it->first);
      ++it;
    }
  }
  std::sort(out.begin(), out.end());  // deterministic order
}

geo::Point BeaconNeighborProvider::position_of(net::NodeId self,
                                               net::NodeId node) {
  if (node == self) return net_.position(self);  // own GPS is always fresh
  const auto& table = tables_.at(self);
  const auto it = table.find(node);
  // Unknown nodes fall back to the last broadcast origin heard... there
  // is none; a safe default is own position (the caller should only ask
  // about table entries).
  return it != table.end() ? it->second.pos : net_.position(self);
}

std::size_t BeaconNeighborProvider::table_size(net::NodeId node) const {
  const double now = net_.simulator().now();
  std::size_t count = 0;
  for (const auto& [id, entry] : tables_.at(node)) {
    if (now - entry.heard_at <= lifetime_s_) ++count;
  }
  return count;
}

}  // namespace precinct::routing
