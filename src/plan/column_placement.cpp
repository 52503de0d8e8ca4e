#include "plan/column_placement.hpp"

#include "common/error.hpp"

namespace pulsarqr::plan {

ColumnPlacement::ColumnPlacement(int nodes, int workers_per_node)
    : nodes_(nodes), wpn_(workers_per_node) {
  require(nodes >= 1 && workers_per_node >= 1,
          "ColumnPlacement: need at least one node and one worker");
  created_.assign(nodes, 0);
}

int ColumnPlacement::node(int j) const {
  const int p = j % (2 * nodes_);
  return p < nodes_ ? p : 2 * nodes_ - 1 - p;
}

int ColumnPlacement::next(int j) {
  const int n = node(j);
  return n * wpn_ + created_[n]++ % wpn_;
}

std::vector<int> ColumnPlacement::chain(int first, int end) const {
  std::vector<int> order;
  std::vector<bool> visited(nodes_, false);
  for (int j = first; j < end; ++j) {
    const int n = node(j);
    if (visited[n]) continue;
    visited[n] = true;
    for (int c = j; c < end; ++c) {
      if (node(c) == n) order.push_back(c);
    }
  }
  return order;
}

}  // namespace pulsarqr::plan
