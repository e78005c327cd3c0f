#include "reference_timing.h"

#include <algorithm>
#include <cassert>
#include <queue>
#include <unordered_map>

namespace repro {

ReferenceSpt extract_eps_spt_reference(const TimingGraph& tg, TimingNodeId root,
                                       double eps) {
  ReferenceSpt spt;
  spt.root = root;

  // 1. Collect the fanin cone of root (backward BFS).
  std::unordered_map<TimingNodeId, char> in_cone;
  {
    std::queue<TimingNodeId> q;
    q.push(root);
    in_cone[root] = 1;
    while (!q.empty()) {
      TimingNodeId n = q.front();
      q.pop();
      for (std::size_t e : tg.fanin_edges(n)) {
        TimingNodeId f = tg.edge(e).from;
        if (!in_cone.count(f)) {
          in_cone[f] = 1;
          q.push(f);
        }
      }
    }
  }

  // 2. Longest distance to root over cone nodes, and the argmax successor.
  std::unordered_map<TimingNodeId, int> outdeg;
  for (const auto& [n, _] : in_cone) {
    int d = 0;
    for (std::size_t e : tg.fanout_edges(n))
      if (in_cone.count(tg.edge(e).to)) ++d;
    outdeg[n] = d;
  }
  std::unordered_map<TimingNodeId, double> dist;
  std::unordered_map<TimingNodeId, TimingNodeId> succ;
  std::unordered_map<TimingNodeId, int> succ_pin;
  std::vector<TimingNodeId> order;  // root-first reverse topological order
  std::vector<TimingNodeId> stack;
  // The root is the unique cone node with no cone-internal fanout; any other
  // such node cannot reach the root and is dropped.
  for (auto& [n, d] : outdeg)
    if (d == 0) stack.push_back(n);
  std::unordered_map<TimingNodeId, char> reaches_root;
  dist[root] = 0.0;
  reaches_root[root] = 1;
  while (!stack.empty()) {
    TimingNodeId n = stack.back();
    stack.pop_back();
    order.push_back(n);
    if (reaches_root.count(n)) {
      for (std::size_t e : tg.fanin_edges(n)) {
        TimingNodeId f = tg.edge(e).from;
        if (!in_cone.count(f)) continue;
        double cand = tg.edge(e).delay + dist[n];
        auto it = dist.find(f);
        if (it == dist.end() || cand > it->second) {
          dist[f] = cand;
          succ[f] = n;
          succ_pin[f] = tg.edge(e).pin;
          reaches_root[f] = 1;
        }
      }
    }
    for (std::size_t e : tg.fanin_edges(n)) {
      TimingNodeId f = tg.edge(e).from;
      auto it = outdeg.find(f);
      if (it != outdeg.end() && --it->second == 0) stack.push_back(f);
    }
  }

  // 3. Membership: slowest path through n (along the tree) within eps of the
  //    root arrival.
  const double threshold = tg.arrival(root) - eps;
  for (TimingNodeId n : order) {
    if (!reaches_root.count(n)) continue;
    if (n != root && tg.arrival(n) + dist[n] + 1e-12 < threshold) continue;
    spt.nodes.push_back(n);
    spt.dist.push_back(dist[n]);
    if (n != root) {
      spt.parent.push_back(succ[n]);
      spt.parent_pin.push_back(succ_pin[n]);
    } else {
      spt.parent.push_back(TimingNodeId::invalid());
      spt.parent_pin.push_back(-1);
    }
  }
  assert(!spt.nodes.empty() && spt.nodes.front() == root);
  return spt;
}

double monotone_lower_bound_for_sink_reference(const TimingGraph& tg,
                                               TimingNodeId sink) {
  std::unordered_map<TimingNodeId, int> maxlev;
  std::queue<TimingNodeId> q;
  maxlev[sink] = 0;
  q.push(sink);
  while (!q.empty()) {
    TimingNodeId n = q.front();
    q.pop();
    int lev_through_n =
        maxlev[n] + (tg.node(n).kind == TimingNodeKind::kComb ? 1 : 0);
    for (std::size_t e : tg.fanin_edges(n)) {
      TimingNodeId f = tg.edge(e).from;
      auto it = maxlev.find(f);
      if (it == maxlev.end() || lev_through_n > it->second) {
        maxlev[f] = lev_through_n;
        q.push(f);
      }
    }
  }

  const Placement& pl = tg.placement();
  const LinearDelayModel& dm = tg.delay_model();
  Point t_loc = pl.location(tg.node(sink).cell);
  double intrinsic_t = tg.node_intrinsic_delay(sink);
  double bound = 0;
  for (const auto& [n, lev] : maxlev) {
    if (tg.node(n).kind != TimingNodeKind::kSource) continue;
    Point s_loc = pl.location(tg.node(n).cell);
    double b = tg.arrival(n) + dm.wire_delay(s_loc, t_loc) + lev * dm.logic_delay +
               intrinsic_t;
    bound = std::max(bound, b);
  }
  return bound;
}

double monotone_lower_bound_reference(const TimingGraph& tg) {
  double bound = 0;
  for (TimingNodeId s : tg.sinks())
    bound = std::max(bound, monotone_lower_bound_for_sink_reference(tg, s));
  return bound;
}

}  // namespace repro
