#include "timing/spt.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "util/stats.h"

namespace repro {

int Spt::slot_of(TimingNodeId n) const {
  const auto key = std::make_pair(n.value(), std::numeric_limits<std::int32_t>::min());
  auto it = std::lower_bound(lookup_.begin(), lookup_.end(), key);
  if (it == lookup_.end() || it->first != n.value()) return -1;
  return it->second;
}

void Spt::build_index() {
  const std::size_t k = nodes.size();
  lookup_.resize(k);
  for (std::size_t i = 0; i < k; ++i)
    lookup_[i] = {nodes[i].value(), static_cast<std::int32_t>(i)};
  std::sort(lookup_.begin(), lookup_.end());

  // Children CSR. Every member except the root has a member parent; scanning
  // slots in ascending order reproduces the push order of the historical
  // map-of-vectors children lists exactly.
  child_start_.assign(k + 1, 0);
  for (std::size_t i = 1; i < k; ++i) {
    const int ps = slot_of(parent_[i]);
    assert(ps >= 0);
    ++child_start_[static_cast<std::size_t>(ps) + 1];
  }
  for (std::size_t i = 1; i <= k; ++i) child_start_[i] += child_start_[i - 1];
  child_list_.resize(k > 0 ? k - 1 : 0);
  std::vector<std::int32_t> cursor(child_start_.begin(), child_start_.end() - 1);
  for (std::size_t i = 1; i < k; ++i) {
    const int ps = slot_of(parent_[i]);
    child_list_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(ps)]++)] =
        nodes[i];
  }
}

namespace {

constexpr std::uint8_t kReaches = 1;  ///< dist/succ valid: node reaches the root

/// Generation-stamped working arena for extract_eps_spt (DESIGN.md §9).
/// Dense over the timing graph's node space, thread-local, reused across
/// calls: a stamp mismatch means "not in this call's cone", so clearing is
/// O(1) per call instead of O(cone).
struct SptScratch {
  std::uint32_t gen = 0;
  std::vector<std::uint32_t> stamp;    ///< stamp[n] == gen  <=>  n in cone
  std::vector<std::uint8_t> flags;
  std::vector<std::int32_t> outdeg;    ///< remaining cone-internal fanouts
  std::vector<double> dist;            ///< slowest tree-path delay to root
  std::vector<TimingNodeId> succ;      ///< argmax successor toward the root
  std::vector<std::int32_t> succ_pin;
  std::vector<TimingNodeId> cone;      ///< backward-BFS order (doubles as queue)
  std::vector<TimingNodeId> order;     ///< root-first reverse topological order
  std::vector<TimingNodeId> stack;

  std::uint64_t bytes() const {
    return stamp.capacity() * sizeof(std::uint32_t) + flags.capacity() +
           outdeg.capacity() * sizeof(std::int32_t) +
           dist.capacity() * sizeof(double) +
           succ.capacity() * sizeof(TimingNodeId) +
           succ_pin.capacity() * sizeof(std::int32_t) +
           (cone.capacity() + order.capacity() + stack.capacity()) *
               sizeof(TimingNodeId);
  }

  void begin(std::size_t num_nodes) {
    auto& ac = arena_counters();
    if (stamp.size() < num_nodes) {
      stamp.resize(num_nodes, 0);
      flags.resize(num_nodes);
      outdeg.resize(num_nodes);
      dist.resize(num_nodes);
      succ.resize(num_nodes);
      succ_pin.resize(num_nodes);
      ac.scratch_growths.fetch_add(1, std::memory_order_relaxed);
      arena_record_peak(ac.spt_scratch_bytes, bytes());
    } else {
      ac.scratch_reuses.fetch_add(1, std::memory_order_relaxed);
    }
    cone.clear();
    order.clear();
    stack.clear();
    if (++gen == 0) {  // stamp wrap: invalidate everything once per 2^32 calls
      std::fill(stamp.begin(), stamp.end(), 0u);
      gen = 1;
    }
  }

  bool in_cone(TimingNodeId n) const { return stamp[n.index()] == gen; }
  void enter_cone(TimingNodeId n) {
    stamp[n.index()] = gen;
    flags[n.index()] = 0;
  }
};

}  // namespace

Spt extract_eps_spt(const TimingGraph& tg, TimingNodeId root, double eps) {
  static thread_local SptScratch s;
  s.begin(tg.num_nodes());

  Spt spt;
  spt.root = root;

  // 1. Collect the fanin cone of root (backward BFS); `cone` is the queue.
  s.enter_cone(root);
  s.cone.push_back(root);
  for (std::size_t qh = 0; qh < s.cone.size(); ++qh) {
    TimingNodeId n = s.cone[qh];
    for (std::size_t e : tg.fanin_edges(n)) {
      TimingNodeId f = tg.edge(e).from;
      if (!s.in_cone(f)) {
        s.enter_cone(f);
        s.cone.push_back(f);
      }
    }
  }

  // 2. Longest distance to root over cone nodes, and the argmax successor.
  //    Process in topological order of the cone: a node's distance depends on
  //    its fanouts, so walk nodes in reverse order of a forward topo sort,
  //    recovered by Kahn on cone-internal edges. The root is the unique cone
  //    node with no cone-internal fanout (any other such node cannot reach
  //    the root; a cone-internal fanout of the root would close a cycle), so
  //    the root seeds the stack.
  for (TimingNodeId n : s.cone) {
    int d = 0;
    for (std::size_t e : tg.fanout_edges(n))
      if (s.in_cone(tg.edge(e).to)) ++d;
    s.outdeg[n.index()] = d;
  }
  s.dist[root.index()] = 0.0;
  s.flags[root.index()] |= kReaches;
  s.stack.push_back(root);
  while (!s.stack.empty()) {
    TimingNodeId n = s.stack.back();
    s.stack.pop_back();
    s.order.push_back(n);
    if (s.flags[n.index()] & kReaches) {
      // Relax fanins: candidate successor for each fanin.
      for (std::size_t e : tg.fanin_edges(n)) {
        TimingNodeId f = tg.edge(e).from;
        if (!s.in_cone(f)) continue;
        double cand = tg.edge(e).delay + s.dist[n.index()];
        if (!(s.flags[f.index()] & kReaches) || cand > s.dist[f.index()]) {
          s.dist[f.index()] = cand;
          s.succ[f.index()] = n;
          s.succ_pin[f.index()] = tg.edge(e).pin;
          s.flags[f.index()] |= kReaches;
        }
      }
    }
    for (std::size_t e : tg.fanin_edges(n)) {
      TimingNodeId f = tg.edge(e).from;
      if (s.in_cone(f) && --s.outdeg[f.index()] == 0) s.stack.push_back(f);
    }
  }

  // 3. Membership: slowest path through n (along the tree) within eps of the
  //    root arrival.
  const double threshold = tg.arrival(root) - eps;
  for (TimingNodeId n : s.order) {
    if (!(s.flags[n.index()] & kReaches)) continue;
    if (n != root && tg.arrival(n) + s.dist[n.index()] + 1e-12 < threshold) continue;
    spt.nodes.push_back(n);
    spt.dist_.push_back(s.dist[n.index()]);
    if (n != root) {
      spt.parent_.push_back(s.succ[n.index()]);
      spt.parent_pin_.push_back(s.succ_pin[n.index()]);
    } else {
      spt.parent_.push_back(TimingNodeId::invalid());
      spt.parent_pin_.push_back(-1);
    }
  }
  // `order` visits fanouts before fanins, so parents appear before children
  // already (the successor of any member has strictly larger arrival+dist and
  // is itself a member, and is popped earlier).
  assert(!spt.nodes.empty() && spt.nodes.front() == root);
  spt.build_index();
  return spt;
}

}  // namespace repro
