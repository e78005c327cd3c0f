#include "timing/monotone.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/stats.h"

namespace repro {

bool locally_nonmonotone(Point v1, Point v2, Point v3) {
  return manhattan(v1, v3) < manhattan(v1, v2) + manhattan(v2, v3);
}

double path_detour_ratio(const TimingGraph& tg, const std::vector<TimingNodeId>& path) {
  if (path.size() < 2) return 1.0;
  const Placement& pl = tg.placement();
  int total = 0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    Point a = pl.location(tg.node(path[i]).cell);
    Point b = pl.location(tg.node(path[i + 1]).cell);
    total += manhattan(a, b);
  }
  Point s = pl.location(tg.node(path.front()).cell);
  Point t = pl.location(tg.node(path.back()).cell);
  int direct = manhattan(s, t);
  if (direct == 0) return 1.0;
  return static_cast<double>(total) / direct;
}

namespace {

/// Generation-stamped arena for the per-sink backward label pass
/// (DESIGN.md §9). monotone_lower_bound() runs one pass per timing end
/// point; the dense maxlev/queue state is reused across all of them, so the
/// whole-graph bound performs no per-sink allocation once warmed up.
struct MonotoneScratch {
  std::uint32_t gen = 0;
  std::vector<std::uint32_t> stamp;  ///< stamp[n] == gen  <=>  maxlev valid
  std::vector<int> maxlev;
  std::vector<TimingNodeId> queue;   ///< FIFO via head index
  std::vector<TimingNodeId> cone;    ///< labeled nodes, for the final max

  std::uint64_t bytes() const {
    return stamp.capacity() * sizeof(std::uint32_t) +
           maxlev.capacity() * sizeof(int) +
           (queue.capacity() + cone.capacity()) * sizeof(TimingNodeId);
  }

  void begin(std::size_t num_nodes) {
    auto& ac = arena_counters();
    if (stamp.size() < num_nodes) {
      stamp.resize(num_nodes, 0);
      maxlev.resize(num_nodes);
      ac.scratch_growths.fetch_add(1, std::memory_order_relaxed);
      arena_record_peak(ac.monotone_scratch_bytes, bytes());
    } else {
      ac.scratch_reuses.fetch_add(1, std::memory_order_relaxed);
    }
    queue.clear();
    cone.clear();
    if (++gen == 0) {
      std::fill(stamp.begin(), stamp.end(), 0u);
      gen = 1;
    }
  }

  bool labeled(TimingNodeId n) const { return stamp[n.index()] == gen; }
};

}  // namespace

double monotone_lower_bound_for_sink(const TimingGraph& tg, TimingNodeId sink) {
  // Backward label-correcting pass computing, for every cone node, the
  // MAXIMUM number of combinational blocks strictly between it and the sink
  // (the timing graph is a DAG; values only increase, so this terminates).
  static thread_local MonotoneScratch s;
  s.begin(tg.num_nodes());
  s.stamp[sink.index()] = s.gen;
  s.maxlev[sink.index()] = 0;
  s.queue.push_back(sink);
  s.cone.push_back(sink);
  for (std::size_t qh = 0; qh < s.queue.size(); ++qh) {
    TimingNodeId n = s.queue[qh];
    int lev_through_n =
        s.maxlev[n.index()] + (tg.node(n).kind == TimingNodeKind::kComb ? 1 : 0);
    for (std::size_t e : tg.fanin_edges(n)) {
      TimingNodeId f = tg.edge(e).from;
      if (!s.labeled(f)) {
        s.stamp[f.index()] = s.gen;
        s.maxlev[f.index()] = lev_through_n;
        s.queue.push_back(f);
        s.cone.push_back(f);
      } else if (lev_through_n > s.maxlev[f.index()]) {
        s.maxlev[f.index()] = lev_through_n;
        s.queue.push_back(f);
      }
    }
  }

  // The maximum over sources is order-independent (exact max of exact
  // per-source terms), so iterating the flat cone list instead of the old
  // unordered_map yields the identical double.
  const Placement& pl = tg.placement();
  const LinearDelayModel& dm = tg.delay_model();
  Point t_loc = pl.location(tg.node(sink).cell);
  double intrinsic_t = tg.node_intrinsic_delay(sink);
  double bound = 0;
  for (TimingNodeId n : s.cone) {
    if (tg.node(n).kind != TimingNodeKind::kSource) continue;
    Point s_loc = pl.location(tg.node(n).cell);
    double b = tg.arrival(n) + dm.wire_delay(s_loc, t_loc) +
               s.maxlev[n.index()] * dm.logic_delay + intrinsic_t;
    bound = std::max(bound, b);
  }
  return bound;
}

double monotone_lower_bound(const TimingGraph& tg) {
  double bound = 0;
  for (TimingNodeId s : tg.sinks())
    bound = std::max(bound, monotone_lower_bound_for_sink(tg, s));
  return bound;
}

}  // namespace repro
