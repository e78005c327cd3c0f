#include "embed/embedder.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "util/log.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace repro {

namespace {

constexpr std::uint32_t kUnmapped = std::numeric_limits<std::uint32_t>::max();

/// First entry of a cost-sorted live list whose cost is >= `cost`.
std::vector<EmbedScratch::LiveRef>::iterator cost_lower_bound(
    std::vector<EmbedScratch::LiveRef>& live, double cost) {
  return std::lower_bound(
      live.begin(), live.end(), cost,
      [](const EmbedScratch::LiveRef& e, double c) { return e.cost < c; });
}

/// a <=_lex b, given their primary delays: the first lex position decides
/// unless the two tie, so a tie-free compare never reads the vectors.
bool lex_le(double a_primary, const DelayVec& a, double b_primary, const DelayVec& b) {
  if (a_primary != b_primary) return a_primary < b_primary;
  return a.lex_less_equal(b);
}

/// Staircase admission (docs/ALGORITHMS.md §1). With dominance on
/// (cost, lex delay) only, a Pareto set sorted by cost has strictly rising
/// cost and strictly falling delay, so `live` (entries of `items`) is kept
/// in that order. Returns false when a live entry dominates (cost, delay).
/// Otherwise marks dead and erases the contiguous run the candidate
/// dominates, and returns the candidate's place in `live` through `pos`.
template <class Items>
bool staircase_admit(Items& items, std::vector<EmbedScratch::LiveRef>& live,
                     double cost, const DelayVec& delay, std::size_t& pos) {
  const double primary = delay.primary();
  auto first = cost_lower_bound(live, cost);
  // The fastest live entry no costlier than the candidate: the one of equal
  // cost if there is one (costs are distinct), else the last cheaper one.
  auto dominates = [&](const EmbedScratch::LiveRef& e) {
    return lex_le(e.primary, items[e.label].delay, primary, delay);
  };
  if (first != live.end() && first->cost == cost) {
    if (dominates(*first)) return false;
  } else if (first != live.begin() && dominates(first[-1])) {
    return false;
  }
  auto last = first;
  while (last != live.end() &&
         lex_le(primary, delay, last->primary, items[last->label].delay)) {
    items[last->label].dead = 1;
    ++last;
  }
  pos = static_cast<std::size_t>(first - live.begin());
  live.erase(first, last);
  return true;
}

/// Resizes `v` to `n`, growing its capacity by a quarter at a time: the
/// scratch keeps it across trees, so doubling would retain up to twice the
/// largest tree's labels.
template <class T>
void grow_to(std::vector<T>& v, std::size_t n) {
  if (n > v.capacity()) v.reserve(n + n / 4);
  v.resize(n);
}

}  // namespace

FaninTreeEmbedder::FaninTreeEmbedder(const FaninTree& tree, const EmbeddingGraph& graph,
                                     PlacementCostFn placement_cost, EmbedOptions options,
                                     EmbedScratch* scratch)
    : tree_(tree), graph_(graph), pcost_(std::move(placement_cost)), opt_(options),
      scratch_(scratch) {
  assert(opt_.lex_order >= 1 && opt_.lex_order <= DelayVec::kCapacity);
  if (opt_.lex_mc) opt_.lex_order = 1;  // mc uses its own [t, tc] layout
  staircase_ = !opt_.overlap_avoidance && !opt_.stem_delay;
  // Adopt previously grown buffers: clear() keeps their capacities, so a
  // warmed-up scratch makes table setup allocation-free.
  if (scratch_) s_ = std::move(*scratch_);
  s_.trace.clear();
  s_.spill.clear();
  s_.pending.clear();
  s_.rows.clear();
  s_.joinable.clear();
  s_.work.clear();
  if (s_.live.size() < graph_.num_vertices()) s_.live.resize(graph_.num_vertices());
  for (auto& l : s_.live) l.clear();
}

FaninTreeEmbedder::~FaninTreeEmbedder() {
  if (!scratch_) return;
  auto buffer_bytes = [](const EmbedScratch::Buffer& b) {
    return b.labels.capacity() * sizeof(Label) +
           b.at.capacity() * sizeof(EmbedVertexId) +
           b.spill.capacity() * sizeof(std::uint32_t);
  };
  std::size_t bytes = s_.trace.capacity() * sizeof(EmbedScratch::Trace) +
                      s_.joinable.capacity() * sizeof(EmbedScratch::JoinLabel) +
                      s_.pending.capacity() * sizeof(EmbedScratch::Pending) +
                      (s_.spill.capacity() + s_.rows.capacity() + s_.remap.capacity()) *
                          sizeof(std::uint32_t) +
                      s_.heap.capacity() * sizeof(EmbedScratch::QueueItem) +
                      buffer_bytes(s_.work) +
                      s_.live.capacity() * sizeof(s_.live[0]);
  for (const auto& l : s_.live) bytes += l.capacity() * sizeof(EmbedScratch::LiveRef);
  for (const auto& c : s_.chunks) bytes += buffer_bytes(c);
  arena_record_peak(arena_counters().embed_scratch_bytes, bytes);
  *scratch_ = std::move(s_);
}

bool FaninTreeEmbedder::dominates(const Label& a, const Label& b) const {
  if (a.cost > b.cost) return false;
  if (!a.delay.lex_less_equal(b.delay)) return false;
  if (opt_.overlap_avoidance && a.branching > b.branching) return false;
  if (opt_.stem_delay && a.stem_len > b.stem_len) return false;
  return true;
}

template <class Make>
bool FaninTreeEmbedder::insert_label(EmbedScratch::Buffer& buf, EmbedVertexId v,
                                     double cost, const DelayVec& delay,
                                     Make&& make) {
  std::vector<EmbedScratch::LiveRef>& live = s_.live[v.index()];
  const auto index = static_cast<std::uint32_t>(buf.labels.size());
  std::size_t pos = 0;
  if (staircase_) {
    if (!staircase_admit(buf.labels, live, cost, delay, pos)) return false;
    buf.labels.push_back(make());
  } else {
    // A third dominance key (branching bit, stem length) breaks the
    // staircase shape: scan the live list, kept in insertion order.
    buf.labels.push_back(make());
    const Label& l = buf.labels.back();
    for (const EmbedScratch::LiveRef& e : live) {
      if (dominates(buf.labels[e.label], l)) {
        buf.labels.pop_back();
        return false;
      }
    }
    std::erase_if(live, [&](const EmbedScratch::LiveRef& e) {
      if (!dominates(l, buf.labels[e.label])) return false;
      buf.labels[e.label].dead = 1;
      return true;
    });
    pos = live.size();
  }
  if (opt_.max_labels > 0 && live.size() > 2 * static_cast<std::size_t>(opt_.max_labels)) {
    cap_list(buf, live);
    pos = staircase_ ? static_cast<std::size_t>(cost_lower_bound(live, cost) - live.begin())
                     : live.size();
  }
  live.insert(live.begin() + static_cast<std::ptrdiff_t>(pos),
              EmbedScratch::LiveRef{cost, delay.primary(), index});
  buf.at.push_back(v);
  ++buf.created;
  return true;
}

void FaninTreeEmbedder::cap_list(EmbedScratch::Buffer& buf,
                                 std::vector<EmbedScratch::LiveRef>& live) {
  // Soft cap: when the live population exceeds 2x the cap, keep the cheapest,
  // the (lex) fastest, and an even cost-spread of the rest. The cost order of
  // a staircase is its own order; otherwise sort the insertion-ordered list.
  std::vector<EmbedScratch::LiveRef> sorted;
  if (!staircase_) {
    sorted = live;
    std::sort(sorted.begin(), sorted.end(),
              [](const EmbedScratch::LiveRef& x, const EmbedScratch::LiveRef& y) {
                return x.cost < y.cost;
              });
  }
  const std::vector<EmbedScratch::LiveRef>& idx = staircase_ ? live : sorted;
  // Mark all dead, then resurrect an even sample (ends always kept).
  for (const EmbedScratch::LiveRef& e : idx) buf.labels[e.label].dead = 1;
  const int keep = opt_.max_labels;
  for (int k = 0; k < keep; ++k) {
    std::size_t pos = (keep == 1) ? 0 : k * (idx.size() - 1) / (keep - 1);
    buf.labels[idx[pos].label].dead = 0;
  }
  buf.evicted += live.size() - static_cast<std::size_t>(keep);
  std::erase_if(live, [&](const EmbedScratch::LiveRef& e) {
    return buf.labels[e.label].dead != 0;
  });
}

double FaninTreeEmbedder::augment_delay_delta(int stem_len,
                                              double edge_delay_or_len) const {
  if (!opt_.stem_delay) return edge_delay_or_len;
  const int len = static_cast<int>(edge_delay_or_len);
  return opt_.stem_delay(stem_len + len) - opt_.stem_delay(stem_len);
}

void FaninTreeEmbedder::wavefront() {
  // Generalized Dijkstra (Fig. 6, GenDijkstra): multi-source expansion of all
  // current labels of the node through the graph, keeping non-dominated
  // signatures per vertex. Items pop by (cost, lex delay); the handle
  // carries the primary delay so only full ties read the label.
  using QItem = EmbedScratch::QueueItem;
  std::vector<Label>& labels = s_.work.labels;
  auto lower_priority = [&labels](const QItem& x, const QItem& y) {
    if (x.cost != y.cost) return x.cost > y.cost;
    if (x.primary != y.primary) return y.primary < x.primary;
    return labels[y.label].delay.lex_compare(labels[x.label].delay) < 0;
  };
  std::vector<QItem>& pq = s_.heap;
  pq.clear();
  auto push = [&](EmbedVertexId v, std::uint32_t li) {
    pq.push_back(QItem{labels[li].cost, labels[li].delay.primary(), v, li});
    std::push_heap(pq.begin(), pq.end(), lower_priority);
  };

  // The node's join (or initial) labels were created in vertex order.
  for (std::uint32_t li = 0; li < labels.size(); ++li)
    if (!labels[li].dead) push(s_.work.at[li], li);

  while (!pq.empty()) {
    std::pop_heap(pq.begin(), pq.end(), lower_priority);
    const QItem item = pq.back();
    pq.pop_back();
    const Label& top = labels[item.label];
    if (top.dead) continue;  // superseded since queued (d7)
    // Copy: inserts below may reallocate the label buffer.
    const double cur_cost = top.cost;
    const DelayVec cur_delay = top.delay;
    const std::int32_t mc_weight = top.mc_weight;
    const std::int32_t stem_len = top.stem_len;

    for (const EmbeddingGraph::Edge& e : graph_.edges_from(item.vertex)) {
      const double cost = cur_cost + e.cost;
      const double delta = augment_delay_delta(stem_len, e.delay);
      DelayVec delay = cur_delay;
      if (opt_.lex_mc) {
        delay.v[0] += delta;
        if (mc_weight > 0 && delay.n > 1) delay.v[1] += delta;
      } else {
        delay.shift(delta);
      }
      auto make = [&] {
        Label next;
        next.cost = cost;
        next.delay = delay;
        next.mc_weight = mc_weight;
        next.stem_len = opt_.stem_delay ? stem_len + static_cast<int>(e.delay) : 0;
        next.prov.kind = Provenance::Kind::kAugment;
        next.prov.from = item.vertex;
        next.prov.pred_label = item.label;
        return next;
      };
      if (insert_label(s_.work, e.to, cost, delay, make))
        push(e.to, static_cast<std::uint32_t>(labels.size() - 1));
    }
  }
}

void FaninTreeEmbedder::join_vertex_range(TreeNodeId i, std::size_t lo,
                                          std::size_t hi, JoinScratch& js,
                                          EmbedScratch::Buffer& out) {
  const FaninTreeNode& node = tree_.node(i);
  const std::size_t num_children = node.children.size();
  // The children are the top pending nodes, in order.
  const std::size_t first_child = s_.pending.size() - num_children;

  for (std::size_t jv = lo; jv < hi; ++jv) {
    EmbedVertexId j(static_cast<EmbedVertexId::value_type>(jv));
    // Forbidden locations (blocked slots, wrong resource type) are modeled
    // as placement costs >= kForbiddenCost: no gate may be created there.
    const double pc = pcost_ ? pcost_(i, j) : 0.0;
    if (pcost_ && pc >= kForbiddenCost) continue;

    // Fold the children's label lists into partial joins, pruning dominated
    // partials at each fold (JoinTree, line c2). Survivors keep their
    // admission order.
    std::vector<PartialJoin>& partials = js.partials;
    partials.clear();
    partials.push_back(PartialJoin{});
    bool dead_end = false;
    for (std::size_t c = first_child; c < s_.pending.size(); ++c) {
      const EmbedScratch::Pending& child = s_.pending[c];
      const std::uint32_t* range = row(c) + jv;
      std::vector<PartialJoin>& next = js.next;
      next.clear();
      js.stair.clear();
      for (const PartialJoin& p : partials) {
        for (std::uint32_t k = range[0]; k < range[1]; ++k) {
          const EmbedScratch::JoinLabel& cl = s_.joinable[child.join_base + k];
          const double cost = p.cost + cl.cost;
          DelayVec delay;
          int mc_weight = 0;
          if (opt_.lex_mc) {
            // Section VI-A Lex-mc join: t = max(t_k); tc = sum(tc_k * w_k);
            // w = sum(w_k). The partial already folded earlier children.
            const double t = std::max(p.delay.n ? p.delay.v[0] : 0.0, cl.delay.v[0]);
            const double tc_p = p.delay.n > 1 ? p.delay.v[1] : 0.0;
            const double tc_c = cl.delay.n > 1 ? cl.delay.v[1] : 0.0;
            delay = DelayVec::pair(t, tc_p + tc_c * cl.mc_weight);
            mc_weight = p.mc_weight + cl.mc_weight;
          } else {
            delay = p.delay.merged_with(cl.delay, opt_.lex_order);
          }
          const int bits = p.sum_branch_bits + cl.branching;
          // Dominance prune among partials (cost vs delay [vs bits]).
          if (!opt_.overlap_avoidance) {
            std::size_t pos = 0;
            if (!staircase_admit(next, js.stair, cost, delay, pos)) continue;
            js.stair.insert(js.stair.begin() + static_cast<std::ptrdiff_t>(pos),
                            EmbedScratch::LiveRef{cost, delay.primary(),
                                                  static_cast<std::uint32_t>(next.size())});
          } else {
            bool dominated = false;
            for (const PartialJoin& q : next) {
              if (q.cost <= cost && q.delay.lex_less_equal(delay) &&
                  q.sum_branch_bits <= bits) {
                dominated = true;
                break;
              }
            }
            if (dominated) continue;
            std::erase_if(next, [&](const PartialJoin& q) {
              return cost <= q.cost && delay.lex_less_equal(q.delay) &&
                     bits <= q.sum_branch_bits;
            });
          }
          PartialJoin& np = next.emplace_back();
          np.cost = cost;
          np.delay = delay;
          np.mc_weight = mc_weight;
          np.sum_branch_bits = bits;
          np.num_children = static_cast<std::uint8_t>(p.num_children + 1);
          std::copy_n(p.child_labels, p.num_children, np.child_labels);
          np.child_labels[p.num_children] = child.trace_base + k;
        }
      }
      std::erase_if(next, [](const PartialJoin& q) { return q.dead != 0; });
      std::swap(partials, next);
      if (partials.empty()) {
        dead_end = true;
        break;
      }
    }
    if (dead_end) continue;

    for (const PartialJoin& p : partials) {
      if (opt_.overlap_avoidance && p.sum_branch_bits > opt_.branch_capacity - 1)
        continue;  // Section II-A: joining branching solutions overlaps
      const double cost = p.cost + pc;
      DelayVec delay = p.delay;
      if (opt_.lex_mc) {
        delay.v[0] += node.gate_delay;
        if (p.mc_weight > 0 && delay.n > 1) delay.v[1] += node.gate_delay;
      } else {
        delay.shift(node.gate_delay);
      }
      insert_label(out, j, cost, delay, [&] {
        Label l;
        l.cost = cost;
        l.delay = delay;
        l.mc_weight = p.mc_weight;
        l.branching = 1;
        l.prov.kind = Provenance::Kind::kJoin;
        l.prov.num_children = static_cast<std::uint8_t>(num_children);
        if (num_children <= 2) {
          std::copy_n(p.child_labels, num_children, l.prov.child_labels_inline);
        } else {
          l.prov.spill_index = static_cast<std::int32_t>(out.spill.size());
          out.spill.insert(out.spill.end(), p.child_labels,
                           p.child_labels + num_children);
        }
        return l;
      });
    }
  }
}

void FaninTreeEmbedder::join_node(TreeNodeId i, bool root_mode) {
  const FaninTreeNode& node = tree_.node(i);
  assert(!node.is_leaf());

  // Restrict the root to its fixed vertex unless relocation is enabled.
  if (root_mode && !opt_.relocatable_root) {
    EmbedVertexId only_vertex = graph_.vertex_at(node.fixed_loc);
    if (!only_vertex.valid()) {
      LOG_WARN() << "fanin tree root '" << node.name
                 << "' lies outside the embedding graph";
      return;
    }
    JoinScratch js;
    join_vertex_range(i, only_vertex.index(), only_vertex.index() + 1, js, s_.work);
    return;
  }

  const std::size_t nv = graph_.num_vertices();
  ThreadPool* pool = opt_.pool;
  if (!pool || pool->num_workers() == 0 ||
      nv < static_cast<std::size_t>(opt_.parallel_min_vertices)) {
    JoinScratch js;
    join_vertex_range(i, 0, nv, js, s_.work);
    return;
  }

  // Parallel join: the A[i][*] columns only read the children's (finished)
  // join data, so contiguous vertex chunks are processed concurrently.
  // Each chunk writes its own buffer; buffers are appended in chunk
  // (= vertex) order with label and spill indices rebased, so the working
  // buffer — and every label bit — matches the serial embedder.
  const std::size_t grain =
      std::max<std::size_t>(16, nv / (4 * pool->num_threads()));
  const std::size_t nchunks = (nv + grain - 1) / grain;
  if (s_.chunks.size() < nchunks) s_.chunks.resize(nchunks);
  pool->parallel_for(nchunks, 1, [&](std::size_t c) {
    const std::size_t lo = c * grain;
    const std::size_t hi = std::min(nv, lo + grain);
    s_.chunks[c].clear();
    JoinScratch js;
    join_vertex_range(i, lo, hi, js, s_.chunks[c]);
  });
  EmbedScratch::Buffer& w = s_.work;
  for (std::size_t c = 0; c < nchunks; ++c) {
    EmbedScratch::Buffer& chunk = s_.chunks[c];
    const auto label_base = static_cast<std::uint32_t>(w.labels.size());
    const auto spill_base = static_cast<std::int32_t>(w.spill.size());
    for (Label& l : chunk.labels)
      if (l.prov.spill_index >= 0) l.prov.spill_index += spill_base;
    for (std::size_t jv = c * grain; jv < std::min(nv, (c + 1) * grain); ++jv)
      for (EmbedScratch::LiveRef& e : s_.live[jv]) e.label += label_base;
    w.labels.insert(w.labels.end(), chunk.labels.begin(), chunk.labels.end());
    w.at.insert(w.at.end(), chunk.at.begin(), chunk.at.end());
    w.spill.insert(w.spill.end(), chunk.spill.begin(), chunk.spill.end());
    w.created += chunk.created;
    w.evicted += chunk.evicted;
  }
}

void FaninTreeEmbedder::finish_node() {
  EmbedScratch::Buffer& w = s_.work;
  const std::size_t nv = graph_.num_vertices();
  const EmbedScratch::Pending seg{static_cast<std::uint32_t>(s_.trace.size()),
                                  static_cast<std::uint32_t>(s_.joinable.size())};
  s_.rows.resize(s_.rows.size() + nv + 1);
  std::uint32_t* begin = &s_.rows[s_.rows.size() - nv - 1];

  // Live labels, grouped by vertex in insertion (= index) order.
  s_.remap.assign(w.labels.size(), kUnmapped);
  begin[0] = 0;
  for (std::size_t j = 0; j < nv; ++j) {
    std::vector<EmbedScratch::LiveRef>& live = s_.live[j];
    if (staircase_)
      std::sort(live.begin(), live.end(),
                [](const EmbedScratch::LiveRef& x, const EmbedScratch::LiveRef& y) {
                  return x.label < y.label;
                });
    begin[j + 1] = begin[j] + static_cast<std::uint32_t>(live.size());
    for (std::size_t k = 0; k < live.size(); ++k)
      s_.remap[live[k].label] = seg.trace_base + begin[j] + static_cast<std::uint32_t>(k);
  }
  const std::uint32_t live_end = seg.trace_base + begin[nv];
  std::uint32_t kept = live_end;

  // Dead labels on a live label's augment chain follow the live ones.
  for (std::size_t j = 0; j < nv; ++j) {
    for (const EmbedScratch::LiveRef& e : s_.live[j]) {
      const Label* l = &w.labels[e.label];
      while (l->prov.kind == Provenance::Kind::kAugment &&
             s_.remap[l->prov.pred_label] == kUnmapped) {
        s_.remap[l->prov.pred_label] = kept++;
        l = &w.labels[l->prov.pred_label];
      }
    }
  }

  grow_to(s_.trace, kept);
  grow_to(s_.joinable, seg.join_base + begin[nv]);
  for (std::size_t k = 0; k < w.labels.size(); ++k) {
    const std::uint32_t to = s_.remap[k];
    if (to == kUnmapped) continue;
    const Label& l = w.labels[k];
    if (to < live_end)
      s_.joinable[seg.join_base + (to - seg.trace_base)] =
          EmbedScratch::JoinLabel{l.cost, l.delay, l.mc_weight, l.branching};
    EmbedScratch::Trace& t = s_.trace[to];
    t.kind = l.prov.kind;
    t.num_children = l.prov.num_children;
    t.ref[0] = t.ref[1] = 0;
    if (l.prov.kind == Provenance::Kind::kAugment) {
      t.ref[0] = static_cast<std::uint32_t>(l.prov.from.index());
      t.ref[1] = s_.remap[l.prov.pred_label];
    } else if (l.prov.spill_index >= 0) {
      const auto* children = &w.spill[static_cast<std::size_t>(l.prov.spill_index)];
      t.ref[0] = static_cast<std::uint32_t>(s_.spill.size());
      s_.spill.insert(s_.spill.end(), children, children + l.prov.num_children);
    } else if (l.prov.kind == Provenance::Kind::kJoin) {
      std::copy_n(l.prov.child_labels_inline, l.prov.num_children, t.ref);
    }
  }
  s_.pending.push_back(seg);
  labels_created_ += w.created;
  labels_evicted_ += w.evicted;
  w.clear();
  for (auto& l : s_.live) l.clear();
}

bool FaninTreeEmbedder::run() {
  ran_ = true;
  // Bottom-up over the tree (ComputeSubTree). Finished nodes wait on the
  // pending stack until their parent's join pops them; a subtree shared by
  // two parents (hand-built DAG fixtures) is solved once per parent.
  const std::size_t nv = graph_.num_vertices();
  for (TreeNodeId i : tree_.post_order()) {
    const FaninTreeNode& node = tree_.node(i);
    if (node.children.size() > static_cast<std::size_t>(kMaxChildren)) {
      LOG_WARN() << "fanin tree node '" << node.name << "' has "
                 << node.children.size() << " children; the embedder joins at most "
                 << kMaxChildren;
      return false;
    }
    const bool is_root = (i == tree_.root());
    if (node.is_leaf()) {
      EmbedVertexId v = graph_.vertex_at(node.fixed_loc);
      if (!v.valid()) {
        LOG_WARN() << "fanin tree leaf '" << node.name
                   << "' lies outside the embedding graph";
        return false;
      }
      Label l;
      l.cost = 0;  // fixed terminals carry no placement cost (Section II)
      if (opt_.lex_mc) {
        l.delay = DelayVec::pair(node.leaf_arrival,
                                 node.is_real_input ? node.leaf_arrival : 0.0);
        l.mc_weight = node.is_real_input ? 1 : 0;
      } else {
        l.delay = DelayVec::single(node.leaf_arrival);
      }
      l.branching = 1;
      l.prov.kind = Provenance::Kind::kInitial;
      insert_label(s_.work, v, l.cost, l.delay, [&] { return l; });
    } else {
      join_node(i, is_root);
      const std::size_t first_child = s_.pending.size() - node.children.size();
      s_.joinable.resize(s_.pending[first_child].join_base);
      s_.rows.resize(first_child * (nv + 1));
      s_.pending.resize(first_child);
    }
    if (!is_root) wavefront();
    finish_node();
  }

  // Collect the root trade-off curve (AugmentRoot / final selection).
  tradeoff_.clear();
  const EmbedScratch::Pending& root = s_.pending.back();
  const std::uint32_t* root_row = row(s_.pending.size() - 1);
  for (std::size_t jv = 0; jv < nv; ++jv) {
    for (std::uint32_t k = root_row[jv]; k < root_row[jv + 1]; ++k) {
      const EmbedScratch::JoinLabel& l = s_.joinable[root.join_base + k];
      tradeoff_.push_back(RootSolution{
          EmbedVertexId(static_cast<EmbedVertexId::value_type>(jv)),
          root.trace_base + k, l.cost, l.delay});
    }
  }
  std::sort(tradeoff_.begin(), tradeoff_.end(), [](const RootSolution& x,
                                                   const RootSolution& y) {
    if (x.cost != y.cost) return x.cost < y.cost;
    return x.delay.lex_compare(y.delay) < 0;
  });
  return !tradeoff_.empty();
}

int FaninTreeEmbedder::pick_cheapest_within(double delay_bound) const {
  for (std::size_t k = 0; k < tradeoff_.size(); ++k)
    if (tradeoff_[k].delay.primary() <= delay_bound + 1e-12)
      return static_cast<int>(k);
  return -1;
}

int FaninTreeEmbedder::pick_fastest() const {
  int best = -1;
  for (std::size_t k = 0; k < tradeoff_.size(); ++k) {
    if (best < 0 ||
        tradeoff_[k].delay.lex_compare(tradeoff_[best].delay) < 0)
      best = static_cast<int>(k);
  }
  return best;
}

TreeEmbedding FaninTreeEmbedder::extract(int tradeoff_index) const {
  TreeEmbedding out(tree_.size());
  assert(tradeoff_index >= 0 &&
         tradeoff_index < static_cast<int>(tradeoff_.size()));
  const RootSolution& rs = tradeoff_[tradeoff_index];

  struct Frame {
    TreeNodeId node;
    EmbedVertexId vertex;
    std::uint32_t label;
  };
  std::vector<Frame> stack{{tree_.root(), rs.vertex, rs.label_index}};
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    const EmbedScratch::Trace& l = s_.trace[f.label];
    switch (l.kind) {
      case Provenance::Kind::kInitial:
        out.set(f.node, f.vertex);
        break;
      case Provenance::Kind::kAugment:
        stack.push_back(Frame{
            f.node, EmbedVertexId(static_cast<EmbedVertexId::value_type>(l.ref[0])),
            l.ref[1]});
        break;
      case Provenance::Kind::kJoin: {
        out.set(f.node, f.vertex);
        const FaninTreeNode& node = tree_.node(f.node);
        const std::uint32_t* child_idx =
            l.num_children > 2 ? &s_.spill[l.ref[0]] : l.ref;
        for (std::size_t k = 0; k < node.children.size(); ++k)
          stack.push_back(Frame{node.children[k], f.vertex, child_idx[k]});
        break;
      }
    }
  }
  return out;
}

}  // namespace repro
