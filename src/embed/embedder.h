#pragma once

#include <cstddef>
#include <functional>
#include <unordered_map>
#include <vector>

#include "embed/embedding_graph.h"
#include "embed/fanin_tree.h"
#include "embed/signature.h"
#include "embed/tree_embedding.h"
#include "netlist/netlist.h"

namespace repro {

class ThreadPool;

/// Per-(tree node, graph vertex) placement cost p_ij (Section II-A). This is
/// where the replication engine encodes congestion penalties and the
/// equivalent-cell discount that makes replication implicit.
using PlacementCostFn = std::function<double(TreeNodeId, EmbedVertexId)>;

/// Objective variants of the embedder.
///
///   lex_order = 1, lex_mc = false : the base 2-D cost/max-arrival algorithm
///                                   (Sections II-A..II-C, "RT-Embedding");
///   lex_order = N (2..5)          : Lex-N subcritical-path overoptimization
///                                   (Section VI-A);
///   lex_mc = true                 : the (c, t, tc, w) max-and-critical
///                                   variant (Section VI-A).
struct EmbedOptions {
  int lex_order = 1;
  bool lex_mc = false;

  /// Branching-bit overlap avoidance (Section II-A, approach 1). When true,
  /// a join is rejected if the number of children placed exactly at the join
  /// vertex exceeds branch_capacity - 1 (the join itself occupies one slot).
  bool overlap_avoidance = false;
  int branch_capacity = 1;

  /// Pareto-list size cap per (node, vertex); 0 = unlimited (exact DP).
  int max_labels = 0;

  /// Allow the root to be placed anywhere (simultaneous sink placement used
  /// for FF relocation, Section V-D). When false the root stays at its
  /// fixed location.
  bool relocatable_root = false;

  /// Optional nonlinear stem-delay function: delay of an unbranched wire run
  /// as a function of its length. When set, edge `delay` values are
  /// interpreted as *lengths* and the label's stem length enters the
  /// dominance test. Reproduces the quadratic-delay worked example (Fig. 7).
  std::function<double(int)> stem_delay;

  /// Optional thread pool for the per-vertex column loop of each join: the
  /// A[i][*] columns are independent given the children's tables, so join
  /// vertices are processed in parallel chunks. Results are bit-identical to
  /// the serial embedder for any pool size (chunk outputs are merged back
  /// in vertex order). Null = serial.
  ThreadPool* pool = nullptr;
  /// Joins over graphs smaller than this stay serial (chunking overhead).
  int parallel_min_vertices = 96;
};

/// Reusable embedder storage (docs/ALGORITHMS.md §1 and §11). The node being
/// built lives in working buffers. A finished node leaves the provenance of
/// its labels in one flat array, and its live labels' join data on a stack
/// that its parent's join pops, both CSR-indexed by vertex. Constructing a
/// FaninTreeEmbedder with a scratch adopts these buffers and the destructor
/// returns them, so a loop that embeds one tree per iteration (the
/// replication engine — one embedder per sink) stops allocating after
/// warm-up. One scratch must serve at most one live embedder at a time;
/// speculation workers keep one per thread.
struct EmbedScratch {
  /// Labels of one node under construction (or of one parallel join chunk),
  /// in creation order, with the vertex each sits at and the join
  /// provenance of labels with more than two children.
  struct Buffer {
    std::vector<Label> labels;
    std::vector<EmbedVertexId> at;
    std::vector<std::uint32_t> spill;
    std::size_t created = 0;
    std::size_t evicted = 0;
    void clear() {
      labels.clear();
      at.clear();
      spill.clear();
      created = evicted = 0;
    }
  };
  /// A live label with its cost and primary delay, kept side by side so the
  /// staircase search reads the label only when primary delays tie.
  struct LiveRef {
    double cost;
    double primary;
    std::uint32_t label;
  };
  /// Wavefront queue handle; the full delay vector is read through `label`
  /// only when cost and primary delay tie.
  struct QueueItem {
    double cost;
    double primary;
    EmbedVertexId vertex;
    std::uint32_t label;
  };
  /// How a finished label was built, with labels named by their index in
  /// `trace`. kAugment: ref = {vertex propagated from, predecessor};
  /// kJoin: ref = the child labels, or {offset into spill} for more than two.
  struct Trace {
    std::uint32_t ref[2];
    Provenance::Kind kind;
    std::uint8_t num_children;
  };
  /// What a parent's join reads of a finished child's live label.
  struct JoinLabel {
    double cost;
    DelayVec delay;
    std::int32_t mc_weight;
    std::uint8_t branching;
  };
  /// A finished node its parent has not joined yet. Its live labels at
  /// vertex j are entries row[j] .. row[j + 1] of its segments, where row is
  /// its (V + 1)-entry slice of `rows`.
  struct Pending {
    std::uint32_t trace_base;
    std::uint32_t join_base;
  };

  /// Every finished label: per node, the live ones in vertex-then-insertion
  /// order, then the dead ones still reachable through augment provenance.
  std::vector<Trace> trace;
  std::vector<std::uint32_t> spill;  ///< join children, > 2 per label
  /// Stacks, one entry (or row, or segment) per pending node.
  std::vector<Pending> pending;
  std::vector<std::uint32_t> rows;
  std::vector<JoinLabel> joinable;

  /// Node under construction: its labels, and per vertex the live labels
  /// (sorted by cost when dominance is on (cost, delay) only).
  Buffer work;
  std::vector<std::vector<LiveRef>> live;
  std::vector<QueueItem> heap;
  std::vector<std::uint32_t> remap;  ///< work index -> trace index
  std::vector<Buffer> chunks;        ///< parallel join outputs
};

/// One entry of the root trade-off curve.
struct RootSolution {
  EmbedVertexId vertex;
  std::uint32_t label_index;  ///< index in the embedder's label trace
  double cost;
  DelayVec delay;
};

/// Optimal timing-driven fanin tree embedding by dynamic programming over an
/// arbitrary target graph (the paper's core algorithm, Fig. 6):
/// bottom-up over the tree; at each node, candidate solutions of the child
/// subtrees are joined at every vertex and propagated through the graph by a
/// generalized Dijkstra wavefront, keeping only non-dominated
/// (cost, delay...) signatures.
class FaninTreeEmbedder {
 public:
  /// Placement costs at or above this value mark a vertex as forbidden for
  /// gate creation (blocked slot / wrong resource type): the wavefront may
  /// route through it, but no join is made there.
  static constexpr double kForbiddenCost = 1e8;

  FaninTreeEmbedder(const FaninTree& tree, const EmbeddingGraph& graph,
                    PlacementCostFn placement_cost, EmbedOptions options = {},
                    EmbedScratch* scratch = nullptr);
  ~FaninTreeEmbedder();

  /// Runs the DP. Returns false if a fixed terminal lies outside the graph
  /// or no solution reaches the root.
  bool run();

  /// Non-dominated solutions at the root, sorted by increasing cost.
  const std::vector<RootSolution>& tradeoff() const { return tradeoff_; }

  /// Index into tradeoff(): cheapest solution whose primary (max) arrival is
  /// <= bound; -1 if none (Section II-C's "cheapest solution that is fast
  /// enough").
  int pick_cheapest_within(double delay_bound) const;
  /// Index of the lexicographically fastest solution (min delay, then cost).
  int pick_fastest() const;

  /// Recovers the vertex of every tree node (leaves at their fixed vertices,
  /// internal nodes and root where the chosen solution placed them).
  TreeEmbedding extract(int tradeoff_index) const;

  /// Diagnostics: labels inserted, and live labels the Pareto-list cap
  /// (EmbedOptions::max_labels) discarded.
  std::size_t labels_created() const { return labels_created_; }
  std::size_t labels_evicted() const { return labels_evicted_; }

 private:
  static constexpr int kMaxChildren = Netlist::kMaxLutInputs;

  struct PartialJoin {
    double cost = 0;
    DelayVec delay;
    int mc_weight = 0;
    int sum_branch_bits = 0;
    std::uint8_t num_children = 0;
    std::uint8_t dead = 0;
    std::uint32_t child_labels[kMaxChildren];
  };

  /// Per-worker join buffers, reused across the vertices of one chunk so the
  /// partial folds stop reallocating in the hot loop.
  struct JoinScratch {
    std::vector<PartialJoin> partials;
    std::vector<PartialJoin> next;
    std::vector<EmbedScratch::LiveRef> stair;
  };

  bool dominates(const Label& a, const Label& b) const;
  /// Inserts the label `make()` builds at vertex v unless a live label there
  /// dominates (cost, delay) — `make` runs only once the label is admitted.
  template <class Make>
  bool insert_label(EmbedScratch::Buffer& buf, EmbedVertexId v, double cost,
                    const DelayVec& delay, Make&& make);
  void cap_list(EmbedScratch::Buffer& buf, std::vector<EmbedScratch::LiveRef>& live);
  /// Expands the labels of the node under construction (the working buffer).
  void wavefront();
  void join_node(TreeNodeId i, bool root_mode);
  /// Joins node i at every vertex in [lo, hi), appending the new labels to
  /// `out` (indices and spill offsets local to it). Writes only out and
  /// live[lo..hi) — safe to run disjoint ranges concurrently.
  void join_vertex_range(TreeNodeId i, std::size_t lo, std::size_t hi,
                         JoinScratch& js, EmbedScratch::Buffer& out);
  /// Moves the node's live labels, and the dead ones their augment
  /// provenance reaches, from the working buffer into the finished stores,
  /// and pushes it as pending.
  void finish_node();
  double augment_delay_delta(int stem_len, double edge_delay_or_len) const;
  /// CSR row of pending node `k` (0 = bottom of the stack).
  const std::uint32_t* row(std::size_t k) const {
    return &s_.rows[k * (graph_.num_vertices() + 1)];
  }

  const FaninTree& tree_;
  const EmbeddingGraph& graph_;
  PlacementCostFn pcost_;
  EmbedOptions opt_;
  EmbedScratch* scratch_ = nullptr;
  EmbedScratch s_;
  /// Dominance on (cost, lex delay) only: live sets are staircases.
  bool staircase_ = true;

  std::vector<RootSolution> tradeoff_;
  std::size_t labels_created_ = 0;
  std::size_t labels_evicted_ = 0;
  bool ran_ = false;
};

}  // namespace repro
