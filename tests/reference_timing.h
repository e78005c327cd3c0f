#pragma once

// Map-based reference implementations of the epsilon-SPT extraction and the
// monotone lower bound: the pre-arena algorithms (unordered_map working
// state, allocating per call), kept only as differential-testing oracles for
// the arena versions in src/timing. Linked into the tests that compare
// against them; nothing in the library calls these.

#include <cstdint>
#include <vector>

#include "timing/timing_graph.h"

namespace repro {

/// An epsilon-SPT in plain parallel arrays, one slot per member: `nodes` is
/// root-first in reverse-topological order, and `parent` / `parent_pin` /
/// `dist` hold the member's toward-root successor (invalid for the root),
/// the successor's input pin (-1 for the root) and its tree-path delay to
/// the root.
struct ReferenceSpt {
  TimingNodeId root;
  std::vector<TimingNodeId> nodes;
  std::vector<TimingNodeId> parent;
  std::vector<std::int32_t> parent_pin;
  std::vector<double> dist;
};

ReferenceSpt extract_eps_spt_reference(const TimingGraph& tg, TimingNodeId root,
                                       double eps);

double monotone_lower_bound_reference(const TimingGraph& tg);
double monotone_lower_bound_for_sink_reference(const TimingGraph& tg,
                                               TimingNodeId sink);

}  // namespace repro
