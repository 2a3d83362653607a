// Reusable epoch-stamped scratch space for Dijkstra runs.
//
// A query executes many graph searches; allocating and clearing O(|V|)
// arrays for each would dominate the runtime. The workspace keeps per-vertex
// state permanently and invalidates it in O(1) by bumping an epoch counter
// (the classic timestamp trick).
//
// Layout: one struct per vertex rather than parallel arrays — Dijkstra's
// accesses are random per vertex but always touch stamp+dist+parent (+the
// settled mark) together, so a single 24-byte slot costs one cache line
// where four parallel arrays cost four.

#ifndef SKYSR_GRAPH_DIJKSTRA_WORKSPACE_H_
#define SKYSR_GRAPH_DIJKSTRA_WORKSPACE_H_

#include <cstdint>
#include <vector>

#include "graph/types.h"
#include "util/dary_heap.h"
#include "util/logging.h"

namespace skysr {

/// Heap entry of the generic Dijkstra runner. Distances are non-negative,
/// so their IEEE-754 bit patterns order exactly like the doubles — the sift
/// loops compare integers (no FP-compare stalls) with identical ordering.
struct DijkstraHeapItem {
  uint64_t dist_bits;
  VertexId vertex;
  VertexId parent;
  bool operator<(const DijkstraHeapItem& o) const {
    if (dist_bits != o.dist_bits) return dist_bits < o.dist_bits;
    return vertex < o.vertex;
  }
};

/// Scratch state shared by successive Dijkstra executions on one graph.
/// Not thread-safe; use one workspace per thread.
class DijkstraWorkspace {
 public:
  /// Prepares for a new search over a graph with `n` vertices. O(1) unless
  /// the graph grew (or the 32-bit epoch wrapped, which forces a full clear).
  void Prepare(int64_t n) {
    const auto un = static_cast<size_t>(n);
    if (slots_.size() < un) {
      slots_.resize(un);  // zero stamps: older than any epoch
    }
    if (++epoch_ == 0) {
      for (Slot& s : slots_) {
        s.stamp = 0;
        s.settled_stamp = 0;
      }
      epoch_ = 1;
    }
  }

  bool HasDist(VertexId v) const {
    return slots_[static_cast<size_t>(v)].stamp == epoch_;
  }

  /// Tentative (or final, once settled) distance; +inf when untouched.
  Weight Dist(VertexId v) const {
    const Slot& s = slots_[static_cast<size_t>(v)];
    return s.stamp == epoch_ ? s.dist : kInfWeight;
  }

  /// Predecessor on the current shortest path; kInvalidVertex for sources or
  /// untouched vertices.
  VertexId Parent(VertexId v) const {
    const Slot& s = slots_[static_cast<size_t>(v)];
    return s.stamp == epoch_ ? s.parent : kInvalidVertex;
  }

  void SetDist(VertexId v, Weight d, VertexId parent) {
    Slot& s = slots_[static_cast<size_t>(v)];
    s.stamp = epoch_;
    s.dist = d;
    s.parent = parent;
  }

  bool Settled(VertexId v) const {
    return slots_[static_cast<size_t>(v)].settled_stamp == epoch_;
  }
  void MarkSettled(VertexId v) {
    slots_[static_cast<size_t>(v)].settled_stamp = epoch_;
  }

  /// The runner's priority queue, owned here so its storage survives across
  /// the thousands of short searches a query executes. Searches on one
  /// workspace never nest (a visitor must not start another search on the
  /// same workspace), which the epoch scheme already requires.
  DaryHeap<DijkstraHeapItem>& heap() { return heap_; }

  int64_t MemoryBytes() const {
    return static_cast<int64_t>(slots_.capacity() * sizeof(Slot) +
                                heap_.capacity() * sizeof(DijkstraHeapItem));
  }

 private:
  struct Slot {
    uint32_t stamp = 0;
    uint32_t settled_stamp = 0;
    Weight dist = 0;
    VertexId parent = 0;
  };

  std::vector<Slot> slots_;
  DaryHeap<DijkstraHeapItem> heap_;
  uint32_t epoch_ = 0;
};

}  // namespace skysr

#endif  // SKYSR_GRAPH_DIJKSTRA_WORKSPACE_H_
