// Incremental ("resumable") Dijkstra with memory proportional to the
// explored region. Powers incremental nearest-neighbor queries: the PNE
// baseline repeatedly asks "give me the (j+1)-th nearest PoI of category c
// from vertex v", which maps to resuming a suspended search.
//
// BASELINE/TEST-ONLY. The hash-map state keeps thousands of concurrent
// instances affordable (one per PNE route end), at ~an order of magnitude
// per-settle overhead over flat arrays — which is why the serving path
// never uses this class: BssrEngine's resumable expansions run on the
// compact slots of retrieval/resumable_retriever.h, which share one flat
// workspace per pool, instead. The two
// implementations settle identical sequences;
// tests/retrieval_test.cc:MatchesHashMapResumableDijkstra pins the
// equivalence.

#ifndef SKYSR_GRAPH_RESUMABLE_DIJKSTRA_H_
#define SKYSR_GRAPH_RESUMABLE_DIJKSTRA_H_

#include <optional>
#include <unordered_map>

#include "graph/graph.h"
#include "graph/types.h"
#include "util/dary_heap.h"

namespace skysr {

/// A suspended single-source Dijkstra; each Next() call settles and returns
/// one more vertex in non-decreasing distance order. Uses hash maps instead
/// of O(|V|) arrays so that thousands of instances (one per PNE route end)
/// stay affordable.
class ResumableDijkstra {
 public:
  ResumableDijkstra(const Graph& g, VertexId source);

  /// One settled vertex, in global non-decreasing distance order.
  struct Settle {
    VertexId vertex;
    Weight dist;
  };

  /// Settles and returns the next vertex, or nullopt when the reachable
  /// component is exhausted.
  std::optional<Settle> Next();

  /// Number of vertices settled so far.
  int64_t num_settled() const { return static_cast<int64_t>(settled_count_); }

  /// Approximate heap usage in bytes (for the memory benchmarks).
  int64_t MemoryBytes() const;

 private:
  struct HeapItem {
    Weight dist;
    VertexId vertex;
    bool operator<(const HeapItem& o) const {
      if (dist != o.dist) return dist < o.dist;
      return vertex < o.vertex;
    }
  };

  const Graph& g_;
  DaryHeap<HeapItem> heap_;
  std::unordered_map<VertexId, Weight> dist_;
  std::unordered_map<VertexId, char> settled_;
  size_t settled_count_ = 0;
};

}  // namespace skysr

#endif  // SKYSR_GRAPH_RESUMABLE_DIJKSTRA_H_
