// PoI-retrieval subsystem: pluggable backends answering the engine's
// expansion searches ("every PoI matching this position within the budget
// radius, in (dist, vertex) order, with the budget re-evaluated between
// candidates").
//
// Three backends, all bit-identical in results (the differential harness
// sweeps retriever x oracle x all 16 QueryOptions ablations):
//
//   SettleRetriever     the classic settle-loop expansion (settle_retriever)
//                       — exact fallback, the only backend valid under
//                       Lemma 5.5 traversal cuts
//   BucketRetriever     precomputed per-category CH target buckets
//                       (category_buckets + bucket_retriever) — answers
//                       deferred-mode expansions without settling road
//                       vertices; wins grow with graph size
//   ResumableRetriever  compact suspend/resume settle state per hot source
//                       (resumable_retriever) — turns cache/settle-log
//                       rebuilds into incremental extensions
//
// BssrEngine calls the backends' monomorphized primitives directly (the
// budget functor and candidate consumer inline into each loop; see
// bssr_engine.cc). The PoiRetriever virtual interface below is the
// type-erased seam for unit tests, tools and experiments, built on the same
// primitives. RetrieverCostModel holds the deterministic per-expansion
// choice "auto" makes between them.

#ifndef SKYSR_RETRIEVAL_POI_RETRIEVER_H_
#define SKYSR_RETRIEVAL_POI_RETRIEVER_H_

#include <functional>
#include <memory>

#include "core/modified_dijkstra.h"
#include "core/query.h"
#include "retrieval/bucket_retriever.h"
#include "retrieval/category_buckets.h"
#include "retrieval/resumable_retriever.h"
#include "retrieval/retriever_kind.h"
#include "retrieval/settle_retriever.h"

namespace skysr {

/// Deterministic cost model behind RetrieverKind::kAuto. Inputs are pure
/// functions of the query plan (never of timing), so work counters stay
/// reproducible per configuration.
struct RetrieverCostModel {
  /// A bucket scan costs one (amortized) forward upward search plus a
  /// sequential pass over the bucket entries stored at the settled
  /// vertices; a settle-loop expansion costs the budget region, which can
  /// approach the whole graph and repeats on every rebuild. The scan-cost
  /// estimate is `fwd_settles * (1 + 2 * settle_density)` — the oracle's
  /// self-measured upward search space times the expected entries per
  /// vertex — compared against the graph size with a break-even multiplier:
  /// buckets engage where upward spaces are small relative to the graph
  /// (road-like CH hierarchies, growing with |V|) and stay off where the
  /// hierarchy degenerates (expander-like graphs whose upward spaces and
  /// hub buckets balloon). The SKYSR_BUCKET_HANDICAP env var overrides the
  /// multiplier for tuning experiments (work counters remain deterministic
  /// per setting).
  static constexpr int64_t kScanHandicap = 2;

  static int64_t ScanHandicap();

  static bool PreferBucket(int64_t fwd_settles, double settle_density,
                           int64_t num_vertices) {
    const double scan_cost =
        static_cast<double>(fwd_settles) * (1.0 + 2.0 * settle_density);
    return scan_cost * static_cast<double>(ScanHandicap()) <=
           static_cast<double>(num_vertices);
  }

  /// Resumable slots an engine-lifetime pool keeps across queries (the
  /// per-query pool is unbounded). A slot holds O(settled) state — its
  /// frontier, its settled ids and its PoI settles — and a hot source's
  /// search tends to cover much of the graph over a serving session, so
  /// the count still follows a fixed slot-vertex budget, clamped: it caps
  /// what a worker retains between queries.
  static int ResumableSlots(int64_t num_vertices) {
    constexpr int64_t kSlotVertexBudget = int64_t{1} << 21;
    const int64_t slots = kSlotVertexBudget / (num_vertices > 0
                                                   ? num_vertices
                                                   : 1);
    if (slots < 4) return 4;
    if (slots > 128) return 128;
    return static_cast<int>(slots);
  }
};

/// Type-erased retrieval interface (deferred-Lemma-5.5 contract: the full
/// matching stream, unfiltered by on-path blockers). One std::function call
/// per candidate/settle — tests and tools only; hot paths use the
/// monomorphized primitives.
class PoiRetriever {
 public:
  virtual ~PoiRetriever() = default;
  virtual RetrieverKind kind() const = 0;

  /// Streams every PoI matching `matcher` from `source` in non-decreasing
  /// (dist, vertex) order, re-evaluating `budget_fn` between emissions
  /// (Lemma 5.3); returns the coverage achieved.
  virtual ExpansionOutcome Retrieve(
      const PositionMatcher& matcher, VertexId source,
      const std::function<Weight()>& budget_fn,
      const std::function<void(const ExpansionCandidate&)>& on_candidate) = 0;
};

/// Settle-loop backend over `g` (deferred mode: apply_lemma55 off).
std::unique_ptr<PoiRetriever> MakePoiRetriever(const Graph& g);
/// Bucket backend over a prebuilt index (scan categories derived from the
/// matcher per call).
std::unique_ptr<PoiRetriever> MakePoiRetriever(
    const CategoryBucketIndex& index);
/// Resumable backend over `g` (suspends one search per distinct source).
std::unique_ptr<PoiRetriever> MakeResumablePoiRetriever(const Graph& g);

}  // namespace skysr

#endif  // SKYSR_RETRIEVAL_POI_RETRIEVER_H_
