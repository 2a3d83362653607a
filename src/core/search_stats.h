// Instrumentation counters collected by every engine. Each counter feeds one
// of the paper's tables/figures (see DESIGN.md §3).

#ifndef SKYSR_CORE_SEARCH_STATS_H_
#define SKYSR_CORE_SEARCH_STATS_H_

#include <cstdint>
#include <limits>
#include <string>

#include "graph/types.h"
#include "obs/trace_phase.h"

namespace skysr {

/// Counters for a single query execution.
struct SearchStats {
  // Overall.
  double elapsed_ms = 0;
  bool timed_out = false;
  int64_t skyline_size = 0;
  // 1 when the Plan stage proved no route exists (Definition 3.4: some
  // position matches no PoI, or the positions cannot take k distinct PoIs)
  // and the query returned the empty skyline without searching.
  int64_t precheck_infeasible = 0;

  // Graph-search effort (Table 8, Figure 5, Table 7).
  int64_t mdijkstra_runs = 0;        // expansion searches actually executed
  int64_t mdijkstra_cache_hits = 0;  // expansions served from cache
  int64_t cache_reruns = 0;          // cache entries rebuilt with larger radius
  int64_t settle_log_replays = 0;    // candidate lists built by log replay
  int64_t vertices_settled = 0;      // all searches of this query
  int64_t edges_relaxed = 0;

  // PoI-retrieval subsystem (src/retrieval/).
  int64_t retriever_bucket_runs = 0;  // expansions answered by bucket scans
  int64_t retriever_resume_runs = 0;  // expansions served by resumable slots
  int64_t resume_rebinds = 0;         // shared-workspace rebuilds for a
                                      // resumed slot's extension
  int64_t bucket_fwd_searches = 0;    // forward upward searches run
  int64_t bucket_fwd_reuses = 0;      // forward searches replayed from cache
  int64_t bucket_candidates = 0;      // candidates materialized by scans
  double weight_sum = 0;              // all searches (search-space proxy)
  double first_search_weight_sum = 0; // the first modified Dijkstra only

  // NNinit (§5.3.1, Table 7).
  double nninit_ms = 0;
  int64_t nninit_routes = 0;
  double nninit_weight_sum = 0;
  Weight nninit_perfect_length = std::numeric_limits<Weight>::infinity();
  Weight nninit_max_semantic_length =
      std::numeric_limits<Weight>::infinity();  // route w/ largest semantic

  // Lower bounds (§5.3.3, Figure 4).
  double lb_ms = 0;
  Weight ls_total = 0;  // sum of finite semantic-match leg bounds
  Weight lp_total = 0;  // sum of finite perfect-match leg bounds
  int64_t lb_pois_scanned = 0;  // PoIs the leg scans visited (all legs)

  // Bulk queue (§5.3.2).
  int64_t routes_enqueued = 0;
  int64_t cand_examined = 0;   // consume() invocations (replay + search)
  int64_t cand_rejected = 0;   // Definition 3.4(iii) duplicate-PoI rejects
  int64_t cand_pruned = 0;     // partial-route candidates pruned pre-enqueue
  // Attribution split of cand_pruned (DESIGN.md §9): threshold-comparison
  // prunes (Lemma 5.3/5.8 length tests) vs memoized prune-floor
  // short-circuits. Invariant: threshold + floor == cand_pruned.
  int64_t cand_pruned_threshold = 0;
  int64_t cand_pruned_floor = 0;
  int64_t cand_simd_skipped = 0;  // replay candidates skipped by the
                                  // hot-floor block scan, never consume()d
  int64_t qb_dominance_pruned = 0;  // routes dropped by the Q_b dominance
                                    // store (enqueue- and dequeue-time)
  int64_t routes_dequeued = 0;
  int64_t routes_pruned = 0;  // pruned at dequeue by the threshold
  int64_t peak_queue_size = 0;
  int64_t route_nodes = 0;  // arena nodes allocated

  // Logical memory model (Table 6 companion to process RSS).
  int64_t logical_peak_bytes = 0;

  // Per-phase wall-time aggregates from the tracing subsystem (src/obs/).
  // All-zero — and ignored by every consumer — unless the engine ran with
  // an enabled QueryTrace attached; timing, never part of the deterministic
  // work-counter contract.
  PhaseAggregates phases;

  /// Multi-line human-readable dump (phase aggregates appended only when
  /// tracing populated them).
  std::string ToString() const;
};

}  // namespace skysr

#endif  // SKYSR_CORE_SEARCH_STATS_H_
