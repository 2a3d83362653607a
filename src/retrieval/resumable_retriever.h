// Resumable expansion state: compact suspend/resume Dijkstra per hot
// source, the incremental replacement for settle-log rebuilds.
//
// In deferred-Lemma-5.5 mode the expansion traversal from a source depends
// only on the source (never on the position's matcher), so one suspended
// search serves every position. Where the settle log (core/settle_log.h)
// must REBUILD from scratch whenever a later budget exceeds an entry's
// covered radius — re-settling the whole prefix — a resumable slot keeps the
// search's live frontier (heap), so a larger budget just continues popping.
// The suspension point is read off the heap top BEFORE settling, so the
// covered radius is the next settle's distance (the tightest sound bound).
//
// A suspended search costs O(settled), not O(|V|). A slot keeps its frontier
// heap, the ids of the vertices it settled (freed once the search is
// exhausted) and a replay log of its PoI settles only: a non-PoI settle never
// emits a candidate. A replay stops at the first PoI record at or beyond the
// budget and reports that record's distance as its coverage, which is sound
// because every closer vertex was settled before it. The per-vertex labels
// live in ONE workspace owned by the pool. Before a slot extends its search
// the pool rebuilds that workspace if another slot used it last: it marks
// the slot's settled ids and sets each frontier vertex's label to the
// minimum over its heap items. An unsettled vertex keeps every item it was
// pushed with (only settled vertices' items are ever popped) and pushes
// happen only on strict improvement, so that minimum is exactly the label
// the search held at suspension: a rebuild never changes the settle
// sequence.
//
// Bit-exactness: the settle order (distance, vertex-id tie-break) and the
// relaxation arithmetic are identical to graph/dijkstra_runner.h. The one
// deliberate difference is that resumable searches never refuse relaxations
// at the budget (a refused push could not be recovered on resume); this
// costs heap traffic but cannot change emissions — a vertex whose tentative
// distance ever reached the budget can only settle at or beyond every later
// budget, where both flavors have already stopped.
//
// graph/resumable_dijkstra.h (hash-map state, built for the PNE baseline's
// thousands of cheap instances) computes the same sequence;
// tests/retrieval_test.cc pins the two implementations against each other.

#ifndef SKYSR_RETRIEVAL_RESUMABLE_RETRIEVER_H_
#define SKYSR_RETRIEVAL_RESUMABLE_RETRIEVER_H_

#include <bit>
#include <memory>
#include <vector>

#include "core/modified_dijkstra.h"
#include "graph/dijkstra_workspace.h"
#include "graph/graph.h"
#include "util/stamped_array.h"

namespace skysr {

/// One suspended expansion search: its frontier, what it settled, and the
/// PoI settles a replay needs. The distance labels are not kept here; the
/// pool's shared workspace is rebuilt from this state on demand.
struct ResumableSlot {
  VertexId source = kInvalidVertex;
  DaryHeap<DijkstraHeapItem> heap;    // live frontier at suspension
  std::vector<VertexId> settled;      // settle order; freed once exhausted
  std::vector<SettleRecord> poi_log;  // PoI settles so far, in settle order
  Weight covered = 0;                 // next settle is at >= this
  bool exhausted = false;
  uint8_t ref = 0;  // touched by the current query (engine-lifetime mode)

  int64_t MemoryBytes() const {
    return static_cast<int64_t>(
        sizeof(ResumableSlot) + heap.capacity() * sizeof(DijkstraHeapItem) +
        settled.capacity() * sizeof(VertexId) +
        poi_log.capacity() * sizeof(SettleRecord));
  }
};

/// Engine-owned pool of resumable slots plus the one workspace they share.
/// Two lifetimes:
///
///   per-query (default)  Reset() before each query forgets every suspended
///                        search, keeping allocations. Unbounded: every
///                        expansion the plan sends to this backend gets a
///                        slot, which holds only what its search settled.
///   engine-lifetime      PrepareServing() keeps suspended searches across
///                        queries (src/cache/shared_query_cache.h owns one).
///                        Sound because a slot's state is a pure function of
///                        (graph, source) and replays budget-filter the log,
///                        so a longer-than-budget log is harmless. The slot
///                        bound caps what a worker retains between queries;
///                        at the bound the CLOCK hand evicts a slot the
///                        current query has not touched, and when every slot
///                        is touched FindOrCreate returns nullptr (the caller
///                        runs a plain fresh search).
class ResumablePool {
 public:
  /// Per-query reset: forgets every suspended search, keeps allocations.
  void Reset() {
    Clear();
    persistent_ = false;
  }

  /// Engine-lifetime mode: call once per query INSTEAD of Reset().
  /// Suspended searches survive; only (re)applies the slot bound. Switching
  /// modes or shrinking the bound drops state.
  void PrepareServing(int max_slots) {
    if (!persistent_ || max_slots < max_slots_) Clear();
    max_slots_ = max_slots;
    persistent_ = true;
  }

  /// Drops every suspended search (generation invalidation), keeping mode,
  /// bound and allocations.
  void Clear() {
    live_ = 0;
    hand_ = 0;
    touched_ = 0;
    owner_ = nullptr;
    index_stale_ = true;
  }

  /// The slot suspended for `source`, creating (or recycling) one. Only an
  /// engine-lifetime pool at its bound can refuse: it evicts the CLOCK
  /// victim among the slots this query has not touched, or returns nullptr
  /// when there is none.
  ResumableSlot* FindOrCreate(const Graph& g, VertexId source) {
    if (index_stale_) {
      slot_of_.Prepare(g.num_vertices(), -1);
      index_stale_ = false;
    }
    const int32_t found = slot_of_.Get(source);
    if (found >= 0) {
      ResumableSlot* s = slots_[static_cast<size_t>(found)].get();
      if (s->ref == 0) {
        s->ref = 1;
        ++touched_;
        ++reuses_;
      }
      return s;
    }
    int32_t idx;
    if (!persistent_ || live_ < max_slots_) {
      if (static_cast<size_t>(live_) == slots_.size()) {
        slots_.push_back(std::make_unique<ResumableSlot>());
      }
      idx = live_++;
    } else {
      if (touched_ >= live_) return nullptr;
      // Skip, never clear, the touched slots: an expansion of this query
      // may still resume them.
      while (slots_[static_cast<size_t>(hand_)]->ref != 0) {
        hand_ = (hand_ + 1) % live_;
      }
      idx = hand_;
      hand_ = (hand_ + 1) % live_;
      slot_of_.Set(slots_[static_cast<size_t>(idx)]->source, -1);
      ++evictions_;
    }
    ResumableSlot* slot = slots_[static_cast<size_t>(idx)].get();
    if (owner_ == slot) owner_ = nullptr;
    slot->source = source;
    slot->heap.clear();
    slot->settled.clear();
    slot->poi_log.clear();
    slot->covered = 0;
    slot->exhausted = false;
    slot->ref = 1;
    ++touched_;
    slot->heap.push(
        DijkstraHeapItem{std::bit_cast<uint64_t>(Weight{0}), source,
                         kInvalidVertex});
    slot_of_.Set(source, idx);
    return slot;
  }

  /// The shared workspace holding `slot`'s labels. Rebuilt from the slot's
  /// settled ids and frontier when another slot used it last (counted as a
  /// rebind once the slot has settled anything); the caller then extends
  /// the search in it.
  DijkstraWorkspace& Bind(const Graph& g, const ResumableSlot& slot) {
    if (owner_ == &slot) return ws_;
    ws_.Prepare(g.num_vertices());
    if (!slot.settled.empty()) ++rebinds_;
    for (const VertexId v : slot.settled) ws_.MarkSettled(v);
    for (const DijkstraHeapItem& item : slot.heap.items()) {
      const Weight d = std::bit_cast<Weight>(item.dist_bits);
      if (!ws_.Settled(item.vertex) && d < ws_.Dist(item.vertex)) {
        ws_.SetDist(item.vertex, d, item.parent);
      }
    }
    owner_ = &slot;
    return ws_;
  }

  /// Clears every live slot's touched bit so the next query's touches count
  /// as fresh reuses (called once per query in engine-lifetime mode).
  void BeginQuery() {
    for (int i = 0; i < live_; ++i) slots_[static_cast<size_t>(i)]->ref = 0;
    touched_ = 0;
  }

  int live() const { return live_; }
  bool persistent() const { return persistent_; }
  int64_t reuses() const { return reuses_; }
  int64_t evictions() const { return evictions_; }
  int64_t rebinds() const { return rebinds_; }

  /// Every byte the pool holds: each slot (live or kept for reuse), the
  /// slot index and the shared workspace.
  int64_t MemoryBytes() const {
    int64_t bytes = ws_.MemoryBytes() + slot_of_.MemoryBytes() +
                    static_cast<int64_t>(slots_.capacity() *
                                         sizeof(std::unique_ptr<ResumableSlot>));
    for (const auto& s : slots_) bytes += s->MemoryBytes();
    return bytes;
  }

 private:
  std::vector<std::unique_ptr<ResumableSlot>> slots_;  // stable addresses
  StampedArray<int32_t> slot_of_;  // source vertex -> live slot, -1 if none
  bool index_stale_ = true;        // slot_of_ needs a Prepare
  DijkstraWorkspace ws_;           // labels of owner_'s search
  const ResumableSlot* owner_ = nullptr;
  int live_ = 0;
  int touched_ = 0;  // live slots with ref set
  int hand_ = 0;     // CLOCK hand (engine-lifetime mode)
  int max_slots_ = 0;
  bool persistent_ = false;
  int64_t reuses_ = 0;     // cross/within-query slot hits (persistent mode)
  int64_t evictions_ = 0;  // CLOCK displacements (persistent mode)
  int64_t rebinds_ = 0;    // workspace rebuilds for a resumed slot
};

/// Serves one expansion from a resumable slot: replays the logged PoI
/// settles through `matcher` (budget re-checked between records, exactly
/// like a settle-log replay), then — if the budget is not yet reached —
/// binds the pool's workspace to the slot and resumes the suspended
/// Dijkstra, settling new vertices until the next settle would reach the
/// budget. Emissions are bit-identical to a fresh matcher-filtered search
/// under the same budget trajectory. Emitted candidates additionally append
/// to `out` when non-null (cache fill).
///
/// Both callbacks are forwarding references invoked directly, monomorphized
/// into the loops like RunExpansionInto.
template <typename BudgetFn, typename OnCandidate>
ExpansionOutcome RetrieveResumable(const Graph& g,
                                   const PositionMatcher& matcher,
                                   ResumablePool& pool, ResumableSlot& slot,
                                   BudgetFn&& budget_fn,
                                   OnCandidate&& on_candidate,
                                   CandidateSoA* out,
                                   DijkstraRunStats* stats_out) {
  const auto emit = [&](VertexId v, Weight d, double sim) {
    const ExpansionCandidate cand{v, d, sim};
    if (out != nullptr) out->push_back(cand);
    on_candidate(cand);
  };

  // Replay the logged PoI settles (the PoIs of a true Dijkstra settle
  // prefix). Budgets are non-increasing within an expansion, so the first
  // record at or beyond the budget ends the replay — Lemma 5.3, as in the
  // fresh search.
  for (const SettleRecord& rec : slot.poi_log) {
    if (rec.dist >= budget_fn()) {
      return ExpansionOutcome{rec.dist, false};
    }
    const double sim = matcher.SimOfVertex(rec.vertex);
    if (sim > 0) emit(rec.vertex, rec.dist, sim);
  }
  // The suspension point already answers this budget: no rebind.
  if (slot.exhausted || slot.covered >= budget_fn()) {
    return ExpansionOutcome{slot.covered, slot.exhausted};
  }

  // Resume the suspended search.
  DijkstraWorkspace& ws = pool.Bind(g, slot);
  DijkstraRunStats stats;
  DaryHeap<DijkstraHeapItem>& heap = slot.heap;
  while (true) {
    while (!heap.empty() && ws.Settled(heap.top().vertex)) {
      heap.pop();  // stale (lazy deletion)
    }
    if (heap.empty()) {
      // Nothing left to extend: only the PoI log is ever read again.
      slot.exhausted = true;
      slot.covered = kInfWeight;
      std::vector<VertexId>().swap(slot.settled);
      heap.release();
      break;
    }
    const Weight next = std::bit_cast<Weight>(heap.top().dist_bits);
    if (next >= budget_fn()) {
      slot.covered = next;  // suspend BEFORE settling the breaking vertex
      break;
    }
    const DijkstraHeapItem item = heap.pop();
    ws.MarkSettled(item.vertex);
    slot.settled.push_back(item.vertex);
    ++stats.settled;
    if (next > stats.max_settled_dist) stats.max_settled_dist = next;
    const PoiId poi = g.PoiAtVertex(item.vertex);
    if (poi != kInvalidPoi) {
      slot.poi_log.push_back(SettleRecord{item.vertex, next});
      const double sim = matcher.SimOfPoi(poi);
      if (sim > 0) emit(item.vertex, next, sim);
    }
    for (const Neighbor& nb : g.OutEdges(item.vertex)) {
      if (ws.Settled(nb.to)) continue;
      const Weight nd = next + nb.weight;
      if (nd < ws.Dist(nb.to)) {
        ws.SetDist(nb.to, nd, item.vertex);
        heap.push(DijkstraHeapItem{std::bit_cast<uint64_t>(nd), nb.to,
                                   item.vertex});
        ++stats.relaxed;
        stats.weight_sum += nb.weight;
      }
    }
  }
  if (stats_out != nullptr) *stats_out += stats;
  return ExpansionOutcome{slot.covered, slot.exhausted};
}

}  // namespace skysr

#endif  // SKYSR_RETRIEVAL_RESUMABLE_RETRIEVER_H_
