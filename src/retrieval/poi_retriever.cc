#include "retrieval/poi_retriever.h"

#include <cstdlib>
#include <utility>
#include <vector>

namespace skysr {

int64_t RetrieverCostModel::ScanHandicap() {
  static const int64_t handicap = [] {
    const char* v = std::getenv("SKYSR_BUCKET_HANDICAP");
    if (v != nullptr) {
      const long long parsed = std::atoll(v);
      if (parsed > 0) return static_cast<int64_t>(parsed);
    }
    return kScanHandicap;
  }();
  return handicap;
}

namespace {

class SettleBackend final : public PoiRetriever {
 public:
  explicit SettleBackend(const Graph& g) : g_(&g) {}
  RetrieverKind kind() const override { return RetrieverKind::kSettle; }

  ExpansionOutcome Retrieve(
      const PositionMatcher& matcher, VertexId source,
      const std::function<Weight()>& budget_fn,
      const std::function<void(const ExpansionCandidate&)>& on_candidate)
      override {
    return SettleRetriever::RetrieveInto(*g_, matcher, source, budget_fn,
                                         /*apply_lemma55=*/false, scratch_,
                                         nullptr, on_candidate, nullptr);
  }

 private:
  const Graph* g_;
  ExpansionScratch scratch_;
};

class BucketBackend final : public PoiRetriever {
 public:
  explicit BucketBackend(const CategoryBucketIndex& index)
      : retriever_(index) {}
  RetrieverKind kind() const override { return RetrieverKind::kBucket; }

  ExpansionOutcome Retrieve(
      const PositionMatcher& matcher, VertexId source,
      const std::function<Weight()>& budget_fn,
      const std::function<void(const ExpansionCandidate&)>& on_candidate)
      override {
    const ExpansionOutcome outcome = retriever_.Collect(
        source, matcher, oracle_ws_, state_, budget_fn(), nullptr);
    for (const ExpansionCandidate& cand : state_.cands) {
      if (cand.dist >= budget_fn()) {
        return ExpansionOutcome{cand.dist, false};
      }
      on_candidate(cand);
    }
    return outcome;
  }

 private:
  BucketRetriever retriever_;
  OracleWorkspace oracle_ws_;
  BucketScanState state_;
};

class ResumableBackend final : public PoiRetriever {
 public:
  explicit ResumableBackend(const Graph& g) : g_(&g) {}
  RetrieverKind kind() const override { return RetrieverKind::kResume; }

  ExpansionOutcome Retrieve(
      const PositionMatcher& matcher, VertexId source,
      const std::function<Weight()>& budget_fn,
      const std::function<void(const ExpansionCandidate&)>& on_candidate)
      override {
    // A pool outside serving mode never refuses a slot: this one keeps one
    // suspended search per distinct source for the backend's lifetime.
    ResumableSlot* slot = pool_.FindOrCreate(*g_, source);
    return RetrieveResumable(*g_, matcher, pool_, *slot, budget_fn,
                             on_candidate, nullptr, nullptr);
  }

 private:
  const Graph* g_;
  ResumablePool pool_;
};

}  // namespace

std::unique_ptr<PoiRetriever> MakePoiRetriever(const Graph& g) {
  return std::make_unique<SettleBackend>(g);
}

std::unique_ptr<PoiRetriever> MakePoiRetriever(
    const CategoryBucketIndex& index) {
  return std::make_unique<BucketBackend>(index);
}

std::unique_ptr<PoiRetriever> MakeResumablePoiRetriever(const Graph& g) {
  return std::make_unique<ResumableBackend>(g);
}

}  // namespace skysr
