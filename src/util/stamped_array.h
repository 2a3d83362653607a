// Epoch-stamped per-vertex scratch array: O(1) reset between searches.

#ifndef SKYSR_UTIL_STAMPED_ARRAY_H_
#define SKYSR_UTIL_STAMPED_ARRAY_H_

#include <algorithm>
#include <cstdint>
#include <vector>

namespace skysr {

/// A vector<T> whose entries all revert to a default value in O(1) via epoch
/// stamping. Used for per-search vertex annotations (e.g. the best on-path
/// similarity of Lemma 5.5).
template <typename T>
class StampedArray {
 public:
  /// Prepares for a new round over `n` slots, logically resetting all values
  /// to `def`.
  void Prepare(int64_t n, T def = T()) {
    default_ = def;
    const auto un = static_cast<size_t>(n);
    if (stamp_.size() < un) {
      stamp_.resize(un, 0);
      values_.resize(un);
    }
    if (++epoch_ == 0) {
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
  }

  const T& Get(int64_t i) const {
    const auto ui = static_cast<size_t>(i);
    return stamp_[ui] == epoch_ ? values_[ui] : default_;
  }

  void Set(int64_t i, T value) {
    const auto ui = static_cast<size_t>(i);
    stamp_[ui] = epoch_;
    values_[ui] = std::move(value);
  }

  int64_t MemoryBytes() const {
    return static_cast<int64_t>(stamp_.capacity() * sizeof(uint32_t) +
                                values_.capacity() * sizeof(T));
  }

 private:
  std::vector<uint32_t> stamp_;
  std::vector<T> values_;
  T default_{};
  uint32_t epoch_ = 0;
};

}  // namespace skysr

#endif  // SKYSR_UTIL_STAMPED_ARRAY_H_
