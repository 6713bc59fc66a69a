#pragma once

/// \file seq_set.h
/// A dense set of sequence numbers: one bit per seq, plus the element
/// count and the largest member. Per-round seqs run densely from 1, so
/// the bitmap costs O(highest seq) bits (a 220-packet file is four
/// words) and every operation on the per-frame path is O(1) with no
/// node allocation, unlike the std::set it replaces.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/assert.h"
#include "util/types.h"

namespace vanet::util {

/// Set of non-negative SeqNo values backed by a growable bitmap.
class SeqSet {
 public:
  /// Adds `seq`; returns false when it was already present.
  bool insert(SeqNo seq) {
    VANET_ASSERT(seq >= 0, "sequence numbers are non-negative");
    const auto word = static_cast<std::size_t>(seq) / 64;
    if (word >= words_.size()) words_.resize(word + 1, 0);
    const std::uint64_t bit = std::uint64_t{1} << (seq % 64);
    if ((words_[word] & bit) != 0) return false;
    words_[word] |= bit;
    ++size_;
    max_ = std::max(max_, seq);
    return true;
  }

  bool contains(SeqNo seq) const noexcept {
    if (seq < 0) return false;
    const auto word = static_cast<std::size_t>(seq) / 64;
    return word < words_.size() &&
           (words_[word] >> (seq % 64) & std::uint64_t{1}) != 0;
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Largest member; 0 when empty.
  SeqNo max() const noexcept { return max_; }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t size_ = 0;
  SeqNo max_ = 0;
};

}  // namespace vanet::util
