// A set of small integers that also answers "how many members lie below
// i" in constant time. One `{64-bit word, prefix rank}` pair covers 64
// positions: membership is one bit test, and a member's rank (its index
// in ascending member order) is the word's prefix rank plus one popcount.
// The hitlist's /24 address index and a census matrix's overlay of
// changed rows both key a dense side array by that rank.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace anycast::census {

class RankBitmap {
 public:
  RankBitmap() = default;
  /// An empty set over positions [0, positions).
  explicit RankBitmap(std::size_t positions)
      : words_(positions / 64 + 1) {}

  /// Adds `i` (below the constructed size). Ranks are stale until
  /// `finish()`.
  void set(std::size_t i) {
    words_[i >> 6].bits |= std::uint64_t{1} << (i & 63);
  }
  /// Fills every word's prefix rank; returns the member count. Call once
  /// after the last `set()`.
  std::uint32_t finish() {
    std::uint32_t rank = 0;
    for (Word& word : words_) {
      word.rank = rank;
      rank += static_cast<std::uint32_t>(std::popcount(word.bits));
    }
    return rank;
  }

  /// The rank of `i` when it is a member, else nullopt (also for `i`
  /// past the constructed size): one word load, one bit test, one
  /// popcount.
  [[nodiscard]] std::optional<std::uint32_t> rank_if_set(std::size_t i) const {
    const std::size_t w = i >> 6;
    if (w >= words_.size()) return std::nullopt;
    const Word& word = words_[w];
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    if ((word.bits & bit) == 0) return std::nullopt;
    return word.rank +
           static_cast<std::uint32_t>(std::popcount(word.bits & (bit - 1)));
  }

  /// Calls `f(i)` for every member, ascending.
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      for (std::uint64_t bits = words_[w].bits; bits != 0; bits &= bits - 1) {
        f(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
      }
    }
  }

 private:
  struct Word {
    std::uint64_t bits = 0;  // bit b: position 64 * word + b is a member
    std::uint32_t rank = 0;  // members in the words before
  };
  std::vector<Word> words_;
};

}  // namespace anycast::census
