// A set of small integer ids (building or point ids) as one bitmap over the
// id range its members span.
//
// Compiled messages keep their member-building sets in this form
// (core/compiled_message, qfgeo::region_members): a membership test is a
// subtraction, one compare and one word load, where a hash set hashed,
// probed a bucket and chased a node. It is filled over the whole id
// universe and then trimmed to the words between its lowest and highest
// member, so a set costs an eighth of a byte per id in its members' range.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace citymesh::geo {

class IdBitmap {
 public:
  /// The empty set.
  IdBitmap() = default;

  /// The empty set over ids [0, universe): insert() accepts any of them
  /// until trim().
  explicit IdBitmap(std::uint32_t universe) : words_((std::size_t{universe} + 63) / 64, 0) {}

  /// Add `id`. Precondition: id lies inside the range (below the universe
  /// before trim(), inside the trimmed words after it).
  void insert(std::uint32_t id) {
    const std::uint32_t i = id - first_;
    words_[i >> 6] |= std::uint64_t{1} << (i & 63);
  }

  /// Any id, members' range or not.
  bool contains(std::uint32_t id) const {
    const std::uint32_t i = id - first_;  // wraps past the range for id < first_
    return (i >> 6) < words_.size() && ((words_[i >> 6] >> (i & 63)) & 1) != 0;
  }

  /// Keep only the words from the lowest member's to the highest's,
  /// reallocated to fit (none when the set is empty).
  void trim() {
    std::size_t lo = 0;
    while (lo < words_.size() && words_[lo] == 0) ++lo;
    std::size_t hi = words_.size();
    while (hi > lo && words_[hi - 1] == 0) --hi;
    words_ = std::vector<std::uint64_t>(words_.begin() + static_cast<std::ptrdiff_t>(lo),
                                        words_.begin() + static_cast<std::ptrdiff_t>(hi));
    first_ = hi > lo ? first_ + static_cast<std::uint32_t>(lo * 64) : 0;
  }

  bool empty() const {
    for (const std::uint64_t w : words_) {
      if (w != 0) return false;
    }
    return true;
  }

  /// Member count.
  std::size_t size() const {
    std::size_t n = 0;
    for (const std::uint64_t w : words_) n += static_cast<std::size_t>(std::popcount(w));
    return n;
  }

  /// Heap bytes held (the words).
  std::size_t heap_bytes() const { return words_.capacity() * sizeof(std::uint64_t); }

 private:
  std::uint32_t first_ = 0;  ///< the id of bit 0 of words_[0]; a multiple of 64
  std::vector<std::uint64_t> words_;
};

}  // namespace citymesh::geo
