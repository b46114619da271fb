#ifndef TLP_GRID_OCCUPANCY_BITSET_H_
#define TLP_GRID_OCCUPANCY_BITSET_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "grid/grid_layout.h"

namespace tlp {

/// One occupancy bit per grid tile, packed into 64-byte (cache-line) blocks:
/// bit t is set iff tile t holds at least one entry. Window and disk queries
/// iterate a row's column range through the set bits, so runs of empty tiles
/// cost one 64-bit word test instead of a pointer chase per tile — on
/// fine-granularity grids most tiles of a window's range are empty, and the
/// grids already skip them logically; this makes the skip cheap physically.
///
/// The bitset is redundant state derived from the tiles (rebuilt in O(tiles)
/// on bulk load and snapshot load, maintained incrementally by Insert and
/// Delete); CheckInvariants() of the owning grids cross-checks every bit
/// against its tile's emptiness.
class OccupancyBitset {
 public:
  OccupancyBitset() = default;

  /// Resizes to `bits` bits, all clear.
  void Reset(std::size_t bits) {
    bits_ = bits;
    blocks_.assign((bits + kBitsPerBlock - 1) / kBitsPerBlock, Block{});
  }

  void Set(std::size_t bit) {
    blocks_[bit / kBitsPerBlock].words[(bit / 64) % kWordsPerBlock] |=
        std::uint64_t{1} << (bit % 64);
  }

  void Clear(std::size_t bit) {
    blocks_[bit / kBitsPerBlock].words[(bit / 64) % kWordsPerBlock] &=
        ~(std::uint64_t{1} << (bit % 64));
  }

  bool Test(std::size_t bit) const {
    return (word(bit / 64) >> (bit % 64)) & 1u;
  }

  std::size_t bit_count() const { return bits_; }

  std::size_t SizeBytes() const { return blocks_.capacity() * sizeof(Block); }

  /// Calls `fn(bit)` for every set bit in [begin, end), ascending. Empty
  /// words are skipped with one test each; set bits inside a word are walked
  /// with count-trailing-zeros.
  template <typename Fn>
  void ForEachSetInRange(std::size_t begin, std::size_t end, Fn&& fn) const {
    if (begin >= end) return;
    std::size_t wi = begin / 64;
    const std::size_t last_wi = (end - 1) / 64;
    std::uint64_t cur = word(wi) & (~std::uint64_t{0} << (begin % 64));
    for (;;) {
      if (wi == last_wi) {
        cur &= ~std::uint64_t{0} >> (63 - ((end - 1) % 64));
      }
      while (cur != 0) {
        fn(wi * 64 + static_cast<std::size_t>(std::countr_zero(cur)));
        cur &= cur - 1;  // clear lowest set bit
      }
      if (wi == last_wi) break;
      cur = word(++wi);
    }
  }

 private:
  struct alignas(64) Block {
    std::uint64_t words[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  };
  static constexpr std::size_t kWordsPerBlock = 8;
  static constexpr std::size_t kBitsPerBlock = kWordsPerBlock * 64;

  std::uint64_t word(std::size_t wi) const {
    return blocks_[wi / kWordsPerBlock].words[wi % kWordsPerBlock];
  }

  std::vector<Block> blocks_;
  std::size_t bits_ = 0;
};

/// Calls `fn(i)` for every column i in [i0, i1] of grid row `j` whose tile's
/// occupancy bit is set, in ascending order. Callers keep their own per-tile
/// emptiness checks, so the bitset is purely an accelerator.
template <typename Fn>
inline void ForEachOccupiedColumn(const OccupancyBitset& occ,
                                  const GridLayout& g, std::uint32_t j,
                                  std::uint32_t i0, std::uint32_t i1,
                                  Fn&& fn) {
  const std::size_t row_base = g.TileId(0, j);
  occ.ForEachSetInRange(row_base + i0, row_base + i1 + 1,
                        [&](std::size_t tile_id) {
                          fn(static_cast<std::uint32_t>(tile_id - row_base));
                        });
}

}  // namespace tlp

#endif  // TLP_GRID_OCCUPANCY_BITSET_H_
