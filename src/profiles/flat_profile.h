// SIMD-friendly flat profile layout for the phase-4 similarity kernels.
//
// SparseProfile stores {item, weight} pairs interleaved (AoS), one heap
// allocation per user. The batched kernels in
// profiles/similarity_kernels.h want the opposite: structure-of-arrays —
// every profile's item ids contiguous (so the sorted-array intersection
// can compare a whole register of ids per instruction) and its weights
// contiguous, with the per-profile L2 norm and mean precomputed once
// instead of once per scored pair (the scalar adjusted-cosine recomputes
// the mean per pair — O(|p|) work the flat layout pays exactly once).
//
// A FlatProfileSet is a packed copy of a group of profiles — a loaded
// partition in the streaming engines (decoded straight from its profile
// file by from_packed), or the whole resident P(t) in persistent workers
// — built in O(total entries), which is noise next to the
// O(tuples x profile length) scoring it feeds. The precomputed norm
// and mean use the exact accumulation order of SparseProfile::norm() and
// the scalar measures in profiles/similarity.cpp, so kernel scores are
// bit-identical to the per-pair scalar path (the golden-checksum
// contract; see ARCHITECTURE.md "Phase-4 similarity kernels").
//
// Optional u16 scaled-weight quantization (profiles/compact.h) halves the
// weight payload; scoring then runs on the dequantized values, which is
// NOT bit-identical to f32 scoring — it is opt-in
// (EngineConfig::quantize_profiles, off by default) and outside the
// golden contract. Quantized scoring is still deterministic and
// bit-identical across kernel backends.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "profiles/profile.h"
#include "util/types.h"

namespace knnpc {

class ThreadPool;

class FlatProfileSet {
 public:
  /// Borrowed view of one packed profile. `items`/`weights` point into
  /// the set's arrays and stay valid for the set's lifetime (views are
  /// materialised on lookup, after all add() calls).
  struct View {
    const ItemId* items = nullptr;
    const float* weights = nullptr;
    std::uint32_t size = 0;
    double norm = 0.0;  ///< L2 norm of the stored weights.
    double mean = 0.0;  ///< Mean stored weight (0 when empty).
  };

  explicit FlatProfileSet(bool quantize = false) : quantize_(quantize) {}

  void reserve(std::size_t users, std::size_t entries);

  /// Packs `p` under vertex id `v` (each id at most once).
  void add(VertexId v, const SparseProfile& p);

  /// Decodes a profile file (pack_profiles format, profiles/
  /// profile_store.h) straight into the flat layout, profile i under
  /// `vertices[i]`: the same set as add()ing the unpacked profiles in
  /// order. `pool` decodes user ranges in parallel; each row's norm and
  /// mean are accumulated in add()'s order, so the result is identical
  /// at any thread count. Throws std::runtime_error on a truncated file
  /// or a profile count other than vertices.size().
  [[nodiscard]] static FlatProfileSet from_packed(
      std::span<const VertexId> vertices, std::span<const std::byte> packed,
      bool quantize, ThreadPool* pool = nullptr);

  /// Returns true and fills `out` when v is in the set; false (out
  /// untouched) otherwise.
  [[nodiscard]] bool find(VertexId v, View& out) const;

  /// View of `v`'s profile; throws std::out_of_range when absent.
  [[nodiscard]] View view(VertexId v) const;

  [[nodiscard]] std::size_t num_profiles() const { return norms_.size(); }
  [[nodiscard]] std::size_t total_entries() const { return items_.size(); }
  [[nodiscard]] bool quantized() const { return quantize_; }

  /// Bytes the weight payload occupies in this layout's wire/disk form:
  /// u16 codes + per-profile f32 scale when quantized, f32 otherwise.
  [[nodiscard]] std::size_t weight_payload_bytes() const;

  /// Per-profile quantization scale (1.0 when not quantized or empty).
  [[nodiscard]] float scale_of(VertexId v) const;

 private:
  [[nodiscard]] View view_of_row(std::uint32_t row) const;
  /// Registers `v` as the next row (throws on a duplicate id).
  void map_row(VertexId v, std::uint32_t row);
  /// Row of `v`, or kNoRow when v is not in the set.
  [[nodiscard]] std::uint32_t row_of(VertexId v) const noexcept;
  /// Resizes the row index to `capacity` (a power of two) slots.
  void rehash_rows(std::size_t capacity);
  /// Fills row `row`'s preallocated slice [offsets_[row], offsets_[row+1])
  /// plus its norm, mean and (quantized) scale. Rows are independent, so
  /// distinct rows may be filled concurrently.
  void fill_row(std::uint32_t row, std::span<const ProfileEntry> entries);

  bool quantize_ = false;
  static constexpr std::uint32_t kNoRow = ~0u;
  static constexpr std::uint64_t kEmptySlot = ~0ULL;
  /// Vertex -> row index: open addressing over (v << 32 | row) keys with
  /// linear probing, at most half full. Flat, so building and dropping a
  /// partition's set costs no per-vertex allocation.
  std::vector<std::uint64_t> row_slots_;
  std::vector<std::uint32_t> offsets_{0};  // rows + 1
  std::vector<ItemId> items_;
  std::vector<float> weights_;  // dequantized copies when quantize_
  std::vector<std::uint16_t> qcodes_;
  std::vector<float> qscales_;
  std::vector<double> norms_;
  std::vector<double> means_;
};

}  // namespace knnpc
