#include "profiles/flat_profile.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "profiles/compact.h"
#include "util/hash.h"
#include "util/serde.h"
#include "util/thread_pool.h"

namespace knnpc {

void FlatProfileSet::reserve(std::size_t users, std::size_t entries) {
  if (users * 2 > row_slots_.size()) rehash_rows(next_pow2(users * 2));
  offsets_.reserve(users + 1);
  norms_.reserve(users);
  means_.reserve(users);
  items_.reserve(entries);
  weights_.reserve(entries);
  if (quantize_) {
    qcodes_.reserve(entries);
    qscales_.reserve(users);
  }
}

void FlatProfileSet::rehash_rows(std::size_t capacity) {
  std::vector<std::uint64_t> old(capacity, kEmptySlot);
  old.swap(row_slots_);
  const std::size_t mask = capacity - 1;
  for (const std::uint64_t key : old) {
    if (key == kEmptySlot) continue;
    std::size_t slot = mix64(key >> 32) & mask;
    while (row_slots_[slot] != kEmptySlot) slot = (slot + 1) & mask;
    row_slots_[slot] = key;
  }
}

void FlatProfileSet::map_row(VertexId v, std::uint32_t row) {
  // `row` rows are mapped already; keep the table at most half full.
  if ((std::size_t{row} + 1) * 2 > row_slots_.size()) {
    rehash_rows(std::max<std::size_t>(16, row_slots_.size() * 2));
  }
  const std::size_t mask = row_slots_.size() - 1;
  std::size_t slot = mix64(v) & mask;
  while (row_slots_[slot] != kEmptySlot) {
    if (row_slots_[slot] >> 32 == v) {
      throw std::invalid_argument("FlatProfileSet: duplicate vertex");
    }
    slot = (slot + 1) & mask;
  }
  row_slots_[slot] = std::uint64_t{v} << 32 | row;
}

std::uint32_t FlatProfileSet::row_of(VertexId v) const noexcept {
  if (row_slots_.empty()) return kNoRow;
  const std::size_t mask = row_slots_.size() - 1;
  for (std::size_t slot = mix64(v) & mask;; slot = (slot + 1) & mask) {
    const std::uint64_t key = row_slots_[slot];
    if (key == kEmptySlot) return kNoRow;
    if (key >> 32 == v) return static_cast<std::uint32_t>(key);
  }
}

void FlatProfileSet::add(VertexId v, const SparseProfile& p) {
  const auto row = static_cast<std::uint32_t>(norms_.size());
  map_row(v, row);
  offsets_.push_back(offsets_.back() + static_cast<std::uint32_t>(p.size()));
  items_.resize(offsets_.back());
  weights_.resize(offsets_.back());
  norms_.push_back(0.0);
  means_.push_back(0.0);
  if (quantize_) {
    qcodes_.resize(offsets_.back());
    qscales_.push_back(1.0f);
  }
  fill_row(row, p.entries());
}

void FlatProfileSet::fill_row(std::uint32_t row,
                              std::span<const ProfileEntry> entries) {
  const std::uint32_t begin = offsets_[row];
  const auto size = static_cast<std::uint32_t>(entries.size());
  if (quantize_) {
    const QuantizedWeights q = quantize_weights_u16(entries);
    for (std::uint32_t i = 0; i < size; ++i) {
      weights_[begin + i] = dequantize_weight_u16(q.codes[i], q.scale);
      qcodes_[begin + i] = q.codes[i];
    }
    qscales_[row] = q.scale;
  } else {
    for (std::uint32_t i = 0; i < size; ++i) {
      weights_[begin + i] = entries[i].weight;
    }
  }
  for (std::uint32_t i = 0; i < size; ++i) items_[begin + i] = entries[i].item;

  // Norm and mean over the *stored* weights, in entry order — the same
  // accumulation sequence as SparseProfile::norm() and the scalar
  // mean_weight() in similarity.cpp, so unquantized scores match the
  // scalar path bit-for-bit.
  double sq = 0.0;
  double sum = 0.0;
  for (std::uint32_t i = begin; i < begin + size; ++i) {
    sq += static_cast<double>(weights_[i]) * weights_[i];
    sum += weights_[i];
  }
  norms_[row] = std::sqrt(sq);
  means_[row] = size == 0 ? 0.0 : sum / static_cast<double>(size);
}

FlatProfileSet FlatProfileSet::from_packed(std::span<const VertexId> vertices,
                                           std::span<const std::byte> packed,
                                           bool quantize, ThreadPool* pool) {
  std::size_t offset = 0;
  std::uint32_t count = 0;
  if (!read_record(packed, offset, count)) {
    throw std::runtime_error("FlatProfileSet::from_packed: truncated header");
  }
  if (count != vertices.size()) {
    throw std::runtime_error(
        "FlatProfileSet::from_packed: profile count mismatch");
  }
  // Header pass: every row's entry range, so rows decode independently.
  FlatProfileSet set(quantize);
  set.rehash_rows(next_pow2(std::size_t{count} * 2));
  std::vector<std::size_t> entry_bytes(count);  // offset of row's entries
  set.offsets_.resize(std::size_t{count} + 1);
  for (std::uint32_t row = 0; row < count; ++row) {
    std::uint32_t size = 0;
    if (!read_record(packed, offset, size) ||
        size > (packed.size() - offset) / sizeof(ProfileEntry)) {
      throw std::runtime_error("FlatProfileSet::from_packed: truncated file");
    }
    if (size > std::numeric_limits<std::uint32_t>::max() - set.offsets_[row]) {
      throw std::runtime_error("FlatProfileSet::from_packed: too many entries");
    }
    entry_bytes[row] = offset;
    offset += std::size_t{size} * sizeof(ProfileEntry);
    set.offsets_[row + 1] = set.offsets_[row] + size;
    set.map_row(vertices[row], row);
  }
  const std::uint32_t total = set.offsets_.back();
  set.items_.resize(total);
  set.weights_.resize(total);
  set.norms_.resize(count);
  set.means_.resize(count);
  if (quantize) {
    set.qcodes_.resize(total);
    set.qscales_.resize(count);
  }
  auto decode = [&](std::size_t lo, std::size_t hi) {
    std::vector<ProfileEntry> entries;
    for (std::size_t row = lo; row < hi; ++row) {
      entries.resize(set.offsets_[row + 1] - set.offsets_[row]);
      if (!entries.empty()) {
        std::memcpy(entries.data(), packed.data() + entry_bytes[row],
                    entries.size() * sizeof(ProfileEntry));
      }
      set.fill_row(static_cast<std::uint32_t>(row), entries);
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(0, count, decode, /*min_chunk=*/128);
  } else {
    decode(0, count);
  }
  return set;
}

FlatProfileSet::View FlatProfileSet::view_of_row(std::uint32_t row) const {
  View v;
  const std::uint32_t begin = offsets_[row];
  v.items = items_.data() + begin;
  v.weights = weights_.data() + begin;
  v.size = offsets_[row + 1] - begin;
  v.norm = norms_[row];
  v.mean = means_[row];
  return v;
}

bool FlatProfileSet::find(VertexId v, View& out) const {
  const std::uint32_t row = row_of(v);
  if (row == kNoRow) return false;
  out = view_of_row(row);
  return true;
}

FlatProfileSet::View FlatProfileSet::view(VertexId v) const {
  View out;
  if (!find(v, out)) {
    throw std::out_of_range("FlatProfileSet: vertex not in set");
  }
  return out;
}

std::size_t FlatProfileSet::weight_payload_bytes() const {
  if (quantize_) {
    return qcodes_.size() * sizeof(std::uint16_t) +
           qscales_.size() * sizeof(float);
  }
  return weights_.size() * sizeof(float);
}

float FlatProfileSet::scale_of(VertexId v) const {
  if (!quantize_) return 1.0f;
  const std::uint32_t row = row_of(v);
  if (row == kNoRow) {
    throw std::out_of_range("FlatProfileSet: vertex not in set");
  }
  return qscales_[row];
}

}  // namespace knnpc
