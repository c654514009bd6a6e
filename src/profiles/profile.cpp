#include "profiles/profile.h"

#include <algorithm>
#include <cmath>

namespace knnpc {

SparseProfile::SparseProfile(std::vector<ProfileEntry> entries)
    : entries_(std::move(entries)) {
  std::sort(entries_.begin(), entries_.end(),
            [](const ProfileEntry& a, const ProfileEntry& b) {
              return a.item < b.item;
            });
  // Merge duplicates by summing.
  std::size_t write = 0;
  for (std::size_t read = 0; read < entries_.size();) {
    ProfileEntry merged = entries_[read++];
    while (read < entries_.size() && entries_[read].item == merged.item) {
      merged.weight += entries_[read++].weight;
    }
    if (merged.weight != 0.0f) entries_[write++] = merged;
  }
  entries_.resize(write);
  update_norm();
}

float SparseProfile::weight(ItemId item) const {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), item,
      [](const ProfileEntry& e, ItemId id) { return e.item < id; });
  return (it != entries_.end() && it->item == item) ? it->weight : 0.0f;
}

void SparseProfile::set(ItemId item, float w) {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), item,
      [](const ProfileEntry& e, ItemId id) { return e.item < id; });
  if (it != entries_.end() && it->item == item) {
    if (w == 0.0f) {
      entries_.erase(it);
    } else {
      it->weight = w;
    }
  } else if (w != 0.0f) {
    entries_.insert(it, ProfileEntry{item, w});
  }
  update_norm();
}

void SparseProfile::add(ItemId item, float delta) {
  set(item, weight(item) + delta);
}

void SparseProfile::update_norm() noexcept {
  double sq = 0.0;
  for (const ProfileEntry& e : entries_) {
    sq += static_cast<double>(e.weight) * e.weight;
  }
  norm_ = std::sqrt(sq);
}

}  // namespace knnpc
