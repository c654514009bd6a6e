// Profile stores: where P(t) lives.
//
// InMemoryProfileStore backs tests, baselines and the NN-Descent
// comparator. The *partitioned on-disk* store used by the engine proper
// lives in storage/partition_store.h (profiles are packed per partition
// there so a partition load brings exactly its users' profiles).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "profiles/profile.h"
#include "util/types.h"

namespace knnpc {

/// Abstract read access to the profile set. Vertex ids are dense [0, n).
class ProfileStore {
 public:
  virtual ~ProfileStore() = default;

  [[nodiscard]] virtual VertexId num_users() const = 0;
  /// Profile of `user`; reference valid until the next mutation.
  [[nodiscard]] virtual const SparseProfile& get(VertexId user) const = 0;
};

/// Simple vector-backed store.
class InMemoryProfileStore final : public ProfileStore {
 public:
  InMemoryProfileStore() = default;
  explicit InMemoryProfileStore(std::vector<SparseProfile> profiles)
      : profiles_(std::move(profiles)) {}

  [[nodiscard]] VertexId num_users() const override {
    return static_cast<VertexId>(profiles_.size());
  }
  [[nodiscard]] const SparseProfile& get(VertexId user) const override {
    return profiles_.at(user);
  }

  /// Mutable access (phase 5 applies queued updates through this).
  SparseProfile& mutable_get(VertexId user) { return profiles_.at(user); }

  void set(VertexId user, SparseProfile profile) {
    profiles_.at(user) = std::move(profile);
  }

  void push_back(SparseProfile profile) {
    profiles_.push_back(std::move(profile));
  }

 private:
  std::vector<SparseProfile> profiles_;
};

/// Serialises profiles into a packed byte buffer and back. Layout:
///   u32 count, then per profile: u32 entry_count, entries (u32 item,
///   f32 weight)...
/// Used by the partition store to write per-partition profile files.
std::vector<std::byte> pack_profiles(const std::vector<SparseProfile>& ps);
/// pack_profiles of profiles.get(u) for each u in `users`, in order,
/// without copying the profiles first.
std::vector<std::byte> pack_profiles(const ProfileStore& profiles,
                                     std::span<const VertexId> users);
std::vector<SparseProfile> unpack_profiles(
    const std::vector<std::byte>& bytes);

}  // namespace knnpc
