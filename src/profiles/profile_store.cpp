#include "profiles/profile_store.h"

#include <cstring>
#include <stdexcept>

#include "util/serde.h"

namespace knnpc {

namespace {

/// The pack_profiles layout over `count` profiles, profile i = row(i).
template <typename Row>
std::vector<std::byte> pack_rows(std::size_t count, Row&& row) {
  std::size_t bytes = sizeof(std::uint32_t);
  for (std::size_t i = 0; i < count; ++i) {
    bytes += sizeof(std::uint32_t) + row(i).size() * sizeof(ProfileEntry);
  }
  std::vector<std::byte> out(bytes);
  std::byte* at = out.data();
  auto put = [&](const void* data, std::size_t size) {
    if (size > 0) std::memcpy(at, data, size);
    at += size;
  };
  const auto header = static_cast<std::uint32_t>(count);
  put(&header, sizeof(header));
  for (std::size_t i = 0; i < count; ++i) {
    const std::span<const ProfileEntry> entries = row(i).entries();
    const auto size = static_cast<std::uint32_t>(entries.size());
    put(&size, sizeof(size));
    put(entries.data(), entries.size_bytes());
  }
  return out;
}

}  // namespace

std::vector<std::byte> pack_profiles(const std::vector<SparseProfile>& ps) {
  return pack_rows(ps.size(),
                   [&](std::size_t i) -> const SparseProfile& { return ps[i]; });
}

std::vector<std::byte> pack_profiles(const ProfileStore& profiles,
                                     std::span<const VertexId> users) {
  return pack_rows(users.size(), [&](std::size_t i) -> const SparseProfile& {
    return profiles.get(users[i]);
  });
}

std::vector<SparseProfile> unpack_profiles(
    const std::vector<std::byte>& bytes) {
  std::span<const std::byte> view(bytes);
  std::size_t offset = 0;
  std::uint32_t count = 0;
  if (!read_record(view, offset, count)) {
    throw std::runtime_error("unpack_profiles: truncated header");
  }
  std::vector<SparseProfile> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t entries = 0;
    if (!read_record(view, offset, entries)) {
      throw std::runtime_error("unpack_profiles: truncated profile header");
    }
    std::vector<ProfileEntry> list(entries);
    for (std::uint32_t j = 0; j < entries; ++j) {
      if (!read_record(view, offset, list[j])) {
        throw std::runtime_error("unpack_profiles: truncated entry");
      }
    }
    out.emplace_back(std::move(list));
  }
  return out;
}

}  // namespace knnpc
