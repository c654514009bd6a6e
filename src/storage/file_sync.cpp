#include "storage/file_sync.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "storage/block_file.h"

namespace knnpc {
namespace {

void append_u32(std::vector<std::byte>& out, std::uint32_t v) {
  const std::size_t offset = out.size();
  out.resize(offset + sizeof(v));
  std::memcpy(out.data() + offset, &v, sizeof(v));
}

void append_u64(std::vector<std::byte>& out, std::uint64_t v) {
  const std::size_t offset = out.size();
  out.resize(offset + sizeof(v));
  std::memcpy(out.data() + offset, &v, sizeof(v));
}

void append_string(std::vector<std::byte>& out, const std::string& s) {
  append_u32(out, static_cast<std::uint32_t>(s.size()));
  const std::size_t offset = out.size();
  out.resize(offset + s.size());
  std::memcpy(out.data() + offset, s.data(), s.size());
}

template <typename T>
T take_scalar(std::span<const std::byte> bytes, std::size_t& offset,
              const char* what) {
  if (offset + sizeof(T) > bytes.size()) {
    throw std::runtime_error(std::string("file_sync: truncated ") + what);
  }
  T v{};
  std::memcpy(&v, bytes.data() + offset, sizeof(T));
  offset += sizeof(T);
  return v;
}

std::string take_string(std::span<const std::byte> bytes, std::size_t& offset,
                        const char* what) {
  const auto len = take_scalar<std::uint32_t>(bytes, offset, what);
  if (offset + len > bytes.size()) {
    throw std::runtime_error(std::string("file_sync: truncated ") + what);
  }
  std::string s(reinterpret_cast<const char*>(bytes.data() + offset), len);
  offset += len;
  return s;
}

}  // namespace

std::vector<std::byte> serialize_manifest(
    const std::vector<SyncFileEntry>& entries) {
  std::vector<std::byte> out;
  append_u32(out, static_cast<std::uint32_t>(entries.size()));
  for (const SyncFileEntry& entry : entries) {
    append_string(out, entry.relpath);
    append_u64(out, entry.size);
    append_u64(out, entry.checksum);
  }
  return out;
}

std::vector<SyncFileEntry> parse_manifest(std::span<const std::byte> bytes) {
  std::size_t offset = 0;
  const auto count = take_scalar<std::uint32_t>(bytes, offset, "manifest");
  std::vector<SyncFileEntry> entries;
  entries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    SyncFileEntry entry;
    entry.relpath = take_string(bytes, offset, "manifest entry");
    entry.size = take_scalar<std::uint64_t>(bytes, offset, "manifest entry");
    entry.checksum =
        take_scalar<std::uint64_t>(bytes, offset, "manifest entry");
    entries.push_back(std::move(entry));
  }
  if (offset != bytes.size()) {
    throw std::runtime_error("file_sync: trailing bytes after manifest");
  }
  return entries;
}

std::vector<std::byte> serialize_file_blob(const FileBlob& blob) {
  std::vector<std::byte> out;
  append_string(out, blob.relpath);
  out.insert(out.end(), blob.bytes.begin(), blob.bytes.end());
  return out;
}

FileBlob parse_file_blob(std::span<const std::byte> bytes) {
  std::size_t offset = 0;
  FileBlob blob;
  blob.relpath = take_string(bytes, offset, "file blob");
  blob.bytes.assign(bytes.begin() + static_cast<std::ptrdiff_t>(offset),
                    bytes.end());
  return blob;
}

bool is_safe_relpath(const std::string& relpath) {
  if (relpath.empty()) return false;
  const std::filesystem::path path(relpath);
  if (path.is_absolute()) return false;
  for (const auto& component : path) {
    if (component == "..") return false;
  }
  return true;
}

void sync_place_file(const std::filesystem::path& root,
                     const std::string& relpath,
                     std::span<const std::byte> bytes) {
  if (!is_safe_relpath(relpath)) {
    throw std::runtime_error("file_sync: unsafe relpath \"" + relpath +
                             "\"");
  }
  IoCounters counters;
  write_file(root / std::filesystem::path(relpath),
             std::vector<std::byte>(bytes.begin(), bytes.end()), counters);
}

}  // namespace knnpc
