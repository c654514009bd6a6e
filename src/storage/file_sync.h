// Content-addressed file shipping for distributed shard execution.
//
// The driver and a remote worker agent (core/worker_agent.h) reconcile
// files by exchanging a *manifest* — relative path, size and FNV-1a
// checksum per file — and transferring only the files whose checksum the
// receiver does not already hold. The checksums are the same FNV-1a the
// engine uses everywhere else (util/fnv.h), so an unchanged file never
// re-transfers: its bytes hash identically on both sides and the receiver
// answers "already have it". (Today the one file a run ships is the
// worker plan.)
//
// Nothing here owns a socket; the agent protocol moves these blobs as
// IpcChannel frame payloads. This module owns the byte formats and the
// receiving filesystem side (safe atomic placement).
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

namespace knnpc {

/// One file in a sync manifest.
struct SyncFileEntry {
  /// Path relative to the synced root, '/'-separated.
  std::string relpath;
  std::uint64_t size = 0;
  /// FNV-1a over the file's bytes.
  std::uint64_t checksum = 0;
};

/// Manifest wire format: u32 count, then per entry u32 relpath length,
/// relpath bytes, u64 size, u64 checksum.
std::vector<std::byte> serialize_manifest(
    const std::vector<SyncFileEntry>& entries);
/// Throws std::runtime_error on a malformed manifest payload.
std::vector<SyncFileEntry> parse_manifest(std::span<const std::byte> bytes);

/// File blob wire format (FilePut payload): u32 relpath length, relpath
/// bytes, content bytes.
struct FileBlob {
  std::string relpath;
  std::vector<std::byte> bytes;
};

std::vector<std::byte> serialize_file_blob(const FileBlob& blob);
/// Throws std::runtime_error on a malformed blob payload.
FileBlob parse_file_blob(std::span<const std::byte> bytes);

/// Guards the receiving side: a synced relpath must stay inside the sync
/// root. Rejects absolute paths and any ".." component.
bool is_safe_relpath(const std::string& relpath);

/// Atomically places `bytes` at `root / relpath` (tmp + rename, parent
/// directories created). Throws std::runtime_error on unsafe relpaths or
/// write failure.
void sync_place_file(const std::filesystem::path& root,
                     const std::string& relpath,
                     std::span<const std::byte> bytes);

}  // namespace knnpc
