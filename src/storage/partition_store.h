// On-disk partition layout (phase 1 output, phase 4 input).
//
// Partition R_i owns a vertex subset V_i and is stored as three files:
//   part_<i>.in    in-edges  (s, v), v ∈ V_i, sorted by the bridge v
//   part_<i>.out   out-edges (v, d), v ∈ V_i, sorted by the bridge v
//   part_<i>.prof  profiles of V_i, packed in ascending vertex order
//
// Sorting both edge files by the *bridge* vertex v is the paper's phase-1
// trick: a sequential merge-join of the two files emits all
// neighbours-of-neighbours tuples (s, d) without random access.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <list>
#include <optional>
#include <unordered_map>
#include <vector>

#include "graph/edge_list.h"
#include "partition/assignment.h"
#include "profiles/flat_profile.h"
#include "profiles/profile.h"
#include "profiles/profile_store.h"
#include "storage/io_model.h"
#include "util/types.h"

namespace knnpc {

class ThreadPool;

/// One partition in memory: everything after load(), a subset after the
/// other PartitionStore loads (each says which members it fills).
struct PartitionData {
  PartitionId id = kInvalidPartition;
  std::vector<VertexId> vertices;   // ascending
  std::vector<Edge> in_edges;       // (s, v), sorted by v then s
  std::vector<Edge> out_edges;      // (v, d), sorted by v then d
  std::vector<SparseProfile> profiles;  // profiles[i] belongs to vertices[i]
  FlatProfileSet flat;  // load_flat() only: the profiles in SoA layout

  /// Profile of `v`; nullptr when v is not in this partition. O(log n).
  [[nodiscard]] const SparseProfile* profile_of(VertexId v) const;

  /// Approximate in-memory footprint, bytes (for memory-budget benches).
  [[nodiscard]] std::uint64_t approx_bytes() const;
};

/// In-edge order within a partition: by the bridge v = dst, then by s.
/// (Out-edges (v, d) use Edge's own (src, dst) order.)
[[nodiscard]] inline bool in_edge_less(const Edge& a, const Edge& b) {
  return a.dst != b.dst ? a.dst < b.dst : a.src < b.src;
}

/// Phase 1's edge routing, the one definition of a partition's edge
/// lists: edge (s, d) is an in-edge of owner(d) (bridge d) and an
/// out-edge of owner(s) (bridge s); in-edges are sorted by in_edge_less,
/// out-edges by (src, dst). PartitionStore::write_all writes exactly these
/// lists, and a persistent shard worker builds its producer partitions
/// with this function from the G(t) it holds, so both see the same edge
/// order by construction. A non-empty `wanted` limits the work to the
/// partitions p with wanted[p]; the others come back empty. Returns one
/// PartitionData per partition with id, in_edges and out_edges set.
[[nodiscard]] std::vector<PartitionData> bucket_partition_edges(
    const EdgeList& graph, const PartitionAssignment& assignment,
    const std::vector<bool>& wanted = {});

/// Writes and reads partitions under a work directory.
///
/// Thread-safety: the write side (write_all / write_all_streaming /
/// write_profiles) is single-writer and must not overlap any other call.
/// The read side is concurrent-reader safe: once the partition files for
/// an iteration are on disk, any number of threads may call load() /
/// load_edges() simultaneously — each call reads into its own buffers and
/// the only shared mutable state, the IoAccountant, is atomic. The shard
/// driver relies on this: one store, written once per iteration by the
/// driver, is streamed by every shard worker's PartitionCache in parallel.
///
/// Ownership: the store owns nothing in memory between calls — load()
/// returns PartitionData by value and the caller owns it (PartitionCache
/// is the standard bounded owner). The store does own the directory
/// layout; two stores over one directory must not write concurrently.
class PartitionStore {
 public:
  /// How partition files are brought into memory.
  enum class Mode {
    Read,  // read() the whole file into a buffer
    Mmap,  // mmap + MADV_SEQUENTIAL, copy out of the mapping
  };

  PartitionStore(std::filesystem::path dir, IoModel model = IoModel::none(),
                 Mode mode = Mode::Read);

  /// Splits graph + profiles by `assignment` and writes all partition
  /// files. Profiles indexed by vertex id; edges of G(t) are routed to the
  /// partition owning their *bridge* role (bucket_partition_edges below):
  /// every partition holds both edge directions of its own vertices, as
  /// the paper specifies.
  void write_all(const EdgeList& graph, const PartitionAssignment& assignment,
                 const ProfileStore& profiles);

  /// Low-memory variant of write_all: edges stream to per-partition files
  /// through a bounded buffer (storage/shard_writer.h) and each edge file
  /// is then external-sorted by its bridge vertex with at most
  /// `sort_buffer_bytes` of sort memory (storage/external_sort.h). The
  /// resulting files are byte-identical in content to write_all's.
  void write_all_streaming(const EdgeList& graph,
                           const PartitionAssignment& assignment,
                           const ProfileStore& profiles,
                           std::size_t sort_buffer_bytes = 4u << 20);

  /// Loads one partition from disk (three file reads, charged to the
  /// accountant). Throws when the partition was never written.
  [[nodiscard]] PartitionData load(PartitionId id) const;

  /// Loads only the vertex list and sorted edge files (phase 2 streams
  /// these to merge-join tuples; profiles are not needed there).
  [[nodiscard]] PartitionData load_edges(PartitionId id) const;

  /// Loads what phase-4 scoring reads: the vertex list, with the profile
  /// file decoded straight into `flat` (FlatProfileSet::from_packed; no
  /// SparseProfile copies, no edge files). `pool` splits the decode over
  /// user ranges. Throws when the partition or its profiles were never
  /// written.
  [[nodiscard]] PartitionData load_flat(PartitionId id, bool quantize,
                                        ThreadPool* pool = nullptr) const;

  /// Rewrites one partition's profile file (phase 5 flushes updates).
  void write_profiles(PartitionId id,
                      const std::vector<VertexId>& vertices,
                      const std::vector<SparseProfile>& profiles);

  [[nodiscard]] PartitionId num_partitions() const noexcept { return m_; }
  [[nodiscard]] const std::filesystem::path& dir() const noexcept {
    return dir_;
  }
  [[nodiscard]] const IoAccountant& io() const noexcept { return io_; }
  void reset_io() noexcept { io_.reset(); }

  [[nodiscard]] Mode mode() const noexcept { return mode_; }

 private:
  [[nodiscard]] std::filesystem::path file(PartitionId id,
                                           const char* suffix) const;
  /// Reads a partition file honouring mode_, charging the accountant.
  [[nodiscard]] std::vector<std::byte> fetch(
      const std::filesystem::path& path) const;

  std::filesystem::path dir_;
  mutable IoAccountant io_;
  PartitionId m_ = 0;
  Mode mode_ = Mode::Read;
};

/// Bounded partition cache for phase 4: at most `slots` partitions resident
/// (the paper uses 2). Counts loads and unloads — Table 1's metric. A
/// partition takes its slot before its load starts (the LRU victim is
/// dropped first), so a load never holds `slots + 1` partitions.
///
/// Thread-safety: single-owner (one cache per engine / shard worker); the
/// underlying store may be shared across caches on different threads.
class PartitionCache {
 public:
  /// Brings one partition into memory (a PartitionStore load).
  using Loader = std::function<PartitionData(PartitionId)>;

  /// Full loads (PartitionStore::load).
  PartitionCache(const PartitionStore& store, std::size_t slots);

  /// Loads through `load`, e.g. PartitionStore::load_flat for phase-4
  /// scoring, or the vertex lists alone where profiles live elsewhere.
  PartitionCache(std::size_t slots, Loader load);

  /// Returns the resident partition, loading (and possibly evicting LRU)
  /// as needed. References are invalidated by subsequent get() calls that
  /// evict; phase 4 pins at most `slots` partitions at a time by
  /// construction.
  const PartitionData& get(PartitionId id);

  [[nodiscard]] bool resident(PartitionId id) const;
  [[nodiscard]] std::uint64_t loads() const noexcept { return loads_; }
  [[nodiscard]] std::uint64_t unloads() const noexcept { return unloads_; }
  /// loads + unloads: the Table-1 "operations" metric.
  [[nodiscard]] std::uint64_t operations() const noexcept {
    return loads_ + unloads_;
  }

  /// Drops everything, counting the unloads.
  void flush();

 private:
  std::size_t slots_;
  Loader load_;
  std::list<PartitionId> lru_;  // front = most recent
  std::unordered_map<PartitionId, PartitionData> resident_;
  std::uint64_t loads_ = 0;
  std::uint64_t unloads_ = 0;
};

}  // namespace knnpc
