#include "storage/partition_store.h"

#include <algorithm>
#include <stdexcept>

#include "storage/external_sort.h"
#include "storage/mmap_file.h"
#include "storage/shard_writer.h"
#include "util/serde.h"
#include "util/thread_pool.h"

namespace knnpc {
namespace fs = std::filesystem;

const SparseProfile* PartitionData::profile_of(VertexId v) const {
  const auto it = std::lower_bound(vertices.begin(), vertices.end(), v);
  if (it == vertices.end() || *it != v) return nullptr;
  const auto idx = static_cast<std::size_t>(it - vertices.begin());
  return &profiles[idx];
}

std::uint64_t PartitionData::approx_bytes() const {
  std::uint64_t bytes = vertices.size() * sizeof(VertexId) +
                        (in_edges.size() + out_edges.size()) * sizeof(Edge);
  for (const auto& p : profiles) bytes += p.size() * sizeof(ProfileEntry);
  return bytes;
}

PartitionStore::PartitionStore(fs::path dir, IoModel model, Mode mode)
    : dir_(std::move(dir)), io_(std::move(model)), mode_(mode) {
  fs::create_directories(dir_);
}

fs::path PartitionStore::file(PartitionId id, const char* suffix) const {
  return dir_ / ("part_" + std::to_string(id) + suffix);
}

std::vector<std::byte> PartitionStore::fetch(const fs::path& path) const {
  if (mode_ == Mode::Mmap) {
    const MmapFile mapping(path);
    mapping.advise_sequential();
    const auto view = mapping.bytes();
    std::vector<std::byte> bytes(view.begin(), view.end());
    io_.charge_read(bytes.size());
    return bytes;
  }
  IoCounters raw;
  auto bytes = read_file(path, raw);
  io_.charge_read(bytes.size());
  return bytes;
}

void PartitionStore::write_all(const EdgeList& graph,
                               const PartitionAssignment& assignment,
                               const ProfileStore& profiles,
                               bool include_profiles) {
  if (graph.num_vertices != assignment.num_vertices()) {
    throw std::invalid_argument(
        "PartitionStore::write_all: graph/assignment size mismatch");
  }
  if (!assignment.fully_assigned()) {
    throw std::invalid_argument(
        "PartitionStore::write_all: assignment incomplete");
  }
  m_ = assignment.num_partitions();

  // Bucket edges by the partition of their bridge vertex. Edge (s, d) acts
  // as an in-edge of owner(d) (bridge d) and as an out-edge of owner(s)
  // (bridge s).
  std::vector<std::vector<Edge>> in_bucket(m_);
  std::vector<std::vector<Edge>> out_bucket(m_);
  for (const Edge& e : graph.edges) {
    in_bucket[assignment.owner(e.dst)].push_back(e);
    out_bucket[assignment.owner(e.src)].push_back(e);
  }

  IoCounters raw;  // write_file wants a counter; we fold into io_ below.
  for (PartitionId p = 0; p < m_; ++p) {
    // Sort by bridge: in-edges (s, v) by v = dst (then s); out-edges
    // (v, d) by v = src (then d).
    std::sort(in_bucket[p].begin(), in_bucket[p].end(),
              [](const Edge& a, const Edge& b) {
                return a.dst != b.dst ? a.dst < b.dst : a.src < b.src;
              });
    std::sort(out_bucket[p].begin(), out_bucket[p].end());

    const auto members = assignment.members(p);
    const auto in_bytes = to_bytes(in_bucket[p]);
    const auto out_bytes = to_bytes(out_bucket[p]);
    write_file(file(p, ".in"), in_bytes, raw);
    write_file(file(p, ".out"), out_bytes, raw);
    io_.charge_write(in_bytes.size());
    io_.charge_write(out_bytes.size());
    if (include_profiles) {
      std::vector<SparseProfile> member_profiles;
      member_profiles.reserve(members.size());
      for (VertexId v : members) member_profiles.push_back(profiles.get(v));
      const auto prof_bytes = pack_profiles(member_profiles);
      write_file(file(p, ".prof"), prof_bytes, raw);
      io_.charge_write(prof_bytes.size());
    }

    // Vertex membership file (ascending ids).
    const auto member_bytes = to_bytes(members);
    write_file(file(p, ".vtx"), member_bytes, raw);
    io_.charge_write(member_bytes.size());
  }
}

void PartitionStore::write_all_streaming(
    const EdgeList& graph, const PartitionAssignment& assignment,
    const ProfileStore& profiles, std::size_t sort_buffer_bytes,
    bool include_profiles) {
  if (graph.num_vertices != assignment.num_vertices()) {
    throw std::invalid_argument(
        "PartitionStore::write_all_streaming: size mismatch");
  }
  if (!assignment.fully_assigned()) {
    throw std::invalid_argument(
        "PartitionStore::write_all_streaming: assignment incomplete");
  }
  m_ = assignment.num_partitions();

  // Stream edges to unsorted per-partition spill files under a bounded
  // buffer, then external-sort each by its bridge.
  {
    RecordShardWriter<Edge> in_writer(dir_, "unsorted_in", m_,
                                      sort_buffer_bytes / 2, &io_);
    RecordShardWriter<Edge> out_writer(dir_, "unsorted_out", m_,
                                       sort_buffer_bytes / 2, &io_);
    for (const Edge& e : graph.edges) {
      in_writer.add(assignment.owner(e.dst), e);
      out_writer.add(assignment.owner(e.src), e);
    }
    in_writer.finish();
    out_writer.finish();
    for (PartitionId p = 0; p < m_; ++p) {
      // Missing spill files (empty partitions) become empty edge files.
      const fs::path in_spill = in_writer.shard_path(p);
      const fs::path out_spill = out_writer.shard_path(p);
      IoCounters raw;
      if (!fs::exists(in_spill)) write_file(in_spill, {}, raw);
      if (!fs::exists(out_spill)) write_file(out_spill, {}, raw);
      external_sort_file<Edge>(
          in_spill, file(p, ".in"), sort_buffer_bytes,
          [](const Edge& a, const Edge& b) {
            return a.dst != b.dst ? a.dst < b.dst : a.src < b.src;
          });
      external_sort_file<Edge>(out_spill, file(p, ".out"),
                               sort_buffer_bytes, std::less<Edge>{});
      io_.charge_write(knnpc::file_size(file(p, ".in")));
      io_.charge_write(knnpc::file_size(file(p, ".out")));
      std::error_code ec;
      fs::remove(in_spill, ec);
      fs::remove(out_spill, ec);
    }
  }

  // Profiles and membership, one partition at a time.
  IoCounters raw;
  for (PartitionId p = 0; p < m_; ++p) {
    const auto members = assignment.members(p);
    if (include_profiles) {
      std::vector<SparseProfile> member_profiles;
      member_profiles.reserve(members.size());
      for (VertexId v : members) member_profiles.push_back(profiles.get(v));
      const auto prof_bytes = pack_profiles(member_profiles);
      write_file(file(p, ".prof"), prof_bytes, raw);
      io_.charge_write(prof_bytes.size());
    }
    const auto member_bytes = to_bytes(members);
    write_file(file(p, ".vtx"), member_bytes, raw);
    io_.charge_write(member_bytes.size());
  }
}

PartitionData PartitionStore::load(PartitionId id) const {
  PartitionData data;
  data.id = id;
  const auto vtx_bytes = fetch(file(id, ".vtx"));
  const auto in_bytes = fetch(file(id, ".in"));
  const auto out_bytes = fetch(file(id, ".out"));
  const auto prof_bytes = fetch(file(id, ".prof"));

  data.vertices = from_bytes<VertexId>(vtx_bytes);
  data.in_edges = from_bytes<Edge>(in_bytes);
  data.out_edges = from_bytes<Edge>(out_bytes);
  data.profiles = unpack_profiles(prof_bytes);
  if (data.profiles.size() != data.vertices.size()) {
    throw std::runtime_error("PartitionStore::load: profile count mismatch");
  }
  return data;
}

PartitionData PartitionStore::load_edges(PartitionId id) const {
  PartitionData data;
  data.id = id;
  const auto vtx_bytes = fetch(file(id, ".vtx"));
  const auto in_bytes = fetch(file(id, ".in"));
  const auto out_bytes = fetch(file(id, ".out"));
  data.vertices = from_bytes<VertexId>(vtx_bytes);
  data.in_edges = from_bytes<Edge>(in_bytes);
  data.out_edges = from_bytes<Edge>(out_bytes);
  return data;
}

PartitionData PartitionStore::load_flat(PartitionId id, bool quantize,
                                        ThreadPool* pool) const {
  PartitionData data = load_vertices(id);
  data.flat = FlatProfileSet::from_packed(data.vertices,
                                          fetch(file(id, ".prof")), quantize,
                                          pool);
  return data;
}

PartitionData PartitionStore::load_vertices(PartitionId id) const {
  PartitionData data;
  data.id = id;
  data.vertices = from_bytes<VertexId>(fetch(file(id, ".vtx")));
  return data;
}

void PartitionStore::write_profiles(
    PartitionId id, const std::vector<VertexId>& vertices,
    const std::vector<SparseProfile>& profiles) {
  if (vertices.size() != profiles.size()) {
    throw std::invalid_argument(
        "PartitionStore::write_profiles: size mismatch");
  }
  IoCounters raw;
  const auto prof_bytes = pack_profiles(profiles);
  write_file(file(id, ".prof"), prof_bytes, raw);
  io_.charge_write(prof_bytes.size());
  const auto member_bytes = to_bytes(vertices);
  write_file(file(id, ".vtx"), member_bytes, raw);
  io_.charge_write(member_bytes.size());
}

PartitionCache::PartitionCache(const PartitionStore& store, std::size_t slots)
    : PartitionCache(slots,
                     [&store](PartitionId id) { return store.load(id); }) {}

PartitionCache::PartitionCache(std::size_t slots, Loader load)
    : slots_(std::max<std::size_t>(slots, 1)), load_(std::move(load)) {}

const PartitionData& PartitionCache::get(PartitionId id) {
  if (auto it = resident_.find(id); it != resident_.end()) {
    lru_.remove(id);
    lru_.push_front(id);
    return it->second;
  }
  if (resident_.size() >= slots_) {
    const PartitionId victim = lru_.back();
    lru_.pop_back();
    resident_.erase(victim);
    ++unloads_;
  }
  auto [it, inserted] = resident_.emplace(id, load_(id));
  lru_.push_front(id);
  ++loads_;
  return it->second;
}

bool PartitionCache::resident(PartitionId id) const {
  return resident_.contains(id);
}

void PartitionCache::flush() {
  unloads_ += resident_.size();
  resident_.clear();
  lru_.clear();
}

}  // namespace knnpc
