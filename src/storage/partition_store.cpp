#include "storage/partition_store.h"

#include <algorithm>
#include <array>
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

std::vector<PartitionData> bucket_partition_edges(
    const EdgeList& graph, const PartitionAssignment& assignment,
    const std::vector<bool>& wanted) {
  const PartitionId m = assignment.num_partitions();
  const VertexId n = assignment.num_vertices();
  if (!wanted.empty() && wanted.size() != m) {
    throw std::invalid_argument(
        "bucket_partition_edges: wanted mask size != partition count");
  }
  auto keep = [&](PartitionId p) { return wanted.empty() || wanted[p]; };
  std::vector<PartitionData> parts(m);
  for (PartitionId p = 0; p < m; ++p) parts[p].id = p;

  // Counting sort: group the edges of wanted partitions under their
  // bridge vertex, order each group by the other endpoint, and append the
  // groups to their partitions in ascending bridge order. That is the
  // sorted order itself (unique, since equal edges are indistinguishable)
  // in O(edges + n) plus k-sized group sorts.
  auto route = [&](auto bridge_of, auto less,
                   std::vector<Edge> PartitionData::*list) {
    std::vector<std::size_t> start(static_cast<std::size_t>(n) + 1, 0);
    std::vector<std::size_t> sizes(m, 0);
    for (const Edge& e : graph.edges) {
      const VertexId bridge = bridge_of(e);
      const PartitionId p = assignment.owner(bridge);  // bounds-checked
      if (!keep(p)) continue;
      ++start[bridge + 1];
      ++sizes[p];
    }
    for (VertexId v = 0; v < n; ++v) start[v + 1] += start[v];
    std::vector<Edge> grouped(start[n]);
    std::vector<std::size_t> fill(start.begin(), start.end() - 1);
    for (const Edge& e : graph.edges) {
      const VertexId bridge = bridge_of(e);
      if (keep(assignment.owner(bridge))) grouped[fill[bridge]++] = e;
    }
    for (PartitionId p = 0; p < m; ++p) (parts[p].*list).reserve(sizes[p]);
    for (VertexId v = 0; v < n; ++v) {
      const auto first = grouped.begin() + static_cast<std::ptrdiff_t>(start[v]);
      const auto last =
          grouped.begin() + static_cast<std::ptrdiff_t>(start[v + 1]);
      if (first == last) continue;
      std::sort(first, last, less);
      std::vector<Edge>& out = parts[assignment.owner(v)].*list;
      out.insert(out.end(), first, last);
    }
  };
  route([](const Edge& e) { return e.dst; }, in_edge_less,
        &PartitionData::in_edges);
  route([](const Edge& e) { return e.src; }, std::less<Edge>{},
        &PartitionData::out_edges);
  return parts;
}

void PartitionStore::write_all(const EdgeList& graph,
                               const PartitionAssignment& assignment,
                               const ProfileStore& profiles,
                               ThreadPool* pool) {
  if (graph.num_vertices != assignment.num_vertices()) {
    throw std::invalid_argument(
        "PartitionStore::write_all: graph/assignment size mismatch");
  }
  if (!assignment.fully_assigned()) {
    throw std::invalid_argument(
        "PartitionStore::write_all: assignment incomplete");
  }
  m_ = assignment.num_partitions();
  const std::vector<PartitionData> parts =
      bucket_partition_edges(graph, assignment);
  std::vector<std::vector<VertexId>> members(m_);
  for (VertexId v = 0; v < assignment.num_vertices(); ++v) {
    members[assignment.owner(v)].push_back(v);
  }

  // Bytes of each partition's .in, .out, .prof and .vtx file.
  std::vector<std::array<std::uint64_t, 4>> written(m_);
  auto write_partitions = [&](std::size_t lo, std::size_t hi) {
    IoCounters raw;  // write_file wants a counter; io_ is charged below.
    for (std::size_t i = lo; i < hi; ++i) {
      const auto p = static_cast<PartitionId>(i);
      const std::vector<std::byte> files[4] = {
          to_bytes(parts[p].in_edges), to_bytes(parts[p].out_edges),
          pack_profiles(profiles, members[p]),
          // Vertex membership file (ascending ids).
          to_bytes(members[p])};
      const char* const suffixes[4] = {".in", ".out", ".prof", ".vtx"};
      for (std::size_t f = 0; f < 4; ++f) {
        write_file(file(p, suffixes[f]), files[f], raw);
        written[p][f] = files[f].size();
      }
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(0, m_, write_partitions, /*min_chunk=*/1);
  } else {
    write_partitions(0, m_);
  }
  for (const auto& bytes : written) {
    for (const std::uint64_t b : bytes) io_.charge_write(b);
  }
}

void PartitionStore::write_all_streaming(
    const EdgeList& graph, const PartitionAssignment& assignment,
    const ProfileStore& profiles, std::size_t sort_buffer_bytes) {
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
      external_sort_file<Edge>(in_spill, file(p, ".in"), sort_buffer_bytes,
                               in_edge_less);
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
    const auto prof_bytes = pack_profiles(profiles, members);
    write_file(file(p, ".prof"), prof_bytes, raw);
    io_.charge_write(prof_bytes.size());
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
  PartitionData data;
  data.id = id;
  data.vertices = from_bytes<VertexId>(fetch(file(id, ".vtx")));
  data.flat = FlatProfileSet::from_packed(data.vertices,
                                          fetch(file(id, ".prof")), quantize,
                                          pool);
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
