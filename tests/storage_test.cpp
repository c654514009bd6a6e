// Tests for storage/: block files, I/O models, partition store and cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "graph/generators.h"
#include "partition/range_partitioner.h"
#include "profiles/generators.h"
#include "storage/block_file.h"
#include "storage/io_model.h"
#include "storage/partition_store.h"
#include "util/rng.h"

namespace knnpc {
namespace {
namespace fs = std::filesystem;

// ------------------------------------------------------------ block file --

TEST(BlockFileTest, WriteReadRoundTripAndCounters) {
  ScratchDir dir("blockfile");
  IoCounters counters;
  std::vector<std::byte> payload(1000);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>(i & 0xff);
  }
  const fs::path path = dir.path() / "sub" / "data.bin";
  write_file(path, payload, counters);
  EXPECT_EQ(counters.bytes_written, 1000u);
  EXPECT_EQ(counters.write_ops, 1u);
  const auto back = read_file(path, counters);
  EXPECT_EQ(back, payload);
  EXPECT_EQ(counters.bytes_read, 1000u);
  EXPECT_EQ(counters.read_ops, 1u);
}

TEST(BlockFileTest, WriteIsAtomicReplace) {
  ScratchDir dir("atomic");
  IoCounters counters;
  const fs::path path = dir.path() / "data.bin";
  write_file(path, std::vector<std::byte>(10), counters);
  write_file(path, std::vector<std::byte>(20), counters);
  EXPECT_EQ(knnpc::file_size(path), 20u);
  EXPECT_FALSE(fs::exists(path.string() + ".tmp"));
}

TEST(BlockFileTest, ReadMissingFileThrows) {
  IoCounters counters;
  EXPECT_THROW(read_file("/nonexistent/nope.bin", counters),
               std::runtime_error);
}

TEST(BlockFileTest, EmptyPayloadRoundTrips) {
  ScratchDir dir("empty");
  IoCounters counters;
  const fs::path path = dir.path() / "empty.bin";
  write_file(path, {}, counters);
  EXPECT_TRUE(read_file(path, counters).empty());
}

TEST(BlockFileTest, FileSizeOfMissingIsZero) {
  EXPECT_EQ(knnpc::file_size("/nonexistent/nope.bin"), 0u);
}

TEST(BlockFileTest, ScratchDirIsRemovedOnDestruction) {
  fs::path kept;
  {
    ScratchDir dir("transient");
    kept = dir.path();
    EXPECT_TRUE(fs::exists(kept));
  }
  EXPECT_FALSE(fs::exists(kept));
}

TEST(IoCountersTest, ArithmeticWorks) {
  IoCounters a{100, 50, 2, 1};
  IoCounters b{40, 20, 1, 1};
  a += b;
  EXPECT_EQ(a.bytes_read, 140u);
  const IoCounters d = a - b;
  EXPECT_EQ(d.bytes_read, 100u);
  EXPECT_EQ(d.write_ops, 1u);
}

// -------------------------------------------------------------- io model --

TEST(IoModelTest, PresetsAreOrderedBySpeed) {
  const auto hdd = IoModel::hdd();
  const auto ssd = IoModel::ssd();
  const auto nvme = IoModel::nvme();
  const std::uint64_t mb = 1 << 20;
  EXPECT_GT(hdd.op_cost_us(mb), ssd.op_cost_us(mb));
  EXPECT_GT(ssd.op_cost_us(mb), nvme.op_cost_us(mb));
}

TEST(IoModelTest, SeekDominatesSmallTransfersOnHdd) {
  const auto hdd = IoModel::hdd();
  // A 4 KiB op on HDD is nearly all seek.
  EXPECT_NEAR(hdd.op_cost_us(4096), hdd.seek_us, hdd.seek_us * 0.05);
}

TEST(IoModelTest, ParseRoundTrip) {
  EXPECT_EQ(IoModel::parse("hdd").name, "hdd");
  EXPECT_EQ(IoModel::parse("nvme").name, "nvme");
  EXPECT_THROW(IoModel::parse("floppy"), std::invalid_argument);
}

TEST(IoAccountantTest, AccumulatesBytesAndModeledTime) {
  IoAccountant acc(IoModel::ssd());
  acc.charge_read(1 << 20);
  acc.charge_write(1 << 20);
  EXPECT_EQ(acc.counters().bytes_read, 1u << 20);
  EXPECT_EQ(acc.counters().bytes_written, 1u << 20);
  EXPECT_EQ(acc.counters().read_ops, 1u);
  EXPECT_GT(acc.modeled_us(), 0.0);
  acc.reset();
  EXPECT_EQ(acc.counters().read_ops, 0u);
  EXPECT_EQ(acc.modeled_us(), 0.0);
}

// -------------------------------------------------------- partition store --

struct StoreFixture {
  ScratchDir dir{"pstore"};
  EdgeList graph;
  PartitionAssignment assignment;
  InMemoryProfileStore profiles;

  explicit StoreFixture(VertexId n = 40, std::size_t edges = 200,
                        PartitionId m = 4) {
    Rng rng(55);
    graph = erdos_renyi(n, edges, rng);
    const Digraph dg(graph);
    assignment = RangePartitioner{}.assign(dg, m);
    ProfileGenConfig config;
    config.num_users = n;
    config.num_items = 100;
    for (auto& p : uniform_profiles(config, rng)) {
      profiles.push_back(std::move(p));
    }
  }
};

TEST(PartitionStoreTest, WriteLoadRoundTrip) {
  StoreFixture fx;
  PartitionStore store(fx.dir.path());
  store.write_all(fx.graph, fx.assignment, fx.profiles);
  EXPECT_EQ(store.num_partitions(), 4u);

  std::size_t total_vertices = 0;
  std::size_t total_in = 0;
  std::size_t total_out = 0;
  for (PartitionId p = 0; p < 4; ++p) {
    const PartitionData data = store.load(p);
    EXPECT_EQ(data.id, p);
    total_vertices += data.vertices.size();
    total_in += data.in_edges.size();
    total_out += data.out_edges.size();
    // Every member's profile must round-trip.
    for (std::size_t i = 0; i < data.vertices.size(); ++i) {
      EXPECT_EQ(data.profiles[i], fx.profiles.get(data.vertices[i]));
      EXPECT_EQ(*data.profile_of(data.vertices[i]), data.profiles[i]);
    }
  }
  EXPECT_EQ(total_vertices, 40u);
  // Each edge appears exactly once as an in-edge and once as an out-edge.
  EXPECT_EQ(total_in, fx.graph.edges.size());
  EXPECT_EQ(total_out, fx.graph.edges.size());
}

TEST(PartitionStoreTest, EdgeFilesAreSortedByBridge) {
  StoreFixture fx;
  PartitionStore store(fx.dir.path());
  store.write_all(fx.graph, fx.assignment, fx.profiles);
  for (PartitionId p = 0; p < 4; ++p) {
    const PartitionData data = store.load(p);
    for (std::size_t i = 1; i < data.in_edges.size(); ++i) {
      EXPECT_LE(data.in_edges[i - 1].dst, data.in_edges[i].dst);
    }
    for (std::size_t i = 1; i < data.out_edges.size(); ++i) {
      EXPECT_LE(data.out_edges[i - 1].src, data.out_edges[i].src);
    }
    // Bridges belong to this partition.
    for (const Edge& e : data.in_edges) {
      EXPECT_EQ(fx.assignment.owner(e.dst), p);
    }
    for (const Edge& e : data.out_edges) {
      EXPECT_EQ(fx.assignment.owner(e.src), p);
    }
  }
}

TEST(PartitionStoreTest, BucketedEdgeListsMatchTheFilesAndASortReference) {
  // Persistent workers build their partitions with bucket_partition_edges
  // instead of reading the files write_all produces from it; both must be
  // the fully sorted lists a plain bucket-then-sort gives.
  StoreFixture fx(60, 500, 5);
  const PartitionId m = fx.assignment.num_partitions();
  std::vector<std::vector<Edge>> in_ref(m);
  std::vector<std::vector<Edge>> out_ref(m);
  for (const Edge& e : fx.graph.edges) {
    in_ref[fx.assignment.owner(e.dst)].push_back(e);
    out_ref[fx.assignment.owner(e.src)].push_back(e);
  }
  PartitionStore store(fx.dir.path());
  store.write_all(fx.graph, fx.assignment, fx.profiles);
  const std::vector<PartitionData> all =
      bucket_partition_edges(fx.graph, fx.assignment);
  std::vector<bool> odd(m, false);
  for (PartitionId p = 1; p < m; p += 2) odd[p] = true;
  const std::vector<PartitionData> some =
      bucket_partition_edges(fx.graph, fx.assignment, odd);
  ASSERT_EQ(all.size(), m);
  ASSERT_EQ(some.size(), m);
  for (PartitionId p = 0; p < m; ++p) {
    std::sort(in_ref[p].begin(), in_ref[p].end(), in_edge_less);
    std::sort(out_ref[p].begin(), out_ref[p].end());
    EXPECT_EQ(all[p].id, p);
    EXPECT_EQ(all[p].in_edges, in_ref[p]) << "partition " << p;
    EXPECT_EQ(all[p].out_edges, out_ref[p]) << "partition " << p;
    const PartitionData files = store.load_edges(p);
    EXPECT_EQ(files.in_edges, all[p].in_edges) << "partition " << p;
    EXPECT_EQ(files.out_edges, all[p].out_edges) << "partition " << p;
    if (odd[p]) {
      EXPECT_EQ(some[p].in_edges, all[p].in_edges) << "partition " << p;
      EXPECT_EQ(some[p].out_edges, all[p].out_edges) << "partition " << p;
    } else {
      EXPECT_TRUE(some[p].in_edges.empty()) << "partition " << p;
      EXPECT_TRUE(some[p].out_edges.empty()) << "partition " << p;
    }
  }
}

TEST(PartitionStoreTest, LoadEdgesOmitsProfiles) {
  StoreFixture fx;
  PartitionStore store(fx.dir.path());
  store.write_all(fx.graph, fx.assignment, fx.profiles);
  const PartitionData data = store.load_edges(0);
  EXPECT_FALSE(data.vertices.empty());
  EXPECT_TRUE(data.profiles.empty());
}

TEST(PartitionStoreTest, ProfileOfMissingVertexIsNull) {
  StoreFixture fx;
  PartitionStore store(fx.dir.path());
  store.write_all(fx.graph, fx.assignment, fx.profiles);
  const PartitionData p0 = store.load(0);
  // Vertex 39 lives in partition 3 under range partitioning.
  EXPECT_EQ(p0.profile_of(39), nullptr);
}

TEST(PartitionStoreTest, WriteProfilesReplacesProfileFile) {
  StoreFixture fx;
  PartitionStore store(fx.dir.path());
  store.write_all(fx.graph, fx.assignment, fx.profiles);
  PartitionData data = store.load(0);
  data.profiles[0] = SparseProfile({{999, 9.0f}});
  store.write_profiles(0, data.vertices, data.profiles);
  const PartitionData reloaded = store.load(0);
  EXPECT_FLOAT_EQ(reloaded.profiles[0].weight(999), 9.0f);
}

TEST(PartitionStoreTest, IoAccountantTracksTraffic) {
  StoreFixture fx;
  PartitionStore store(fx.dir.path(), IoModel::hdd());
  store.write_all(fx.graph, fx.assignment, fx.profiles);
  const auto written = store.io().counters().bytes_written;
  EXPECT_GT(written, 0u);
  (void)store.load(0);
  EXPECT_GT(store.io().counters().bytes_read, 0u);
  EXPECT_GT(store.io().modeled_us(), 0.0);
}

TEST(PartitionStoreTest, MismatchedInputsThrow) {
  StoreFixture fx;
  PartitionStore store(fx.dir.path());
  EdgeList wrong = fx.graph;
  wrong.num_vertices = 7;
  EXPECT_THROW(store.write_all(wrong, fx.assignment, fx.profiles),
               std::invalid_argument);
}

// -------------------------------------------------------- partition cache --

TEST(PartitionCacheTest, CountsLoadsAndUnloads) {
  StoreFixture fx;
  PartitionStore store(fx.dir.path());
  store.write_all(fx.graph, fx.assignment, fx.profiles);
  PartitionCache cache(store, 2);
  cache.get(0);
  cache.get(1);
  EXPECT_EQ(cache.loads(), 2u);
  EXPECT_EQ(cache.unloads(), 0u);
  cache.get(0);  // hit
  EXPECT_EQ(cache.loads(), 2u);
  cache.get(2);  // evicts LRU (=1)
  EXPECT_EQ(cache.loads(), 3u);
  EXPECT_EQ(cache.unloads(), 1u);
  EXPECT_TRUE(cache.resident(0));
  EXPECT_FALSE(cache.resident(1));
  cache.flush();
  EXPECT_EQ(cache.unloads(), 3u);
  EXPECT_EQ(cache.operations(), 6u);
}

TEST(PartitionCacheTest, LruEvictionOrder) {
  StoreFixture fx;
  PartitionStore store(fx.dir.path());
  store.write_all(fx.graph, fx.assignment, fx.profiles);
  PartitionCache cache(store, 2);
  cache.get(0);
  cache.get(1);
  cache.get(0);  // 0 is now most recent
  cache.get(3);  // should evict 1, not 0
  EXPECT_TRUE(cache.resident(0));
  EXPECT_TRUE(cache.resident(3));
  EXPECT_FALSE(cache.resident(1));
}

}  // namespace
}  // namespace knnpc
