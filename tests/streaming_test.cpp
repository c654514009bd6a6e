// Tests for the out-of-core streaming substrates: external sort, record
// shard writers, the streaming partition-write path, and the engine's
// score-spilling mode.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/engine.h"
#include "graph/generators.h"
#include "partition/partitioner.h"
#include "profiles/generators.h"
#include "storage/external_sort.h"
#include "storage/partition_store.h"
#include "storage/shard_writer.h"
#include "util/rng.h"

namespace knnpc {
namespace {
namespace fs = std::filesystem;

// ---------------------------------------------------------- external sort

std::vector<Edge> random_edges(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> edges(count);
  for (auto& e : edges) {
    e.src = static_cast<VertexId>(rng.next_below(1000));
    e.dst = static_cast<VertexId>(rng.next_below(1000));
  }
  return edges;
}

TEST(ExternalSortTest, SortsWithinMemoryBudgetSingleRun) {
  ScratchDir dir("esort1");
  const auto edges = random_edges(500, 1);
  IoCounters counters;
  const fs::path in = dir.path() / "in.bin";
  write_file(in, to_bytes(edges), counters);
  const fs::path out = dir.path() / "out.bin";
  const auto stats = external_sort_file<Edge>(
      in, out, /*memory_budget=*/1 << 20, std::less<Edge>{});
  EXPECT_EQ(stats.records, 500u);
  EXPECT_EQ(stats.runs, 1u);
  EXPECT_EQ(stats.bytes_spilled, 0u);
  const auto sorted = from_bytes<Edge>(read_file(out, counters));
  EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
  EXPECT_EQ(sorted.size(), 500u);
}

TEST(ExternalSortTest, MultiRunMergeMatchesInMemorySort) {
  ScratchDir dir("esort2");
  auto edges = random_edges(10000, 2);
  IoCounters counters;
  const fs::path in = dir.path() / "in.bin";
  write_file(in, to_bytes(edges), counters);
  const fs::path out = dir.path() / "out.bin";
  // Tiny budget: ~64 records per run -> many runs.
  const auto stats = external_sort_file<Edge>(
      in, out, 64 * sizeof(Edge), std::less<Edge>{});
  EXPECT_EQ(stats.records, 10000u);
  EXPECT_GT(stats.runs, 100u);
  EXPECT_GT(stats.bytes_spilled, 0u);
  const auto sorted = from_bytes<Edge>(read_file(out, counters));
  std::sort(edges.begin(), edges.end());
  EXPECT_EQ(sorted, edges);
  // Run files must be cleaned up.
  std::size_t leftover = 0;
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    if (entry.path().string().find(".run") != std::string::npos) ++leftover;
  }
  EXPECT_EQ(leftover, 0u);
}

TEST(ExternalSortTest, CustomComparatorSortsByBridge) {
  ScratchDir dir("esort3");
  const auto edges = random_edges(2000, 3);
  IoCounters counters;
  const fs::path in = dir.path() / "in.bin";
  write_file(in, to_bytes(edges), counters);
  const fs::path out = dir.path() / "out.bin";
  auto by_dst = [](const Edge& a, const Edge& b) {
    return a.dst != b.dst ? a.dst < b.dst : a.src < b.src;
  };
  external_sort_file<Edge>(in, out, 128 * sizeof(Edge), by_dst);
  const auto sorted = from_bytes<Edge>(read_file(out, counters));
  EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end(), by_dst));
}

TEST(ExternalSortTest, EmptyInput) {
  ScratchDir dir("esort4");
  IoCounters counters;
  const fs::path in = dir.path() / "in.bin";
  write_file(in, {}, counters);
  const fs::path out = dir.path() / "out.bin";
  const auto stats =
      external_sort_file<Edge>(in, out, 1 << 20, std::less<Edge>{});
  EXPECT_EQ(stats.records, 0u);
  EXPECT_TRUE(from_bytes<Edge>(read_file(out, counters)).empty());
}

TEST(ExternalSortTest, InPlaceSort) {
  ScratchDir dir("esort5");
  const auto edges = random_edges(3000, 5);
  IoCounters counters;
  const fs::path path = dir.path() / "data.bin";
  write_file(path, to_bytes(edges), counters);
  external_sort_file<Edge>(path, path, 100 * sizeof(Edge),
                           std::less<Edge>{});
  const auto sorted = from_bytes<Edge>(read_file(path, counters));
  EXPECT_EQ(sorted.size(), 3000u);
  EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
}

TEST(ExternalSortTest, MissingInputThrows) {
  EXPECT_THROW(external_sort_file<Edge>("/nonexistent/in.bin",
                                        "/tmp/out.bin", 1 << 20,
                                        std::less<Edge>{}),
               std::runtime_error);
}

// ----------------------------------------------------------- shard writer

TEST(ShardWriterTest, RoutesRecordsToShards) {
  ScratchDir dir("shards");
  RecordShardWriter<Tuple> writer(dir.path(), "tuples", 4, 1 << 20);
  writer.add(0, {1, 2});
  writer.add(0, {3, 4});
  writer.add(3, {5, 6});
  writer.finish();
  EXPECT_EQ(writer.shard_records(0), 2u);
  EXPECT_EQ(writer.shard_records(1), 0u);
  EXPECT_EQ(writer.shard_records(3), 1u);
  const auto shard0 = read_record_shard<Tuple>(writer.shard_path(0));
  ASSERT_EQ(shard0.size(), 2u);
  EXPECT_EQ(shard0[0], (Tuple{1, 2}));
  EXPECT_EQ(shard0[1], (Tuple{3, 4}));
  // Never-written shard: empty, not an error.
  EXPECT_TRUE(read_record_shard<Tuple>(writer.shard_path(1)).empty());
}

TEST(ShardWriterTest, TinyBudgetForcesIncrementalFlushes) {
  ScratchDir dir("shards-flush");
  IoAccountant accountant;
  // Budget of ~8 tuples across 2 shards.
  RecordShardWriter<Tuple> writer(dir.path(), "tuples", 2,
                                  8 * sizeof(Tuple), &accountant);
  for (VertexId i = 0; i < 1000; ++i) {
    writer.add(i % 2, {i, i + 1});
  }
  // Flushes must have happened *during* the adds, not only at finish().
  EXPECT_GT(accountant.counters().write_ops, 1u);
  writer.finish();
  const auto shard0 = read_record_shard<Tuple>(writer.shard_path(0));
  const auto shard1 = read_record_shard<Tuple>(writer.shard_path(1));
  EXPECT_EQ(shard0.size(), 500u);
  EXPECT_EQ(shard1.size(), 500u);
  // Append order preserved per shard.
  for (std::size_t i = 1; i < shard0.size(); ++i) {
    EXPECT_LT(shard0[i - 1].s, shard0[i].s);
  }
}

TEST(ShardWriterTest, RemovesStaleFilesOnConstruction) {
  ScratchDir dir("shards-stale");
  {
    RecordShardWriter<Tuple> writer(dir.path(), "tuples", 2, 1 << 20);
    writer.add(0, {1, 2});
    writer.finish();
  }
  RecordShardWriter<Tuple> fresh(dir.path(), "tuples", 2, 1 << 20);
  fresh.finish();
  EXPECT_TRUE(read_record_shard<Tuple>(fresh.shard_path(0)).empty());
}

TEST(ShardWriterTest, AddAfterFinishThrows) {
  ScratchDir dir("shards-finish");
  RecordShardWriter<Tuple> writer(dir.path(), "tuples", 1, 1 << 20);
  writer.finish();
  EXPECT_THROW(writer.add(0, {1, 2}), std::logic_error);
}

TEST(ShardWriterTest, ScoredTupleShards) {
  ScratchDir dir("shards-scored");
  RecordShardWriter<ScoredTuple> writer(dir.path(), "scores", 2, 1 << 20);
  writer.add(1, {7, 9, 0.5f});
  writer.finish();
  const auto back = read_record_shard<ScoredTuple>(writer.shard_path(1));
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0], (ScoredTuple{7, 9, 0.5f}));
}

// ----------------------------------------------- streaming partition write

TEST(StreamingWriteTest, MatchesInMemoryWriteAll) {
  Rng rng(11);
  const EdgeList graph = chung_lu_directed(200, 1500, 2.3, rng);
  const auto assignment =
      make_partitioner("range")->assign(Digraph(graph), 5);
  ProfileGenConfig pconfig;
  pconfig.num_users = 200;
  InMemoryProfileStore profiles(uniform_profiles(pconfig, rng));

  ScratchDir mem_dir("stream-mem");
  ScratchDir stream_dir("stream-ext");
  PartitionStore mem_store(mem_dir.path());
  PartitionStore stream_store(stream_dir.path());
  mem_store.write_all(graph, assignment, profiles);
  // Tiny sort buffer: forces multi-run external sorts.
  stream_store.write_all_streaming(graph, assignment, profiles,
                                   /*sort_buffer_bytes=*/64 * sizeof(Edge));

  for (PartitionId p = 0; p < 5; ++p) {
    const PartitionData a = mem_store.load(p);
    const PartitionData b = stream_store.load(p);
    EXPECT_EQ(a.vertices, b.vertices) << "p=" << p;
    EXPECT_EQ(a.in_edges, b.in_edges) << "p=" << p;
    EXPECT_EQ(a.out_edges, b.out_edges) << "p=" << p;
    ASSERT_EQ(a.profiles.size(), b.profiles.size());
    for (std::size_t i = 0; i < a.profiles.size(); ++i) {
      EXPECT_EQ(a.profiles[i], b.profiles[i]);
    }
  }
}

TEST(StreamingWriteTest, HandlesEmptyPartitions) {
  // m larger than the vertex count: some partitions are empty.
  Rng rng(13);
  const EdgeList graph = erdos_renyi(6, 20, rng);
  const auto assignment =
      make_partitioner("range")->assign(Digraph(graph), 12);
  ProfileGenConfig pconfig;
  pconfig.num_users = 6;
  InMemoryProfileStore profiles(uniform_profiles(pconfig, rng));
  ScratchDir dir("stream-empty");
  PartitionStore store(dir.path());
  store.write_all_streaming(graph, assignment, profiles);
  for (PartitionId p = 0; p < 12; ++p) {
    const PartitionData data = store.load(p);  // must not throw
    EXPECT_EQ(data.profiles.size(), data.vertices.size());
  }
}

// ------------------------------------------------- engine score spilling

TEST(ScoreSpillTest, SpillingMatchesInMemoryTopK) {
  Rng rng(17);
  ClusteredGenConfig pconfig;
  pconfig.base.num_users = 100;
  pconfig.base.num_items = 300;
  pconfig.num_clusters = 5;
  const auto profiles = clustered_profiles(pconfig, rng);

  EngineConfig in_memory;
  in_memory.k = 5;
  in_memory.num_partitions = 4;
  EngineConfig spilled = in_memory;
  spilled.spill_scores = true;
  spilled.shard_buffer_bytes = 1 << 12;  // force frequent flushes

  KnnEngine a(in_memory, profiles);
  KnnEngine b(spilled, profiles);
  for (int iter = 0; iter < 3; ++iter) {
    a.run_iteration();
    b.run_iteration();
    for (VertexId v = 0; v < 100; ++v) {
      const auto na = a.graph().neighbors(v);
      const auto nb = b.graph().neighbors(v);
      ASSERT_EQ(na.size(), nb.size()) << "iter=" << iter << " v=" << v;
      for (std::size_t i = 0; i < na.size(); ++i) {
        EXPECT_EQ(na[i].id, nb[i].id) << "iter=" << iter << " v=" << v;
      }
    }
  }
}

TEST(ScoreSpillTest, SpillingCostsExtraIo) {
  Rng rng(19);
  ClusteredGenConfig pconfig;
  pconfig.base.num_users = 80;
  pconfig.base.num_items = 200;
  pconfig.num_clusters = 4;
  const auto profiles = clustered_profiles(pconfig, rng);
  EngineConfig base;
  base.k = 5;
  base.num_partitions = 4;
  EngineConfig spill = base;
  spill.spill_scores = true;
  KnnEngine a(base, profiles);
  KnnEngine b(spill, profiles);
  const auto sa = a.run_iteration();
  const auto sb = b.run_iteration();
  EXPECT_GT(sb.io.bytes_written, sa.io.bytes_written);
  EXPECT_GT(sb.io.bytes_read, sa.io.bytes_read);
}

}  // namespace
}  // namespace knnpc
