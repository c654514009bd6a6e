// Tests for core/tuple_dedup and core/tuple_generation: sort-based dedup
// semantics (phase 2) and the sorted merge-join (phase 1's payoff).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <string>

#include "core/tuple_dedup.h"
#include "core/tuple_generation.h"
#include "graph/generators.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace knnpc {
namespace {

// -------------------------------------------------------- sort-based dedup --

/// Each slot's emitted run (empty when nothing was emitted) and the
/// returned counts, from one dedup_tuple_slots call on `threads` threads.
struct Dedup {
  std::vector<std::vector<Tuple>> runs;
  std::vector<std::uint64_t> unique;
};

Dedup dedup(std::vector<SlotBuckets> producers, VertexId n,
            std::uint32_t threads = 1) {
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads - 1);
  Dedup out;
  out.runs.resize(producers.empty() ? 0 : producers.front().size());
  out.unique = dedup_tuple_slots(
      producers, n, pool.get(),
      [&](std::size_t slot, std::span<const Tuple> run) {
        out.runs[slot].assign(run.begin(), run.end());
      });
  for (const SlotBuckets& buckets : producers) {
    for (const auto& bucket : buckets) EXPECT_TRUE(bucket.empty());
  }
  return out;
}

/// One producer, one slot.
std::vector<Tuple> dedup_one(std::vector<Tuple> tuples, VertexId n) {
  return dedup({SlotBuckets{std::move(tuples)}}, n).runs.at(0);
}

TEST(TupleDedupTest, KeepsOneCopyOfEachOrderedPair) {
  // (1, 2) twice; (2, 1) is a distinct ordered pair.
  EXPECT_EQ(dedup_one({{2, 1}, {1, 2}, {1, 2}}, 3),
            (std::vector<Tuple>{{1, 2}, {2, 1}}));
}

TEST(TupleDedupTest, DedupRatioExample) {
  // The paper's motivating duplicates: a->b->d and a->c->d both emit
  // (a, d).
  const Dedup out = dedup({SlotBuckets{{{0, 3}, {0, 3}}}}, 4);
  EXPECT_EQ(out.runs[0], (std::vector<Tuple>{{0, 3}}));
  EXPECT_EQ(out.unique, (std::vector<std::uint64_t>{1}));
}

TEST(TupleDedupTest, LargeSlotOfDistinctTuplesKeepsEveryOne) {
  // Past the comparison-sort cutoff: the radix path.
  std::vector<Tuple> tuples;
  for (VertexId i = 10000; i-- > 0;) tuples.push_back({i, i + 1});
  const std::vector<Tuple> run = dedup_one(tuples, 10001);
  ASSERT_EQ(run.size(), 10000u);
  for (VertexId i = 0; i < 10000; ++i) EXPECT_EQ(run[i], (Tuple{i, i + 1}));
}

TEST(TupleDedupTest, EmptySlotsEmitNothingAndCountZero) {
  SlotBuckets buckets(3);
  buckets[1] = {{4, 5}};
  const Dedup out = dedup({buckets}, 8);
  EXPECT_EQ(out.unique, (std::vector<std::uint64_t>{0, 1, 0}));
  EXPECT_TRUE(out.runs[0].empty());
  EXPECT_TRUE(out.runs[2].empty());
}

TEST(TupleDedupTest, KeyBitsCoverEveryId) {
  EXPECT_EQ(tuple_key_bits(0), 0u);
  EXPECT_EQ(tuple_key_bits(1), 0u);
  EXPECT_EQ(tuple_key_bits(2), 1u);
  EXPECT_EQ(tuple_key_bits(1024), 10u);
  EXPECT_EQ(tuple_key_bits(1025), 11u);
  EXPECT_EQ(tuple_key_bits(std::numeric_limits<VertexId>::max()), 32u);
}

TEST(TupleDedupTest, ProducersWithDifferentSlotCountsThrow) {
  std::vector<SlotBuckets> producers{SlotBuckets(2), SlotBuckets(3)};
  EXPECT_THROW(dedup_tuple_slots(producers, 4, nullptr,
                                 [](std::size_t, std::span<const Tuple>) {}),
               std::invalid_argument);
}

/// A randomised dedup case: `producers` x `slots` buckets of tuples with
/// ids drawn by `draw`, each routed to slot (s ^ d) % slots (a function
/// of the tuple, like a pair slot).
struct DedupCase {
  std::string name;
  VertexId n;
  std::size_t producers;
  std::size_t slots;
  std::size_t tuples;
  bool with_reverse;  // also emit (d, s), as include_reverse does
  std::function<VertexId(Rng&)> draw;
};

class TupleDedupReferenceTest : public ::testing::TestWithParam<DedupCase> {};

TEST_P(TupleDedupReferenceTest, EqualsStdSetAtEveryThreadCount) {
  const DedupCase& c = GetParam();
  Rng rng(1234);
  std::vector<SlotBuckets> producers(c.producers, SlotBuckets(c.slots));
  std::vector<std::set<Tuple>> reference(c.slots);
  auto add = [&](Tuple t) {
    const std::size_t slot = (t.s ^ t.d) % c.slots;
    producers[rng.next_below(c.producers)][slot].push_back(t);
    reference[slot].insert(t);
  };
  for (std::size_t i = 0; i < c.tuples; ++i) {
    const Tuple t{c.draw(rng), c.draw(rng)};
    add(t);
    if (c.with_reverse) add({t.d, t.s});
  }
  for (const std::uint32_t threads : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const Dedup out = dedup(producers, c.n, threads);
    for (std::size_t slot = 0; slot < c.slots; ++slot) {
      const std::vector<Tuple> expected(reference[slot].begin(),
                                        reference[slot].end());
      EXPECT_EQ(out.runs[slot], expected) << "slot " << slot;
      EXPECT_EQ(out.unique[slot], expected.size()) << "slot " << slot;
    }
  }
}

constexpr VertexId kMaxId = std::numeric_limits<VertexId>::max();

INSTANTIATE_TEST_SUITE_P(
    Cases, TupleDedupReferenceTest,
    ::testing::Values(
        // Many duplicates: ids from a small range.
        DedupCase{"dense", 300, 3, 5, 40000, false,
                  [](Rng& r) { return static_cast<VertexId>(r.next_below(300)); }},
        // Mostly distinct tuples plus their reverses: a low dedup ratio.
        DedupCase{"include_reverse", 50000, 4, 7, 30000, true,
                  [](Rng& r) {
                    return static_cast<VertexId>(r.next_below(50000));
                  }},
        // One user: only (0, 0) exists, and the key has no bits at all.
        DedupCase{"one_user", 1, 2, 1, 1000, false,
                  [](Rng&) { return VertexId{0}; }},
        // n a power of two: ids fill every key bit of both halves.
        DedupCase{"power_of_two", 4096, 3, 3, 30000, true,
                  [](Rng& r) {
                    return static_cast<VertexId>(4095 - r.next_below(64) * 64);
                  }},
        // Ids near UINT32_MAX: the packed key uses all 64 bits.
        DedupCase{"ids_near_max", kMaxId, 2, 3, 20000, true,
                  [](Rng& r) {
                    return r.next_bool(0.5)
                               ? static_cast<VertexId>(kMaxId - 1 -
                                                       r.next_below(300))
                               : static_cast<VertexId>(r.next_below(300));
                  }}),
    [](const ::testing::TestParamInfo<DedupCase>& info) {
      return info.param.name;
    });

// ------------------------------------------------------------- merge join --

std::vector<Edge> sorted_by_dst(std::vector<Edge> edges) {
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return a.dst != b.dst ? a.dst < b.dst : a.src < b.src;
  });
  return edges;
}

TEST(MergeJoinTest, EmitsCrossProductPerBridge) {
  // Bridge 5: in {1,2} -> 5, out 5 -> {7,8}. Expect 4 tuples.
  const auto in_edges = sorted_by_dst({{1, 5}, {2, 5}});
  const std::vector<Edge> out_edges{{5, 7}, {5, 8}};
  std::set<std::uint64_t> got;
  const auto count = merge_join_tuples(
      in_edges, out_edges, [&](Tuple t) { got.insert(tuple_key(t)); });
  EXPECT_EQ(count, 4u);
  EXPECT_TRUE(got.contains(tuple_key({1, 7})));
  EXPECT_TRUE(got.contains(tuple_key({1, 8})));
  EXPECT_TRUE(got.contains(tuple_key({2, 7})));
  EXPECT_TRUE(got.contains(tuple_key({2, 8})));
}

TEST(MergeJoinTest, SkipsSelfTuples) {
  // 1 -> 5 -> 1 would produce (1, 1): must be skipped.
  const std::vector<Edge> in_edges{{1, 5}};
  const std::vector<Edge> out_edges{{5, 1}};
  std::size_t emitted = 0;
  merge_join_tuples(in_edges, out_edges, [&](Tuple) { ++emitted; });
  EXPECT_EQ(emitted, 0u);
}

TEST(MergeJoinTest, DisjointBridgesEmitNothing) {
  const std::vector<Edge> in_edges{{1, 2}};
  const std::vector<Edge> out_edges{{3, 4}};
  std::size_t emitted = 0;
  merge_join_tuples(in_edges, out_edges, [&](Tuple) { ++emitted; });
  EXPECT_EQ(emitted, 0u);
}

TEST(MergeJoinTest, EmptyInputs) {
  std::size_t emitted = 0;
  merge_join_tuples({}, {}, [&](Tuple) { ++emitted; });
  merge_join_tuples(std::vector<Edge>{{1, 2}}, {}, [&](Tuple) { ++emitted; });
  EXPECT_EQ(emitted, 0u);
}

TEST(MergeJoinTest, MatchesReferenceGeneratorOnRandomGraph) {
  Rng rng(19);
  const EdgeList list = erdos_renyi(60, 300, rng);
  const Digraph graph(list);

  // Reference: adjacency walk over the whole graph.
  std::multiset<std::uint64_t> expected;
  all_bridge_tuples(graph,
                    [&](Tuple t) { expected.insert(tuple_key(t)); });

  // Merge join over the whole graph treated as one partition: in-edges
  // sorted by dst, out-edges sorted by src.
  const auto in_edges = sorted_by_dst(list.edges);
  std::vector<Edge> out_edges = list.edges;
  std::sort(out_edges.begin(), out_edges.end());
  std::multiset<std::uint64_t> got;
  merge_join_tuples(in_edges, out_edges,
                    [&](Tuple t) { got.insert(tuple_key(t)); });
  EXPECT_EQ(got, expected);
}

TEST(MergeJoinTest, ReferenceGeneratorCountsRingCorrectly) {
  // Directed ring 0->1->2->...->0 with k=1: every vertex has exactly one
  // 2-hop successor, so n tuples.
  const Digraph g(ring_lattice(10, 1));
  std::size_t emitted = 0;
  all_bridge_tuples(g, [&](Tuple) { ++emitted; });
  EXPECT_EQ(emitted, 10u);
}

}  // namespace
}  // namespace knnpc
