// Phase 1's payoff: sequential merge-join of a partition's sorted in-edge
// and out-edge lists to emit neighbours-of-neighbours tuples.
//
// In-edges {(s, v)} and out-edges {(v, d)} are sorted by the bridge v, so
// one linear pass pairs every in-source s with every out-destination d of
// the same bridge: "the vertex v acts as a bridge between s and d".
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/engine.h"
#include "graph/digraph.h"
#include "profiles/similarity_kernels.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/types.h"

namespace knnpc {

/// Triangular index of the unordered PI pair (a, b), a <= b < m — the
/// slot layout of the per-pair tuple shard files, shared by the engine
/// and the shard driver so both bucket tuples identically.
inline std::size_t pi_pair_slot(PartitionId a, PartitionId b,
                                PartitionId m) {
  if (a > b) std::swap(a, b);
  // Row a starts after a*m - a*(a-1)/2 slots.
  return static_cast<std::size_t>(a) * m -
         static_cast<std::size_t>(a) * (a > 0 ? a - 1 : 0) / 2 + (b - a);
}

/// RNG stream for subsampling partition `p`'s merge-join candidates (the
/// NN-Descent rho knob) in iteration `t`. The stream is derived from
/// (seed, iteration, partition) alone — no cross-partition state — so any
/// executor that processes partition p reproduces the same sampling
/// decisions: the serial engine and every shard-driver worker draw
/// identical streams, which is what makes the KNN output independent of
/// the shard count (see core/shard_driver.h).
inline Rng candidate_sample_rng(std::uint64_t seed, std::uint32_t iteration,
                                PartitionId p) {
  return Rng(mix64(seed + 1) ^
             mix64(0xda942042e4dd58b5ULL * (iteration + 1)) ^
             mix64(0x510e527fade682d1ULL + p));
}

/// RNG stream for user `s`'s random-restart candidates in iteration `t`.
/// Per-user derivation (not one sequential stream over all users) for the
/// same reason as candidate_sample_rng: whichever worker generates user
/// s's restarts draws the same values.
inline Rng random_restart_rng(std::uint64_t seed, std::uint32_t iteration,
                              VertexId s) {
  return Rng(mix64(seed) ^ mix64(0x9e3779b97f4a7c15ULL * (iteration + 1)) ^
             mix64(0x6a09e667f3bcc909ULL + s));
}

/// Calls `emit(Tuple{s, d})` for every bridge pairing; skips s == d
/// (a user is not its own KNN candidate). Inputs MUST be sorted by
/// bridge: in_edges by .dst, out_edges by .src (the partition-store file
/// order). Returns the number of emitted tuples.
template <typename Emit>
std::uint64_t merge_join_tuples(std::span<const Edge> in_edges,
                                std::span<const Edge> out_edges,
                                Emit&& emit) {
  std::uint64_t emitted = 0;
  std::size_t i = 0;
  std::size_t o = 0;
  while (i < in_edges.size() && o < out_edges.size()) {
    const VertexId bridge_in = in_edges[i].dst;
    const VertexId bridge_out = out_edges[o].src;
    if (bridge_in < bridge_out) {
      ++i;
      continue;
    }
    if (bridge_out < bridge_in) {
      ++o;
      continue;
    }
    // Runs with equal bridge: cross product.
    const VertexId bridge = bridge_in;
    std::size_t i_end = i;
    while (i_end < in_edges.size() && in_edges[i_end].dst == bridge) ++i_end;
    std::size_t o_end = o;
    while (o_end < out_edges.size() && out_edges[o_end].src == bridge) {
      ++o_end;
    }
    for (std::size_t x = i; x < i_end; ++x) {
      for (std::size_t y = o; y < o_end; ++y) {
        const VertexId s = in_edges[x].src;
        const VertexId d = out_edges[y].dst;
        if (s == d) continue;
        emit(Tuple{s, d});
        ++emitted;
      }
    }
    i = i_end;
    o = o_end;
  }
  return emitted;
}

/// Phase-2 candidates of partition `p` in iteration `iteration`: its
/// bridge tuples (merge_join_tuples, subsampled at config.sample_rate with
/// p's own candidate_sample_rng stream) plus the direct edges of G(t) it
/// stores ("as well as directed edges from the graph G(t)"). Direct edges
/// are never sampled: the current KNN edges must keep competing or the
/// graph forgets what it already knows. Calls `emit(t)` per candidate,
/// followed by `emit(reverse of t)` when config.include_reverse. Returns
/// the candidate count before sampling, reverses not included — the
/// IterationStats::candidate_tuples contribution of p.
///
/// The one generator behind the serial engine and every shard-driver
/// producer: any executor that processes p emits the same stream.
template <typename Emit>
std::uint64_t partition_candidates(std::span<const Edge> in_edges,
                                   std::span<const Edge> out_edges,
                                   PartitionId p, const EngineConfig& config,
                                   std::uint32_t iteration, Emit&& emit) {
  auto admit = [&](Tuple t) {
    emit(t);
    if (config.include_reverse) emit(Tuple{t.d, t.s});
  };
  const bool sampling = config.sample_rate < 1.0;
  Rng sample_rng = candidate_sample_rng(config.seed, iteration, p);
  const std::uint64_t bridged =
      merge_join_tuples(in_edges, out_edges, [&](Tuple t) {
        if (sampling && !sample_rng.next_bool(config.sample_rate)) return;
        admit(t);
      });
  for (const Edge& e : out_edges) admit(Tuple{e.src, e.dst});
  return bridged + out_edges.size();
}

/// NN-Descent-style random restarts of user `s` (EngineConfig::
/// random_candidates uniform candidates among n users, self-draws
/// skipped) from s's own random_restart_rng stream, emitted like
/// partition_candidates. Returns the number of candidates emitted,
/// reverses not included.
template <typename Emit>
std::uint64_t restart_candidates(VertexId s, VertexId n,
                                 const EngineConfig& config,
                                 std::uint32_t iteration, Emit&& emit) {
  if (config.random_candidates == 0 || n <= 1) return 0;
  Rng restart_rng = random_restart_rng(config.seed, iteration, s);
  std::uint64_t emitted = 0;
  for (std::uint32_t r = 0; r < config.random_candidates; ++r) {
    const auto d = static_cast<VertexId>(restart_rng.next_below(n));
    if (d == s) continue;
    ++emitted;
    emit(Tuple{s, d});
    if (config.include_reverse) emit(Tuple{d, s});
  }
  return emitted;
}

/// Phase 4's scoring of one PI-pair bundle: scores[i] = similarity of
/// (tuples[i].s, tuples[i].d), profiles looked up in `primary` and, for a
/// two-partition pair, `secondary` (nullptr otherwise). Tuple shards are
/// grouped by source user (phase-2 emission order), so runs of equal s
/// batch naturally: one score_batch call — one source-profile lookup and
/// one warm source row — per run. Runs over `pool` when non-null; each
/// (i, score) pairing is independent of chunking, so the parallel split
/// cannot change results. The one scoring loop behind the serial engine
/// and every shard consumer.
void score_tuples(std::span<const Tuple> tuples,
                  const FlatProfileSet& primary,
                  const FlatProfileSet* secondary, SimilarityMeasure measure,
                  KernelBackend backend, ThreadPool* pool,
                  std::vector<float>& scores);

/// Reference tuple generator for tests: all (s, d) with d a
/// neighbour's-neighbour of s (s -> v -> d, s != d), via plain adjacency
/// walks on the whole graph. O(sum over v of in(v)*out(v)).
std::uint64_t all_bridge_tuples(const Digraph& graph,
                                const std::function<void(Tuple)>& emit);

}  // namespace knnpc
