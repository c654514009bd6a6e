#include "core/tuple_generation.h"

#include "util/thread_pool.h"

namespace knnpc {

void score_tuples(std::span<const Tuple> tuples,
                  const FlatProfileSet& primary,
                  const FlatProfileSet* secondary, SimilarityMeasure measure,
                  KernelBackend backend, ThreadPool* pool,
                  std::vector<float>& scores) {
  scores.assign(tuples.size(), 0.0f);
  auto score_range = [&](std::size_t lo, std::size_t hi) {
    KernelScratch scratch;
    std::vector<VertexId> cands;
    std::size_t i = lo;
    while (i < hi) {
      std::size_t run_end = i + 1;
      while (run_end < hi && tuples[run_end].s == tuples[i].s) {
        ++run_end;
      }
      cands.clear();
      for (std::size_t t = i; t < run_end; ++t) {
        cands.push_back(tuples[t].d);
      }
      score_batch(primary, secondary, tuples[i].s, cands, measure, backend,
                  scores.data() + i, scratch);
      i = run_end;
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(0, tuples.size(), score_range, /*min_chunk=*/256);
  } else {
    score_range(0, tuples.size());
  }
}

std::uint64_t all_bridge_tuples(const Digraph& graph,
                                const std::function<void(Tuple)>& emit) {
  std::uint64_t emitted = 0;
  for (VertexId bridge = 0; bridge < graph.num_vertices(); ++bridge) {
    for (VertexId s : graph.in_neighbors(bridge)) {
      for (VertexId d : graph.out_neighbors(bridge)) {
        if (s == d) continue;
        emit(Tuple{s, d});
        ++emitted;
      }
    }
  }
  return emitted;
}

}  // namespace knnpc
