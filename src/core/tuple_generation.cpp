#include "core/tuple_generation.h"

namespace knnpc {

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
