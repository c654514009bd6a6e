#include "core/engine.h"

#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "core/convergence.h"
#include "core/topk.h"
#include "core/tuple_dedup.h"
#include "core/tuple_generation.h"
#include "graph/digraph.h"
#include "graph/knn_graph_io.h"
#include "partition/cost.h"
#include "partition/partitioner.h"
#include "pigraph/heuristics.h"
#include "pigraph/pi_graph.h"
#include "profiles/flat_profile.h"
#include "profiles/similarity_kernels.h"
#include "storage/partition_store.h"
#include "storage/shard_writer.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/serde.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace knnpc {
namespace fs = std::filesystem;

struct KnnEngine::Impl {
  std::unique_ptr<ScratchDir> scratch;
  fs::path work_dir;
  /// config.threads resolved against the workload (0 = auto).
  std::uint32_t threads = 1;
  std::unique_ptr<ThreadPool> pool;
  IoAccountant shard_io;
  /// Previous phase-1 assignment (reused when repartition_every > 1).
  std::optional<PartitionAssignment> last_assignment;

  Impl(const EngineConfig& config, VertexId num_users)
      : shard_io(config.io_model) {
    if (config.work_dir.empty()) {
      scratch = std::make_unique<ScratchDir>("engine");
      work_dir = scratch->path();
    } else {
      work_dir = config.work_dir;
      fs::create_directories(work_dir);
    }
    threads = resolve_thread_count(
        config.threads,
        static_cast<std::uint64_t>(num_users) * std::max(config.k, 1u),
        kPhase4WorkPerThread);
    if (threads > 1) {
      // The thread issuing a parallel loop participates in it, so spawn
      // one fewer worker than the target total to avoid oversubscribing.
      pool = std::make_unique<ThreadPool>(threads - 1);
    }
  }

  /// Runs body(i) for i in [0, count), one task per index on the pool
  /// (inline without one).
  template <typename Body>
  void for_each_task(std::size_t count, Body&& body) {
    if (!pool) {
      for (std::size_t i = 0; i < count; ++i) body(i);
      return;
    }
    pool->parallel_for(
        0, count,
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) body(i);
        },
        /*min_chunk=*/1);
  }
};

KnnEngine::KnnEngine(EngineConfig config, std::vector<SparseProfile> profiles)
    : config_(std::move(config)),
      profiles_(std::move(profiles)),
      impl_(std::make_unique<Impl>(config_, profiles_.num_users())) {
  if (config_.num_partitions == 0) {
    throw std::invalid_argument("KnnEngine: num_partitions must be > 0");
  }
  if (config_.memory_slots < 2) {
    throw std::invalid_argument(
        "KnnEngine: memory_slots must be >= 2 (a PI pair needs both "
        "partitions resident)");
  }
  Rng rng(config_.seed);
  graph_ = random_knn_graph(profiles_.num_users(), config_.k, rng);
}

KnnEngine::~KnnEngine() = default;

void KnnEngine::set_initial_graph(KnnGraph graph) {
  if (graph.num_vertices() != profiles_.num_users()) {
    throw std::invalid_argument(
        "KnnEngine::set_initial_graph: vertex count mismatch");
  }
  graph_ = std::move(graph);
}

IterationStats KnnEngine::run_iteration() {
  IterationStats stats;
  stats.iteration = iteration_;
  const VertexId n = profiles_.num_users();
  const PartitionId m = config_.num_partitions;
  PartitionStore store(impl_->work_dir / "partitions", config_.io_model,
                       config_.storage_mode);
  impl_->shard_io.reset();

  // ---- Phase 1: partition G(t) and write partition files. -------------
  PartitionAssignment assignment;
  {
    ScopedAccumulator timing(&stats.timings.partition_s);
    const EdgeList edge_list = graph_.to_edge_list();
    const Digraph digraph(edge_list);
    const bool reuse =
        config_.repartition_every > 1 &&
        iteration_ % config_.repartition_every != 0 &&
        impl_->last_assignment.has_value() &&
        impl_->last_assignment->num_vertices() == n &&
        impl_->last_assignment->num_partitions() == m;
    if (reuse) {
      assignment = *impl_->last_assignment;
    } else {
      assignment = make_partitioner(config_.partitioner)->assign(digraph, m);
      impl_->last_assignment = assignment;
    }
    store.write_all(edge_list, assignment, profiles_, impl_->pool.get());
    if (config_.record_partition_cost) {
      stats.partition_cost_total = partition_cost(digraph, assignment).total;
    }
  }

  // ---- Phase 2: populate H with unique tuples, one bundle per pair. --
  // Tasks (one per partition, then one per user range for the restarts)
  // generate candidates in parallel, each into its own buckets by pair
  // slot. Each slot is then sorted and deduplicated on the pool and
  // written once, as <work_dir>/tuples_<slot>.bin in ascending (s, d)
  // order (core/tuple_dedup.h): a function of the candidate multiset
  // alone, so the bundles are the same at every thread count. Phase 4
  // reads each pair's bundle back when its turn in the schedule comes.
  const std::size_t num_slots = pi_pair_slot(m - 1, m - 1, m) + 1;
  std::vector<std::uint64_t> slot_tuples;
  {
    ScopedAccumulator timing(&stats.timings.hash_s);
    const std::span<const PartitionId> owner = assignment.owners();
    const std::size_t restart_tasks =
        config_.random_candidates > 0 && n > 1 ? impl_->threads : 0;
    const std::size_t num_tasks = m + restart_tasks;
    std::vector<SlotBuckets> buckets(num_tasks, SlotBuckets(num_slots));
    std::vector<std::uint64_t> emitted(num_tasks, 0);
    impl_->for_each_task(num_tasks, [&](std::size_t task) {
      SlotBuckets& out = buckets[task];
      auto emit = [&](Tuple t) {
        out[pi_pair_slot(owner[t.s], owner[t.d], m)].push_back(t);
      };
      if (task < m) {
        const auto p = static_cast<PartitionId>(task);
        const PartitionData part = store.load_edges(p);
        emitted[task] = partition_candidates(part.in_edges, part.out_edges,
                                             p, config_, iteration_, emit);
        return;
      }
      const std::size_t r = task - m;
      const auto lo = static_cast<VertexId>(n * r / restart_tasks);
      const auto hi = static_cast<VertexId>(n * (r + 1) / restart_tasks);
      for (VertexId s = lo; s < hi; ++s) {
        emitted[task] += restart_candidates(s, n, config_, iteration_, emit);
      }
    });
    for (const std::uint64_t e : emitted) stats.candidate_tuples += e;
    slot_tuples = write_tuple_bundles(buckets, n, impl_->work_dir,
                                      impl_->pool.get(), &impl_->shard_io);
    for (const std::uint64_t u : slot_tuples) stats.unique_tuples += u;
  }

  // ---- Phase 3: PI graph + traversal schedule. -------------------------
  PiGraph pi(m);
  Schedule schedule;
  {
    ScopedAccumulator timing(&stats.timings.pi_graph_s);
    for (PartitionId a = 0; a < m; ++a) {
      for (PartitionId b = a; b < m; ++b) {
        const auto count = slot_tuples[pi_pair_slot(a, b, m)];
        if (count > 0) pi.add_edge(a, b, count);
      }
    }
    pi.finalize();
    stats.pi_pairs = pi.num_pairs();
    schedule = make_heuristic(config_.heuristic)->schedule(pi);
  }

  // ---- Phase 4: stream partition pairs, compute sims, keep top-K. -----
  stats.threads_used = impl_->threads;
  {
    ScopedAccumulator timing(&stats.timings.knn_s);
    TopKAccumulator acc(n, config_.k);
    // Score-spilling mode: candidates go to per-partition score files
    // instead of the live accumulator, bounding resident phase-4 state.
    std::optional<RecordShardWriter<ScoredTuple>> score_writer;
    if (config_.spill_scores) {
      score_writer.emplace(impl_->work_dir, "scores", m,
                           config_.shard_buffer_bytes, &impl_->shard_io);
    }
    // Each load reads a partition's vertex and profile files only and
    // decodes the profiles straight into the flat (SoA) layout the
    // batched kernels read, over the pool: once per load, not per pair.
    PartitionCache cache(config_.memory_slots, [&](PartitionId p) {
      return store.load_flat(p, config_.quantize_profiles,
                             impl_->pool.get());
    });
    const KernelBackend backend = resolve_kernel_backend(config_.kernel);
    std::vector<float> scores;
    for (PairIndex idx : schedule) {
      const PiPair& pair = pi.pair(idx);
      const std::vector<Tuple> tuples = read_record_shard<Tuple>(
          tuple_bundle_path(impl_->work_dir, pi_pair_slot(pair.a, pair.b, m)),
          &impl_->shard_io);
      const FlatProfileSet& fa = cache.get(pair.a).flat;
      const FlatProfileSet* fb =
          pair.b == pair.a ? nullptr : &cache.get(pair.b).flat;
      ScopedAccumulator score_timing(&stats.knn_score_s);
      if (score_writer) {
        scores.resize(tuples.size());
        score_and_offer(tuples, fa, fb, config_.measure, backend,
                        impl_->pool.get(),
                        [&](std::size_t i, float score) { scores[i] = score; });
        for (std::size_t i = 0; i < tuples.size(); ++i) {
          score_writer->add(assignment.owner(tuples[i].s),
                            {tuples[i].s, tuples[i].d, scores[i]});
        }
      } else {
        score_and_offer(tuples, fa, fb, config_.measure, backend,
                        impl_->pool.get(), [&](std::size_t i, float score) {
                          acc.offer(tuples[i].s, tuples[i].d, score);
                        });
      }
    }
    cache.flush();  // count the final unloads, as in the simulator
    stats.partition_loads = cache.loads();
    stats.partition_unloads = cache.unloads();

    KnnGraph next(n, config_.k);
    {
      ScopedAccumulator merge_timing(&stats.knn_merge_s);
      if (score_writer) {
        // Finalise one partition's users at a time from its score file.
        score_writer->finish();
        for (PartitionId p = 0; p < m; ++p) {
          const auto spilled = read_record_shard<ScoredTuple>(
              score_writer->shard_path(p), &impl_->shard_io);
          for (const ScoredTuple& t : spilled) acc.offer(t.s, t.d, t.score);
          const auto members = assignment.members(p);
          auto finalise = [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
              next.set_neighbors(members[i], acc.take(members[i]));
            }
          };
          if (impl_->pool) {
            impl_->pool->parallel_for(0, members.size(), finalise,
                                      /*min_chunk=*/1024);
          } else {
            finalise(0, members.size());
          }
        }
      } else {
        next = acc.build_graph(impl_->pool.get());
      }
    }
    // change_count is an exact integer per vertex range, so reducing it
    // over the pool reproduces the serial change rate bit-for-bit.
    const std::size_t differing =
        impl_->pool
            ? impl_->pool->parallel_reduce(
                  0, n, std::size_t{0},
                  [&](std::size_t lo, std::size_t hi) {
                    return KnnGraph::change_count(
                        graph_, next, static_cast<VertexId>(lo),
                        static_cast<VertexId>(hi));
                  },
                  [](std::size_t a, std::size_t b) { return a + b; },
                  /*min_chunk=*/4096)
            : KnnGraph::change_count(graph_, next, 0, n);
    stats.change_rate =
        n == 0 ? 0.0
               : static_cast<double>(differing) /
                     (static_cast<double>(n) *
                      std::max<std::uint32_t>(config_.k, 1));
    graph_ = std::move(next);
  }

  // ---- Phase 5: apply queued profile updates (P(t) -> P(t+1)). --------
  {
    ScopedAccumulator timing(&stats.timings.update_s);
    stats.profile_updates_applied = queue_.apply_to(profiles_);
  }

  if (config_.checkpoint) {
    save_knn_graph_file(impl_->work_dir / "checkpoint_latest.knng", graph_);
  }

  if (config_.recall_samples > 0) {
    stats.sampled_recall =
        sampled_recall(graph_, profiles_, config_.measure,
                       config_.recall_samples, config_.seed,
                       impl_->pool.get())
            .recall;
  }

  stats.io = store.io().counters();
  stats.io += impl_->shard_io.counters();
  stats.modeled_io_us =
      store.io().modeled_us() + impl_->shard_io.modeled_us();

  KNNPC_LOG(Info) << "iteration " << iteration_ << ": "
                  << stats.unique_tuples << " tuples, " << stats.pi_pairs
                  << " PI pairs, " << stats.partition_loads << " loads, "
                  << "change rate " << stats.change_rate;
  if (sink_ != nullptr) {
    sink_->publish(graph_, profiles_, assignment.owners(), iteration_);
  }
  ++iteration_;
  return stats;
}

IterationStats sum_iteration_stats(const std::vector<IterationStats>& parts) {
  IterationStats total;
  if (parts.empty()) return total;
  total.iteration = parts.front().iteration;
  total.threads_used = 0;  // default is 1; the sum must count parts only
  for (const IterationStats& p : parts) {
    total.timings.partition_s += p.timings.partition_s;
    total.timings.hash_s += p.timings.hash_s;
    total.timings.pi_graph_s += p.timings.pi_graph_s;
    total.timings.knn_s += p.timings.knn_s;
    total.timings.update_s += p.timings.update_s;
    total.candidate_tuples += p.candidate_tuples;
    total.unique_tuples += p.unique_tuples;
    total.pi_pairs += p.pi_pairs;
    total.partition_loads += p.partition_loads;
    total.partition_unloads += p.partition_unloads;
    total.io += p.io;
    total.modeled_io_us += p.modeled_io_us;
    total.knn_score_s += p.knn_score_s;
    total.knn_merge_s += p.knn_merge_s;
    total.threads_used += p.threads_used;
    total.profile_updates_applied += p.profile_updates_applied;
  }
  return total;
}

PartitionId suggest_partition_count(std::uint64_t total_data_bytes,
                                    std::uint64_t memory_budget_bytes,
                                    std::size_t slots, VertexId num_users) {
  if (memory_budget_bytes == 0) {
    throw std::invalid_argument("suggest_partition_count: zero budget");
  }
  slots = std::max<std::size_t>(slots, 2);
  // Each resident partition holds ~ total/m bytes; we need `slots` of them
  // under the budget: m >= slots * total / budget.
  const double needed = static_cast<double>(slots) *
                        static_cast<double>(total_data_bytes) /
                        static_cast<double>(memory_budget_bytes);
  auto m = static_cast<PartitionId>(needed) + 1;
  m = std::max<PartitionId>(m, 1);
  if (num_users > 0) m = std::min<PartitionId>(m, num_users);
  return m;
}

std::uint64_t estimate_data_bytes(const std::vector<SparseProfile>& profiles,
                                  std::uint32_t k) {
  std::uint64_t bytes = 0;
  for (const auto& p : profiles) {
    bytes += sizeof(std::uint32_t) + p.size() * sizeof(ProfileEntry);
  }
  // Each of the n*k edges is stored once in an .in file and once in .out.
  bytes += 2ULL * profiles.size() * k * sizeof(Edge);
  return bytes;
}

RunStats KnnEngine::run(std::uint32_t max_iterations,
                        double convergence_delta) {
  RunStats run_stats;
  Timer total;
  for (std::uint32_t i = 0; i < max_iterations; ++i) {
    IterationStats stats = run_iteration();
    const double change = stats.change_rate;
    run_stats.iterations.push_back(std::move(stats));
    if (change < convergence_delta) {
      run_stats.converged = true;
      break;
    }
  }
  run_stats.total_seconds = total.elapsed_seconds();
  return run_stats;
}

}  // namespace knnpc
