// The benchmark's three workloads and the harness pieces they share:
// set-up of one engine instance, the iteration wrapper that records the
// run_iteration span, the publish-timing sink decorator, the open-loop
// query generator and the serving-side correctness checks.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/shard_driver.h"
#include "core/worker_agent.h"
#include "serve/knn_server.h"
#include "trace.h"
#include "workloads/workload.h"

namespace knnbench {

enum class Kind {
  /// KnnEngine alone: all five phases in one process.
  Serial,
  /// ShardedKnnEngine, persistent workers behind loopback worker agents.
  Sharded,
  /// KnnEngine publishing into a KnnServer while queries arrive.
  Serve,
};

struct WorkloadDef {
  std::string name;
  Kind kind;
  /// Zoo scenario (workloads/workload.h) that generates P(0) + churn.
  std::string zoo;
  knnpc::PartitionId partitions;
  /// EngineConfig::threads (the sharded workload splits it over shards).
  std::uint32_t threads;
  /// Open-loop arrival rates, requests/s, of the two query paths: during
  /// the builds on serve-churn, on the quiescent final snapshot otherwise.
  /// The query rate keeps the beam below half a core.
  double topk_rate;
  double query_rate;
  /// Correctness floors at the full scale, a little under the lowest
  /// value measured over seeds 1-5 on the commit that added them
  /// (steady-trickle: recall_at_k 0.186, query_recall 0.780; zipf-tail:
  /// 0.401 and 0.941). Six iterations do not converge steady-trickle;
  /// the figures are reported as they are.
  double recall_at_k_floor;
  double query_recall_floor;
};

const std::vector<WorkloadDef>& workload_defs();
/// Null for an unknown name.
const WorkloadDef* find_workload(std::string_view name);

/// Input size and measurement windows. `full` is the measured size;
/// `tiny` only exercises every code path (the smoke test).
struct Scale {
  knnpc::VertexId users;
  knnpc::ItemId items;
  std::uint32_t iterations;
  /// Users sampled by sampled_recall for recall_at_k.
  std::size_t recall_samples;
  /// Ad-hoc queries scored against an exact scan for query_recall.
  std::uint32_t recall_queries;
  /// Per serving probe on the build workloads: the open-loop windows of
  /// the two query paths on the quiescent final snapshot; on every
  /// workload: closed-loop queries for one capacity sample.
  double topk_window_s;
  double query_window_s;
  std::size_t capacity_queries;
};

Scale full_scale();
Scale tiny_scale();

inline constexpr std::uint32_t kK = 10;
/// Latency limit, from due time, for slo_met_frac.
inline constexpr double kSloMs = 10.0;

knnpc::EngineConfig engine_config(const WorkloadDef& def,
                                  std::uint64_t seed);

/// The ad-hoc query pool: 4096 profiles drawn from `profiles` (P(0)).
std::vector<knnpc::SparseProfile> query_pool(
    const knnpc::ProfileStore& profiles, std::uint64_t seed);

/// SnapshotSink decorator: times every publish (kept whether or not
/// tracing is on, because publish_p50_ms is an end-to-end metric) and
/// forwards to the server.
class TimedSink final : public knnpc::SnapshotSink {
 public:
  TimedSink(knnpc::KnnServer& server, Tracer& tracer)
      : server_(server), tracer_(tracer) {}

  void publish(const knnpc::KnnGraph& graph,
               const knnpc::ProfileStore& profiles,
               std::span<const knnpc::PartitionId> partition_of,
               std::uint32_t iteration) override;

  [[nodiscard]] const std::vector<double>& durations_s() const noexcept {
    return durations_s_;
  }

 private:
  knnpc::KnnServer& server_;
  Tracer& tracer_;
  std::vector<double> durations_s_;
};

/// One in-process worker agent on loopback TCP, on its own thread, with
/// a work root under the run's scratch directory.
class LoopbackAgent {
 public:
  explicit LoopbackAgent(const std::filesystem::path& work_root);
  ~LoopbackAgent();
  LoopbackAgent(const LoopbackAgent&) = delete;
  LoopbackAgent& operator=(const LoopbackAgent&) = delete;

  [[nodiscard]] std::string endpoint() const;

 private:
  knnpc::WorkerAgent agent_;
  std::thread thread_;
};

/// One set-up of a workload: the generated input, the engine and, by
/// kind, its agents or its server. Constructing it is what setup_s times.
class Instance {
 public:
  Instance(const WorkloadDef& def, const Scale& scale, std::uint64_t seed,
           const std::filesystem::path& scratch, Tracer& tracer);
  ~Instance();
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  /// Ticks the workload script and runs one iteration, inside one
  /// run_iteration span annotated with the stats the call returned.
  /// `tracer` must be the one the instance was constructed with (its
  /// publish spans go there).
  void iterate(Tracer& tracer);

  [[nodiscard]] const knnpc::KnnGraph& graph() const;
  [[nodiscard]] const knnpc::InMemoryProfileStore& profiles() const;
  [[nodiscard]] const knnpc::EngineConfig& config() const;
  /// Shard-worker respawns so far (retries; always 0 for KnnEngine).
  [[nodiscard]] std::uint64_t respawns() const noexcept { return respawns_; }
  /// Serve workload only (null otherwise).
  [[nodiscard]] knnpc::KnnServer* server() noexcept { return server_.get(); }
  [[nodiscard]] const TimedSink* sink() const noexcept { return sink_.get(); }

 private:
  knnpc::Workload workload_;
  std::uint64_t respawns_ = 0;
  std::vector<std::unique_ptr<LoopbackAgent>> agents_;
  std::unique_ptr<knnpc::KnnServer> server_;
  std::unique_ptr<TimedSink> sink_;
  // Engines last: they are destroyed before the agents their workers
  // connect through and before the sink they publish to.
  std::unique_ptr<knnpc::KnnEngine> serial_;
  std::unique_ptr<knnpc::ShardedKnnEngine> sharded_;
};

/// Per-request samples of the open-loop generator, timed from due time.
struct QuerySamples {
  std::vector<double> topk_us;
  std::vector<double> query_ms;
  std::vector<double> late_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t slo_met = 0;

  void merge(const QuerySamples& other);
};

/// Open-loop load: two generator threads, one per query path (a rate of
/// 0 leaves that path idle), each issuing requests on its own fixed
/// schedule whether or not earlier requests finished: Reader::top_k for
/// a uniform user, and Reader::query for a profile from the query pool.
/// Each request is timed from its due time; the schedule starts after 16
/// untimed warm-up requests. A generator sleeps until shortly before a
/// due time and spins the rest, so lateness measures stalls, not timer
/// slack. Two threads keep top_k's tail from measuring the wait behind a
/// beam query.
class OpenLoad {
 public:
  OpenLoad(const knnpc::KnnServer& server,
           const std::vector<knnpc::SparseProfile>& queries,
           knnpc::VertexId users, double topk_rate, double query_rate,
           std::uint64_t seed, bool trace);
  ~OpenLoad();
  OpenLoad(const OpenLoad&) = delete;
  OpenLoad& operator=(const OpenLoad&) = delete;

  /// Stops and joins both threads, moves their spans into `tracer` and
  /// returns the merged samples.
  QuerySamples finish(Tracer& tracer);

 private:
  struct Generator {
    Generator(bool is_topk, double per_s, bool trace, std::uint32_t thread)
        : topk(is_topk), rate(per_s), tracer(trace, thread) {}
    const bool topk;
    const double rate;
    Tracer tracer;
    QuerySamples samples;
    std::thread thread;
  };
  void run(Generator& gen);
  void stop_and_join() noexcept;

  const knnpc::KnnServer& server_;
  const std::vector<knnpc::SparseProfile>& queries_;
  knnpc::VertexId users_;
  std::uint64_t seed_;
  std::atomic<bool> stop_{false};
  Generator topk_;
  Generator query_;
};

/// Closed-loop ad-hoc queries per second from one reader over `count`
/// queries of the pool, starting at index `first` and wrapping around
/// (successive calls walk the whole pool, so a run's median does not
/// rest on a few queries).
double query_capacity(const knnpc::KnnServer& server,
                      const std::vector<knnpc::SparseProfile>& queries,
                      std::size_t first, std::size_t count, Tracer& tracer,
                      QuerySamples& counts);

/// True when Reader::top_k returns exactly `graph`'s row for every user.
bool topk_rows_exact(const knnpc::KnnServer& server,
                     const knnpc::KnnGraph& graph, Tracer& tracer);

/// Beam recall@kK of Reader::query on the current snapshot against an
/// exact scan of the snapshot's profiles, over `count` pool queries.
double beam_recall(const knnpc::KnnServer& server,
                   const std::vector<knnpc::SparseProfile>& queries,
                   std::uint32_t count, Tracer& tracer);

}  // namespace knnbench
