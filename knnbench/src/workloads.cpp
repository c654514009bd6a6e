#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "profiles/similarity.h"
#include "util/rng.h"

namespace knnbench {

using namespace knnpc;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kWarmupRequests = 16;

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

}  // namespace

const std::vector<WorkloadDef>& workload_defs() {
  static const std::vector<WorkloadDef> defs = {
      {"build-serial", Kind::Serial, "steady-trickle", 16, 4, 1000, 500,
       0.17, 0.75},
      {"build-sharded", Kind::Sharded, "steady-trickle", 16, 4, 1000, 500,
       0.17, 0.75},
      {"serve-churn", Kind::Serve, "zipf-tail", 8, 2, 1000, 150, 0.38, 0.92},
  };
  return defs;
}

const WorkloadDef* find_workload(std::string_view name) {
  for (const WorkloadDef& def : workload_defs()) {
    if (def.name == name) return &def;
  }
  return nullptr;
}

Scale full_scale() {
  Scale s{};
  s.users = 20000;
  s.items = 4000;
  s.iterations = 6;
  s.recall_samples = 2000;
  s.recall_queries = 200;
  s.topk_window_s = 0.1;
  s.query_window_s = 0.25;
  s.capacity_queries = 128;
  return s;
}

Scale tiny_scale() {
  Scale s{};
  s.users = 600;
  s.items = 300;
  s.iterations = 3;
  s.recall_samples = 50;
  s.recall_queries = 20;
  s.topk_window_s = 0.05;
  s.query_window_s = 0.1;
  s.capacity_queries = 16;
  return s;
}

std::vector<SparseProfile> query_pool(const ProfileStore& profiles,
                                      std::uint64_t seed) {
  constexpr std::size_t kPool = 4096;
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  const VertexId n = profiles.num_users();
  std::vector<SparseProfile> pool;
  for (std::size_t i = 0; i < std::min<std::size_t>(kPool, n); ++i) {
    pool.push_back(profiles.get(static_cast<VertexId>(rng.next_below(n))));
  }
  return pool;
}

EngineConfig engine_config(const WorkloadDef& def, std::uint64_t seed) {
  EngineConfig config;
  config.k = kK;
  config.num_partitions = def.partitions;
  config.memory_slots = 2;
  config.threads = def.threads;
  config.seed = seed;
  return config;
}

// ------------------------------------------------------------ TimedSink --

void TimedSink::publish(const KnnGraph& graph, const ProfileStore& profiles,
                        std::span<const PartitionId> partition_of,
                        std::uint32_t iteration) {
  Tracer::Span span = tracer_.span("publish");
  const Clock::time_point start = Clock::now();
  server_.publish(graph, profiles, partition_of, iteration);
  durations_s_.push_back(
      std::chrono::duration<double>(Clock::now() - start).count());
  if (tracer_.enabled()) {
    const PublishStats stats = server_.last_publish();
    span.annotate("full", stats.full ? 1 : 0);
    span.annotate("graph_rows", stats.graph_rows);
    span.annotate("profile_rows", stats.profile_rows);
    span.annotate("bytes",
                  static_cast<double>(stats.graph_bytes + stats.profile_bytes));
  }
}

// -------------------------------------------------------- LoopbackAgent --

LoopbackAgent::LoopbackAgent(const std::filesystem::path& work_root)
    : agent_([&] {
        WorkerAgentConfig config;
        config.work_root = work_root;
        return config;
      }()),
      thread_([this] { agent_.run(); }) {}

LoopbackAgent::~LoopbackAgent() {
  agent_.stop();
  thread_.join();
}

std::string LoopbackAgent::endpoint() const {
  return "127.0.0.1:" + std::to_string(agent_.port());
}

// ------------------------------------------------------------- Instance --

Instance::Instance(const WorkloadDef& def, const Scale& scale,
                   std::uint64_t seed, const std::filesystem::path& scratch,
                   Tracer& tracer) {
  Tracer::Span setup = tracer.span("setup");
  {
    Tracer::Span span = tracer.span("make_workload");
    WorkloadParams params;
    params.users = scale.users;
    params.items = scale.items;
    params.seed = seed;
    workload_ = make_workload(def.zoo, params);
  }

  const EngineConfig config = engine_config(def, seed);
  switch (def.kind) {
    case Kind::Serial:
      serial_ = std::make_unique<KnnEngine>(config,
                                            std::move(workload_.profiles));
      break;
    case Kind::Sharded: {
      ShardConfig shard;
      shard.shards = 2;
      shard.shard_partitioner = "pair-affinity";
      shard.worker_mode = ShardWorkerMode::Persistent;
      // Bounded so a wedged worker fails the run instead of hanging it.
      shard.worker_timeout_s = 60.0;
      shard.agent_timeout_s = 30.0;
      for (std::uint32_t a = 0; a < shard.shards; ++a) {
        agents_.push_back(std::make_unique<LoopbackAgent>(
            scratch / ("agent" + std::to_string(a))));
        shard.worker_endpoints.push_back(agents_.back()->endpoint());
      }
      sharded_ = std::make_unique<ShardedKnnEngine>(
          config, std::move(shard), std::move(workload_.profiles));
      break;
    }
    case Kind::Serve: {
      ServeConfig serve;
      serve.measure = config.measure;
      server_ = std::make_unique<KnnServer>(serve);
      sink_ = std::make_unique<TimedSink>(*server_, tracer);
      serial_ = std::make_unique<KnnEngine>(config,
                                            std::move(workload_.profiles));
      // Readers are served from the start: publish G(0)/P(0) before the
      // first iteration (outside the publish_p50_ms samples).
      server_->publish(serial_->graph(), serial_->profiles(), {}, 0);
      serial_->set_snapshot_sink(sink_.get());
      break;
    }
  }
}

Instance::~Instance() = default;

void Instance::iterate(Tracer& tracer) {
  UpdateQueue& queue =
      serial_ ? serial_->update_queue() : sharded_->update_queue();
  {
    Tracer::Span span = tracer.span("tick");
    span.annotate("updates", static_cast<double>(
                                 workload_.tick(queue, graph().num_vertices())));
  }
  Tracer::Span span = tracer.span("run_iteration");
  IterationStats stats;
  ShardedIterationStats sharded;
  if (serial_) {
    stats = serial_->run_iteration();
  } else {
    sharded = sharded_->run_iteration();
    stats = sharded.merged;
    // spawn_count is cumulative over the engine's life and counts the
    // first spawn too.
    std::uint64_t spawns = 0;
    for (const ShardWorkerStats& w : sharded.workers) spawns += w.spawn_count;
    respawns_ = spawns - sharded.workers.size();
  }
  if (!tracer.enabled()) return;
  const PhaseTimings& t = stats.timings;
  span.annotate("partition_s", t.partition_s);
  span.annotate("hash_s", t.hash_s);
  span.annotate("pi_graph_s", t.pi_graph_s);
  span.annotate("knn_s", t.knn_s);
  span.annotate("update_s", t.update_s);
  span.annotate("knn_score_s", stats.knn_score_s);
  span.annotate("knn_merge_s", stats.knn_merge_s);
  span.annotate("candidate_tuples", static_cast<double>(stats.candidate_tuples));
  span.annotate("unique_tuples", static_cast<double>(stats.unique_tuples));
  span.annotate("pi_pairs", static_cast<double>(stats.pi_pairs));
  span.annotate("partition_loads", static_cast<double>(stats.partition_loads));
  span.annotate("bytes_read", static_cast<double>(stats.io.bytes_read));
  span.annotate("bytes_written", static_cast<double>(stats.io.bytes_written));
  span.annotate("updates_applied",
                static_cast<double>(stats.profile_updates_applied));
  span.annotate("change_rate", stats.change_rate);
  if (server_) {
    const PublishStats publish = server_->last_publish();
    span.annotate("publish_graph_rows", publish.graph_rows);
    span.annotate("publish_profile_rows", publish.profile_rows);
    span.annotate("publish_bytes", static_cast<double>(publish.graph_bytes +
                                                       publish.profile_bytes));
  }
  if (sharded.workers.empty()) return;
  double produce_max = 0, consume_max = 0, consume_sum = 0, wall_max = 0;
  std::uint64_t spooled = 0, tx = 0, rx = 0, round_trips = 0,
                profile_rows = 0, resyncs = 0, sync_files = 0, sync_bytes = 0,
                skipped_files = 0, skipped_bytes = 0;
  for (const ShardWorkerStats& w : sharded.workers) {
    produce_max = std::max(produce_max, w.produce_s);
    consume_max = std::max(consume_max, w.consume_s);
    consume_sum += w.consume_s;
    wall_max = std::max(wall_max, w.wall_s());
    spooled += w.spooled_tuples;
    tx += w.bytes_tx;
    rx += w.bytes_rx;
    round_trips += w.round_trips;
    profile_rows += w.profile_rows_rx;
    resyncs += w.resync_count;
    sync_files += w.sync_files_tx;
    sync_bytes += w.sync_bytes_tx;
    skipped_files += w.sync_files_skipped;
    skipped_bytes += w.sync_bytes_skipped;
  }
  const auto workers = static_cast<double>(sharded.workers.size());
  span.annotate("shards", workers);
  span.annotate("produce_max_s", produce_max);
  span.annotate("consume_max_s", consume_max);
  span.annotate("consume_mean_s", consume_sum / workers);
  span.annotate("worker_wall_max_s", wall_max);
  span.annotate("spooled_tuples", static_cast<double>(spooled));
  span.annotate("ipc_bytes_tx", static_cast<double>(tx));
  span.annotate("ipc_bytes_rx", static_cast<double>(rx));
  span.annotate("round_trips", static_cast<double>(round_trips));
  span.annotate("profile_rows_rx", static_cast<double>(profile_rows));
  span.annotate("respawns", static_cast<double>(respawns_));
  span.annotate("resyncs", static_cast<double>(resyncs));
  span.annotate("sync_files_tx", static_cast<double>(sync_files));
  span.annotate("sync_bytes_tx", static_cast<double>(sync_bytes));
  span.annotate("sync_files_skipped", static_cast<double>(skipped_files));
  span.annotate("sync_bytes_skipped", static_cast<double>(skipped_bytes));
}

const KnnGraph& Instance::graph() const {
  return serial_ ? serial_->graph() : sharded_->graph();
}

const InMemoryProfileStore& Instance::profiles() const {
  return serial_ ? serial_->profiles() : sharded_->profiles();
}

const EngineConfig& Instance::config() const {
  return serial_ ? serial_->config() : sharded_->config();
}

// -------------------------------------------------------------- queries --

void QuerySamples::merge(const QuerySamples& other) {
  topk_us.insert(topk_us.end(), other.topk_us.begin(), other.topk_us.end());
  query_ms.insert(query_ms.end(), other.query_ms.begin(),
                  other.query_ms.end());
  late_ms.insert(late_ms.end(), other.late_ms.begin(), other.late_ms.end());
  attempted += other.attempted;
  failed += other.failed;
  slo_met += other.slo_met;
}

OpenLoad::OpenLoad(const KnnServer& server,
                   const std::vector<SparseProfile>& queries, VertexId users,
                   double topk_rate, double query_rate, std::uint64_t seed,
                   bool trace)
    : server_(server),
      queries_(queries),
      users_(users),
      seed_(seed),
      topk_(true, topk_rate, trace, 1),
      query_(false, query_rate, trace, 2) {
  try {
    for (Generator* gen : {&topk_, &query_}) {
      if (gen->rate > 0) gen->thread = std::thread([this, gen] { run(*gen); });
    }
  } catch (...) {
    stop_and_join();
    throw;
  }
}

OpenLoad::~OpenLoad() { stop_and_join(); }

void OpenLoad::stop_and_join() noexcept {
  stop_.store(true, std::memory_order_relaxed);
  for (Generator* gen : {&topk_, &query_}) {
    if (gen->thread.joinable()) gen->thread.join();
  }
}

QuerySamples OpenLoad::finish(Tracer& tracer) {
  stop_and_join();
  QuerySamples merged = std::move(topk_.samples);
  merged.merge(query_.samples);
  tracer.absorb(topk_.tracer);
  tracer.absorb(query_.tracer);
  return merged;
}

void OpenLoad::run(Generator& gen) {
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / gen.rate));
  // Wake-ups from a sleep overshoot by ~70 us typically and by up to a
  // few ms at p99.9 on a 4-vCPU VM. The query generator spins through
  // the last 2 ms before a due time; the top_k generator, whose requests
  // take about a microsecond, spins all the time.
  const Clock::duration spin =
      gen.topk ? Clock::duration::max() : std::chrono::milliseconds(2);
  Rng rng(seed_ * 2 + (gen.topk ? 0 : 1));
  KnnServer::Reader reader = server_.reader();
  QuerySamples& out = gen.samples;
  // Untimed warm-up: the first requests after a publish or after the
  // other path's window find the caches cold, and at a few per window
  // they would set the p99. A request that throws here throws again
  // below, where it is counted.
  for (int w = 0; w < kWarmupRequests; ++w) {
    try {
      if (gen.topk) {
        (void)reader.top_k(static_cast<VertexId>(rng.next_below(users_)));
      } else {
        (void)reader.query(queries_[rng.next_below(queries_.size())], kK);
      }
    } catch (const std::exception&) {
    }
  }
  const Clock::time_point start = Clock::now();
  for (std::uint64_t i = 0;; ++i) {
    const Clock::time_point due = start + period * static_cast<long>(i);
    Clock::time_point now = Clock::now();
    while (now < due && !stop_.load(std::memory_order_relaxed)) {
      if (due - now > spin) std::this_thread::sleep_for(due - now - spin);
      now = Clock::now();
    }
    if (stop_.load(std::memory_order_relaxed)) return;
    // Only the request itself runs between `now` and `end`; the
    // bookkeeping waits until after.
    bool ok = true;
    Clock::time_point end;
    {
      Tracer::Span span = gen.tracer.span(gen.topk ? "top_k" : "query");
      try {
        if (gen.topk) {
          const auto user = static_cast<VertexId>(rng.next_below(users_));
          ok = !reader.top_k(user).empty();
          end = Clock::now();
        } else {
          const SparseProfile& q = queries_[rng.next_below(queries_.size())];
          const QueryResult result = reader.query(q, kK);
          end = Clock::now();
          span.annotate("expanded", result.stats.expanded);
          span.annotate("scored", result.stats.scored);
        }
      } catch (const std::exception&) {
        ok = false;
      }
      span.annotate("late_ms", ms_between(due, now));
    }
    ++out.attempted;
    out.late_ms.push_back(ms_between(due, now));
    if (!ok) {
      ++out.failed;
      continue;
    }
    const double from_due_ms = ms_between(due, end);
    if (gen.topk) {
      out.topk_us.push_back(from_due_ms * 1e3);
    } else {
      out.query_ms.push_back(from_due_ms);
    }
    if (from_due_ms <= kSloMs) ++out.slo_met;
  }
}

double query_capacity(const KnnServer& server,
                      const std::vector<SparseProfile>& queries,
                      std::size_t first, std::size_t count,
                      Tracer& tracer, QuerySamples& counts) {
  KnnServer::Reader reader = server.reader();
  count = std::min(count, queries.size());
  std::uint64_t done = 0;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < count; ++i) {
    Tracer::Span span = tracer.span("query");
    ++counts.attempted;
    try {
      const QueryResult result =
          reader.query(queries[(first + i) % queries.size()], kK);
      span.annotate("expanded", result.stats.expanded);
      span.annotate("scored", result.stats.scored);
      ++done;
    } catch (const std::exception&) {
      ++counts.failed;
    }
  }
  return static_cast<double>(done) /
         std::chrono::duration<double>(Clock::now() - start).count();
}

bool topk_rows_exact(const KnnServer& server, const KnnGraph& graph,
                     Tracer& tracer) {
  Tracer::Span span = tracer.span("check.topk_exact");
  KnnServer::Reader reader = server.reader();
  for (VertexId u = 0; u < graph.num_vertices(); ++u) {
    const std::vector<Neighbor> row = reader.top_k(u);
    const std::span<const Neighbor> want = graph.neighbors(u);
    if (!std::equal(row.begin(), row.end(), want.begin(), want.end())) {
      return false;
    }
  }
  return true;
}

double beam_recall(const KnnServer& server,
                   const std::vector<SparseProfile>& queries,
                   std::uint32_t count, Tracer& tracer) {
  Tracer::Span check = tracer.span("check.query_recall");
  // A Pin occupies its reader's hazard slot, so the exact scan and the
  // beam queries use one reader each.
  const KnnServer::Reader pinning = server.reader();
  const KnnServer::Reader querying = server.reader();
  const KnnServer::Reader::Pin pin = pinning.pin();
  const InMemoryProfileStore& profiles = pin->profiles;
  const auto by_rank = [](const Neighbor& a, const Neighbor& b) {
    return a.score != b.score ? a.score > b.score : a.id < b.id;
  };
  count = std::min<std::uint32_t>(count,
                                  static_cast<std::uint32_t>(queries.size()));
  std::size_t hits = 0;
  std::size_t wanted = 0;
  std::vector<Neighbor> exact(profiles.num_users());
  for (std::uint32_t i = 0; i < count; ++i) {
    const SparseProfile& q = queries[i];
    for (VertexId u = 0; u < profiles.num_users(); ++u) {
      exact[u] = Neighbor{u, similarity(pin->measure, q, profiles.get(u))};
    }
    const std::size_t keep = std::min<std::size_t>(kK, exact.size());
    std::partial_sort(exact.begin(), exact.begin() + keep, exact.end(),
                      by_rank);
    QueryResult got;
    {
      Tracer::Span span = tracer.span("query");
      got = querying.query(q, kK);
      span.annotate("expanded", got.stats.expanded);
      span.annotate("scored", got.stats.scored);
    }
    for (std::size_t j = 0; j < keep; ++j) {
      ++wanted;
      for (const Neighbor& have : got.neighbors) {
        if (have.id == exact[j].id) {
          ++hits;
          break;
        }
      }
    }
  }
  return wanted ? static_cast<double>(hits) / static_cast<double>(wanted)
                : 0.0;
}

}  // namespace knnbench
