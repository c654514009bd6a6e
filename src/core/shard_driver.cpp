#include "core/shard_driver.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>

#include "core/convergence.h"
#include "core/worker_agent.h"
#include "core/topk.h"
#include "core/tuple_dedup.h"
#include "core/tuple_generation.h"
#include "graph/digraph.h"
#include "graph/knn_graph_delta.h"
#include "graph/knn_graph_io.h"
#include "partition/cost.h"
#include "partition/partitioner.h"
#include "partition/pair_affinity.h"
#include "pigraph/heuristics.h"
#include "pigraph/pi_graph.h"
#include "profiles/flat_profile.h"
#include "profiles/profile_delta.h"
#include "profiles/similarity_kernels.h"
#include "staticgraph/sharded_graph.h"
#include "storage/block_file.h"
#include "storage/file_sync.h"
#include "storage/partition_store.h"
#include "storage/shard_writer.h"
#include "util/fnv.h"
#include "util/ipc_channel.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/serde.h"
#include "util/subprocess.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace knnpc {
namespace fs = std::filesystem;

std::uint32_t resolve_shard_count(std::uint32_t requested,
                                  VertexId num_users, std::uint32_t k) {
  const std::uint64_t users = std::max<std::uint64_t>(num_users, 1);
  if (requested == 0) {
    requested = resolve_thread_count(
        0, users * std::max<std::uint32_t>(k, 1), kWorkPerShard);
    requested = std::min(requested, kMaxAutoShards);
  }
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(std::max(requested, 1u), users));
}

ShardWorkerMode parse_worker_mode(std::string_view name) {
  if (name == "thread") return ShardWorkerMode::Thread;
  if (name == "persistent") return ShardWorkerMode::Persistent;
  throw std::invalid_argument("parse_worker_mode: unknown mode '" +
                              std::string(name) +
                              "' (thread | persistent)");
}

const char* worker_mode_name(ShardWorkerMode mode) noexcept {
  return mode == ShardWorkerMode::Persistent ? "persistent" : "thread";
}

namespace {

// ------------------------------------------------ work-directory layout --
// Everything the two waves exchange lives under the driver's work dir;
// persistent mode adds the plan. Paths are defined here once — the driver
// and the re-executed workers must agree byte-for-byte.

constexpr const char* kSpoolStem = "tuples";

fs::path spools_dir(const fs::path& work_dir) { return work_dir / "spools"; }

fs::path consumer_scratch_dir(const fs::path& work_dir, std::uint32_t c) {
  return work_dir / ("worker_" + std::to_string(c));
}

fs::path plan_file_path(const fs::path& work_dir) {
  return work_dir / "plan.bin";
}

// --------------------------------------------------------- fault points --
// Worker processes consult kShardFaultEnv at one mid-wave point per wave
// (see shard_driver.h). Parsing is deliberately forgiving: a malformed
// spec injects nothing rather than crashing a production run that
// happens to have the variable set.

void maybe_inject_fault(const char* wave, std::uint32_t shard,
                        std::uint32_t attempt, std::uint32_t iteration) {
  const char* env = std::getenv(kShardFaultEnv);
  if (env == nullptr) return;
  std::vector<std::string> parts;
  {
    std::string spec(env);
    std::size_t start = 0;
    while (start <= spec.size()) {
      const std::size_t colon = spec.find(':', start);
      if (colon == std::string::npos) {
        parts.push_back(spec.substr(start));
        break;
      }
      parts.push_back(spec.substr(start, colon - start));
      start = colon + 1;
    }
  }
  if (parts.size() < 3 || parts[0] != wave) return;
  // Optional fields 3/4 filter by attempt and iteration; "*" (or an
  // omitted field) matches anything.
  auto matches = [&](std::size_t index, std::uint32_t value) {
    if (parts.size() <= index || parts[index].empty() ||
        parts[index] == "*") {
      return true;
    }
    return std::stoul(parts[index]) == value;
  };
  try {
    if (std::stoul(parts[1]) != shard) return;
    if (!matches(3, attempt) || !matches(4, iteration)) return;
  } catch (const std::exception&) {
    return;
  }
  const std::string& kind = parts[2];
  std::fprintf(stderr, "shard_worker: injecting fault '%s' (%s wave, shard "
                       "%u, attempt %u, iteration %u)\n",
               kind.c_str(), wave, shard, attempt, iteration);
  if (kind == "kill") {
    std::raise(SIGKILL);
  } else if (kind == "exit") {
    std::_Exit(3);
  } else if (kind == "wedge") {
    for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
  }
}

// ---------------------------------------------------- shared wave bodies --
// The producer and consumer bodies are mode-agnostic: thread mode calls
// them on one thread per shard inside the driver, persistent mode calls
// them from the worker's command loop in a child process. Keeping one body
// per wave is what makes the two modes bit-identical by construction.

struct WaveContext {
  const EngineConfig& config;
  std::uint32_t iteration;
  std::uint32_t shards;
  const PartitionAssignment& assignment;   // user -> partition (m)
  const PartitionAssignment& shard_owner;  // user -> shard (S)
  fs::path work_dir;
};

/// Phase 2, producer wave for shard `w`: generate candidates from the
/// partitions p ≡ w (mod S) plus the restarts of `members`, and route each
/// by owner of the source user into `sink` (sink.add(consumer, tuple)).
/// With a `store` (thread mode) the partitions' edge lists are streamed
/// from the driver's phase-1 files; without one (a persistent worker)
/// they are routed in memory from `graph` = G(t) by
/// bucket_partition_edges, the routing write_all uses, so both paths see
/// the same edge order. The caller flushes the sink (thread mode:
/// RoutedShardWriter::finish after all producers join; persistent mode:
/// the worker before its PRODUCED reply).
template <typename Sink>
void produce_candidates(const WaveContext& ctx, std::uint32_t w,
                        std::span<const VertexId> members,
                        const PartitionStore* store, const KnnGraph& graph,
                        Sink& sink, ShardWorkerStats& worker,
                        const std::function<void()>& mid_wave_hook) {
  const EngineConfig& config = ctx.config;
  const VertexId n = ctx.assignment.num_vertices();
  const PartitionId m = ctx.assignment.num_partitions();
  Timer wall;
  ScopedAccumulator timing(&worker.stats.timings.hash_s);
  std::vector<PartitionData> in_memory;
  if (store == nullptr) {
    std::vector<bool> wanted(m, false);
    for (PartitionId p = w; p < m; p += ctx.shards) wanted[p] = true;
    in_memory =
        bucket_partition_edges(graph.to_edge_list(), ctx.assignment, wanted);
  }
  // The serial engine's generator (core/tuple_generation.h): the same
  // per-partition and per-user streams, whichever worker runs them.
  auto route = [&](Tuple t) { sink.add(ctx.shard_owner.owner(t.s), t); };
  for (PartitionId p = w; p < m; p += ctx.shards) {
    const PartitionData part =
        store != nullptr ? store->load_edges(p) : std::move(in_memory[p]);
    worker.stats.candidate_tuples += partition_candidates(
        part.in_edges, part.out_edges, p, config, ctx.iteration, route);
  }
  // Random restarts for this shard's own users.
  for (VertexId s : members) {
    worker.stats.candidate_tuples +=
        restart_candidates(s, n, config, ctx.iteration, route);
  }
  if (mid_wave_hook) mid_wave_hook();
  worker.produce_s = wall.elapsed_seconds();
}

struct ConsumerOutput {
  /// Full-size graph populated only for the owned users.
  KnnGraph next;
  /// Exact change count over the owned users.
  std::uint64_t changed = 0;
};

/// Cross-agent spools a persistent consumer received inline in a GO (or
/// skip-produce RUN_ITERATION) frame, indexed by producer: the raw Tuple
/// bytes of spool (p, c), or nullopt where spool (p, c) is a file under
/// the work dir. Empty = every spool is a file (thread mode, one agent).
using InlineSpools = std::vector<std::optional<std::span<const std::byte>>>;

/// Phases 2b-4, consumer wave for shard `c`: dedup the spooled tuples,
/// build this shard's PI graph + schedule, stream the shared store, keep
/// top-K for owned users, count changes against `prev` = G(t).
///
/// Thread mode passes the driver's `store` and reads profiles from its
/// .prof files. A persistent worker passes no store and its
/// `local_profiles` (P(t), synced over the command channel as KPRD
/// deltas): phase 4 then scores from that copy and its cache "loads" an
/// empty slot per partition, so it reads no partition file yet keeps the
/// load counts of the streaming path. The values are identical either
/// way, so the output graph is too.
ConsumerOutput consume_candidates(const WaveContext& ctx, std::uint32_t c,
                                  std::span<const VertexId> members,
                                  const PartitionStore* store,
                                  const InlineSpools& inline_spools,
                                  const KnnGraph& prev, ThreadPool* pool,
                                  IoAccountant* io,
                                  const ProfileStore* local_profiles,
                                  ShardWorkerStats& worker,
                                  const std::function<void()>& mid_wave_hook) {
  const EngineConfig& config = ctx.config;
  const VertexId n = ctx.assignment.num_vertices();
  const PartitionId m = ctx.assignment.num_partitions();
  const std::uint32_t S = ctx.shards;
  IterationStats& stats = worker.stats;
  Timer wall;

  // Phase 2b: consumer-side H_c — global dedup per source user falls
  // out of the routing (all (s, *) tuples land here together). Bucket
  // one producer's spool at a time by pair slot, in producer order
  // p = 0..S-1 — a file spool is read and freed before the next, an
  // inline one is read in place — then sort and dedup every slot on the
  // pool into <worker dir>/tuples_<slot>.bin, the engine's bundle layout.
  const std::size_t num_slots = pi_pair_slot(m - 1, m - 1, m) + 1;
  const fs::path bundle_dir = consumer_scratch_dir(ctx.work_dir, c);
  std::vector<std::uint64_t> slot_tuples;
  {
    ScopedAccumulator timing(&stats.timings.hash_s);
    auto inline_spool = [&](std::uint32_t p) {
      return p < inline_spools.size() ? inline_spools[p] : std::nullopt;
    };
    std::vector<SlotBuckets> buckets(1, SlotBuckets(num_slots));
    SlotBuckets& slots = buckets.front();
    auto slot_of = [&](const Tuple& t) {
      return pi_pair_slot(ctx.assignment.owner(t.s),
                          ctx.assignment.owner(t.d), m);
    };
    // Buckets one spool of `count` tuples, tuple(i) the i-th. A counting
    // pass first grows each slot exactly once per spool, so the buckets
    // carry no geometric slack.
    std::vector<std::size_t> counts(num_slots);
    auto bucket = [&](std::size_t count, auto&& tuple) {
      std::fill(counts.begin(), counts.end(), 0);
      for (std::size_t i = 0; i < count; ++i) ++counts[slot_of(tuple(i))];
      for (std::size_t slot = 0; slot < num_slots; ++slot) {
        slots[slot].reserve(slots[slot].size() + counts[slot]);
      }
      for (std::size_t i = 0; i < count; ++i) {
        const Tuple t = tuple(i);
        slots[slot_of(t)].push_back(t);
      }
      worker.spooled_tuples += count;
    };
    for (std::uint32_t p = 0; p < S; ++p) {
      if (const auto spool = inline_spool(p)) {
        // Read in place from the frame that carried it.
        bucket(spool->size() / sizeof(Tuple), [&](std::size_t i) {
          Tuple t;
          std::memcpy(&t, spool->data() + i * sizeof(Tuple), sizeof(Tuple));
          return t;
        });
      } else {
        const std::vector<Tuple> chunk = read_record_shard<Tuple>(
            routed_spool_path(spools_dir(ctx.work_dir), kSpoolStem, p, c),
            io);
        bucket(chunk.size(), [&](std::size_t i) { return chunk[i]; });
      }
    }
    slot_tuples = write_tuple_bundles(buckets, n, bundle_dir, pool, io);
    for (const std::uint64_t u : slot_tuples) stats.unique_tuples += u;
  }
  if (mid_wave_hook) mid_wave_hook();

  // Phase 3: this shard's own PI graph + traversal schedule.
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
    schedule = make_heuristic(config.heuristic)->schedule(pi);
  }

  // Phase 4: stream the shared store through a private cache; top-K for
  // this shard's users only, through the engine's fused score-and-offer
  // pass.
  KnnGraph next(n, config.k);
  {
    ScopedAccumulator timing(&stats.timings.knn_s);
    TopKAccumulator acc(n, config.k);
    std::optional<RecordShardWriter<ScoredTuple>> score_writer;
    if (config.spill_scores) {
      score_writer.emplace(consumer_scratch_dir(ctx.work_dir, c), "scores",
                           m,
                           std::max<std::size_t>(
                               config.shard_buffer_bytes / S,
                               sizeof(ScoredTuple)),
                           io);
    }
    // Streaming path: each load decodes the partition's profiles
    // straight into the flat (SoA) layout. Persistent path
    // (local_profiles): tuples may reference any user, so pack the
    // worker's whole P(t) once — O(total entries), amortised over the
    // full wave — and "load" only an empty slot, which keeps the load
    // counts of the streaming path.
    PartitionCache cache(config.memory_slots, [&](PartitionId p) {
      if (store != nullptr) {
        return store->load_flat(p, config.quantize_profiles, pool);
      }
      PartitionData data;
      data.id = p;
      return data;
    });
    const KernelBackend backend = resolve_kernel_backend(config.kernel);
    std::optional<FlatProfileSet> local_flat;
    if (local_profiles != nullptr) {
      local_flat.emplace(config.quantize_profiles);
      std::size_t total = 0;
      for (VertexId v = 0; v < n; ++v) {
        total += local_profiles->get(v).size();
      }
      local_flat->reserve(n, total);
      for (VertexId v = 0; v < n; ++v) {
        local_flat->add(v, local_profiles->get(v));
      }
    }
    std::vector<float> scores;
    for (PairIndex idx : schedule) {
      const PiPair& pair = pi.pair(idx);
      const std::vector<Tuple> tuples = read_record_shard<Tuple>(
          tuple_bundle_path(bundle_dir, pi_pair_slot(pair.a, pair.b, m)),
          io);
      const PartitionData& pa = cache.get(pair.a);
      const PartitionData& pb = pair.b == pair.a ? pa : cache.get(pair.b);
      const FlatProfileSet& fa = local_flat ? *local_flat : pa.flat;
      const FlatProfileSet* fb =
          local_flat || pair.b == pair.a ? nullptr : &pb.flat;
      ScopedAccumulator score_timing(&stats.knn_score_s);
      if (score_writer) {
        scores.resize(tuples.size());
        score_and_offer(tuples, fa, fb, config.measure, backend, pool,
                        [&](std::size_t i, float score) { scores[i] = score; });
        for (std::size_t i = 0; i < tuples.size(); ++i) {
          score_writer->add(ctx.assignment.owner(tuples[i].s),
                            {tuples[i].s, tuples[i].d, scores[i]});
        }
      } else {
        score_and_offer(tuples, fa, fb, config.measure, backend, pool,
                        [&](std::size_t i, float score) {
                          acc.offer(tuples[i].s, tuples[i].d, score);
                        });
      }
    }
    cache.flush();
    stats.partition_loads = cache.loads();
    stats.partition_unloads = cache.unloads();
    worker.partitions_touched = pi.touched_partitions();
    // Each streaming load reads a .prof file; the persistent path's
    // member-list loads never do.
    worker.profile_reads = local_profiles != nullptr ? 0 : cache.loads();

    ScopedAccumulator merge_timing(&stats.knn_merge_s);
    if (score_writer) {
      // Finalise one partition at a time, restricted to owned users.
      score_writer->finish();
      for (PartitionId p = 0; p < m; ++p) {
        const auto spilled = read_record_shard<ScoredTuple>(
            score_writer->shard_path(p), io);
        for (const ScoredTuple& t : spilled) {
          acc.offer(t.s, t.d, t.score);
        }
        for (VertexId member : ctx.assignment.members(p)) {
          if (ctx.shard_owner.owner(member) !=
              static_cast<PartitionId>(c)) {
            continue;
          }
          next.set_neighbors(member, acc.take(member));
        }
      }
    } else {
      next = acc.build_graph(pool);
    }
  }

  // Exact per-user change counts over owned users; the driver's sum
  // reproduces the serial change rate bit-for-bit.
  std::uint64_t changed = 0;
  for (VertexId s : members) {
    changed += KnnGraph::change_count(prev, next, s, s + 1);
  }
  worker.consume_s = wall.elapsed_seconds();
  return {std::move(next), changed};
}

// ---------------------------------------------------------- worker plan --
// The plan file ("KPLN") carries the static part of what a worker process
// needs: the wave-relevant EngineConfig fields, the resolved shard/thread
// budget and the agent count (which spools cross machines). Everything
// that changes per iteration (ownership maps, G(t), P(t)) rides the
// RUN_ITERATION command instead. Same-build
// producer and consumer (the worker IS the driver's binary).

constexpr char kPlanMagic[4] = {'K', 'P', 'L', 'N'};
// v2: adds the phase-4 kernel backend string and the quantize_profiles
// flag (both read by the wave bodies, so workers must see the configured
// values, not the defaults).
// v3: drops the iteration number and both ownership maps (RUN_ITERATION
// carries them).
// v4: adds the agent count, from which a worker derives which of its
// spools travel inline in the iteration frames.
constexpr std::uint32_t kPlanVersion = 4;

// Tripwire: the plan file hand-serialises the wave-relevant subset of
// EngineConfig. A field added to EngineConfig that the wave bodies read
// but the plan omits would make persistent workers silently run on the
// default while thread mode uses the configured value — a plausible but
// wrong graph. Growing EngineConfig therefore fails here on the CI
// platform until save_plan_file/load_plan_file (below) were reviewed and
// this constant is bumped.
#if defined(__GLIBCXX__) && defined(__x86_64__)
static_assert(sizeof(EngineConfig) == 288,
              "EngineConfig changed: review the worker plan "
              "serialisation (save_plan_file/load_plan_file) before "
              "bumping this size");
#endif

struct WorkerPlan {
  EngineConfig config;
  std::uint32_t shards = 1;
  std::uint32_t threads_per_shard = 1;
  /// Worker-agent endpoints E (0 = local fleet): shard s runs on agent
  /// agent_of_shard(s, S, E).
  std::uint32_t agents = 0;
};

void append_string(std::vector<std::byte>& out, const std::string& s) {
  append_record(out, static_cast<std::uint32_t>(s.size()));
  for (const char c : s) append_record(out, c);
}

void save_plan_file(const fs::path& path, const WorkerPlan& plan) {
  const EngineConfig& config = plan.config;
  std::vector<std::byte> bytes;
  bytes.reserve(128);
  for (const char c : kPlanMagic) append_record(bytes, c);
  append_record(bytes, kPlanVersion);
  append_record(bytes, plan.shards);
  append_record(bytes, plan.threads_per_shard);
  append_record(bytes, plan.agents);
  append_record(bytes, config.k);
  append_record(bytes, config.num_partitions);
  append_record(bytes, static_cast<std::uint32_t>(config.measure));
  append_record(bytes, static_cast<std::uint64_t>(config.memory_slots));
  append_record(bytes, static_cast<std::uint64_t>(config.shard_buffer_bytes));
  append_record(bytes, config.seed);
  append_record(bytes, config.sample_rate);
  append_record(bytes, config.random_candidates);
  append_record(bytes, static_cast<std::uint8_t>(config.include_reverse));
  append_record(bytes, static_cast<std::uint8_t>(config.spill_scores));
  append_record(bytes, static_cast<std::uint8_t>(config.storage_mode));
  append_record(bytes, static_cast<std::uint8_t>(config.quantize_profiles));
  append_string(bytes, config.kernel);
  append_string(bytes, config.heuristic);
  append_string(bytes, config.io_model.name);
  append_record(bytes, config.io_model.seek_us);
  append_record(bytes, config.io_model.bytes_per_us);
  IoCounters counters;
  write_file(path, bytes, counters);
}

WorkerPlan load_plan_file(const fs::path& path) {
  IoCounters counters;
  const std::vector<std::byte> bytes = read_file(path, counters);
  std::size_t offset = 0;
  auto fail = [&](const std::string& what) -> std::runtime_error {
    return std::runtime_error("load_plan_file: " + what + " in " +
                              path.string());
  };
  auto read = [&]<typename T>(T& out) {
    if (!read_record(bytes, offset, out)) throw fail("truncated plan");
  };
  auto read_string = [&](std::string& out) {
    std::uint32_t len = 0;
    read(len);
    // Corrupt-header protection: the string must fit in what's left.
    if (len > bytes.size() - offset) throw fail("string exceeds file size");
    out.resize(len);
    for (char& c : out) read(c);
  };
  char magic[4];
  for (char& c : magic) read(c);
  if (std::memcmp(magic, kPlanMagic, sizeof(kPlanMagic)) != 0) {
    throw fail("bad magic");
  }
  std::uint32_t version = 0;
  read(version);
  if (version != kPlanVersion) {
    throw fail("unsupported version " + std::to_string(version));
  }
  WorkerPlan plan;
  EngineConfig& config = plan.config;
  read(plan.shards);
  read(plan.threads_per_shard);
  read(plan.agents);
  read(config.k);
  read(config.num_partitions);
  std::uint32_t measure = 0;
  read(measure);
  config.measure = static_cast<SimilarityMeasure>(measure);
  std::uint64_t slots = 0;
  std::uint64_t buffer = 0;
  read(slots);
  read(buffer);
  config.memory_slots = static_cast<std::size_t>(slots);
  config.shard_buffer_bytes = static_cast<std::size_t>(buffer);
  read(config.seed);
  read(config.sample_rate);
  read(config.random_candidates);
  std::uint8_t reverse = 0;
  std::uint8_t spill = 0;
  std::uint8_t storage_mode = 0;
  std::uint8_t quantize = 0;
  read(reverse);
  read(spill);
  read(storage_mode);
  read(quantize);
  config.include_reverse = reverse != 0;
  config.spill_scores = spill != 0;
  config.storage_mode = static_cast<PartitionStore::Mode>(storage_mode);
  config.quantize_profiles = quantize != 0;
  read_string(config.kernel);
  read_string(config.heuristic);
  read_string(config.io_model.name);
  read(config.io_model.seek_us);
  read(config.io_model.bytes_per_us);
  if (offset != bytes.size()) throw fail("trailing bytes");
  if (plan.shards == 0 || config.num_partitions == 0) {
    throw fail("degenerate shard/partition count");
  }
  return plan;
}

/// Flattens an assignment into its owner vector for RUN_ITERATION.
std::vector<PartitionId> owner_vector(const PartitionAssignment& a) {
  std::vector<PartitionId> owners(a.num_vertices());
  for (VertexId v = 0; v < a.num_vertices(); ++v) owners[v] = a.owner(v);
  return owners;
}

// ---------------------------------------------- persistent-worker protocol --
// Persistent mode spawns the S workers once and drives every iteration
// over a framed pipe channel (util/ipc_channel.h) in ONE heavy round-trip
// per worker. The frame vocabulary and payload layouts below are the whole
// protocol; both sides are by construction the same binary (like the plan
// file), so payloads use the same serde records as the on-disk formats.
//
// Driver -> worker commands:
//   RUN_ITERATION  u32 iteration, u32 attempt, u8 skip_produce,
//                  u8 maps_included,
//                  [u32 n, n x u32 partition_owner, n x u32 shard_owner],
//                  u8 graph_full, i64 graph_base_version,
//                  i64 graph_new_version, u32 kdlt_len, then kdlt_len
//                  bytes of "KDLT" knn_graph_delta (the G(t) rows that
//                  changed since graph_base_version; graph_full = every
//                  row — the respawn resync path),
//                  u8 prof_full, i64 prof_base_version,
//                  i64 prof_new_version, u32 kprd_len, then kprd_len
//                  bytes of "KPRD" profile_delta (the users phase 5
//                  touched; prof_full = every user).
//                  skip_produce = the consume-phase respawn path: the
//                  worker goes straight to the consume wave against the
//                  dead incarnation's intact spool files, and the payload
//                  ends with the worker's inline spool block (below).
//   GO             the worker's inline spool block: the produce -> consume
//                  barrier. Sent to each worker once every shard's
//                  PRODUCED arrived; the worker then runs its consume wave.
//   SHUTDOWN       empty payload; the worker exits 0
// Worker -> driver replies:
//   READY          u32 shard (sent once at startup)
//   PRODUCED       raw ShardWorkerStats, produce-wave share, then the
//                  producer's inline spool block (its file spools are on
//                  disk by now)
//   ITERATION_DONE raw ShardWorkerStats (consume-wave share), then
//                  "KSHR" ShardResult bytes
//
// Spools: spool (p, c) holds the tuples producer p routed to consumer c.
// When p and c run behind the same agent (or in a local fleet) it is a
// file under the run dir, as in thread mode. When they run behind
// different agents it is "inline": p ships it in PRODUCED, the driver
// keeps those bytes until the iteration completes and forwards them in
// c's GO (or in c's skip-produce replay). An inline spool block is
//   u32 count, then count x {u32 peer, u32 tuples, tuples x Tuple}
// with peers ascending — the consumers in PRODUCED, the producers in GO.
// Which spools are inline follows from the plan's agent count alone, and
// both ends check the block lists exactly those.
//
// Ownership maps ride along only when they changed since the last command
// the worker saw (or after a respawn); on the default range shard
// partitioner that is the first command only. Both delta payloads are
// length-prefixed because their parsers demand an exact span (trailing
// bytes are a typed error). The strict request/reply discipline (a worker
// never writes before fully reading its command, and writes nothing
// between PRODUCED and the driver's GO) means the two pipe directions can
// never deadlock on full buffers.

constexpr std::uint32_t kCmdShutdown = 3;
constexpr std::uint32_t kCmdRunIteration = 4;
constexpr std::uint32_t kCmdGo = 5;
constexpr std::uint32_t kRspReady = 100;
constexpr std::uint32_t kRspProduced = 103;
constexpr std::uint32_t kRspIterationDone = 104;

/// Bytes of one frame on the wire: the 12-byte header (magic, type,
/// length) plus the payload — what the bytes_tx / bytes_rx counters count.
std::uint64_t frame_wire_bytes(std::size_t payload_size) {
  return 12 + static_cast<std::uint64_t>(payload_size);
}

const char* frame_type_name(std::uint32_t type) {
  switch (type) {
    case kCmdShutdown: return "SHUTDOWN";
    case kCmdRunIteration: return "RUN_ITERATION";
    case kCmdGo: return "GO";
    case kRspReady: return "READY";
    case kRspProduced: return "PRODUCED";
    case kRspIterationDone: return "ITERATION_DONE";
  }
  return "?";
}

/// Shard -> endpoint: contiguous balanced groups (shard s belongs to
/// endpoint s * E / S) — the one arithmetic the spawn path, the spool
/// routing and the stats attribution must all agree on.
std::uint32_t agent_of_shard(std::uint32_t shard, std::uint32_t shards,
                             std::uint32_t agents) {
  return static_cast<std::uint32_t>(
      static_cast<std::uint64_t>(shard) * agents / shards);
}

/// Spool (p, c) is inline when producer and consumer run behind
/// different agents (`agents` = E, 0 for a local fleet).
bool spool_is_inline(std::uint32_t p, std::uint32_t c, std::uint32_t shards,
                     std::uint32_t agents) {
  return agents > 1 && agent_of_shard(p, shards, agents) !=
                           agent_of_shard(c, shards, agents);
}

/// Parses an inline spool block at `offset` into spans over `payload`,
/// indexed by peer. The block must list exactly the peers with
/// `expected(peer)`, ascending, each with a whole number of tuples.
InlineSpools read_spool_block(std::span<const std::byte> payload,
                              std::size_t& offset, std::uint32_t shards,
                              const std::function<bool(std::uint32_t)>&
                                  expected) {
  auto fail = [](const std::string& what) {
    return std::runtime_error("inline spool block: " + what);
  };
  std::uint32_t count = 0;
  if (!read_record(payload, offset, count)) throw fail("truncated count");
  InlineSpools spools(shards);
  std::uint32_t next_peer = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t peer = 0;
    std::uint32_t tuples = 0;
    if (!read_record(payload, offset, peer) ||
        !read_record(payload, offset, tuples)) {
      throw fail("truncated spool header");
    }
    if (peer < next_peer || peer >= shards || !expected(peer)) {
      throw fail("unexpected peer " + std::to_string(peer));
    }
    const std::uint64_t bytes = std::uint64_t{tuples} * sizeof(Tuple);
    if (bytes > payload.size() - offset) throw fail("truncated tuples");
    spools[peer] = payload.subspan(offset, bytes);
    offset += bytes;
    next_peer = peer + 1;
  }
  for (std::uint32_t peer = 0; peer < shards; ++peer) {
    if (expected(peer) && !spools[peer]) {
      throw fail("missing spool of peer " + std::to_string(peer));
    }
  }
  return spools;
}

void append_owner_maps(std::vector<std::byte>& out,
                       const std::vector<PartitionId>& partition_owner,
                       const std::vector<PartitionId>& shard_owner) {
  append_record(out, static_cast<std::uint32_t>(partition_owner.size()));
  for (const PartitionId p : partition_owner) append_record(out, p);
  for (const PartitionId p : shard_owner) append_record(out, p);
}

/// One long-lived worker as the driver sees it: the process, its channel,
/// and what state the worker is known to hold (so commands can carry
/// deltas instead of snapshots).
struct PersistentWorker {
  Subprocess proc;
  IpcChannel channel;
  /// Distributed mode: this worker lives behind the agent at
  /// `worker_endpoints[endpoint]` — `proc` stays invalid (the agent holds
  /// the process handle; kills go over its control connection) and
  /// `channel` is the TCP socket the agent wired to the worker's stdio.
  bool remote = false;
  std::uint32_t endpoint = 0;
  /// READY seen (consumed lazily before the first command reply).
  bool ready = false;
  /// Worker holds current ownership maps.
  bool has_maps = false;
  /// Version of G the worker holds (-1 = none / desynced).
  std::int64_t graph_version = -1;
  /// Version of P the worker's local profile store holds (-1 = none).
  std::int64_t profile_version = -1;
  /// Set at respawn; cleared (and counted) when the full resync ships.
  bool needs_resync = false;
  std::uint32_t spawn_count = 0;
  std::uint32_t resync_count = 0;
};

/// One worker-agent endpoint the driver coordinates: its held control
/// connection (run-long; dropping it is how the agent learns the run
/// died) and this iteration's content-addressed transfer accounting,
/// folded into the endpoint's lowest shard's ShardWorkerStats.
struct RemoteAgentLink {
  std::string endpoint;  // as configured, for diagnostics
  std::string host;
  std::uint16_t port = 0;
  IpcChannel control;
  std::uint32_t lowest_shard = std::numeric_limits<std::uint32_t>::max();
  AgentTransferCounters sync;
};

/// Driver-side state of the persistent fleet, owned by Impl.
struct PersistentRuntime {
  std::vector<PersistentWorker> workers;
  /// Distributed mode only: one link per configured endpoint (empty =
  /// all-local fleet) and the token naming this run's directory on every
  /// agent.
  std::vector<RemoteAgentLink> agents;
  std::string run_token;
  /// The last G broadcast to the fleet and its version counter —
  /// the base the next iteration's incremental delta diffs against.
  KnnGraph synced_graph;
  std::int64_t broadcast_version = -1;
  /// Profile sync state: the version last broadcast, and the users phase
  /// 5 has touched since (the next iteration's KPRD rows). The driver
  /// never keeps a profile copy — the touched list IS the delta.
  std::int64_t profile_broadcast_version = -1;
  std::vector<VertexId> pending_profile_users;
  /// Ownership maps as last sent (maps ride commands only when changed).
  std::vector<PartitionId> sent_partition_owner;
  std::vector<PartitionId> sent_shard_owner;
};

void spawn_persistent_worker(PersistentRuntime& rt,
                             const ShardConfig& shard_config,
                             const fs::path& work_dir, std::uint32_t shard) {
  PersistentWorker& worker = rt.workers[shard];
  if (!rt.agents.empty()) {
    // Distributed: the agent spawns the process on its machine and wires
    // the accepted socket to the worker's stdio — from here on the same
    // protocol as a local pipe pair, including READY. The plan was
    // synced before any spawn (the worker loads it at startup).
    worker.remote = true;
    worker.endpoint = agent_of_shard(
        shard, static_cast<std::uint32_t>(rt.workers.size()),
        static_cast<std::uint32_t>(rt.agents.size()));
    const RemoteAgentLink& agent = rt.agents[worker.endpoint];
    worker.proc = Subprocess();
    worker.channel =
        agent_connect_worker(agent.host, agent.port, rt.run_token, shard,
                             shard_config.agent_timeout_s);
  } else {
    const std::string exe = shard_config.worker_exe.empty()
                                ? current_executable().string()
                                : shard_config.worker_exe;
    IpcChannelPair pair = make_ipc_channel_pair();
    worker.proc = Subprocess(
        std::vector<std::string>{
            exe, "--shard-worker",
            "--plan=" + plan_file_path(work_dir).string(),
            "--shard=" + std::to_string(shard)},
        pair.child_read_fd, pair.child_write_fd);
    worker.channel = std::move(pair.parent);
  }
  worker.ready = false;
  worker.has_maps = false;
  worker.graph_version = -1;
  worker.profile_version = -1;
  ++worker.spawn_count;
}

/// Opens the control connections on the first distributed iteration and
/// assigns each endpoint its lowest shard (the stats attribution target).
void ensure_agent_links(PersistentRuntime& rt,
                        const ShardConfig& shard_config, std::uint32_t S) {
  if (shard_config.worker_endpoints.empty() || !rt.agents.empty()) return;
  // Distinct per engine instance so one agent can host several runs
  // (tests drive serial and distributed engines against one agent).
  static std::atomic<std::uint64_t> counter{0};
  rt.run_token = "run-" + std::to_string(::getpid()) + "-" +
                 std::to_string(counter.fetch_add(1));
  const auto E =
      static_cast<std::uint32_t>(shard_config.worker_endpoints.size());
  for (std::uint32_t e = 0; e < E; ++e) {
    RemoteAgentLink link;
    link.endpoint = shard_config.worker_endpoints[e];
    const auto [host, port] = parse_host_port(link.endpoint);
    link.host = host;
    link.port = port;
    link.control = agent_connect_control(host, port, rt.run_token,
                                         shard_config.agent_timeout_s);
    rt.agents.push_back(std::move(link));
  }
  for (std::uint32_t s = 0; s < S; ++s) {
    RemoteAgentLink& link = rt.agents[agent_of_shard(s, S, E)];
    link.lowest_shard = std::min(link.lowest_shard, s);
  }
}

/// Ships the run's one file — the static plan — to every shard-owning
/// agent, content-addressed: each agent answers the manifest with the
/// checksums it lacks and only those files transfer. Charges the transfer
/// counters. Runs once, when the fleet spawns: workers build their
/// partitions from the synced G(t) and receive cross-agent spools in the
/// iteration frames, so nothing else ever ships.
void sync_agent_files(PersistentRuntime& rt, const ShardConfig& shard_config,
                      const fs::path& work_dir) {
  if (rt.agents.empty()) return;
  IoCounters scratch_io;
  const std::vector<std::byte> plan_bytes =
      read_file(plan_file_path(work_dir), scratch_io);
  SyncFileEntry plan;
  plan.relpath = "plan.bin";  // plan_file_path() relative to the run dir
  plan.size = plan_bytes.size();
  plan.checksum = fnv1a_bytes(plan_bytes);
  for (RemoteAgentLink& link : rt.agents) {
    if (link.lowest_shard == std::numeric_limits<std::uint32_t>::max()) {
      continue;  // endpoint owns no shards (more endpoints than shards)
    }
    link.sync += agent_sync_push(
        link.control, {plan}, [&](const std::string&) { return plan_bytes; },
        shard_config.agent_timeout_s);
  }
}

/// Everything one iteration needs to build per-worker commands.
struct PersistentIterationInput {
  std::uint32_t iteration = 0;
  const std::vector<PartitionId>* partition_owner = nullptr;
  const std::vector<PartitionId>* shard_owner = nullptr;
  /// Maps differ from PersistentRuntime::sent_* (every worker needs them).
  bool maps_changed = false;
  /// G(t) and the fleet's last synced base.
  const KnnGraph* graph = nullptr;
  std::int64_t graph_base_version = -1;
  std::int64_t graph_new_version = -1;
  /// P(t) and the users whose profiles changed since the last broadcast
  /// (the incremental KPRD rows; a full resync ships every user).
  const InMemoryProfileStore* profiles = nullptr;
  const std::vector<VertexId>* changed_users = nullptr;
  std::int64_t profile_base_version = -1;
  std::int64_t profile_new_version = -1;
};

struct PersistentIterationReply {
  ShardWorkerStats produced;            // produce-wave share of the stats
  ShardWorkerStats consumed;            // consume-wave share of the stats
  std::vector<std::byte> result_bytes;  // "KSHR" payload
  /// The PRODUCED payload, held until the iteration completes, and the
  /// inline spools (this shard -> consumer c) as spans into it.
  std::vector<std::byte> produced_payload;
  InlineSpools spools;
  /// Channel traffic and heavy-command count for this worker this
  /// iteration (1 RUN_ITERATION on the steady path; a respawn replay
  /// adds one), plus the KPRD rows shipped — the driver folds these into
  /// ShardWorkerStats.
  std::uint64_t bytes_tx = 0;
  std::uint64_t bytes_rx = 0;
  std::uint32_t round_trips = 0;
  std::uint64_t profile_rows_rx = 0;
};

/// Drives ONE full iteration across the persistent fleet: one heavy
/// RUN_ITERATION command per worker carrying maps + G(t) + P(t) deltas,
/// a PRODUCED reply per worker, one payload-free GO barrier, and an
/// ITERATION_DONE reply per worker. Failure containment is per worker and
/// per phase: a worker that dies, replies garbage, or misses the deadline
/// during the produce phase is SIGKILLed and respawned exactly once with
/// a full graph + profile resync, and its command replays verbatim (safe:
/// no shard consumes before GO, so the respawn may rewrite its spools).
/// During the consume phase the
/// respawned worker gets a skip-produce command instead and re-runs only
/// the consume wave against the dead incarnation's intact spool files
/// (PRODUCED is sent only after the spool sink flushed, so they are
/// complete by construction) plus its inline spools, which the driver
/// holds until the iteration completes. A second failure in the same
/// phase throws with the per-worker diagnostic history. On return every shard's reply
/// is complete; partial output can never be observed by the caller.
std::vector<PersistentIterationReply> run_persistent_iteration(
    PersistentRuntime& rt, const ShardConfig& shard_config,
    const fs::path& work_dir, const PersistentIterationInput& in,
    const KnnGraph& full_base_graph) {
  using Clock = std::chrono::steady_clock;
  const std::uint32_t S = static_cast<std::uint32_t>(rt.workers.size());
  const auto E = static_cast<std::uint32_t>(rt.agents.size());
  const double timeout_s = shard_config.worker_timeout_s;

  // Delta payloads are memoised per iteration: the incremental deltas are
  // shared by every in-sync worker, the full snapshots by every respawned
  // one.
  std::optional<std::vector<std::byte>> graph_incr;
  std::optional<std::vector<std::byte>> graph_full_bytes;
  auto graph_payload = [&](bool full) -> const std::vector<std::byte>& {
    if (full) {
      if (!graph_full_bytes) {
        graph_full_bytes =
            knn_graph_delta_to_bytes(full_knn_graph_delta(*in.graph));
      }
      return *graph_full_bytes;
    }
    if (!graph_incr) {
      graph_incr = knn_graph_delta_to_bytes(
          knn_graph_delta(full_base_graph, *in.graph));
    }
    return *graph_incr;
  };
  std::optional<std::vector<std::byte>> prof_incr;
  std::optional<std::vector<std::byte>> prof_full_bytes;
  std::uint64_t prof_incr_rows = 0;
  std::uint64_t prof_full_rows = 0;
  auto profile_payload = [&](bool full) -> const std::vector<std::byte>& {
    if (full) {
      if (!prof_full_bytes) {
        const ProfileDelta delta = full_profile_delta(*in.profiles);
        prof_full_rows = delta.rows.size();
        prof_full_bytes = profile_delta_to_bytes(delta);
      }
      return *prof_full_bytes;
    }
    if (!prof_incr) {
      const ProfileDelta delta =
          profile_delta_for_users(*in.profiles, *in.changed_users);
      prof_incr_rows = delta.rows.size();
      prof_incr = profile_delta_to_bytes(delta);
    }
    return *prof_incr;
  };

  std::vector<PersistentIterationReply> replies(S);

  // Sends `head` followed by consumer c's inline spool block as one
  // `type` frame; the tuple bytes go out straight from the producers'
  // held PRODUCED payloads. Returns the frame's wire bytes.
  auto send_with_spools = [&](std::uint32_t c, std::uint32_t type,
                              std::span<const std::byte> head) {
    std::vector<std::uint32_t> producers;
    for (std::uint32_t p = 0; p < S; ++p) {
      if (spool_is_inline(p, c, S, E)) producers.push_back(p);
    }
    // Every small header is laid out before any span into it is taken.
    std::vector<std::byte> headers;
    append_record(headers, static_cast<std::uint32_t>(producers.size()));
    for (const std::uint32_t p : producers) {
      append_record(headers, p);
      append_record(headers, static_cast<std::uint32_t>(
                                 replies[p].spools[c]->size() / sizeof(Tuple)));
    }
    const std::span<const std::byte> all(headers);
    std::vector<std::span<const std::byte>> parts{head, all.first(4)};
    for (std::size_t i = 0; i < producers.size(); ++i) {
      parts.push_back(all.subspan(4 + 8 * i, 8));
      parts.push_back(*replies[producers[i]].spools[c]);
    }
    rt.workers[c].channel.send_gather(type, parts, timeout_s);
    std::size_t payload = 0;
    for (const auto& part : parts) payload += part.size();
    return frame_wire_bytes(payload);
  };

  // The full command for one worker. Fullness is per worker and per
  // payload: a worker whose held version is not the broadcast base (a
  // respawn, or a survivor of an aborted iteration) gets the snapshot.
  auto build_command = [&](std::uint32_t s, std::uint32_t attempt,
                           bool skip_produce) {
    PersistentWorker& worker = rt.workers[s];
    std::vector<std::byte> payload;
    append_record(payload, in.iteration);
    append_record(payload, attempt);
    append_record(payload, static_cast<std::uint8_t>(skip_produce));
    const bool include_maps = in.maps_changed || !worker.has_maps;
    append_record(payload, static_cast<std::uint8_t>(include_maps));
    if (include_maps) {
      append_owner_maps(payload, *in.partition_owner, *in.shard_owner);
    }
    const bool graph_full = in.graph_base_version < 0 ||
                            worker.graph_version != in.graph_base_version;
    append_record(payload, static_cast<std::uint8_t>(graph_full));
    append_record(payload, in.graph_base_version);
    append_record(payload, in.graph_new_version);
    {
      const std::vector<std::byte>& delta = graph_payload(graph_full);
      append_record(payload, static_cast<std::uint32_t>(delta.size()));
      payload.insert(payload.end(), delta.begin(), delta.end());
    }
    const bool prof_full =
        in.profile_base_version < 0 ||
        worker.profile_version != in.profile_base_version;
    append_record(payload, static_cast<std::uint8_t>(prof_full));
    append_record(payload, in.profile_base_version);
    append_record(payload, in.profile_new_version);
    {
      const std::vector<std::byte>& delta = profile_payload(prof_full);
      append_record(payload, static_cast<std::uint32_t>(delta.size()));
      payload.insert(payload.end(), delta.begin(), delta.end());
    }
    replies[s].profile_rows_rx = prof_full ? prof_full_rows : prof_incr_rows;
    if (graph_full && prof_full && worker.needs_resync) {
      ++worker.resync_count;
      worker.needs_resync = false;
    }
    return payload;
  };

  // Collect helper: one frame from worker s under its own deadline (a
  // wedged worker early in the collection order must not eat the budget
  // of a healthy one whose reply is still streaming), consuming the
  // leading READY of a fresh (re)spawn first. Throws IpcError /
  // runtime_error; the per-phase fail path takes over.
  // Kills worker s NOW and reports how it died: locally SIGKILL + reap,
  // remotely the agent's KillWorker round-trip (whose OK payload is the
  // describe string). "still running" when even the control link failed
  // — the agent kills its orphans itself once the link drops.
  auto kill_worker_now = [&](std::uint32_t s) -> std::string {
    PersistentWorker& worker = rt.workers[s];
    if (worker.remote) {
      try {
        return agent_kill_worker(rt.agents[worker.endpoint].control, s,
                                 shard_config.agent_timeout_s);
      } catch (const std::exception&) {
        return "still running";
      }
    }
    worker.proc.kill_now();
    worker.proc.wait();
    return worker.proc.status().describe();
  };

  auto collect_reply = [&](std::uint32_t s, std::uint32_t expected_reply)
      -> IpcFrame {
    PersistentWorker& worker = rt.workers[s];
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               timeout_s >= 0.0 ? timeout_s : 0.0));
    auto remaining = [&]() -> double {
      if (timeout_s < 0.0) return -1.0;
      return std::max(
          std::chrono::duration<double>(deadline - Clock::now()).count(),
          0.0);
    };
    if (!worker.ready) {
      const IpcFrame hello = worker.channel.recv(remaining());
      replies[s].bytes_rx += frame_wire_bytes(hello.payload.size());
      std::uint32_t echoed = S;  // any invalid value
      std::size_t offset = 0;
      if (hello.type != kRspReady ||
          !read_record(std::span<const std::byte>(hello.payload), offset,
                       echoed) ||
          echoed != s) {
        throw std::runtime_error(std::string("expected READY, got frame ") +
                                 frame_type_name(hello.type));
      }
      worker.ready = true;
    }
    IpcFrame frame = worker.channel.recv(remaining());
    replies[s].bytes_rx += frame_wire_bytes(frame.payload.size());
    if (frame.type != expected_reply) {
      throw std::runtime_error(std::string("expected ") +
                               frame_type_name(expected_reply) +
                               ", got frame " + frame_type_name(frame.type));
    }
    return frame;
  };

  // ---- Produce phase: RUN_ITERATION out, PRODUCED back. ----------------
  {
    std::vector<std::uint32_t> pending(S);
    for (std::uint32_t s = 0; s < S; ++s) pending[s] = s;
    std::vector<std::string> history(S);
    for (std::uint32_t attempt = 0; attempt < 2; ++attempt) {
      std::vector<std::uint32_t> failed;
      std::vector<bool> send_ok(S, true);
      // Record a failure for this attempt; the worker is killed (unless
      // the caller already did, to describe the corpse) so the next step
      // (respawn or diagnostic) starts clean.
      auto fail_worker = [&](std::uint32_t s, const std::string& why,
                             bool kill = true) {
        failed.push_back(s);
        if (!history[s].empty()) history[s] += "; ";
        history[s] += "attempt " + std::to_string(attempt) + ": " + why;
        if (kill) (void)kill_worker_now(s);
        rt.workers[s].channel = IpcChannel();
      };

      // Send phase: every pending worker gets its command (a dead peer
      // surfaces as an EPIPE SysError here and is handled like any other
      // failure — no hang, no partial wave; a socket peer that stops
      // draining hits the send deadline instead of wedging the driver).
      for (const std::uint32_t s : pending) {
        PersistentWorker& worker = rt.workers[s];
        const std::vector<std::byte> payload =
            build_command(s, attempt, /*skip_produce=*/false);
        ++replies[s].round_trips;
        try {
          worker.channel.send(kCmdRunIteration, payload, timeout_s);
          replies[s].bytes_tx += frame_wire_bytes(payload.size());
        } catch (const IpcError& e) {
          // An OversizedFrame here is the DRIVER refusing its own
          // payload (workload too large for the frame cap) —
          // deterministic, so a kill/respawn would only replay the
          // refusal against a healthy worker. Abort with the real cause.
          if (e.kind() == IpcErrorKind::OversizedFrame) {
            throw std::runtime_error(
                "sharded produce wave: command for shard " +
                std::to_string(s) + " exceeds the IPC frame bound (" +
                e.what() + "); use thread mode for workloads of this "
                "size");
          }
          send_ok[s] = false;
          // Local: describe the (unreaped) process as-is, then kill.
          // Remote: the kill round-trip is the only way to learn how the
          // worker died, so it doubles as the describe.
          const std::string describe = worker.remote
                                           ? kill_worker_now(s)
                                           : worker.proc.status().describe();
          fail_worker(s, std::string("command send failed (") + e.what() +
                             "; worker " + describe + ")",
                      /*kill=*/!worker.remote);
        }
      }

      for (const std::uint32_t s : pending) {
        if (!send_ok[s]) continue;
        PersistentWorker& worker = rt.workers[s];
        try {
          std::vector<std::byte> bytes =
              collect_reply(s, kRspProduced).payload;
          const std::span<const std::byte> payload(bytes);
          std::size_t offset = 0;
          ShardWorkerStats stats;
          if (!read_record(payload, offset, stats)) {
            throw std::runtime_error("malformed PRODUCED payload");
          }
          InlineSpools spools = read_spool_block(
              payload, offset, S,
              [&](std::uint32_t c) { return spool_is_inline(s, c, S, E); });
          if (offset != payload.size()) {
            throw std::runtime_error("trailing bytes in PRODUCED payload");
          }
          // Moving the vector keeps its buffer, so the spans stay valid.
          replies[s].produced = stats;
          replies[s].produced_payload = std::move(bytes);
          replies[s].spools = std::move(spools);
          // The worker observably holds what the command carried (it
          // applies every delta before its produce wave starts).
          worker.has_maps = true;
          worker.graph_version = in.graph_new_version;
          worker.profile_version = in.profile_new_version;
        } catch (const IpcError& e) {
          if (e.kind() == IpcErrorKind::Timeout) {
            fail_worker(s, "command timed out after " +
                               std::to_string(timeout_s) +
                               "s (killed with SIGKILL)");
          } else {
            // EOF / truncation / garbage: kill and reap first so the
            // description carries how the process actually died.
            fail_worker(s, std::string(e.what()) + " (worker " +
                               kill_worker_now(s) + ")",
                        /*kill=*/false);
          }
        } catch (const std::exception& e) {
          fail_worker(s, e.what());
        }
      }

      if (failed.empty()) break;
      if (attempt == 0) {
        for (const std::uint32_t s : failed) {
          KNNPC_LOG(Warn) << "persistent shard " << s << " produce"
                          << " worker failed (" << history[s]
                          << "); respawning once with a full resync";
          spawn_persistent_worker(rt, shard_config, work_dir, s);
          rt.workers[s].needs_resync = true;
        }
        pending = std::move(failed);
        continue;
      }
      std::string message = "sharded produce wave failed after one retry:";
      for (const std::uint32_t s : failed) {
        message += "\n  shard " + std::to_string(s) + ": " + history[s];
      }
      throw std::runtime_error(message);
    }
  }

  // ---- Consume phase: GO out (the barrier — every shard has spooled by
  // now, and each GO carries its consumer's inline spools),
  // ITERATION_DONE back. A respawn replays with skip_produce instead of
  // GO. ------------------------------------------------------------------
  {
    std::vector<std::uint32_t> pending(S);
    for (std::uint32_t s = 0; s < S; ++s) pending[s] = s;
    std::vector<std::string> history(S);
    for (std::uint32_t attempt = 0; attempt < 2; ++attempt) {
      std::vector<std::uint32_t> failed;
      std::vector<bool> send_ok(S, true);
      auto fail_worker = [&](std::uint32_t s, const std::string& why,
                             bool kill = true) {
        failed.push_back(s);
        if (!history[s].empty()) history[s] += "; ";
        history[s] += "attempt " + std::to_string(attempt) + ": " + why;
        if (kill) (void)kill_worker_now(s);
        rt.workers[s].channel = IpcChannel();
      };

      for (const std::uint32_t s : pending) {
        PersistentWorker& worker = rt.workers[s];
        try {
          if (attempt == 0) {
            replies[s].bytes_tx += send_with_spools(s, kCmdGo, {});
          } else {
            // The respawned worker re-runs only the consume wave: the
            // dead incarnation's spool files are complete on disk and
            // its inline spools ride the command, so re-producing would
            // be wasted (and, with other shards mid-consume, unsafe).
            const std::vector<std::byte> payload =
                build_command(s, attempt, /*skip_produce=*/true);
            ++replies[s].round_trips;
            replies[s].bytes_tx +=
                send_with_spools(s, kCmdRunIteration, payload);
          }
        } catch (const IpcError& e) {
          if (e.kind() == IpcErrorKind::OversizedFrame) {
            throw std::runtime_error(
                "sharded consume wave: command for shard " +
                std::to_string(s) + " exceeds the IPC frame bound (" +
                e.what() + "); use thread mode for workloads of this "
                "size");
          }
          send_ok[s] = false;
          const std::string describe = worker.remote
                                           ? kill_worker_now(s)
                                           : worker.proc.status().describe();
          fail_worker(s, std::string("command send failed (") + e.what() +
                             "; worker " + describe + ")",
                      /*kill=*/!worker.remote);
        }
      }

      for (const std::uint32_t s : pending) {
        if (!send_ok[s]) continue;
        PersistentWorker& worker = rt.workers[s];
        try {
          const IpcFrame frame = collect_reply(s, kRspIterationDone);
          const std::span<const std::byte> payload(frame.payload);
          std::size_t offset = 0;
          ShardWorkerStats stats;
          if (!read_record(payload, offset, stats)) {
            throw std::runtime_error("malformed ITERATION_DONE payload");
          }
          replies[s].consumed = stats;
          replies[s].result_bytes.assign(payload.begin() + offset,
                                         payload.end());
          // A skip-produce replay applied fresh deltas; recording the
          // versions again for the steady path is harmless.
          worker.has_maps = true;
          worker.graph_version = in.graph_new_version;
          worker.profile_version = in.profile_new_version;
        } catch (const IpcError& e) {
          if (e.kind() == IpcErrorKind::Timeout) {
            fail_worker(s, "command timed out after " +
                               std::to_string(timeout_s) +
                               "s (killed with SIGKILL)");
          } else {
            fail_worker(s, std::string(e.what()) + " (worker " +
                               kill_worker_now(s) + ")",
                        /*kill=*/false);
          }
        } catch (const std::exception& e) {
          fail_worker(s, e.what());
        }
      }

      if (failed.empty()) break;
      if (attempt == 0) {
        for (const std::uint32_t s : failed) {
          KNNPC_LOG(Warn) << "persistent shard " << s << " consume"
                          << " worker failed (" << history[s]
                          << "); respawning once with a full resync";
          spawn_persistent_worker(rt, shard_config, work_dir, s);
          rt.workers[s].needs_resync = true;
        }
        pending = std::move(failed);
        continue;
      }
      std::string message = "sharded consume wave failed after one retry:";
      for (const std::uint32_t s : failed) {
        message += "\n  shard " + std::to_string(s) + ": " + history[s];
      }
      throw std::runtime_error(message);
    }
  }
  return replies;
}

// ------------------------------------------------------ the worker role --

// PRODUCED and ITERATION_DONE carry ShardWorkerStats as a raw record
// (append_record(reply, worker) below), which only works while the stats
// structs stay trivially copyable; a std::string member added later must
// come with a real serialiser.
static_assert(std::is_trivially_copyable_v<IterationStats>);
static_assert(std::is_trivially_copyable_v<ShardWorkerStats>);

/// A persistent producer's spool sink: spool (w, c) is a file when
/// consumer c runs behind the producer's own agent, and an in-memory
/// buffer, shipped in the PRODUCED reply, when it is inline.
class ProducerSpoolSink {
 public:
  ProducerSpoolSink(RecordShardWriter<Tuple>& files, std::uint32_t producer,
                    std::uint32_t shards, std::uint32_t agents)
      : files_(files), inline_(shards), buffers_(shards) {
    for (std::uint32_t c = 0; c < shards; ++c) {
      inline_[c] = spool_is_inline(producer, c, shards, agents);
    }
  }

  void add(std::size_t c, const Tuple& t) {
    if (inline_[c]) {
      buffers_[c].push_back(t);
    } else {
      files_.add(c, t);
    }
  }

  /// Flushes the spool files and moves the inline spools into `out` as
  /// an inline spool block.
  void finish(std::vector<std::byte>& out) {
    files_.finish();
    const auto count = static_cast<std::uint32_t>(
        std::count(inline_.begin(), inline_.end(), true));
    append_record(out, count);
    for (std::uint32_t c = 0; c < buffers_.size(); ++c) {
      if (!inline_[c]) continue;
      append_record(out, c);
      append_record(out, static_cast<std::uint32_t>(buffers_[c].size()));
      const std::size_t offset = out.size();
      const std::size_t bytes = buffers_[c].size() * sizeof(Tuple);
      out.resize(offset + bytes);
      if (bytes > 0) {
        std::memcpy(out.data() + offset, buffers_[c].data(), bytes);
      }
      buffers_[c] = {};
    }
  }

 private:
  RecordShardWriter<Tuple>& files_;
  std::vector<bool> inline_;
  std::vector<std::vector<Tuple>> buffers_;
};

/// One persistent worker process: loads the static plan, builds its
/// thread pool once, sends READY on stdout and then serves RUN_ITERATION /
/// SHUTDOWN commands from stdin until shutdown or EOF (both exit 0). It
/// opens no partition store: its partitions come from the G(t) and P(t)
/// it holds. Protocol errors are reported on stderr and become a non-zero
/// exit — the driver's respawn path takes over from there.
int serve_shard_worker(const fs::path& plan_file, std::uint32_t shard) try {
  const fs::path work_dir = plan_file.parent_path();
  const WorkerPlan plan = load_plan_file(plan_file);
  if (shard >= plan.shards) {
    throw std::invalid_argument("shard " + std::to_string(shard) +
                                " out of range (S=" +
                                std::to_string(plan.shards) + ")");
  }
  const EngineConfig& config = plan.config;
  const std::uint32_t S = plan.shards;
  std::unique_ptr<ThreadPool> pool;
  if (plan.threads_per_shard > 1) {
    pool = std::make_unique<ThreadPool>(plan.threads_per_shard - 1);
  }
  // The command channel is this process's stdin/stdout (wired to the
  // driver's pipes by the Subprocess stdio constructor). Diagnostics go
  // to the inherited stderr only.
  IpcChannel channel(STDIN_FILENO, STDOUT_FILENO);

  // State synced from the driver across commands.
  std::optional<PartitionAssignment> assignment;  // user -> partition
  std::optional<PartitionAssignment> shard_owner;  // user -> shard
  std::vector<VertexId> members;
  KnnGraph graph;  // this worker's copy of G(t)
  std::int64_t graph_version = -1;
  InMemoryProfileStore local_profiles;  // this worker's copy of P(t)
  std::int64_t profile_version = -1;

  {
    std::vector<std::byte> hello;
    append_record(hello, shard);
    channel.send(kRspReady, hello);
  }

  for (;;) {
    IpcFrame frame;
    try {
      frame = channel.recv();
    } catch (const IpcError& e) {
      // The driver dropping its end is an orderly shutdown (its process
      // may already be gone); anything else is a protocol failure.
      if (e.kind() == IpcErrorKind::Eof) return 0;
      throw;
    }
    if (frame.type == kCmdShutdown) return 0;
    if (frame.type != kCmdRunIteration) {
      throw std::runtime_error(std::string("unexpected command frame ") +
                               frame_type_name(frame.type));
    }
    const std::span<const std::byte> payload(frame.payload);
    std::size_t offset = 0;
    auto read = [&]<typename T>(T& out) {
      if (!read_record(payload, offset, out)) {
        throw std::runtime_error(std::string("truncated ") +
                                 frame_type_name(frame.type) + " payload");
      }
    };
    std::uint32_t iteration = 0;
    std::uint32_t attempt = 0;
    std::uint8_t skip_produce = 0;
    std::uint8_t maps_included = 0;
    read(iteration);
    read(attempt);
    read(skip_produce);
    read(maps_included);
    if (maps_included != 0) {
      std::uint32_t n = 0;
      read(n);
      // Both maps must fit in the remaining payload before n drives any
      // allocation (corrupt-frame protection).
      if (n > (payload.size() - offset) / (2 * sizeof(PartitionId))) {
        throw std::runtime_error(
            "ownership maps exceed the RUN_ITERATION payload");
      }
      std::vector<PartitionId> partition_owner(n);
      for (PartitionId& p : partition_owner) read(p);
      std::vector<PartitionId> owner(n);
      for (PartitionId& p : owner) read(p);
      assignment.emplace(std::move(partition_owner), config.num_partitions);
      shard_owner.emplace(std::move(owner), plan.shards);
      members = shard_owner->members(shard);
    }
    if (!assignment || !shard_owner) {
      throw std::runtime_error("command arrived before any ownership maps");
    }

    // Sync this worker's G(t) from its (length-prefixed) delta. The delta
    // parsers demand an exact span, hence the explicit length.
    {
      std::uint8_t full_sync = 0;
      std::int64_t base_version = -1;
      std::int64_t new_version = -1;
      std::uint32_t delta_len = 0;
      read(full_sync);
      read(base_version);
      read(new_version);
      read(delta_len);
      if (delta_len > payload.size() - offset) {
        throw std::runtime_error("truncated RUN_ITERATION payload");
      }
      const KnnGraphDelta delta =
          knn_graph_delta_from_bytes(payload.subspan(offset, delta_len));
      offset += delta_len;
      if (full_sync != 0) {
        graph = KnnGraph(delta.num_vertices, delta.k);
      } else if (graph_version != base_version) {
        throw std::runtime_error(
            "incremental G(t) delta against version " +
            std::to_string(base_version) + " but this worker holds " +
            std::to_string(graph_version));
      }
      apply_knn_graph_delta(graph, delta);
      graph_version = new_version;
      if (graph.num_vertices() != assignment->num_vertices()) {
        throw std::runtime_error(
            "synced G(t) vertex count does not match the ownership maps");
      }
    }

    // Sync this worker's P(t) the same way. After iteration 0 only the
    // changed rows travel.
    {
      std::uint8_t full_sync = 0;
      std::int64_t base_version = -1;
      std::int64_t new_version = -1;
      std::uint32_t delta_len = 0;
      read(full_sync);
      read(base_version);
      read(new_version);
      read(delta_len);
      if (delta_len > payload.size() - offset) {
        throw std::runtime_error("truncated RUN_ITERATION payload");
      }
      const ProfileDelta delta =
          profile_delta_from_bytes(payload.subspan(offset, delta_len));
      offset += delta_len;
      if (full_sync != 0) {
        local_profiles =
            InMemoryProfileStore(std::vector<SparseProfile>(delta.num_users));
      } else if (profile_version != base_version) {
        throw std::runtime_error(
            "incremental P(t) delta against version " +
            std::to_string(base_version) + " but this worker holds " +
            std::to_string(profile_version));
      }
      apply_profile_delta(local_profiles, delta);
      profile_version = new_version;
    }
    // This consumer's inline spools: the producers behind other agents.
    const auto inline_producer = [&](std::uint32_t p) {
      return spool_is_inline(p, shard, S, plan.agents);
    };
    InlineSpools inline_spools;
    if (skip_produce != 0) {
      inline_spools = read_spool_block(payload, offset, S, inline_producer);
    }
    if (offset != payload.size()) {
      throw std::runtime_error("trailing bytes in RUN_ITERATION payload");
    }

    const WaveContext ctx{config, iteration, S, *assignment, *shard_owner,
                          work_dir};

    IpcFrame go;  // holds the GO-borne inline spools through the consume
    if (skip_produce == 0) {
      // Produce phase: spool, report PRODUCED, then hold at the barrier
      // until every other shard has spooled too.
      ShardWorkerStats worker;
      worker.shard = shard;
      worker.users = static_cast<VertexId>(members.size());
      worker.stats.iteration = iteration;
      worker.stats.threads_used = plan.threads_per_shard;
      IoAccountant io(config.io_model);
      const auto fault_hook = [&] {
        maybe_inject_fault("produce", shard, attempt, iteration);
      };
      RecordShardWriter<Tuple> files(
          spools_dir(work_dir), routed_producer_stem(kSpoolStem, shard), S,
          std::max<std::size_t>(config.shard_buffer_bytes / S, sizeof(Tuple)),
          &io);
      ProducerSpoolSink sink(files, shard, S, plan.agents);
      produce_candidates(ctx, shard, members, /*store=*/nullptr, graph, sink,
                         worker, fault_hook);
      worker.stats.io = io.counters();
      worker.stats.modeled_io_us = io.modeled_us();
      std::vector<std::byte> reply;
      append_record(reply, worker);
      sink.finish(reply);
      channel.send(kRspProduced, reply);
      reply = {};

      try {
        go = channel.recv();
      } catch (const IpcError& e) {
        // A driver tearing the fleet down mid-iteration (another shard
        // failed twice) drops its end; that is an orderly exit here too.
        if (e.kind() == IpcErrorKind::Eof) return 0;
        throw;
      }
      if (go.type == kCmdShutdown) return 0;
      if (go.type != kCmdGo) {
        throw std::runtime_error(std::string("expected GO, got frame ") +
                                 frame_type_name(go.type));
      }
      std::size_t go_offset = 0;
      inline_spools =
          read_spool_block(go.payload, go_offset, S, inline_producer);
      if (go_offset != go.payload.size()) {
        throw std::runtime_error("trailing bytes in GO payload");
      }
    }

    // Consume phase, against this worker's synced G(t) and P(t).
    ShardWorkerStats worker;
    worker.shard = shard;
    worker.users = static_cast<VertexId>(members.size());
    worker.stats.iteration = iteration;
    worker.stats.threads_used = plan.threads_per_shard;
    IoAccountant io(config.io_model);
    const auto fault_hook = [&] {
      maybe_inject_fault("consume", shard, attempt, iteration);
    };
    ConsumerOutput out = consume_candidates(
        ctx, shard, members, /*store=*/nullptr, inline_spools, graph,
        pool.get(), &io, &local_profiles, worker, fault_hook);
    ShardResult result;
    result.shard = shard;
    result.num_vertices = assignment->num_vertices();
    result.k = config.k;
    result.changed = out.changed;
    result.entries.reserve(members.size());
    for (const VertexId user : members) {
      const auto list = out.next.neighbors(user);
      result.entries.emplace_back(
          user, std::vector<Neighbor>(list.begin(), list.end()));
    }
    worker.stats.io = io.counters();
    worker.stats.modeled_io_us = io.modeled_us();
    std::vector<std::byte> reply;
    append_record(reply, worker);
    const std::vector<std::byte> result_bytes = shard_result_to_bytes(result);
    reply.insert(reply.end(), result_bytes.begin(), result_bytes.end());
    channel.send(kRspIterationDone, reply);
  }
} catch (const std::exception& e) {
  std::fprintf(stderr, "persistent shard_worker (shard %u): %s\n", shard,
               e.what());
  return 13;
}

}  // namespace

std::optional<int> maybe_run_shard_worker(int argc, char** argv) {
  bool is_worker = false;
  std::string plan;
  std::uint32_t shard = 0;
  bool have_shard = false;
  std::string parse_error;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    auto value_of = [&](std::string_view prefix)
        -> std::optional<std::string> {
      if (arg.size() >= prefix.size() &&
          arg.substr(0, prefix.size()) == prefix) {
        return std::string(arg.substr(prefix.size()));
      }
      return std::nullopt;
    };
    if (arg == "--shard-worker") {
      is_worker = true;
    } else if (auto v = value_of("--plan=")) {
      plan = *v;
    } else if (auto v = value_of("--shard=")) {
      try {
        shard = static_cast<std::uint32_t>(std::stoul(*v));
        have_shard = true;
      } catch (const std::exception&) {
        parse_error = "bad --shard value '" + *v + "'";
      }
    }
  }
  // A parse failure only matters in the worker role; a normal binary
  // invocation must fall through to its own argv handling untouched.
  if (!is_worker) return std::nullopt;
  if (!parse_error.empty()) {
    std::fprintf(stderr, "--shard-worker: %s\n", parse_error.c_str());
    return 2;
  }
  if (plan.empty() || !have_shard) {
    std::fprintf(stderr, "--shard-worker requires --plan= --shard=\n");
    return 2;
  }
  return serve_shard_worker(plan, shard);
}

// ----------------------------------------------------------- the driver --

struct ShardedKnnEngine::Impl {
  std::unique_ptr<ScratchDir> scratch;
  fs::path work_dir;
  /// Resolved worker count S.
  std::uint32_t shards = 1;
  /// Phase-4 threads per worker: the total auto/explicit budget
  /// (resolve_thread_count, as in the serial engine) divided by S.
  std::uint32_t threads_per_shard = 1;
  /// One pool per worker (nullptr when threads_per_shard == 1: the worker
  /// thread itself is the one thread). Persistent mode leaves all slots
  /// empty — each worker process builds its own pool.
  std::vector<std::unique_ptr<ThreadPool>> pools;
  /// Previous phase-1 assignment (reused when repartition_every > 1).
  std::optional<PartitionAssignment> last_assignment;
  /// Persistent mode only: the long-lived worker fleet and its sync
  /// state. Workers spawn lazily on the first iteration and are shut
  /// down (gracefully, then by force) when the engine dies.
  PersistentRuntime persistent;

  ~Impl() { shutdown_persistent_workers(); }

  /// Sends SHUTDOWN to every live worker, waits briefly for orderly
  /// exits, and SIGKILLs stragglers. Never blocks unboundedly.
  void shutdown_persistent_workers() noexcept {
    using Clock = std::chrono::steady_clock;
    bool any = false;
    for (PersistentWorker& w : persistent.workers) {
      if (w.remote) {
        // Remote worker: best-effort orderly SHUTDOWN with a short
        // deadline (the socket may be backpressured by a dead peer),
        // then half-close so its recv loop sees EOF either way.
        if (w.channel.valid()) {
          try {
            w.channel.send(kCmdShutdown, {}, /*timeout_s=*/5.0);
          } catch (...) {
          }
          w.channel.close_write();
        }
        continue;
      }
      if (!w.proc.valid() || w.proc.status().finished()) continue;
      any = true;
      try {
        w.channel.send(kCmdShutdown, {});
      } catch (...) {
        // Already dead: the reap below handles it.
      }
      w.channel.close_write();
    }
    // Dropping the control links tells every agent this run is over; an
    // agent kills whatever workers ignored their SHUTDOWN.
    persistent.agents.clear();
    if (!any) return;
    const auto deadline = Clock::now() + std::chrono::seconds(5);
    for (PersistentWorker& w : persistent.workers) {
      if (!w.proc.valid()) continue;
      while (!w.proc.poll().finished() && Clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      if (!w.proc.status().finished()) {
        w.proc.kill_now();
        w.proc.wait();
      }
    }
  }

  Impl(const EngineConfig& config, const ShardConfig& shard_config,
       VertexId num_users) {
    if (config.work_dir.empty()) {
      scratch = std::make_unique<ScratchDir>("shard_driver");
      work_dir = scratch->path();
    } else {
      work_dir = config.work_dir;
      fs::create_directories(work_dir);
    }
    shards = resolve_shard_count(shard_config.shards, num_users, config.k);
    const std::uint32_t total = resolve_thread_count(
        config.threads,
        static_cast<std::uint64_t>(num_users) *
            std::max<std::uint32_t>(config.k, 1),
        kPhase4WorkPerThread);
    threads_per_shard = std::max(total / shards, 1u);
    pools.resize(shards);
    if (shard_config.worker_mode == ShardWorkerMode::Thread) {
      for (std::uint32_t s = 0; s < shards; ++s) {
        if (threads_per_shard > 1) {
          // The worker thread participates in its own parallel loops, so
          // spawn one fewer pool worker (same rule as the serial engine).
          pools[s] = std::make_unique<ThreadPool>(threads_per_shard - 1);
        }
      }
    }
  }
};

ShardedKnnEngine::ShardedKnnEngine(EngineConfig config,
                                   ShardConfig shard_config,
                                   std::vector<SparseProfile> profiles)
    : config_(std::move(config)), shard_config_(std::move(shard_config)),
      profiles_(std::move(profiles)),
      impl_(std::make_unique<Impl>(config_, shard_config_,
                                   profiles_.num_users())) {
  if (config_.num_partitions == 0) {
    throw std::invalid_argument(
        "ShardedKnnEngine: num_partitions must be > 0");
  }
  if (config_.memory_slots < 2) {
    throw std::invalid_argument(
        "ShardedKnnEngine: memory_slots must be >= 2 (a PI pair needs "
        "both partitions resident)");
  }
  if (!shard_config_.worker_endpoints.empty() &&
      shard_config_.worker_mode != ShardWorkerMode::Persistent) {
    throw std::invalid_argument(
        "ShardedKnnEngine: worker_endpoints requires the persistent "
        "worker mode (distributed execution rides the persistent-worker "
        "protocol)");
  }
  // Identical bootstrap to KnnEngine: same seed, same initial G(0).
  Rng rng(config_.seed);
  graph_ = random_knn_graph(profiles_.num_users(), config_.k, rng);
}

ShardedKnnEngine::~ShardedKnnEngine() = default;

std::uint32_t ShardedKnnEngine::num_shards() const noexcept {
  return impl_->shards;
}

std::uint32_t ShardedKnnEngine::threads_per_shard() const noexcept {
  return impl_->threads_per_shard;
}

void ShardedKnnEngine::set_initial_graph(KnnGraph graph) {
  if (graph.num_vertices() != profiles_.num_users()) {
    throw std::invalid_argument(
        "ShardedKnnEngine::set_initial_graph: vertex count mismatch");
  }
  graph_ = std::move(graph);
}

ShardedIterationStats ShardedKnnEngine::run_iteration() {
  ShardedIterationStats out;
  const VertexId n = profiles_.num_users();
  const PartitionId m = config_.num_partitions;
  const std::uint32_t S = impl_->shards;
  const bool persistent =
      shard_config_.worker_mode == ShardWorkerMode::Persistent;
  // Thread mode streams its partitions from files the driver writes in
  // phase 1; persistent workers build theirs from the G(t) and P(t) they
  // hold, so that mode writes no partition store at all.
  std::optional<PartitionStore> store;
  if (!persistent) {
    store.emplace(impl_->work_dir / "partitions", config_.io_model,
                  config_.storage_mode);
  }

  // ---- Phase 1 (driver): partition G(t) once; split users into shards.
  double partition_s = 0.0;
  PartitionAssignment assignment;
  PartitionAssignment shard_owner;
  std::optional<std::size_t> partition_cost_total;
  {
    ScopedAccumulator timing(&partition_s);
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
    if (shard_config_.shard_partitioner == "pair-affinity") {
      // Align shards with the partition map so each consumer's schedule
      // touches only its own partition group (~S-fold fewer loads). Built
      // here, not via make_partitioner: the split is derived from the
      // phase-1 assignment, which a Partitioner never sees.
      shard_owner = pair_affinity_shard_split(assignment, S);
    } else {
      shard_owner =
          make_partitioner(shard_config_.shard_partitioner)->assign(digraph, S);
    }
    if (store) store->write_all(edge_list, assignment, profiles_);
    if (config_.record_partition_cost) {
      partition_cost_total = partition_cost(digraph, assignment).total;
    }
  }
  std::vector<std::vector<VertexId>> shard_members(S);
  for (std::uint32_t s = 0; s < S; ++s) {
    shard_members[s] = shard_owner.members(s);
  }

  out.workers.resize(S);
  for (std::uint32_t s = 0; s < S; ++s) {
    out.workers[s].shard = s;
    out.workers[s].users = static_cast<VertexId>(shard_members[s].size());
    out.workers[s].stats.iteration = iteration_;
    out.workers[s].stats.threads_used = impl_->threads_per_shard;
  }

  const WaveContext ctx{config_,     iteration_,  S,
                       assignment,  shard_owner, impl_->work_dir};
  ShardedKnnGraph output(shard_owner, config_.k);
  std::vector<std::uint64_t> change_counts(S, 0);
  // Driver-side I/O not already inside a worker's stats (thread mode: the
  // phase-1 store and the shared spool accountant; persistent mode:
  // nothing — workers account their own spool traffic in their replies).
  IoCounters exchange_io;
  double exchange_io_us = 0.0;

  // Validates and folds one persistent worker's ShardResult into the
  // merged output; a worker can never smuggle a wrong-shaped or
  // foreign-user result past this.
  auto fold_result = [&](std::uint32_t s, ShardResult result) {
    if (result.shard != s || result.num_vertices != n ||
        result.k != config_.k) {
      throw std::runtime_error(
          "shard_driver: ShardResult header mismatch for shard " +
          std::to_string(s));
    }
    if (result.entries.size() != shard_members[s].size()) {
      throw std::runtime_error(
          "shard_driver: shard " + std::to_string(s) + " returned " +
          std::to_string(result.entries.size()) + " users, owns " +
          std::to_string(shard_members[s].size()) +
          " (worker/driver build mismatch?)");
    }
    KnnGraph next(n, config_.k);
    for (auto& [user, list] : result.entries) {
      if (shard_owner.owner(user) != s) {
        throw std::runtime_error(
            "shard_driver: shard " + std::to_string(s) +
            " returned a result for foreign user " + std::to_string(user));
      }
      next.set_neighbors(user, std::move(list));
    }
    output.set_shard(s, std::move(next));
    change_counts[s] = result.changed;
  };

  if (persistent) {
    // ---- Persistent mode: spawn the fleet once, then drive both waves
    // through framed commands carrying only deltas.
    PersistentRuntime& rt = impl_->persistent;
    for (RemoteAgentLink& link : rt.agents) link.sync = {};
    if (rt.workers.size() != S) {
      // First iteration: write the static plan (config + resolved budgets
      // + agent count; ownership maps, G(t) and P(t) travel over the
      // channel), connect the agents and ship them the plan BEFORE any
      // worker spawns — a worker loads its plan at startup.
      WorkerPlan plan;
      plan.config = config_;
      plan.shards = S;
      plan.threads_per_shard = impl_->threads_per_shard;
      plan.agents =
          static_cast<std::uint32_t>(shard_config_.worker_endpoints.size());
      save_plan_file(plan_file_path(impl_->work_dir), plan);
      ensure_agent_links(rt, shard_config_, S);
      sync_agent_files(rt, shard_config_, impl_->work_dir);
      rt.workers = std::vector<PersistentWorker>(S);
      for (std::uint32_t s = 0; s < S; ++s) {
        spawn_persistent_worker(rt, shard_config_, impl_->work_dir, s);
      }
    }
    std::vector<PartitionId> part_owner = owner_vector(assignment);
    std::vector<PartitionId> sh_owner = owner_vector(shard_owner);
    const bool maps_changed = part_owner != rt.sent_partition_owner ||
                              sh_owner != rt.sent_shard_owner;

    PersistentIterationInput in;
    in.iteration = iteration_;
    in.partition_owner = &part_owner;
    in.shard_owner = &sh_owner;
    in.maps_changed = maps_changed;
    in.graph = &graph_;
    // An incremental delta needs a same-shape base the fleet actually
    // holds; set_initial_graph() after iterations (or a k change) voids
    // that, in which case everyone gets the full snapshot.
    const bool base_usable =
        rt.broadcast_version >= 0 &&
        rt.synced_graph.num_vertices() == graph_.num_vertices() &&
        rt.synced_graph.k() == graph_.k();
    in.graph_base_version = base_usable ? rt.broadcast_version : -1;
    in.graph_new_version = rt.broadcast_version + 1;
    in.profiles = &profiles_;
    // P(t) changes only through phase 5's queue, whose touched users
    // accumulate in pending_profile_users — that list IS the delta.
    in.changed_users = &rt.pending_profile_users;
    in.profile_base_version = rt.profile_broadcast_version;
    in.profile_new_version = rt.profile_broadcast_version + 1;

    const std::vector<PersistentIterationReply> replies =
        run_persistent_iteration(rt, shard_config_, impl_->work_dir, in,
                                 rt.synced_graph);

    rt.synced_graph = graph_;
    rt.broadcast_version = in.graph_new_version;
    rt.profile_broadcast_version = in.profile_new_version;
    rt.pending_profile_users.clear();
    rt.sent_partition_owner = std::move(part_owner);
    rt.sent_shard_owner = std::move(sh_owner);

    for (std::uint32_t s = 0; s < S; ++s) {
      const PersistentIterationReply& r = replies[s];
      ShardWorkerStats& worker = out.workers[s];
      worker.stats =
          sum_iteration_stats({r.produced.stats, r.consumed.stats});
      worker.stats.iteration = iteration_;
      worker.stats.threads_used = impl_->threads_per_shard;
      worker.produce_s = r.produced.produce_s;
      worker.consume_s = r.consumed.consume_s;
      worker.spooled_tuples = r.consumed.spooled_tuples;
      worker.spawn_count = rt.workers[s].spawn_count;
      worker.resync_count = rt.workers[s].resync_count;
      worker.bytes_tx = r.bytes_tx;
      worker.bytes_rx = r.bytes_rx;
      worker.round_trips = r.round_trips;
      worker.partitions_touched = r.consumed.partitions_touched;
      worker.profile_reads = r.consumed.profile_reads;
      worker.profile_rows_rx = r.profile_rows_rx;
      fold_result(s, shard_result_from_bytes(
                         r.result_bytes,
                         "persistent worker " + std::to_string(s) +
                             "'s ITERATION_DONE reply"));
    }
    // Content-addressed transfer accounting, attributed to each
    // endpoint's lowest shard (see ShardWorkerStats).
    for (const RemoteAgentLink& link : rt.agents) {
      if (link.lowest_shard >= S) continue;
      ShardWorkerStats& worker = out.workers[link.lowest_shard];
      worker.sync_files_tx = link.sync.files_tx;
      worker.sync_bytes_tx = link.sync.bytes_tx;
      worker.sync_files_skipped = link.sync.files_skipped;
      worker.sync_bytes_skipped = link.sync.bytes_skipped;
    }
  } else {
    // ---- Thread mode: one producer and one consumer thread per shard.
    std::vector<std::unique_ptr<IoAccountant>> worker_io;
    worker_io.reserve(S);
    for (std::uint32_t s = 0; s < S; ++s) {
      worker_io.push_back(std::make_unique<IoAccountant>(config_.io_model));
    }

    // Cross-shard exchange: spool (producer, consumer) holds the tuples
    // producer w generated whose source user consumer c owns. The
    // write-side accountant is shared (its charges are atomic).
    IoAccountant spool_io(config_.io_model);
    RoutedShardWriter<Tuple> spool(spools_dir(impl_->work_dir), kSpoolStem,
                                   S, S, config_.shard_buffer_bytes,
                                   &spool_io);

    // Runs fn(w) on one thread per shard; rethrows the lowest-shard
    // exception after all joined (deterministic, like the pool contract).
    auto run_wave = [&](auto&& fn) {
      std::vector<std::exception_ptr> errors(S);
      std::vector<std::thread> threads;
      threads.reserve(S);
      for (std::uint32_t w = 0; w < S; ++w) {
        threads.emplace_back([&, w] {
          try {
            fn(w);
          } catch (...) {
            errors[w] = std::current_exception();
          }
        });
      }
      for (auto& t : threads) t.join();
      for (auto& e : errors) {
        if (e) std::rethrow_exception(e);
      }
    };

    run_wave([&](std::uint32_t w) {
      produce_candidates(ctx, w, shard_members[w], &*store, graph_,
                         spool.producer(w), out.workers[w],
                         /*mid_wave_hook=*/{});
    });
    spool.finish();

    run_wave([&](std::uint32_t c) {
      ConsumerOutput consumer_out = consume_candidates(
          ctx, c, shard_members[c], &*store, /*inline_spools=*/{}, graph_,
          impl_->pools[c].get(), worker_io[c].get(),
          /*local_profiles=*/nullptr, out.workers[c], /*mid_wave_hook=*/{});
      change_counts[c] = consumer_out.changed;
      output.set_shard(c, std::move(consumer_out.next));
    });

    for (std::uint32_t s = 0; s < S; ++s) {
      out.workers[s].stats.io = worker_io[s]->counters();
      out.workers[s].stats.modeled_io_us = worker_io[s]->modeled_us();
    }
    exchange_io = spool_io.counters();
    exchange_io += store->io().counters();
    exchange_io_us = spool_io.modeled_us() + store->io().modeled_us();
  }

  // ---- Merge (driver): deterministic re-assembly from shard owners.
  IterationStats merged;
  {
    std::vector<IterationStats> parts;
    parts.reserve(S);
    for (const ShardWorkerStats& w : out.workers) parts.push_back(w.stats);
    merged = sum_iteration_stats(parts);
  }
  merged.iteration = iteration_;
  merged.timings.partition_s += partition_s;
  merged.partition_cost_total = partition_cost_total;
  {
    double merge_s = 0.0;
    {
      ScopedAccumulator timing(&merge_s);
      graph_ = output.merge();
    }
    merged.timings.knn_s += merge_s;
    merged.knn_merge_s += merge_s;
  }
  std::uint64_t differing = 0;
  for (const std::uint64_t c : change_counts) differing += c;
  merged.change_rate =
      n == 0 ? 0.0
             : static_cast<double>(differing) /
                   (static_cast<double>(n) *
                    std::max<std::uint32_t>(config_.k, 1));

  // ---- Phase 5 (driver): apply queued profile updates.
  {
    ScopedAccumulator timing(&merged.timings.update_s);
    // Persistent mode records which users phase 5 touches: that list is
    // next iteration's P(t) delta over the worker channels.
    merged.profile_updates_applied = queue_.apply_to(
        profiles_,
        persistent ? &impl_->persistent.pending_profile_users : nullptr);
  }

  if (config_.checkpoint) {
    save_knn_graph_file(impl_->work_dir / "checkpoint_latest.knng", graph_);
  }
  if (config_.recall_samples > 0) {
    // Thread mode reuses shard 0's pool; persistent mode has no driver-side
    // pools, so spin one up for the estimator (it is O(samples * n) —
    // the pool spawn is noise next to it).
    ThreadPool* pool = impl_->pools[0].get();
    std::unique_ptr<ThreadPool> recall_pool;
    if (pool == nullptr && impl_->threads_per_shard > 1) {
      recall_pool = std::make_unique<ThreadPool>(impl_->threads_per_shard - 1);
      pool = recall_pool.get();
    }
    merged.sampled_recall =
        sampled_recall(graph_, profiles_, config_.measure,
                       config_.recall_samples, config_.seed, pool)
            .recall;
  }

  merged.io += exchange_io;
  merged.modeled_io_us += exchange_io_us;

  KNNPC_LOG(Info) << "sharded iteration " << iteration_ << " (S=" << S
                  << ", " << worker_mode_name(shard_config_.worker_mode)
                  << " workers): " << merged.unique_tuples << " tuples, "
                  << merged.pi_pairs << " PI pairs, "
                  << merged.partition_loads << " loads, change rate "
                  << merged.change_rate;
  if (sink_ != nullptr) {
    sink_->publish(graph_, profiles_, assignment.owners(), iteration_);
  }
  ++iteration_;
  out.merged = merged;
  return out;
}

RunStats ShardedKnnEngine::run(std::uint32_t max_iterations,
                               double convergence_delta) {
  RunStats run_stats;
  Timer total;
  for (std::uint32_t i = 0; i < max_iterations; ++i) {
    ShardedIterationStats stats = run_iteration();
    const double change = stats.merged.change_rate;
    run_stats.iterations.push_back(std::move(stats.merged));
    if (change < convergence_delta) {
      run_stats.converged = true;
      break;
    }
  }
  run_stats.total_seconds = total.elapsed_seconds();
  return run_stats;
}

}  // namespace knnpc
