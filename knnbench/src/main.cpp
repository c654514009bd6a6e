// knn_bench: the knnpc benchmark driver.
//
//   knn_bench --workload <build-serial|build-sharded|serve-churn>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--scale full|tiny] [--git-sha <sha>]
//
// One run generates the workload from --seed, then repeats set-up plus a
// fixed-iteration build for about --seconds, with short serving probes
// between the iterations, and ends with the correctness checks on the
// final state. With --trace 0 it prints the end-to-end metrics (medians
// over the repeats and probes); with --trace 1 it alternates untraced and
// traced repeats, prints the per-layer metrics read from the traced
// repeats' spans and the tracing overhead, and writes the spans to
// .bench_out/trace-<workload>.json.
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is non-zero when any correctness check fails.
// Metric definitions are in knnbench/README.md.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/convergence.h"
#include "graph/knn_graph_io.h"
#include "profiles/similarity_kernels.h"
#include "trace.h"
#include "util/stats.h"
#include "workloads.h"

using namespace knnbench;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string git_sha = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--scale") {
      if (value != "full" && value != "tiny") {
        throw std::invalid_argument("--scale takes full or tiny");
      }
      args.tiny = value == "tiny";
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (args.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

/// Per-run scratch root: every engine scratch dir (through TMPDIR) and
/// every agent work root lives under it, and it is removed on exit.
class WorkRoot {
 public:
  WorkRoot()
      : path_(fs::current_path() / ".bench_work" /
              ("run-" + std::to_string(::getpid()))) {
    fs::create_directories(path_);
    ::setenv("TMPDIR", path_.c_str(), 1);
  }
  ~WorkRoot() {
    std::error_code ec;
    fs::remove_all(path_, ec);
    fs::remove(path_.parent_path(), ec);  // only succeeds when empty
  }
  WorkRoot(const WorkRoot&) = delete;
  WorkRoot& operator=(const WorkRoot&) = delete;
  [[nodiscard]] const fs::path& path() const noexcept { return path_; }

 private:
  fs::path path_;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string fingerprint_json(const Args& args) {
  return std::string("{\"cpu\":\"") + json_escape(cpu_model()) +
         "\",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"compiler\":\"" + json_escape(KNNBENCH_COMPILER) +
         "\",\"kernel_backend\":\"" +
         knnpc::kernel_backend_name(knnpc::resolve_kernel_backend()) +
         "\",\"git_sha\":\"" + json_escape(args.git_sha) +
         "\",\"workload\":\"" + json_escape(args.workload) +
         "\",\"seed\":" + std::to_string(args.seed) +
         ",\"scale\":\"" + (args.tiny ? "tiny" : "full") + "\"}";
}

/// Peak resident set of this process and of every reaped child (the
/// persistent shard workers), MiB.
double peak_rss_mib() {
  rusage self{};
  rusage children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank `q` percentile, lowered to the highest percentile that
/// still leaves ten samples beyond it when the sample is too small.
double tail_percentile(const std::vector<double>& v, double q,
                       double* used_q) {
  const auto n = static_cast<double>(v.size());
  if (n > 10 && n * (100.0 - q) / 100.0 < 10.0) q = 100.0 * (1.0 - 10.0 / n);
  *used_q = q;
  return knnpc::percentile(v, q);
}

/// For tails, latency samples are cut into consecutive blocks of this
/// many requests (the remainder joins the last block).
constexpr std::size_t kBlock = 1000;

/// Median over blocks of each block's `q` percentile: a burst of machine
/// noise that hits fewer than half the blocks does not move it. With
/// fewer than two blocks, the percentile of the whole sample.
double blocked_percentile(const std::vector<double>& v, double q) {
  double used_q = 0;
  const std::size_t blocks = v.size() / kBlock;
  if (blocks < 2) return tail_percentile(v, q, &used_q);
  std::vector<double> per_block;
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto first = v.begin() + static_cast<long>(b * kBlock);
    const auto end =
        b + 1 == blocks ? v.end() : first + static_cast<long>(kBlock);
    per_block.push_back(
        tail_percentile(std::vector<double>(first, end), q, &used_q));
  }
  return median(per_block);
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

// ------------------------------------------------------ per-layer metrics --

/// Reads the per-layer metrics off the traced repeats' spans. Times and
/// counts of the build layers are means per iteration (retries: per
/// build); publish metrics are means per publish, query metrics means per
/// query.
std::vector<Metric> layer_metrics(const std::vector<SpanRecord>& spans,
                                  double overhead_s) {
  std::map<std::uint64_t, double> publish_child_s;  // run_iteration id -> s
  for (const SpanRecord& s : spans) {
    if (s.name == "publish" && s.parent != 0) {
      publish_child_s[s.parent] += s.seconds();
    }
  }
  double iterations = 0, wall = 0, unattributed = 0, driver = 0;
  double imbalance = 0;
  std::map<std::string, double> sum;
  // Respawn/resync counters are cumulative over a build: keep each
  // build's latest value and add them up at the next build's set-up.
  double respawns = 0, resyncs = 0, build_respawns = 0, build_resyncs = 0;
  double builds = 0;
  double publishes = 0, publish_s = 0, publish_graph_rows = 0,
         publish_profile_rows = 0, publish_bytes = 0;
  double queries = 0, expanded = 0, scored = 0;
  std::vector<double> late_ms;
  std::vector<double> topk_us;  // from due time
  std::vector<double> query_ms;  // from due time
  double generates = 0, generate_s = 0, ticks = 0, tick_s = 0;
  for (const SpanRecord& s : spans) {
    if (s.name == "run_iteration") {
      iterations += 1;
      wall += s.seconds();
      for (const auto& [key, value] : s.args) sum[key] += value;
      const bool sharded = s.arg("shards") > 0;
      // Sharded phase timings are summed over workers; the critical path
      // is the driver's phases 1 and 5 plus the slowest worker per wave.
      const double attributed =
          sharded ? s.arg("partition_s") + s.arg("update_s") +
                        s.arg("produce_max_s") + s.arg("consume_max_s")
                  : s.arg("partition_s") + s.arg("hash_s") +
                        s.arg("pi_graph_s") + s.arg("knn_s") +
                        s.arg("update_s");
      unattributed += s.seconds() - attributed - publish_child_s[s.id];
      if (sharded) {
        driver += s.seconds() - s.arg("worker_wall_max_s");
        const double mean = s.arg("consume_mean_s");
        imbalance += mean > 0 ? s.arg("consume_max_s") / mean : 1.0;
        build_respawns = s.arg("respawns");
        build_resyncs = s.arg("resyncs");
      }
    } else if (s.name == "setup") {
      builds += 1;
      respawns += build_respawns;
      resyncs += build_resyncs;
      build_respawns = build_resyncs = 0;
    } else if (s.name == "publish") {
      publishes += 1;
      publish_s += s.seconds();
      publish_graph_rows += s.arg("graph_rows");
      publish_profile_rows += s.arg("profile_rows");
      publish_bytes += s.arg("bytes");
    } else if (s.name == "query") {
      queries += 1;
      expanded += s.arg("expanded");
      scored += s.arg("scored");
      if (s.arg("late_ms", -1) >= 0) {  // open-loop, not closed-loop
        late_ms.push_back(s.arg("late_ms"));
        query_ms.push_back(s.arg("late_ms") + s.seconds() * 1e3);
      }
    } else if (s.name == "top_k") {
      late_ms.push_back(s.arg("late_ms"));
      topk_us.push_back(s.arg("late_ms") * 1e3 + s.seconds() * 1e6);
    } else if (s.name == "make_workload") {
      generates += 1;
      generate_s += s.seconds();
    } else if (s.name == "tick") {
      ticks += 1;
      tick_s += s.seconds();
    }
  }
  const auto per = [](double total, double count) {
    return count > 0 ? total / count : 0.0;
  };
  respawns += build_respawns;
  resyncs += build_resyncs;
  const auto it = [&](const char* key) { return per(sum[key], iterations); };
  const double sync_tx = sum["sync_bytes_tx"];
  const double sync_skipped = sum["sync_bytes_skipped"];
  double used_q = 0;
  return {
      {"engine.iteration_s", "s", per(wall, iterations)},
      {"engine.unattributed_s", "s", per(unattributed, iterations)},
      {"partition.s", "s", it("partition_s")},
      {"tuples.s", "s", it("hash_s")},
      {"tuples.candidates", "count", it("candidate_tuples")},
      {"tuples.unique", "count", it("unique_tuples")},
      {"tuples.dedup_ratio", "ratio",
       per(sum["unique_tuples"], sum["candidate_tuples"])},
      {"pigraph.s", "s", it("pi_graph_s")},
      {"pigraph.pairs", "count", it("pi_pairs")},
      {"knn.s", "s", it("knn_s")},
      {"knn.score_s", "s", it("knn_score_s")},
      {"knn.merge_s", "s", it("knn_merge_s")},
      {"knn.other_s", "s",
       it("knn_s") - it("knn_score_s") - it("knn_merge_s")},
      {"knn.pairs_per_s", "1/s",
       per(sum["unique_tuples"], sum["knn_score_s"])},
      {"storage.partition_loads", "count", it("partition_loads")},
      {"storage.loads_per_pair", "ratio",
       per(sum["partition_loads"], sum["pi_pairs"])},
      {"storage.bytes_read", "bytes", it("bytes_read")},
      {"storage.bytes_written", "bytes", it("bytes_written")},
      {"update.s", "s", it("update_s")},
      {"update.applied", "count", it("updates_applied")},
      {"shard.produce_max_s", "s", it("produce_max_s")},
      {"shard.consume_max_s", "s", it("consume_max_s")},
      {"shard.consume_imbalance", "ratio",
       sum["shards"] > 0 ? per(imbalance, iterations) : 0.0},
      {"shard.driver_s", "s", per(driver, iterations)},
      {"shard.spooled_tuples", "count", it("spooled_tuples")},
      {"ipc.bytes_tx", "bytes", it("ipc_bytes_tx")},
      {"ipc.bytes_rx", "bytes", it("ipc_bytes_rx")},
      {"ipc.round_trips", "count", it("round_trips")},
      {"ipc.profile_rows", "count", it("profile_rows_rx")},
      {"ipc.respawns", "count", per(respawns, builds)},
      {"ipc.resyncs", "count", per(resyncs, builds)},
      {"sync.bytes_tx", "bytes", it("sync_bytes_tx")},
      {"sync.files_tx", "count", it("sync_files_tx")},
      {"sync.bytes_skipped", "bytes", it("sync_bytes_skipped")},
      {"sync.skip_ratio", "ratio", per(sync_skipped, sync_tx + sync_skipped)},
      {"serve.publish_s", "s", per(publish_s, publishes)},
      {"serve.publish_graph_rows", "count",
       per(publish_graph_rows, publishes)},
      {"serve.publish_profile_rows", "count",
       per(publish_profile_rows, publishes)},
      {"serve.publish_bytes", "bytes", per(publish_bytes, publishes)},
      {"serve.query_expanded", "count", per(expanded, queries)},
      {"serve.query_scored", "count", per(scored, queries)},
      {"serve.query_p99_ms", "ms", blocked_percentile(query_ms, 99)},
      {"serve.topk_p50_us", "us", blocked_percentile(topk_us, 50)},
      {"serve.topk_p99_us", "us", blocked_percentile(topk_us, 99)},
      {"serve.gen_late_ms", "ms",
       late_ms.empty() ? 0.0 : tail_percentile(late_ms, 99, &used_q)},
      {"workloads.generate_s", "s", per(generate_s, generates)},
      {"workloads.tick_s", "s", per(tick_s, ticks)},
      {"trace.overhead_s", "s", overhead_s},
      {"trace.spans", "count", static_cast<double>(spans.size())},
  };
}

// ------------------------------------------------------------------ run --

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

void check(Outcome& out, bool ok, const std::string& what) {
  if (!ok) {
    out.correct = false;
    std::fprintf(stderr, "knn_bench: check failed: %s\n", what.c_str());
  }
}

/// Everything the end-to-end metrics are computed from, gathered over the
/// untraced repeats.
struct Samples {
  std::vector<double> setup_s;
  std::vector<double> build_s[2];  // [traced]
  /// Untraced repeats' wall time per iteration index.
  std::vector<std::vector<double>> iteration_s;
  std::vector<double> publish_s;
  std::vector<double> capacity_qps;
  /// One p50 per open-loop window (a probe's, or a serve-churn build's).
  std::vector<double> topk_p50_us;
  std::vector<double> query_p50_ms;
  QuerySamples queries;
  /// Shard-worker respawns over all repeats: retries, not failures.
  std::uint64_t respawns = 0;
};

/// A copy of G(t) and P(t).
struct EngineState {
  knnpc::KnnGraph graph;
  knnpc::InMemoryProfileStore profiles;
};

/// What the build workloads serve: the first repeat's final state (every
/// repeat ends in the same graph), the state before its last iteration,
/// and a server holding the final state.
struct ServeTarget {
  EngineState final;
  EngineState previous;
  std::unique_ptr<knnpc::KnnServer> server;
  std::size_t probes = 0;
};

/// Keeps the samples of one open-loop window.
void keep_window(const QuerySamples& got, Samples& samples) {
  if (!got.topk_us.empty()) {
    samples.topk_p50_us.push_back(knnpc::percentile(got.topk_us, 50));
  }
  if (!got.query_ms.empty()) {
    samples.query_p50_ms.push_back(knnpc::percentile(got.query_ms, 50));
  }
  samples.queries.merge(got);
}

/// One closed-loop capacity sample; successive samples walk the pool.
void capacity_sample(const knnpc::KnnServer& server, const Scale& scale,
                     const std::vector<knnpc::SparseProfile>& queries,
                     std::size_t index, Tracer& tracer, bool keep,
                     Samples& samples, Outcome& out) {
  QuerySamples counts;
  const double rate =
      query_capacity(server, queries, index * scale.capacity_queries,
                     scale.capacity_queries, tracer, counts);
  out.attempted += counts.attempted;
  out.failed += counts.failed;
  if (keep) samples.capacity_qps.push_back(rate);
}

/// One short serving probe of a build workload's final state, run after
/// an iteration of a later repeat (outside the timed interval), so that
/// a run's serving figures are medians over probes spread across the
/// whole run rather than over a few blocks that one burst of machine
/// noise can cover: a fresh server that gets the previous state and then,
/// timed, the final one (the incremental publish an engine's sink makes);
/// an open-loop top_k window and then an open-loop query window on the
/// target's server, one path at a time, since with the engine idle the
/// other generator would be the only thing competing with the one
/// measured; and one closed-loop capacity sample.
void serve_probe(const WorkloadDef& def, const Scale& scale,
                 std::uint64_t seed, ServeTarget& target,
                 const std::vector<knnpc::SparseProfile>& queries,
                 Tracer& tracer, bool keep, Samples& samples, Outcome& out) {
  {
    knnpc::ServeConfig serve;
    serve.measure = engine_config(def, seed).measure;
    knnpc::KnnServer fresh(serve);
    fresh.publish(target.previous.graph, target.previous.profiles, {},
                  scale.iterations - 1);
    TimedSink sink(fresh, tracer);
    sink.publish(target.final.graph, target.final.profiles, {},
                 scale.iterations);
    if (keep) samples.publish_s.push_back(sink.durations_s().front());
  }
  const std::uint64_t load_seed = seed + target.probes;
  for (const bool topk : {true, false}) {
    OpenLoad load(*target.server, queries, scale.users,
                  topk ? def.topk_rate : 0, topk ? 0 : def.query_rate,
                  load_seed, tracer.enabled());
    std::this_thread::sleep_for(std::chrono::duration<double>(
        topk ? scale.topk_window_s : scale.query_window_s));
    const QuerySamples got = load.finish(tracer);
    out.attempted += got.attempted;
    out.failed += got.failed;
    if (keep) keep_window(got, samples);
  }
  capacity_sample(*target.server, scale, queries, target.probes, tracer,
                  keep, samples, out);
  ++target.probes;
}

Outcome run(const Args& args, const WorkloadDef& def, const fs::path& scratch,
            const std::string& fingerprint) {
  const Scale scale = args.tiny ? tiny_scale() : full_scale();
  Outcome out;
  Tracer untraced(false, 0);
  Tracer traced(true, 0);
  Tracer& post = args.trace ? traced : untraced;
  // The build workloads probe from the second repeat on, and traced runs
  // alternate untraced and traced repeats: at least two repeats.
  const std::size_t min_reps = args.trace || def.kind != Kind::Serve ? 2 : 1;
  constexpr std::size_t kMinSetups = 15;
  constexpr std::size_t kExtraSetups = 2;

  Samples samples;
  std::vector<knnpc::SparseProfile> queries;
  std::uint64_t checksum = 0;
  double recall_at_k = 0;
  double query_recall = 0;
  std::unique_ptr<Instance> last;
  std::unique_ptr<ServeTarget> target;  // build workloads
  EngineState previous;
  std::size_t capacity_samples = 0;  // serve-churn
  // The serving layer and the graph it serves. A traced run records the
  // checks whichever kind of repeat they follow.
  const auto check_serving = [&](const knnpc::KnnServer& server,
                                 const knnpc::KnnGraph& graph,
                                 const knnpc::ProfileStore& profiles) {
    check(out, topk_rows_exact(server, graph, post),
          "top_k rows differ from the published graph");
    query_recall = beam_recall(server, queries, scale.recall_queries, post);
    Tracer::Span span = post.span("check.recall_at_k");
    recall_at_k = knnpc::sampled_recall(graph, profiles,
                                        engine_config(def, args.seed).measure,
                                        scale.recall_samples, 23, def.threads)
                      .recall;
  };
  // Set-up is cheap next to a build: it is also repeated alone, before
  // each repeat's own (when no engine is alive, so peak RSS is the same),
  // so that its median rests on enough samples spread over the run.
  const auto extra_setup = [&] {
    const Clock::time_point t = Clock::now();
    const Instance extra(
        def, scale, args.seed,
        scratch / ("setup" + std::to_string(samples.setup_s.size())),
        untraced);
    samples.setup_s.push_back(seconds_since(t));
  };
  const Clock::time_point start = Clock::now();
  for (std::size_t rep = 0;; ++rep) {
    const bool trace_rep = args.trace && rep % 2 == 1;
    Tracer& tracer = trace_rep ? traced : untraced;
    last.reset();
    const Clock::time_point rep_start = Clock::now();
    for (std::size_t i = 0; i < kExtraSetups; ++i) extra_setup();
    const Clock::time_point setup_start = Clock::now();
    last = std::make_unique<Instance>(
        def, scale, args.seed, scratch / ("rep" + std::to_string(rep)),
        tracer);
    samples.setup_s.push_back(seconds_since(setup_start));
    if (queries.empty()) queries = query_pool(last->profiles(), args.seed);

    std::unique_ptr<OpenLoad> load;
    if (last->server() != nullptr) {
      load = std::make_unique<OpenLoad>(*last->server(), queries, scale.users,
                                        def.topk_rate, def.query_rate,
                                        args.seed + rep, trace_rep);
    }
    const Clock::time_point build_start = Clock::now();
    double probe_s = 0;
    samples.iteration_s.resize(scale.iterations);
    for (std::uint32_t i = 0; i < scale.iterations; ++i) {
      if (i + 1 == scale.iterations && !target && last->server() == nullptr) {
        previous = EngineState{last->graph(), last->profiles()};
      }
      ++out.attempted;
      const Clock::time_point iteration_start = Clock::now();
      try {
        last->iterate(tracer);
      } catch (const std::exception& e) {
        ++out.failed;
        check(out, false, std::string("run_iteration threw: ") + e.what());
        break;
      }
      if (!trace_rep) {
        samples.iteration_s[i].push_back(seconds_since(iteration_start));
      }
      // A probe after every other iteration leaves room in a run for
      // more builds, the samples build_s's medians rest on.
      if (target && i % 2 == 1) {
        const Clock::time_point probe_start = Clock::now();
        serve_probe(def, scale, args.seed, *target, queries, tracer,
                    !trace_rep, samples, out);
        probe_s += seconds_since(probe_start);
      }
    }
    samples.build_s[trace_rep ? 1 : 0].push_back(seconds_since(build_start) -
                                                 probe_s);
    if (load) {
      const QuerySamples got = load->finish(tracer);
      out.attempted += got.attempted;
      out.failed += got.failed;
      // End-to-end serving figures come from untraced repeats only.
      if (!trace_rep) {
        keep_window(got, samples);
        const std::vector<double>& d = last->sink()->durations_s();
        samples.publish_s.insert(samples.publish_s.end(), d.begin(), d.end());
      }
    }
    samples.respawns += last->respawns();
    if (!out.correct) return out;

    const std::uint64_t sum = knnpc::knn_graph_checksum(last->graph());
    if (rep == 0) checksum = sum;
    check(out, sum == checksum, "final graph differs between repeats");
    if (last->server() != nullptr) {
      capacity_sample(*last->server(), scale, queries, capacity_samples++,
                      tracer, !trace_rep, samples, out);
    } else if (!target) {
      target = std::make_unique<ServeTarget>();
      target->final = EngineState{last->graph(), last->profiles()};
      target->previous = std::move(previous);
      knnpc::ServeConfig serve;
      serve.measure = engine_config(def, args.seed).measure;
      target->server = std::make_unique<knnpc::KnnServer>(serve);
      target->server->publish(target->final.graph, target->final.profiles,
                              {}, scale.iterations);
      // Every later repeat must end in this same state (checked above),
      // so the serving checks run once, here, inside the measured time.
      check_serving(*target->server, target->final.graph,
                    target->final.profiles);
    }

    // Stop when another repeat, and then the work after the last one,
    // would overrun --seconds: the remaining set-ups and, on
    // build-sharded, the serial reference build, estimated by the first
    // build (the serial build is slower, so such a run can end a few
    // seconds late).
    const double elapsed = seconds_since(start);
    const double rep_s = seconds_since(rep_start);
    double after_s =
        samples.setup_s.size() < kMinSetups
            ? static_cast<double>(kMinSetups - samples.setup_s.size()) *
                  median(samples.setup_s)
            : 0.0;
    if (def.kind == Kind::Sharded) after_s += samples.build_s[0].front();
    if (rep + 1 < min_reps || elapsed + rep_s + after_s <= args.seconds) {
      continue;
    }
    if (!target) {
      check_serving(*last->server(), last->graph(), last->profiles());
    }
    break;
  }
  target.reset();
  last.reset();
  while (samples.setup_s.size() < kMinSetups) extra_setup();
  // Every engine is gone and its worker processes reaped by now.
  const double peak_rss = peak_rss_mib();

  // The floors hold at the measured size; the tiny size only smoke-tests.
  if (!args.tiny) {
    check(out, recall_at_k >= def.recall_at_k_floor,
          "recall_at_k " + std::to_string(recall_at_k) + " below floor");
    check(out, query_recall >= def.query_recall_floor,
          "query_recall " + std::to_string(query_recall) + " below floor");
  }
  if (def.kind == Kind::Sharded) {
    // The sharded engine must reproduce the serial engine bit for bit.
    Tracer::Span span = post.span("check.serial_checksum");
    const WorkloadDef& serial = *find_workload("build-serial");
    Instance reference(serial, scale, args.seed, scratch / "reference",
                       untraced);
    for (std::uint32_t i = 0; i < scale.iterations; ++i) {
      reference.iterate(untraced);
    }
    check(out, knnpc::knn_graph_checksum(reference.graph()) == checksum,
          "build-sharded checksum differs from build-serial");
  }

  const QuerySamples& q = samples.queries;
  double late_q = 0;
  const double late_p99 = tail_percentile(q.late_ms, 99, &late_q);
  std::printf("# fingerprint %s\n", fingerprint.c_str());
  std::printf("# repeats %zu (traced %zu), set-ups %zu, graph checksum "
              "%016llx, worker respawns %llu\n",
              samples.build_s[0].size() + samples.build_s[1].size(),
              samples.build_s[1].size(), samples.setup_s.size(),
              static_cast<unsigned long long>(checksum),
              static_cast<unsigned long long>(samples.respawns));
  std::printf("# untraced builds (s):");
  for (const double b : samples.build_s[0]) std::printf(" %.3f", b);
  std::printf("\n");
  std::printf("# top_k samples %zu in %zu windows (p50 %.4f us, p99 %.4f "
              "us), query samples %zu in %zu windows (p99 %.4f ms), tails: "
              "median over blocks of %zu, generator late p%.2f %.4f ms, slo "
              "%.1f ms, publishes %zu, capacity samples %zu\n",
              q.topk_us.size(), samples.topk_p50_us.size(),
              median(samples.topk_p50_us), blocked_percentile(q.topk_us, 99),
              q.query_ms.size(), samples.query_p50_ms.size(),
              blocked_percentile(q.query_ms, 99), kBlock, late_q, late_p99,
              kSloMs, samples.publish_s.size(), samples.capacity_qps.size());

  if (args.trace) {
    const double overhead =
        median(samples.build_s[1]) - median(samples.build_s[0]);
    out.metrics = layer_metrics(traced.spans(), overhead);
    const fs::path file =
        fs::current_path() / ".bench_out" / ("trace-" + def.name + ".json");
    traced.write_chrome_json(file, fingerprint);
    std::printf("# spans written to %s\n", file.string().c_str());
    return out;
  }
  // A build is the sum of its iterations; taking each iteration's median
  // over the repeats first keeps a noise burst inside one repeat's
  // iteration from moving the figure.
  double build_s = 0;
  for (const std::vector<double>& s : samples.iteration_s) build_s += median(s);
  out.metrics = {
      {"setup_s", "s", median(samples.setup_s)},
      {"build_s", "s", build_s},
      {"peak_rss_mb", "MiB", peak_rss},
      {"recall_at_k", "ratio", recall_at_k},
      {"query_p50_ms", "ms", median(samples.query_p50_ms)},
      {"slo_met_frac", "ratio",
       q.attempted > 0 ? static_cast<double>(q.slo_met) /
                             static_cast<double>(q.attempted)
                       : 0.0},
      {"query_recall", "ratio", query_recall},
      {"query_capacity_qps", "1/s", median(samples.capacity_qps)},
      {"publish_p50_ms", "ms", median(samples.publish_s) * 1e3},
  };
  return out;
}

void print_result(const Outcome& out) {
  for (const Metric& m : out.metrics) {
    std::printf("# %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = std::string("{\"correct\": ") +
                     (out.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) +
                     ", \"metrics\": {";
  char number[64];
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::snprintf(number, sizeof number, "%.17g", m.value);
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + number +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  // Persistent shard workers re-execute this binary.
  if (const auto worker_exit = knnpc::maybe_run_shard_worker(argc, argv)) {
    return *worker_exit;
  }
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "knn_bench: %s\n", e.what());
    return 2;
  }
  const WorkloadDef* def = find_workload(args.workload);
  if (def == nullptr) {
    std::fprintf(stderr, "knn_bench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  try {
    const WorkRoot scratch;
    const Outcome out = run(args, *def, scratch.path(), fingerprint_json(args));
    print_result(out);
    return out.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "knn_bench: %s\n", e.what());
    return 1;
  }
}
