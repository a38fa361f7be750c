// End-to-end benchmark of the kojak pipeline: whole analysis passes and
// Monitor epochs, timed through the public API a cosy_tool user or an
// online-monitoring deployment drives, each result checked against a
// reference. See ../README.md for the workloads, the metrics and how to
// read the traced layer table.
//
//   e2ebench --workload analyze_row|analyze_columnar|monitor_refresh
//            --seed N --seconds S --trace 0|1
//            [--smoke] [--corrupt-reference] [--commit SHA]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <exception>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cosy/analyzer.hpp"
#include "cosy/db_import.hpp"
#include "cosy/monitor.hpp"
#include "cosy/schema_gen.hpp"
#include "cosy/specs.hpp"
#include "cosy/sql_eval.hpp"
#include "cosy/store_builder.hpp"
#include "db/connection.hpp"
#include "oracle.hpp"
#include "perf/simulator.hpp"
#include "perf/workloads.hpp"
#include "support/rng.hpp"
#include "trace.hpp"

namespace {

using namespace kojak;

constexpr const char* kBackend = "sql-whole-condition";
constexpr const char* kBaselineBackend = "sql-pushdown";
constexpr std::size_t kPartitions = 8;       // member-partitioned junctions
constexpr std::size_t kEpochRows = 64;       // links ingested per epoch
constexpr std::size_t kDirtyPartitions = 2;  // of kPartitions, per epoch
constexpr std::size_t kBaselineEvery = 3;    // analyze: 1 baseline pass in 3
constexpr std::size_t kColdCheckEvery = 8;   // monitor: cold check interval
constexpr std::size_t kRoundEpochs = 16;     // monitor: epochs per store
constexpr double kTolerance = 1e-9;          // relative, vs the interpreter

// Timed ops scan and materialize CTEs on the calling thread. On a shared
// 4-vCPU machine the scan pool's parallel waves wait for descheduled vCPUs:
// with the default pool, pass_ms.p50 of analyze_row moved by up to 60%
// between consecutive runs while the serial sql-pushdown baseline moved by
// 5%. The traced run measures the default pool in ops of its own (kPool).
constexpr db::Database::ScanConfig kSerialScans{.threads = 1};

/// How an op runs. A plain run has only kTimed ops; a traced run rotates
/// through all three and reports end-to-end figures from none of them.
enum class Kind {
  kTimed,   // untraced, serial scans
  kTraced,  // spans on, serial scans
  kPool,    // untraced, the engine's default scan pool (nproc threads)
};

// --- command line ------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;    // smallest inputs, one set-up
  bool corrupt = false;  // perturb every reference: the oracle must object
  std::string commit = "unknown";
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "e2ebench: " << error
            << "\nusage: e2ebench --workload analyze_row|analyze_columnar|"
               "monitor_refresh --seed N --seconds S --trace 0|1 [--smoke] "
               "[--corrupt-reference] [--commit SHA]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        o.workload = value();
      } else if (arg == "--seed") {
        o.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value());
      } else if (arg == "--trace") {
        o.trace = std::stoi(value()) != 0;
      } else if (arg == "--smoke") {
        o.smoke = true;
      } else if (arg == "--corrupt-reference") {
        o.corrupt = true;
      } else if (arg == "--commit") {
        o.commit = value();
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (o.workload != "analyze_row" && o.workload != "analyze_columnar" &&
      o.workload != "monitor_refresh") {
    usage("unknown workload '" + o.workload + "'");
  }
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

// --- statistics and output ---------------------------------------------------

/// Linear interpolation between order statistics; 0 for no samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double ms_since(std::int64_t start_ns) {
  return static_cast<double>(e2e::now_ns() - start_ns) / 1e6;
}

double cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

class Output {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = {}) {
    metrics_.push_back({name, value, unit});
    std::cout << "metric " << name << " = " << value << " " << unit
              << (note.empty() ? "" : "  (" + note + ")") << "\n";
  }
  void finish(std::uint64_t attempted, std::uint64_t failed) const {
    std::cout << "failed_ratio = " << ratio(static_cast<double>(failed),
                                           static_cast<double>(attempted))
              << " (" << failed << " of " << attempted << " attempted)\n";
    std::ostringstream json;
    json.precision(17);
    json << "{\"correct\": " << (failed == 0 ? "true" : "false")
         << ", \"attempted\": " << attempted << ", \"failed\": " << failed
         << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0;
      json << (i ? ", " : "") << "\"" << metrics_[i].name
           << "\": {\"value\": " << v << ", \"unit\": \"" << metrics_[i].unit
           << "\"}";
    }
    json << "}}";
    std::cout << json.str() << std::endl;
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// Failed operations, each named by pass, property and context.
class Failures {
 public:
  void record(const std::string& op, const std::vector<std::string>& what) {
    if (what.empty()) return;
    ++failed_;
    for (std::size_t i = 0; i < what.size() && printed_ < 20; ++i, ++printed_) {
      std::cout << "MISMATCH " << op << ": " << what[i] << "\n";
    }
  }
  void exception(const std::string& op, const std::exception& e) {
    record(op, {std::string("exception: ") + e.what()});
  }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

 private:
  std::uint64_t failed_ = 0;
  std::size_t printed_ = 0;
};

// --- set-up --------------------------------------------------------------------

/// The pipeline's state after set-up: model, object store, database.
struct World {
  asl::Model model;
  std::unique_ptr<asl::ObjectStore> store;
  cosy::StoreHandles handles;
  std::unique_ptr<db::Database> database;
  std::unique_ptr<db::Connection> conn;
  std::size_t imported_rows = 0;
};

struct Workload {
  perf::AppSpec app;
  std::vector<int> pes;
  cosy::SchemaOptions schema;
};

Workload workload_of(const Options& o) {
  Workload w;
  if (o.workload == "monitor_refresh") {
    w.app = perf::workloads::imbalanced_ocean();
    w.pes = o.smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 4, 16, 32};
    for (const char* attr : {"TotTimes", "TypTimes"}) {
      w.schema.junction_partitions.push_back(
          {"Region", attr, "member", kPartitions});
    }
    return w;
  }
  w.app = o.smoke ? perf::workloads::synthetic_scale(2, 3)
                  : perf::workloads::synthetic_scale(8, 10);
  w.pes = o.smoke ? std::vector<int>{1, 2}
                  : std::vector<int>{1, 2, 4, 8, 16, 32};
  if (o.workload == "analyze_columnar") {
    w.schema.columnar = true;
    for (const char* attr : {"TotTimes", "TypTimes"}) {
      w.schema.junction_partitions.push_back(
          {"Region", attr, "member", kPartitions});
    }
  }
  return w;
}

/// simulate -> model compile -> object store -> schema -> import.
std::unique_ptr<World> build_world(const Options& o, const Workload& w,
                                   e2e::Tracer& tracer) {
  perf::SimulationOptions sim;
  sim.seed = o.seed;
  perf::ExperimentData data;
  {
    const e2e::Scope span(tracer, "perf.simulate_experiment");
    data = perf::simulate_experiment(w.app, w.pes, sim);
  }
  auto world = std::make_unique<World>();
  {
    const e2e::Scope span(tracer, "asl.load_cosy_model");
    world->model = cosy::load_cosy_model();
  }
  {
    const e2e::Scope span(tracer, "cosy.build_store");
    world->store = std::make_unique<asl::ObjectStore>(world->model);
    world->handles = cosy::build_store(*world->store, data);
  }
  {
    const e2e::Scope span(tracer, "cosy.create_schema");
    world->database = std::make_unique<db::Database>();
    world->database->set_scan_config(kSerialScans);
    cosy::create_schema(*world->database, world->model, w.schema);
  }
  {
    const e2e::Scope span(tracer, "cosy.import_store");
    // The oracle7 profile only drives the modelled wire clock
    // (conn.modelled_ms); it does not slow the engine down.
    world->conn = std::make_unique<db::Connection>(
        *world->database, db::ConnectionProfile::oracle7());
    world->imported_rows =
        cosy::import_store(*world->conn, *world->store, /*batch_rows=*/64)
            .rows;
  }
  return world;
}

/// The monitored store: a ghost-run collection history no watch reads, the
/// watch list (every context of the last run), a Monitor that has run its
/// first cold evaluate, and the real typed timings the epochs extend.
struct MonitorState {
  std::vector<cosy::PropertyContext> contexts;
  std::unique_ptr<cosy::Monitor> monitor;
  cosy::EpochReport first;
  struct Timing {
    db::Value region;
    std::vector<db::Value> row;  // the TypedTiming row
  };
  std::vector<Timing> timings;
  const db::Table* junction = nullptr;  // Region_TypTimes, for routing
  std::int64_t next_id = 0;             // next unused TypedTiming id
};

/// Clones every linked timing row under a run id no property reads: each
/// junction partition then carries a long collection history that a
/// `part<K>` CTE pays for, while the watched findings stay the same.
void add_ballast(World& w, std::size_t copies) {
  std::int64_t ghost_run = 0;
  for (const db::Row& row : w.conn->execute("SELECT id FROM TestRun").rows) {
    ghost_run = std::max(ghost_run, row[0].as_int() + 1);
  }
  cosy::IngestBatch ballast;
  const std::pair<const char*, const char*> junctions[] = {
      {"Region_TotTimes", "TotalTiming"}, {"Region_TypTimes", "TypedTiming"}};
  for (const auto& [junction, entity] : junctions) {
    const db::QueryResult rows =
        w.conn->execute(std::string("SELECT * FROM ") + entity);
    std::map<std::int64_t, const db::Row*> by_id;
    std::int64_t next_id = 0;
    for (const db::Row& row : rows.rows) {
      by_id.emplace(row[0].as_int(), &row);
      next_id = std::max(next_id, row[0].as_int() + 1);
    }
    const db::QueryResult links = w.conn->execute(
        std::string("SELECT owner, member FROM ") + junction);
    for (std::size_t copy = 0; copy < copies; ++copy) {
      for (const db::Row& link : links.rows) {
        const db::Row& row = *by_id.at(link[1].as_int());
        std::vector<db::Value> clone(row.begin(), row.end());
        clone[0] = db::Value::integer(next_id);
        clone[1] = db::Value::integer(ghost_run);
        ballast.add(entity, std::move(clone));
        ballast.add(junction, {link[0], db::Value::integer(next_id)});
        ++next_id;
      }
    }
  }
  cosy::Monitor loader(w.model, *w.conn);
  loader.ingest(ballast);
}

std::unique_ptr<cosy::Monitor> make_monitor(
    const World& w, const std::vector<cosy::PropertyContext>& contexts,
    const std::string& backend) {
  cosy::MonitorOptions options;
  options.backend = backend;
  auto monitor = std::make_unique<cosy::Monitor>(w.model, *w.conn, options);
  for (const cosy::PropertyContext& ctx : contexts) {
    monitor->watch(*ctx.property, ctx.args, ctx.label);
  }
  return monitor;
}

MonitorState build_monitor(World& w, const Options& o,
                           const std::string& backend, e2e::Tracer& tracer) {
  MonitorState m;
  {
    std::map<std::int64_t, std::vector<db::Value>> rows;
    for (const db::Row& row :
         w.conn->execute("SELECT * FROM TypedTiming").rows) {
      rows.emplace(row[0].as_int(), std::vector<db::Value>(row.begin(),
                                                           row.end()));
    }
    for (const db::Row& link :
         w.conn->execute("SELECT owner, member FROM Region_TypTimes").rows) {
      m.timings.push_back({link[0], rows.at(link[1].as_int())});
    }
  }
  {
    const e2e::Scope span(tracer, "cosy.monitor.ballast");
    add_ballast(w, o.smoke ? 1 : 16);
  }
  m.junction = &w.database->table("Region_TypTimes");
  for (const db::Row& row : w.conn->execute("SELECT id FROM TypedTiming").rows) {
    m.next_id = std::max(m.next_id, row[0].as_int() + 1);
  }
  const asl::ObjectId run = w.handles.runs.back();
  const asl::ObjectId basis = w.handles.regions.at(w.handles.main_region);
  for (const asl::PropertyInfo& prop : w.model.properties()) {
    for (cosy::PropertyContext& ctx : cosy::enumerate_property_contexts(
             w.model, w.handles, prop, run, basis)) {
      m.contexts.push_back(std::move(ctx));
    }
  }
  {
    const e2e::Scope span(tracer, "cosy.monitor.first_evaluate");
    m.monitor = make_monitor(w, m.contexts, backend);
    m.first = m.monitor->evaluate();
  }
  return m;
}

/// One epoch's batch: kEpochRows / 2 new TypedTiming rows, each a copy of
/// a real typed timing (same region, run, type and time) under a fresh id,
/// plus the junction link of each. The fresh ids are picked so that the
/// links land in kDirtyPartitions of the kPartitions member partitions.
/// Sums over the copied runs grow, so findings of the watched run move.
cosy::IngestBatch epoch_batch(MonitorState& m, support::Rng& rng) {
  std::vector<std::size_t> parts(kPartitions);
  std::iota(parts.begin(), parts.end(), 0);
  for (std::size_t i = 0; i < kDirtyPartitions; ++i) {  // partial shuffle
    std::swap(parts[i], parts[static_cast<std::size_t>(rng.uniform_int(
                            static_cast<std::int64_t>(i),
                            static_cast<std::int64_t>(kPartitions) - 1))]);
  }
  parts.resize(kDirtyPartitions);
  cosy::IngestBatch batch;
  for (std::size_t i = 0; i < kEpochRows / 2; ++i) {
    const MonitorState::Timing& source = m.timings[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(m.timings.size()) - 1))];
    db::Value id = db::Value::integer(m.next_id++);
    while (std::find(parts.begin(), parts.end(), m.junction->route(id)) ==
           parts.end()) {
      id = db::Value::integer(m.next_id++);
    }
    std::vector<db::Value> row = source.row;
    row[0] = id;
    batch.add("TypedTiming", std::move(row));
    batch.add("Region_TypTimes", {source.region, id});
  }
  return batch;
}

// --- counters taken at op boundaries -----------------------------------------

struct Counters {
  db::Database::ExecStatsSnapshot exec;
  std::uint64_t statements = 0;
  std::uint64_t rows = 0;
  double modelled_ms = 0;
  cosy::EvalStats backend;
  cosy::ShardResultCache::Stats shard;
};

Counters read_counters(const World& w, const e2e::Tracer& tracer,
                       cosy::Monitor* monitor) {
  Counters c;
  c.exec = w.database->exec_stats();
  c.statements = w.conn->statements_executed();
  c.rows = w.conn->rows_transferred();
  c.modelled_ms = w.conn->clock().now_ms();
  c.backend = tracer.backend_stats();
  if (monitor != nullptr) c.shard = monitor->shard_cache().stats();
  return c;
}

/// Sums of counter deltas over the traced ops.
struct Totals {
  double ops = 0;
  double contexts = 0;
  double statements = 0, rows = 0, modelled_ms = 0;
  double subquery_executions = 0, subquery_memo_hits = 0;
  double cte_materializations = 0, cte_parallel_materializations = 0;
  double parallel_scan_batches = 0;
  double partition_union_rewrites = 0, columnar_scans = 0;
  double fused = 0, expr_vm_lanes = 0, hash_join_builds = 0;
  double join_lanes_probed = 0, partitions_pruned = 0;
  double plan_hits = 0, plan_misses = 0, whole_fallbacks = 0;
  double shard_hits = 0, shard_misses = 0, dirty_recomputes = 0;
  double statement_hits = 0, statement_misses = 0;

  void add(const Counters& a, const Counters& b, std::size_t op_contexts) {
    const auto d = [](std::uint64_t x, std::uint64_t y) {
      return static_cast<double>(y - x);
    };
    ops += 1;
    contexts += static_cast<double>(op_contexts);
    statements += d(a.statements, b.statements);
    rows += d(a.rows, b.rows);
    modelled_ms += b.modelled_ms - a.modelled_ms;
    const auto& x = a.exec;
    const auto& y = b.exec;
    subquery_executions += d(x.subquery_executions, y.subquery_executions);
    subquery_memo_hits += d(x.subquery_memo_hits, y.subquery_memo_hits);
    cte_materializations += d(x.cte_materializations, y.cte_materializations);
    cte_parallel_materializations +=
        d(x.cte_parallel_materializations, y.cte_parallel_materializations);
    parallel_scan_batches +=
        d(x.parallel_scan_batches, y.parallel_scan_batches);
    partition_union_rewrites +=
        d(x.partition_union_rewrites, y.partition_union_rewrites);
    columnar_scans += d(x.columnar_scans, y.columnar_scans);
    fused += d(x.fused_plan_evals, y.fused_plan_evals) +
             d(x.grouped_vector_evals, y.grouped_vector_evals);
    expr_vm_lanes += d(x.expr_vm_lanes, y.expr_vm_lanes);
    hash_join_builds += d(x.hash_join_builds, y.hash_join_builds);
    join_lanes_probed += d(x.join_lanes_probed, y.join_lanes_probed);
    partitions_pruned += d(x.partitions_pruned, y.partitions_pruned);
    plan_hits += d(a.backend.plan_cache_hits, b.backend.plan_cache_hits);
    plan_misses += d(a.backend.plan_cache_misses, b.backend.plan_cache_misses);
    whole_fallbacks += d(a.backend.whole_fallbacks, b.backend.whole_fallbacks);
    shard_hits += d(a.shard.hits, b.shard.hits);
    shard_misses += d(a.shard.misses, b.shard.misses);
    dirty_recomputes += d(a.shard.dirty_recomputes, b.shard.dirty_recomputes);
    statement_hits += d(a.shard.statement_hits, b.shard.statement_hits);
    statement_misses += d(a.shard.statement_misses, b.shard.statement_misses);
  }
  [[nodiscard]] double per_op(double v) const { return ratio(v, ops); }
};

/// What a run measured, for the metric report.
struct Samples {
  std::vector<double> setup_s;
  std::vector<double> op_ms;          // kTimed ops: pass or epoch wall
  std::vector<double> traced_op_ms;   // kTraced ops
  std::vector<double> pool_op_ms;     // kPool ops
  std::vector<double> pool_cpu_ms;    // kPool ops, process CPU time
  std::vector<double> baseline_ms;
  std::vector<double> ingest_ms, evaluate_ms;  // monitor, kTimed ops
  double contexts = 0;       // (property, context) evaluations, kTimed
  double ingested_rows = 0;  // monitor, kTimed ops
  double deltas = 0;         // monitor, all ops
  double epochs = 0;         // monitor, all ops
  double shard_entries = 0;  // monitor, at the end of the run
  std::uint64_t attempted = 0;
  Totals totals;  // kTraced ops
  Totals pool;    // kPool ops
  std::vector<double> parse_us;
};

// --- reports ---------------------------------------------------------------------

void print_context(const Options& o, const World& w) {
  const unsigned nproc = std::thread::hardware_concurrency();
  const std::size_t pool = w.database->scan_config().threads;
#ifdef NDEBUG
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  std::cout << "context: workload=" << o.workload << " seed=" << o.seed
            << " seconds=" << o.seconds << " trace=" << o.trace
            << " smoke=" << o.smoke << " nproc=" << nproc
            << " compiler=\"" << __VERSION__ << "\" build_type=" << E2E_BUILD_TYPE
            << " ndebug=" << optimized << " commit=" << o.commit
            << " scan_threads=" << (pool == 0 ? nproc : pool)
            << " default_scan_threads=" << nproc
            << " store_rows=" << w.database->total_rows() << "\n";
  if (!optimized) {
    std::cout << "WARNING: built without NDEBUG; these figures are not "
                 "comparable with an optimized build\n";
  }
}

/// Compile-and-parse cost: Database::prepare of each property's compiled
/// whole-condition statement text.
std::vector<double> parse_samples(World& w) {
  cosy::SqlEvaluator evaluator(w.model, *w.conn,
                               cosy::SqlEvalMode::kWholeCondition);
  std::vector<double> us;
  for (const asl::PropertyInfo& prop : w.model.properties()) {
    std::string sql = evaluator.explain_whole_condition(prop);
    sql = sql.substr(0, sql.find("\n-- fused:"));
    for (int rep = 0; rep < 5; ++rep) {
      const std::int64_t t0 = e2e::now_ns();
      const db::PreparedStatement stmt = w.database->prepare(sql);
      us.push_back(static_cast<double>(e2e::now_ns() - t0) / 1e3);
    }
  }
  return us;
}

/// What the traced ops' spans account for, as shares of their wall time.
struct Coverage {
  double self_sum = 0;      // all span self-times: 1 by construction
  double unattributed = 0;  // root spans' self-times: no layer span below
};

/// Self-time per span name over the traced ops, printed as a table.
Coverage print_layer_table(const e2e::Tracer& tracer, double traced_wall_ms,
                           double ops) {
  const std::vector<e2e::Span>& spans = tracer.spans();
  const std::vector<double> self = tracer.self_ms();
  std::map<std::string, std::pair<double, std::size_t>> by_layer;
  double total = 0, root = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].op == 0) continue;
    std::string layer = spans[i].name;
    if (layer == "cosy.sql_eval.evaluate") {
      layer += spans[i].first_of_op ? " [first per property]" : " [repeat]";
    }
    by_layer[layer].first += self[i];
    by_layer[layer].second += 1;
    total += self[i];
    if (spans[i].parent < 0) root += self[i];
  }
  std::printf("\nself time per layer, mean per traced op (%.0f ops):\n", ops);
  std::printf("  %-48s %12s %8s %10s\n", "layer (span)", "self ms/op",
              "share", "spans/op");
  for (const auto& [layer, entry] : by_layer) {
    std::printf("  %-48s %12.3f %7.1f%% %10.1f\n", layer.c_str(),
                ratio(entry.first, ops), 100 * ratio(entry.first, total),
                ratio(static_cast<double>(entry.second), ops));
  }
  const Coverage coverage{ratio(total, traced_wall_ms),
                          ratio(root, traced_wall_ms)};
  std::printf("  %-48s %12.3f %7.1f%%   (self-time sum / measured wall "
              "%.3f ms/op = %.4f)\n",
              "total", ratio(total, ops), 100.0, ratio(traced_wall_ms, ops),
              coverage.self_sum);
  std::printf("  %-48s %12.3f %7.1f%%   (root self time: no layer span "
              "below the op)\n\n",
              "unattributed", ratio(root, ops), 100 * ratio(root, total));
  return coverage;
}

void report_end_to_end(const Options& o, const Samples& s, Output& out) {
  const std::string unit_name =
      o.workload == "monitor_refresh" ? "epoch (ingest + evaluate)" : "pass";
  const std::string n = std::to_string(s.op_ms.size());
  out.add("pass_ms.p50", quantile(s.op_ms, 0.5), "ms",
          "median " + unit_name + ", n=" + n);
  out.add("pass_ms.p90", quantile(s.op_ms, 0.9), "ms",
          "90th percentile " + unit_name + ", n=" + n);
  out.add("contexts_per_s",
          ratio(s.contexts, std::accumulate(s.op_ms.begin(), s.op_ms.end(),
                                            0.0) / 1e3),
          "contexts/s");
  out.add("baseline_pass_ms.p50", quantile(s.baseline_ms, 0.5), "ms",
          (o.workload == "monitor_refresh"
               ? "cold Monitor evaluate at the same epoch"
               : std::string("sql-pushdown pass")) +
              ", n=" + std::to_string(s.baseline_ms.size()));
  out.add("setup_s", quantile(s.setup_s, 0.5), "s",
          "median of " + std::to_string(s.setup_s.size()) + " set-ups");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
}

void report_layers(const World& w, const e2e::Tracer& tracer,
                   const Samples& s, Output& out) {
  const std::vector<e2e::Span>& spans = tracer.spans();
  const std::vector<double> self = tracer.self_ms();
  const Totals& t = s.totals;

  // Set-up layers: median over the set-ups of each set-up span.
  std::map<std::string, std::vector<double>> setup;
  for (const e2e::Span& span : spans) {
    if (span.op == 0) setup[span.name].push_back(span.ms());
  }
  const auto setup_ms = [&](const char* name) {
    return quantile(setup[name], 0.5);
  };
  out.add("perf.simulate_ms", setup_ms("perf.simulate_experiment"), "ms");
  out.add("asl.model_compile_ms", setup_ms("asl.load_cosy_model"), "ms");
  out.add("cosy.build_store_ms", setup_ms("cosy.build_store"), "ms");
  out.add("cosy.create_schema_ms", setup_ms("cosy.create_schema"), "ms");
  out.add("cosy.import_ms", setup_ms("cosy.import_store"), "ms");
  out.add("cosy.import_rows_per_s",
          ratio(static_cast<double>(w.imported_rows),
                setup_ms("cosy.import_store") / 1e3),
          "rows/s");

  // Pass spans of the traced ops.
  std::vector<double> root_self, prepare, warm_us;
  std::map<std::uint32_t, double> cold_by_op;
  std::map<std::string, double> by_property;
  for (const asl::PropertyInfo& prop : w.model.properties()) {
    by_property[prop.name] = 0;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const e2e::Span& span = spans[i];
    if (span.op == 0) continue;
    if (span.name == "cosy.analyzer.analyze") root_self.push_back(self[i]);
    if (span.name == "cosy.backend.prepare") prepare.push_back(span.ms());
    if (span.name == "cosy.sql_eval.evaluate") {
      by_property[span.detail] += span.ms();
      if (span.first_of_op) {
        cold_by_op[span.op] += span.ms();
      } else {
        warm_us.push_back(span.ms() * 1e3);
      }
    }
  }
  std::vector<double> cold;
  for (const auto& [op, ms] : cold_by_op) cold.push_back(ms);

  out.add("cosy.analyzer.self_ms", quantile(root_self, 0.5), "ms",
          "enumeration and ranking");
  out.add("cosy.backend.prepare_ms", quantile(prepare, 0.5), "ms");
  out.add("cosy.eval.cold_ms", quantile(cold, 0.5), "ms",
          "first evaluate of each property, summed per op");
  out.add("db.parse_us.p50", quantile(s.parse_us, 0.5), "us",
          "n=" + std::to_string(s.parse_us.size()));
  out.add("cosy.eval.warm_us.p50", quantile(warm_us, 0.5), "us",
          "n=" + std::to_string(warm_us.size()));
  out.add("cosy.eval.warm_us.p99", quantile(warm_us, 0.99), "us",
          "n=" + std::to_string(warm_us.size()));
  for (const auto& [prop, ms] : by_property) {
    out.add("cosy.eval.prop_ms." + prop, t.per_op(ms), "ms");
  }
  out.add("db.statements", t.per_op(t.statements), "count");
  out.add("db.rows_per_statement", ratio(t.rows, t.statements), "rows");
  out.add("db.subquery_executions", t.per_op(t.subquery_executions), "count");
  out.add("db.subquery_memo_hit_ratio",
          ratio(t.subquery_memo_hits,
                t.subquery_memo_hits + t.subquery_executions),
          "ratio");
  out.add("db.cte_materializations", t.per_op(t.cte_materializations),
          "count");
  out.add("cosy.whole_fallback_ratio", ratio(t.whole_fallbacks, t.contexts),
          "ratio");
  out.add("db.partition_union_rewrites", t.per_op(t.partition_union_rewrites),
          "count");
  out.add("db.columnar_scans", t.per_op(t.columnar_scans), "count");
  out.add("db.fused_ratio", ratio(t.fused, t.statements), "ratio");
  out.add("db.expr_vm_lanes", t.per_op(t.expr_vm_lanes), "count");
  out.add("db.hash_join_builds", t.per_op(t.hash_join_builds), "count");
  out.add("db.join_lanes_probed", t.per_op(t.join_lanes_probed), "count");
  out.add("db.partitions_pruned", t.per_op(t.partitions_pruned), "count");

  // Ops on the engine's default scan pool.
  const Totals& p = s.pool;
  const std::string pool_n = "n=" + std::to_string(s.pool_op_ms.size());
  out.add("pool_pass_ms.p50", quantile(s.pool_op_ms, 0.5), "ms",
          "op wall time on the default scan pool, " + pool_n);
  out.add("pass_cpu_ms.p50", quantile(s.pool_cpu_ms, 0.5), "ms",
          "process CPU per op on the default scan pool, " + pool_n);
  out.add("db.cte_parallel_ratio",
          ratio(p.cte_parallel_materializations, p.cte_materializations),
          "ratio", "CTEs materialized in parallel waves, default pool");
  out.add("db.parallel_scan_batches", p.per_op(p.parallel_scan_batches),
          "count", "multi-partition scans on the pool per op, default pool");
  out.add("cosy.plan_cache.hit_ratio",
          ratio(t.plan_hits, t.plan_hits + t.plan_misses), "ratio");

  out.add("cosy.monitor.ingest_ms.p50", quantile(s.ingest_ms, 0.5), "ms");
  out.add("cosy.monitor.evaluate_ms.p50", quantile(s.evaluate_ms, 0.5), "ms");
  out.add("cosy.monitor.evaluate_ms.p90", quantile(s.evaluate_ms, 0.9), "ms");
  out.add("cosy.monitor.ingest_rows_per_s",
          ratio(s.ingested_rows,
                std::accumulate(s.ingest_ms.begin(), s.ingest_ms.end(), 0.0) /
                    1e3),
          "rows/s");
  out.add("cosy.shard_cache.hit_ratio",
          ratio(t.shard_hits, t.shard_hits + t.shard_misses), "ratio");
  out.add("cosy.shard_cache.statement_hit_ratio",
          ratio(t.statement_hits, t.statement_hits + t.statement_misses),
          "ratio");
  out.add("cosy.shard_cache.dirty_recomputes", t.per_op(t.dirty_recomputes),
          "count");
  out.add("cosy.shard_cache.entries", s.shard_entries, "count");
  out.add("cosy.monitor.deltas", ratio(s.deltas, s.epochs), "count",
          "finding deltas per epoch");
  out.add("db.store_rows", static_cast<double>(w.database->total_rows()),
          "rows");
  out.add("conn.modelled_ms", t.per_op(t.modelled_ms), "ms",
          "oracle7 modelled wire time per op; never speedup evidence");

  const double traced_wall =
      std::accumulate(s.traced_op_ms.begin(), s.traced_op_ms.end(), 0.0);
  const Coverage coverage = print_layer_table(tracer, traced_wall, t.ops);
  out.add("trace.self_time_coverage", coverage.self_sum, "ratio",
          "span self-time sum / traced op wall time; 1 by construction");
  out.add("trace.unattributed_ratio", coverage.unattributed, "ratio",
          "root span self-time / traced op wall time");
  out.add("trace.overhead_ratio",
          ratio(quantile(s.traced_op_ms, 0.5), quantile(s.op_ms, 0.5)),
          "ratio",
          "traced op p50 / untraced op p50, n=" +
              std::to_string(s.traced_op_ms.size()) + "/" +
              std::to_string(s.op_ms.size()));
}

void report(const Options& o, const World& w, const e2e::Tracer& tracer,
            const Samples& s, Output& out) {
  if (o.trace) {
    report_layers(w, tracer, s, out);
  } else {
    report_end_to_end(o, s, out);
  }
}

// --- workloads ---------------------------------------------------------------

/// Everything set-up builds. The monitor holds the world's connection, so
/// it is declared (and destroyed) after the world.
struct Setup {
  std::unique_ptr<World> world;
  MonitorState monitor;
};

/// One timed set-up: the world, plus the monitor for monitor_refresh.
Setup timed_setup(const Options& o, const std::string& backend,
                  e2e::Tracer& tracer, Samples& s) {
  const bool was_enabled = tracer.enabled();
  tracer.set_enabled(o.trace);
  tracer.begin_op(0);
  Setup setup;
  const std::int64_t t0 = e2e::now_ns();
  {
    const e2e::Scope span(tracer, "setup");
    setup.world = build_world(o, workload_of(o), tracer);
    if (o.workload == "monitor_refresh") {
      setup.monitor = build_monitor(*setup.world, o, backend, tracer);
    }
  }
  s.setup_s.push_back(ms_since(t0) / 1e3);
  tracer.set_enabled(was_enabled);
  return setup;
}

/// Puts a database on its default scan pool for one kPool op.
class PoolScope {
 public:
  PoolScope(db::Database& database, Kind kind)
      : database_(kind == Kind::kPool ? &database : nullptr) {
    if (database_ != nullptr) database_->set_scan_config({});
  }
  ~PoolScope() {
    if (database_ != nullptr) database_->set_scan_config(kSerialScans);
  }
  PoolScope(const PoolScope&) = delete;
  PoolScope& operator=(const PoolScope&) = delete;

 private:
  db::Database* database_;
};

/// Files one op's wall and CPU time, and the counter deltas of traced and
/// pool ops, under the op's kind.
void record_op(Samples& s, Kind kind, double wall, double cpu,
               const Counters& before, const Counters& after,
               std::size_t contexts) {
  switch (kind) {
    case Kind::kTimed:
      s.op_ms.push_back(wall);
      s.contexts += static_cast<double>(contexts);
      break;
    case Kind::kTraced:
      s.traced_op_ms.push_back(wall);
      s.totals.add(before, after, contexts);
      break;
    case Kind::kPool:
      s.pool_op_ms.push_back(wall);
      s.pool_cpu_ms.push_back(cpu);
      s.pool.add(before, after, contexts);
      break;
  }
}

/// analyze_row / analyze_columnar: one Analyzer::analyze per op, cycling
/// through the runs, each with a fresh PlanCache (compile, parse, bind and
/// execute, as one cosy_tool invocation pays).
std::uint64_t run_analyze(const Options& o, e2e::Tracer& tracer,
                          const std::string& traced_backend,
                          Failures& failures, Output& out) {
  Samples s;
  Setup setup = timed_setup(o, kBackend, tracer, s);
  print_context(o, *setup.world);
  const auto analyzer_of = [](const World& w) {
    return std::make_unique<cosy::Analyzer>(w.model, *w.store, w.handles,
                                            w.conn.get());
  };
  std::unique_ptr<cosy::Analyzer> analyzer = analyzer_of(*setup.world);

  // Untimed reference: the interpreter's verdicts for every run. Every
  // set-up builds the same seeded world, so they hold for all of them.
  const std::size_t runs = setup.world->handles.runs.size();
  std::vector<e2e::Reference> refs;
  for (std::size_t r = 0; r < runs; ++r) {
    cosy::AnalyzerConfig config;
    config.backend = "interpreter";
    refs.push_back(e2e::reference_of(analyzer->analyze(r, config)));
    std::printf("reference run %zu: %zu verdicts, digest %016llx\n", r,
                refs.back().size(),
                static_cast<unsigned long long>(e2e::fingerprint(refs.back())));
    if (o.corrupt) e2e::corrupt(refs.back());
  }
  if (o.trace) s.parse_us = parse_samples(*setup.world);

  std::vector<std::size_t> order(runs);
  std::iota(order.begin(), order.end(), 0);
  support::Rng rng(o.seed);
  for (std::size_t i = runs; i > 1; --i) {
    std::swap(order[i - 1], order[static_cast<std::size_t>(rng.uniform_int(
                                0, static_cast<std::int64_t>(i) - 1))]);
  }
  const auto contexts = static_cast<std::size_t>(analyzer->context_count());

  // One pass; returns wall ms (negative after an exception).
  const auto pass = [&](std::size_t k, std::size_t run,
                        const std::string& backend, Kind kind) -> double {
    World& world = *setup.world;
    const std::string op = "pass " + std::to_string(k) + " (" + backend +
                           ", run " + std::to_string(run) + ")";
    try {
      tracer.begin_op(static_cast<std::uint32_t>(k + 1));
      tracer.set_enabled(kind == Kind::kTraced);
      const PoolScope pool(*world.database, kind);
      const Counters before = read_counters(world, tracer, nullptr);
      const double cpu0 = cpu_ms();
      const std::int64_t t0 = e2e::now_ns();
      cosy::AnalysisReport report;
      {
        const e2e::Scope root(tracer, "cosy.analyzer.analyze");
        cosy::PlanCache cache(world.model);
        cosy::AnalyzerConfig config;
        config.backend = backend;
        config.plan_cache = &cache;
        report = analyzer->analyze(run, config);
      }
      const double wall = ms_since(t0);
      const double cpu = cpu_ms() - cpu0;
      tracer.set_enabled(false);
      if (backend != kBaselineBackend) {
        record_op(s, kind, wall, cpu, before,
                  read_counters(world, tracer, nullptr), contexts);
      }
      failures.record(op, e2e::compare(refs[run], e2e::reference_of(report),
                                       kTolerance));
      return wall;
    } catch (const std::exception& e) {
      tracer.set_enabled(false);
      failures.exception(op, e);
      return -1;
    }
  };

  // Whole cycles over the runs, so every run weighs the same in the
  // percentiles; baseline passes take the runs in the same order. A traced
  // run rotates whole cycles through the three kinds of op.
  const std::size_t cycle = o.trace ? 3 * runs : runs;
  const std::int64_t start = e2e::now_ns();
  std::int64_t last_setup = start;
  std::size_t baselines = 0;
  for (std::size_t k = 0; ms_since(start) < o.seconds * 1e3 ||
                          k % cycle != 0 || (!o.trace && baselines == 0);
       ++k) {
    // A fresh set-up about once a second, built after the old world is
    // gone: setup_s is then a median over the same stretch of machine time
    // as the passes, and peak_rss_mb covers one world and its passes.
    if (k > 0 && k % cycle == 0 && ms_since(last_setup) >= 1000) {
      analyzer.reset();
      setup.world.reset();
      setup = timed_setup(o, kBackend, tracer, s);
      analyzer = analyzer_of(*setup.world);
      last_setup = e2e::now_ns();
    }
    const Kind kind =
        o.trace ? static_cast<Kind>((k / runs) % 3) : Kind::kTimed;
    ++s.attempted;
    (void)pass(k, order[k % runs],
               kind == Kind::kTraced ? traced_backend : kBackend, kind);
    if (!o.trace && k % kBaselineEvery == kBaselineEvery - 1) {
      const double base =
          pass(k, order[baselines++ % runs], kBaselineBackend, Kind::kTimed);
      ++s.attempted;
      if (base >= 0) s.baseline_ms.push_back(base);
    }
  }
  report(o, *setup.world, tracer, s, out);
  return s.attempted;
}

/// monitor_refresh: one seeded ingest batch then one evaluate per epoch.
/// Epochs run in rounds of kRoundEpochs on a freshly set-up store, so epoch
/// k of every round sees a store of the same size however fast the machine
/// is; the set-ups between rounds are the ones setup_s reports.
std::uint64_t run_monitor(const Options& o, e2e::Tracer& tracer,
                          const std::string& traced_backend,
                          Failures& failures, Output& out) {
  Samples s;
  // In a traced run the monitor evaluates through the traced backend from
  // the start; untraced epochs only leave its spans off.
  const std::string backend = o.trace ? traced_backend : kBackend;
  Setup setup = timed_setup(o, backend, tracer, s);
  print_context(o, *setup.world);
  std::printf("monitor: %zu watched contexts, %zu-way member-partitioned "
              "timing junctions, %zu rows per epoch into %zu partitions, "
              "rounds of %zu epochs\n",
              setup.monitor.contexts.size(), kPartitions, kEpochRows,
              kDirtyPartitions, kRoundEpochs);

  // Untimed reference for each round's first pass: the interpreter's
  // verdicts for the watched run (the ballast belongs to a run no property
  // reads). Every round sets up the same seeded store.
  e2e::Reference first_ref;
  {
    const World& w = *setup.world;
    cosy::Analyzer analyzer(w.model, *w.store, w.handles);
    cosy::AnalyzerConfig config;
    config.backend = "interpreter";
    first_ref = e2e::holding(
        e2e::reference_of(analyzer.analyze(w.handles.runs.size() - 1, config)));
    std::printf("reference (watched run): %zu holding, digest %016llx\n",
                first_ref.size(),
                static_cast<unsigned long long>(e2e::fingerprint(first_ref)));
    if (o.corrupt) e2e::corrupt(first_ref);
  }
  if (o.trace) s.parse_us = parse_samples(*setup.world);

  // Sampled epochs: a cold Monitor at the same store epoch must report the
  // same findings bit for bit. Its wall time is the baseline: the
  // from-scratch pass the incremental refresh replaces.
  const auto cold_check = [&](std::size_t k, const cosy::EpochReport& warm) {
    const std::string op = "epoch " + std::to_string(k) + " cold check";
    try {
      const std::int64_t t0 = e2e::now_ns();
      const cosy::EpochReport cold =
          make_monitor(*setup.world, setup.monitor.contexts, kBackend)
              ->evaluate();
      const double wall = ms_since(t0);
      e2e::Reference want = e2e::reference_of(cold);
      if (o.corrupt) e2e::corrupt(want);
      std::vector<std::string> diff =
          e2e::compare(want, e2e::reference_of(warm), 0.0);
      if (cold.epoch != warm.epoch) {
        diff.push_back("store epoch " + std::to_string(warm.epoch) +
                       " != cold " + std::to_string(cold.epoch));
      }
      failures.record(op, diff);
      if (!o.trace) s.baseline_ms.push_back(wall);
    } catch (const std::exception& e) {
      failures.exception(op, e);
    }
  };

  support::Rng rng(o.seed ^ 0x5eedULL);
  const std::int64_t start = e2e::now_ns();
  for (std::size_t k = 0;; ++k) {
    if (k % kRoundEpochs == 0) {
      if (k > 0) {
        if (ms_since(start) >= o.seconds * 1e3) break;
        setup.monitor = {};  // before the world whose connection it holds
        setup.world.reset();
        setup = timed_setup(o, backend, tracer, s);
      }
      ++s.attempted;
      failures.record(
          "round " + std::to_string(k / kRoundEpochs) + " first evaluate",
          e2e::compare(first_ref, e2e::reference_of(setup.monitor.first),
                       kTolerance));
    }
    World& world = *setup.world;
    MonitorState& m = setup.monitor;
    const cosy::IngestBatch batch = epoch_batch(m, rng);
    const Kind kind = o.trace ? static_cast<Kind>(k % 3) : Kind::kTimed;
    const std::string op = "epoch " + std::to_string(k);
    ++s.attempted;
    try {
      tracer.begin_op(static_cast<std::uint32_t>(k + 1));
      cosy::EpochReport report;
      {
        tracer.set_enabled(kind == Kind::kTraced);
        const PoolScope pool(*world.database, kind);
        const Counters before = read_counters(world, tracer, m.monitor.get());
        const double cpu0 = cpu_ms();
        const std::int64_t t0 = e2e::now_ns();
        std::int64_t t1 = 0;
        {
          const e2e::Scope root(tracer, "cosy.monitor.epoch");
          {
            const e2e::Scope span(tracer, "cosy.monitor.ingest");
            m.monitor->ingest(batch);
          }
          t1 = e2e::now_ns();
          const e2e::Scope span(tracer, "cosy.monitor.evaluate");
          report = m.monitor->evaluate();
        }
        const std::int64_t t2 = e2e::now_ns();
        const double cpu = cpu_ms() - cpu0;
        tracer.set_enabled(false);
        record_op(s, kind, static_cast<double>(t2 - t0) / 1e6, cpu, before,
                  read_counters(world, tracer, m.monitor.get()),
                  m.contexts.size());
        if (kind == Kind::kTimed) {
          s.ingest_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
          s.evaluate_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
          s.ingested_rows += static_cast<double>(batch.rows());
        }
      }
      s.deltas += static_cast<double>(report.deltas.size());
      s.epochs += 1;
      if (k % kColdCheckEvery == kColdCheckEvery - 1) cold_check(k, report);
    } catch (const std::exception& e) {
      tracer.set_enabled(false);
      failures.exception(op, e);
    }
  }
  s.shard_entries =
      static_cast<double>(setup.monitor.monitor->shard_cache().stats().entries);
  report(o, *setup.world, tracer, s, out);
  return s.attempted;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  try {
    e2e::Tracer tracer;
    const std::string traced = e2e::register_traced_backend(tracer, kBackend);
    Failures failures;
    Output out;
    const std::uint64_t attempted =
        o.workload == "monitor_refresh"
            ? run_monitor(o, tracer, traced, failures, out)
            : run_analyze(o, tracer, traced, failures, out);
    out.finish(attempted, failures.failed());
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: set-up failed: " << e.what() << "\n";
    return 1;
  }
}
