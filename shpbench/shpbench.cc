// End-to-end benchmark program: edge list on disk -> converged partition ->
// live serving, measured from outside the library's public API.
//
// Two subcommands, run as separate processes so input generation never
// counts toward the solve process's peak RSS (VmHWM only rises):
//
//   shpbench gen --workload=W --seed=N --dir=D
//       Generates the workload's input graph and writes it to D.
//   shpbench run --workload=W --dir=D [--trace=1]
//       Loads the input from D, partitions it, serves it, checks the
//       outputs, and prints one `RESULT {...}` JSON line. With --trace=1 it
//       also records spans around every call into a library layer and
//       writes them (plus one record per refinement iteration) to D.
//
// Workloads (see README.md for why each was chosen):
//   shp2-social-text  social graph as a text edge list, in-memory parse,
//                     SHP-2 recursive bisection to k=64 on the Refiner,
//                     then a live cutover onto the partition.
//   shpk-bsp-spill    social graph as an SHPG snapshot, bounded-memory
//                     streaming ingest that spills to the disk arena, SHP-k
//                     (k=32, fixed 40 iterations) on the BSP engine, then
//                     cutover.
//   serving-diurnal   social graph as an SHPG snapshot served by ServingLoop
//                     for 3 diurnal epochs under a per-epoch move budget.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "common/flags.h"
#include "common/thread_pool.h"
#include "core/shp.h"
#include "engine/cost_model.h"
#include "engine/shp_bsp.h"
#include "graph/disk_arena.h"
#include "graph/gen_social.h"
#include "graph/io_binary.h"
#include "graph/io_edgelist.h"
#include "graph/streaming_ingest.h"
#include "sharding/serving_loop.h"

namespace {

using namespace shp;  // NOLINT
using Clock = std::chrono::steady_clock;

constexpr const char* kSocial = "shp2-social-text";
constexpr const char* kBsp = "shpk-bsp-spill";
constexpr const char* kServing = "serving-diurnal";

// ---- workload shapes -------------------------------------------------------

constexpr VertexId kSocialUsers = 40000;
constexpr BucketId kSocialK = 64;
constexpr double kEpsilon = 0.05;

/// Users of the social graph behind both SHPG workloads (~0.6M pins).
constexpr VertexId kSnapshotUsers = 35000;
constexpr BucketId kBspK = 32;
constexpr uint32_t kBspIterations = 40;
constexpr int kBspWorkers = 4;
constexpr uint64_t kBspBudgetMb = 32;

constexpr uint32_t kServingServers = 24;
/// One full rotation of the diurnal popularity center, one epoch per phase.
constexpr uint64_t kServingEpochs = 3;
/// Per-epoch move budget. The budgeted refiner stops finding moves after a
/// few epochs at a seed-dependent point; this budget binds in every epoch
/// on almost every seed, so the migration volume is set by the budget
/// rather than by the seed.
constexpr uint64_t kServingBudget = 250;
/// Queries replayed per serving phase of serving-diurnal.
constexpr uint64_t kRequestsPerPhase = 200000;
/// Queries replayed per phase of the cutover that ends both solve
/// workloads. At 200k the whole cutover took ~0.3 s and its time moved by a
/// fifth from one operation to the next.
constexpr uint64_t kCutoverRequestsPerPhase = 600000;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Steps of the clock-calibration loop (~0.1 s on a 2 GHz core).
constexpr uint64_t kCalibrationSteps = 100000000;

/// Milliseconds a fixed serial chain of integer multiplies and xors takes.
/// It touches no memory, so its time follows only the CPU clock, which on
/// a shared host drifts by a third within minutes; run.py scales every
/// wall time by it (README.md, "Clock calibration").
double CalibrationMs() {
  const Clock::time_point start = Clock::now();
  uint64_t c = 0;
  for (uint64_t r = 0; r < kCalibrationSteps; ++r) c += (c ^ r) * 31 + 7;
  const double ms = 1e3 * Seconds(start, Clock::now());
  // Uses the result so the loop cannot be folded away.
  if (c == 42) std::fprintf(stderr, "calibration sum %llu\n",
                            static_cast<unsigned long long>(c));
  return ms;
}

// ---- tracing ---------------------------------------------------------------

/// In-memory span recorder. Spans are opened and closed on the calling
/// thread (every traced call is made from it), kept in memory, and written
/// out once at the end. Disabled tracers record nothing.
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start_s = 0.0;
    double end_s = 0.0;
    int64_t tag = -1;  ///< refiner instance for core.* spans, else -1
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  int Begin(const char* name, int64_t tag = -1) {
    if (!enabled_) return -1;
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.start_s = Seconds(origin_, Clock::now());
    span.tag = tag;
    spans_.push_back(std::move(span));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void End(int id) {
    if (id < 0) return;
    spans_[id].end_s = Seconds(origin_, Clock::now());
    SHP_CHECK(!stack_.empty() && stack_.back() == id) << "unbalanced span";
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name: duration minus the time covered by children.
  std::map<std::string, double> SelfSeconds() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[s.parent] += s.end_s - s.start_s;
    }
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[spans_[i].name] += spans_[i].end_s - spans_[i].start_s - child[i];
    }
    return self;
  }

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t tag = -1)
      : tracer_(tracer), id_(tracer->Begin(name, tag)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// ---- refiner ledger --------------------------------------------------------

/// One RunIteration call as seen from outside the engine.
struct IterationRecord {
  int instance = 0;
  uint64_t iteration = 0;
  double ms = 0.0;
  IterationStats stats;
  size_t superstep_begin = 0;  ///< slice of Ledger::supersteps
  size_t superstep_end = 0;
  uint64_t adjacency_reads = 0;  ///< BSP accumulator bootstrap reads
};

/// Everything the timing decorator observes across every refiner the
/// drivers construct.
struct Ledger {
  explicit Ledger(Tracer* t) : tracer(t) {}
  Tracer* tracer;
  int instances = 0;
  double factory_s = 0.0;
  double set_budget_s = 0.0;
  std::vector<IterationRecord> iterations;
  std::vector<SuperstepStats> supersteps;  ///< BSP log (traced runs only)
  const Partition* last_partition = nullptr;
};

/// RefinerInterface decorator installed through the drivers'
/// refiner_factory hook: times every RunIteration and SetMoveBudget
/// passthrough and tags each iteration with its refiner instance.
class TimedRefiner final : public RefinerInterface {
 public:
  TimedRefiner(std::unique_ptr<RefinerInterface> inner, int instance,
               Ledger* ledger)
      : inner_(std::move(inner)),
        bsp_(dynamic_cast<BspRefiner*>(inner_.get())),
        instance_(instance),
        ledger_(ledger) {}

  IterationStats RunIteration(const MoveTopology& topo, Partition* partition,
                              uint64_t seed, uint64_t iteration,
                              ThreadPool* pool,
                              const std::vector<BucketId>* anchor,
                              double anchor_penalty) override {
    IterationRecord record;
    record.instance = instance_;
    record.iteration = iteration;
    record.superstep_begin = ledger_->supersteps.size();
    const uint64_t reships = bsp_ ? bsp_->num_bootstrap_reships() : 0;
    const Clock::time_point start = Clock::now();
    {
      ScopedSpan span(ledger_->tracer, "core.iteration", instance_);
      record.stats = inner_->RunIteration(topo, partition, seed, iteration,
                                          pool, anchor, anchor_penalty);
    }
    record.ms = Seconds(start, Clock::now()) * 1e3;
    record.superstep_end = ledger_->supersteps.size();
    if (bsp_ != nullptr && bsp_->num_bootstrap_reships() != reships) {
      record.adjacency_reads = bsp_->sweep().last_build_adjacency_reads();
    }
    ledger_->iterations.push_back(record);
    ledger_->last_partition = partition;
    return record.stats;
  }

  void SetMoveBudget(uint64_t max_moves) override {
    const Clock::time_point start = Clock::now();
    {
      ScopedSpan span(ledger_->tracer, "core.set_budget", instance_);
      inner_->SetMoveBudget(max_moves);
    }
    ledger_->set_budget_s += Seconds(start, Clock::now());
  }

 private:
  std::unique_ptr<RefinerInterface> inner_;
  BspRefiner* bsp_;
  int instance_;
  Ledger* ledger_;
};

/// Wraps `make` (nullptr = the default Refiner) so every refiner
/// the driver constructs is timed and decorated.
RefinerFactory TimedFactory(RefinerFactory make, Ledger* ledger) {
  return [make, ledger](const BipartiteGraph& graph,
                        const RefinerOptions& options)
             -> std::unique_ptr<RefinerInterface> {
    const int instance = ledger->instances++;
    const Clock::time_point start = Clock::now();
    std::unique_ptr<RefinerInterface> inner;
    {
      ScopedSpan span(ledger->tracer, "core.factory", instance);
      inner = make ? make(graph, options)
                   : std::make_unique<Refiner>(graph, options);
    }
    ledger->factory_s += Seconds(start, Clock::now());
    return std::make_unique<TimedRefiner>(std::move(inner), instance, ledger);
  };
}

/// Moves every record straight to a precomputed assignment in one
/// iteration: the serving loop then migrates the live cluster from its
/// previous (random) placement onto the converged partition under traffic.
class CutoverRefiner final : public RefinerInterface {
 public:
  CutoverRefiner(const std::vector<BucketId>* target, double* busy_s)
      : target_(target), busy_s_(busy_s) {}

  IterationStats RunIteration(const MoveTopology&, Partition* partition,
                              uint64_t, uint64_t, ThreadPool*,
                              const std::vector<BucketId>*, double) override {
    const Clock::time_point start = Clock::now();
    IterationStats stats;
    for (VertexId v = 0; v < partition->num_data(); ++v) {
      if (partition->bucket_of(v) == (*target_)[v]) continue;
      partition->Move(v, (*target_)[v]);
      ++stats.num_moved;
    }
    *busy_s_ += Seconds(start, Clock::now());
    return stats;
  }

 private:
  const std::vector<BucketId>* target_;
  double* busy_s_;
};

// ---- output checks ---------------------------------------------------------

struct Checks {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
  }
};

/// Brute-force average query fanout: distinct buckets per query, counted
/// with a stamp array, summed exactly in integers.
double BruteForceFanout(const BipartiteGraph& graph,
                        const std::vector<BucketId>& assignment, BucketId k) {
  std::vector<uint32_t> stamp(static_cast<size_t>(k), 0);
  uint64_t total = 0;
  for (VertexId q = 0; q < graph.num_queries(); ++q) {
    const uint32_t mark = q + 1;
    for (VertexId v : graph.QueryNeighbors(q)) {
      uint32_t& s = stamp[static_cast<size_t>(assignment[v])];
      if (s != mark) {
        s = mark;
        ++total;
      }
    }
  }
  return graph.num_queries() == 0
             ? 0.0
             : static_cast<double>(total) / graph.num_queries();
}

/// Range, balance and objective checks on a final assignment. Returns the
/// brute-force fanout.
double CheckAssignment(const BipartiteGraph& graph,
                       const std::vector<BucketId>& assignment, BucketId k,
                       double epsilon, Checks* checks) {
  checks->Expect(assignment.size() == graph.num_data(),
                 "assignment covers every data vertex");
  std::vector<uint64_t> sizes(static_cast<size_t>(k), 0);
  bool in_range = assignment.size() == graph.num_data();
  for (BucketId b : assignment) {
    if (b < 0 || b >= k) {
      in_range = false;
      break;
    }
    ++sizes[static_cast<size_t>(b)];
  }
  checks->Expect(in_range, "every data vertex is in a bucket in [0, k)");
  if (!in_range) return 0.0;
  const double ideal = static_cast<double>(graph.num_data()) / k;
  const double imbalance =
      static_cast<double>(*std::max_element(sizes.begin(), sizes.end())) /
          ideal -
      1.0;
  char buf[128];
  std::snprintf(buf, sizeof(buf), "imbalance %.6f <= epsilon %.3f",
                imbalance, epsilon);
  checks->Expect(imbalance <= epsilon + 1e-9, buf);
  const double fanout = BruteForceFanout(graph, assignment, k);
  const double reference = SummarizePartition(graph, assignment, k).fanout;
  std::snprintf(buf, sizeof(buf),
                "brute-force fanout %.12f matches SummarizePartition %.12f",
                fanout, reference);
  checks->Expect(std::fabs(fanout - reference) <= 1e-9 * std::fabs(reference),
                 buf);
  return fanout;
}

// ---- JSON output -----------------------------------------------------------

class JsonObject {
 public:
  void Num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    Raw(key, buf);
  }
  void Str(const std::string& key, const std::string& value) {
    Raw(key, "\"" + value + "\"");
  }
  void Raw(const std::string& key, const std::string& value) {
    body_ += (body_.empty() ? "" : ",") + ("\"" + key + "\":") + value;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

uint64_t FileBytes(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                        : 0;
}

/// Percentile by nearest rank on a copy.
double Percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::string InputPath(const std::string& dir, const std::string& workload) {
  return dir + (workload == kSocial ? "/graph.txt" : "/graph.shpg");
}

// ---- gen -------------------------------------------------------------------

int Generate(const std::string& workload, uint64_t seed,
             const std::string& dir) {
  if (workload != kSocial && workload != kBsp && workload != kServing) {
    std::fprintf(stderr, "unknown workload %s\n", workload.c_str());
    return 1;
  }
  SocialGraphConfig config;
  config.num_users = workload == kSocial ? kSocialUsers : kSnapshotUsers;
  config.seed = seed;
  const BipartiteGraph graph = GenerateSocialGraph(config);
  const std::string path = InputPath(dir, workload);
  const Status st = workload == kSocial ? WriteBipartiteEdgeList(graph, path)
                                        : WriteBinaryGraph(graph, path);
  if (!st.ok()) {
    std::fprintf(stderr, "generate failed: %s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}

// ---- run -------------------------------------------------------------------

/// Everything one run measured; turned into the RESULT line.
struct RunOutput {
  double op_s = 0.0;  ///< the whole timed operation
  double solve_s = 0.0;
  double serve_s = 0.0;
  double ingest_s = 0.0;
  double partition_s = 0.0;
  double fanout = 0.0;
  uint64_t input_bytes = 0;
  StreamingIngestStats ingest;
  uint64_t arena_windows_touched = 0;
  uint64_t arena_window_evictions = 0;
  ServingReport serving;
  double serving_refine_s = 0.0;
  uint64_t num_data = 0;
};

/// Serves `target` live: a one-epoch ServingLoop whose refiner cuts the
/// cluster over from its previous random placement onto `target`.
void ServeCutover(const BipartiteGraph& graph,
                  const std::vector<BucketId>& target, BucketId k,
                  Tracer* tracer, RunOutput* out) {
  ServingLoopConfig config;
  config.num_epochs = 1;
  config.iterations_per_epoch = 1;
  config.requests_per_phase = kCutoverRequestsPerPhase;
  config.epsilon = kEpsilon;
  config.cluster.num_servers = static_cast<uint32_t>(k);
  config.scenario = TrafficScenario::kPowerLaw;
  double* refine_s = &out->serving_refine_s;
  config.refiner_factory = [&target, refine_s](const BipartiteGraph&,
                                               const RefinerOptions&) {
    return std::make_unique<CutoverRefiner>(&target, refine_s);
  };
  ServingLoop loop(graph, config);
  const Clock::time_point start = Clock::now();
  {
    ScopedSpan span(tracer, "sharding.serve");
    out->serving = loop.Run();
  }
  out->serve_s = Seconds(start, Clock::now());
}

/// The shape of both solve workloads: ingest the input file, partition,
/// check the assignment, then serve it through a cutover. Returns the graph
/// for workload-specific checks.
template <typename Ingest, typename Partition>
BipartiteGraph SolveAndServe(const std::string& path, BucketId k,
                             const Ingest& ingest,
                             const Partition& partition, Tracer* tracer,
                             Checks* checks, RunOutput* out) {
  out->input_bytes = FileBytes(path);
  const Clock::time_point t0 = Clock::now();
  Result<BipartiteGraph> loaded = [&] {
    ScopedSpan span(tracer, "graph.ingest");
    return ingest(path);
  }();
  SHP_CHECK(loaded.ok()) << loaded.status().ToString();
  BipartiteGraph graph = std::move(loaded).value();
  const Clock::time_point t1 = Clock::now();
  const std::vector<BucketId> assignment = [&] {
    ScopedSpan span(tracer, "core.partition");
    return partition(graph);
  }();
  const Clock::time_point t2 = Clock::now();
  {
    ScopedSpan span(tracer, "bench.verify");
    out->fanout = CheckAssignment(graph, assignment, k, kEpsilon, checks);
  }
  const Clock::time_point t3 = Clock::now();
  ServeCutover(graph, assignment, k, tracer, out);
  const Clock::time_point t4 = Clock::now();
  checks->Expect(out->serving.final_assignment == assignment,
                 "served assignment equals the converged partition");
  checks->Expect(out->serving.scratch_grow_events == 0,
                 "serving replay never grew its scratch");
  out->ingest_s = Seconds(t0, t1);
  out->partition_s = Seconds(t1, t2);
  out->solve_s = Seconds(t0, t3);
  out->op_s = Seconds(t0, t4);
  out->num_data = graph.num_data();
  return graph;
}

void RunSocial(const std::string& dir, ThreadPool* pool, Tracer* tracer,
               Ledger* ledger, Checks* checks, RunOutput* out) {
  RecursiveOptions options;
  options.k = kSocialK;
  options.epsilon = kEpsilon;
  options.refiner_factory = TimedFactory(nullptr, ledger);
  SolveAndServe(
      InputPath(dir, kSocial), kSocialK,
      [](const std::string& path) { return ReadBipartiteEdgeList(path); },
      [&](const BipartiteGraph& graph) {
        return RecursivePartitioner(options).Run(graph, pool).assignment;
      },
      tracer, checks, out);
}

void RunBsp(const std::string& dir, ThreadPool* pool, Tracer* tracer,
            Ledger* ledger, Checks* checks, RunOutput* out) {
  StreamingIngestOptions ingest_options;
  ingest_options.memory_budget_mb = kBspBudgetMb;
  ingest_options.spill_dir = dir + "/spill";
  ShpKOptions options;
  options.k = kBspK;
  options.epsilon = kEpsilon;
  options.max_iterations = kBspIterations;
  options.min_move_fraction = 0.0;  // a fixed iteration count
  BspConfig bsp;
  bsp.num_workers = kBspWorkers;
  std::vector<SuperstepStats>* log =
      tracer->enabled() ? &ledger->supersteps : nullptr;
  options.refiner_factory = TimedFactory(
      [bsp, log](const BipartiteGraph& g, const RefinerOptions& o) {
        return std::make_unique<BspRefiner>(g, o, bsp, log);
      },
      ledger);
  const BipartiteGraph graph = SolveAndServe(
      InputPath(dir, kBsp), kBspK,
      [&](const std::string& path) {
        return StreamingIngestBinary(path, ingest_options, &out->ingest);
      },
      [&](const BipartiteGraph& g) {
        return ShpKPartitioner(options).Run(g, pool).assignment;
      },
      tracer, checks, out);
  checks->Expect(out->ingest.spilled_bytes > 0,
                 "streaming ingest spilled adjacency to the disk arena");
  if (const HybridAdjacency* hybrid = graph.hybrid()) {
    for (const HybridAdjacency::Side* side : {&hybrid->query, &hybrid->data}) {
      if (side->spill == nullptr) continue;
      out->arena_windows_touched += side->spill->windows_touched();
      out->arena_window_evictions += side->spill->window_evictions();
    }
  }
}

void RunServing(const std::string& dir, Tracer* tracer, Ledger* ledger,
                Checks* checks, RunOutput* out) {
  const std::string path = InputPath(dir, kServing);
  out->input_bytes = FileBytes(path);
  const Clock::time_point t0 = Clock::now();
  Result<BipartiteGraph> loaded = [&] {
    ScopedSpan span(tracer, "graph.ingest");
    return ReadBinaryGraph(path);
  }();
  SHP_CHECK(loaded.ok()) << loaded.status().ToString();
  const BipartiteGraph graph = std::move(loaded).value();
  const Clock::time_point t1 = Clock::now();

  ServingLoopConfig config;
  config.num_epochs = kServingEpochs;
  config.diurnal_phases = kServingEpochs;
  config.requests_per_phase = kRequestsPerPhase;
  config.move_budget_per_epoch = kServingBudget;
  config.epsilon = kEpsilon;
  config.cluster.num_servers = kServingServers;
  config.scenario = TrafficScenario::kDiurnal;
  config.refiner_factory = TimedFactory(nullptr, ledger);
  ServingLoop loop(graph, config);
  const Clock::time_point t2 = Clock::now();
  {
    ScopedSpan span(tracer, "sharding.serve");
    out->serving = loop.Run();
  }
  const Clock::time_point t3 = Clock::now();
  const ServingReport& report = out->serving;
  {
    ScopedSpan span(tracer, "bench.verify");
    out->fanout = CheckAssignment(graph, report.final_assignment,
                                  kServingServers, kEpsilon, checks);
    for (size_t e = 0; e < report.epochs.size(); ++e) {
      checks->Expect(report.epochs[e].executed_moves <= kServingBudget,
                     "epoch " + std::to_string(e) +
                         " executed moves within the budget");
    }
    checks->Expect(report.epochs.size() == kServingEpochs,
                   "every epoch reported");
    checks->Expect(report.scratch_grow_events == 0,
                   "serving replay never grew its scratch");
    checks->Expect(ledger->last_partition != nullptr &&
                       ledger->last_partition->assignment() ==
                           report.final_assignment,
                   "final assignment equals the last epoch's partition");
  }
  out->ingest_s = Seconds(t0, t1);
  out->serve_s = Seconds(t2, t3);
  out->solve_s = Seconds(t0, Clock::now());
  out->op_s = out->solve_s;
  for (const IterationRecord& r : ledger->iterations) {
    out->serving_refine_s += r.ms / 1e3;
  }
  out->serving_refine_s += ledger->set_budget_s;
  out->partition_s = out->serving_refine_s;
  out->num_data = graph.num_data();
}

/// Per-layer metrics derived from the ledger, the ingest stats and the
/// serving report.
void AddLayerMetrics(const RunOutput& out, const Ledger& ledger,
                     const Tracer& tracer, JsonObject* json) {
  // graph
  json->Num("graph.ingest_s", out.ingest_s);
  json->Num("graph.ingest_mb_per_s",
            out.input_bytes / 1e6 / std::max(out.ingest_s, 1e-9));
  json->Num("graph.spilled_bytes", out.ingest.spilled_bytes);
  json->Num("graph.resident_bytes", out.ingest.resident_bytes);
  json->Num("graph.arena_windows_touched", out.arena_windows_touched);
  json->Num("graph.arena_window_evictions", out.arena_window_evictions);

  // core
  double iter_s = 0.0;
  double bootstrap_ms = 0.0;
  uint64_t bootstraps = 0;
  uint64_t moved = 0, proposals = 0, recomputed = 0, deltas = 0, pushes = 0;
  uint64_t adjacency_reads = 0;
  std::vector<double> steady;
  for (const IterationRecord& r : ledger.iterations) {
    iter_s += r.ms / 1e3;
    if (r.stats.full_rebuild) {
      bootstrap_ms += r.ms;
      ++bootstraps;
    } else {
      steady.push_back(r.ms);
    }
    moved += r.stats.num_moved;
    proposals += r.stats.num_proposals;
    recomputed += r.stats.num_recomputed;
    deltas += r.stats.num_delta_records;
    pushes += r.stats.push_sweep ? 1 : 0;
    adjacency_reads += r.adjacency_reads;
  }
  const size_t iterations = ledger.iterations.size();
  // Highest percentile with at least ten samples beyond it (p50 floor).
  const double p_hi_pct =
      steady.size() >= 20
          ? std::floor(100.0 * (1.0 - 10.0 / static_cast<double>(steady.size())))
          : 50.0;
  json->Num("core.partition_s", out.partition_s);
  json->Num("core.driver_self_s", out.partition_s - iter_s);
  json->Num("core.factory_ms", ledger.factory_s * 1e3);
  json->Num("core.refiners", ledger.instances);
  json->Num("core.bootstrap_ms", bootstrap_ms);
  json->Num("core.bootstraps", bootstraps);
  json->Num("core.steady_iter_ms.p50", Percentile(steady, 50.0));
  json->Num("core.steady_iter_ms.p_hi", Percentile(steady, p_hi_pct));
  json->Num("core.steady_iter_ms.samples", steady.size());
  json->Num("core.iterations", iterations);
  json->Num("core.moved_per_proposal",
            proposals == 0 ? 0.0 : static_cast<double>(moved) / proposals);
  json->Num("core.recomputed_fraction",
            iterations == 0 || out.num_data == 0
                ? 0.0
                : static_cast<double>(recomputed) /
                      (static_cast<double>(iterations) * out.num_data));

  // objective
  json->Num("objective.delta_records", deltas);
  json->Num("objective.push_fraction",
            iterations == 0 ? 0.0 : static_cast<double>(pushes) / iterations);
  json->Num("objective.bootstrap_adjacency_reads", adjacency_reads);

  // engine (BSP superstep log; empty off the BSP workload)
  uint64_t remote[5] = {0, 0, 0, 0, 0};
  uint64_t envelope2 = 0, messages = 0, reships = 0;
  double max_work = 0.0, mean_work = 0.0;
  for (const SuperstepStats& s : ledger.supersteps) {
    const int step = s.label.empty() ? 0 : s.label[0] - '0';
    if (step >= 1 && step <= 4) remote[step] += s.traffic.remote_bytes;
    if (step == 2) {
      envelope2 += s.envelope_bytes;
      if (s.label.find("neighbor-data") != std::string::npos) ++reships;
    }
    messages += s.traffic.remote_messages;
    max_work += static_cast<double>(s.MaxWork());
    if (!s.work_units.empty()) {
      mean_work += static_cast<double>(s.TotalWork()) / s.work_units.size();
    }
  }
  for (int step = 1; step <= 4; ++step) {
    json->Num("engine.s" + std::to_string(step) + ".remote_bytes",
              remote[step]);
  }
  json->Num("engine.s2.envelope_bytes", envelope2);
  json->Num("engine.remote_messages", messages);
  json->Num("engine.work_skew", mean_work == 0.0 ? 0.0 : max_work / mean_work);
  json->Num("engine.reship_iterations", reships);
  json->Num("engine.simulated_s",
            CostModel(CostModelConfig{})
                .Total(ledger.supersteps, kBspWorkers)
                .seconds);

  // sharding
  const ServingReport& r = out.serving;
  uint64_t queries = 0;
  for (const EpochReport& e : r.epochs) {
    for (const PhaseStats* p : {&e.before, &e.during_migration, &e.after}) {
      queries += p->served + p->empty;
    }
  }
  const double replay_s = out.serve_s - out.serving_refine_s;
  json->Num("sharding.refine_s", out.serving_refine_s);
  json->Num("sharding.replay_s", replay_s);
  json->Num("sharding.replay_kqps", queries / 1e3 / std::max(replay_s, 1e-9));
  json->Num("sharding.queries", queries);
  json->Num("sharding.dual_read_queries", r.total_dual_read_queries);
  json->Num("sharding.migrated_records", r.total_migrated_records);
  json->Num("sharding.scratch_grow_events", r.scratch_grow_events);

  // self time per span name, over every span the benchmark records
  const std::map<std::string, double> self = tracer.SelfSeconds();
  for (const char* name :
       {"bench.run", "graph.ingest", "core.partition", "core.factory",
        "core.iteration", "core.set_budget", "sharding.serve",
        "bench.verify"}) {
    const auto it = self.find(name);
    json->Num(std::string("self.") + name + "_s",
              it == self.end() ? 0.0 : it->second);
  }
  json->Num("trace.spans", tracer.spans().size());
}

/// Writes the span list and one record per refinement iteration. BSP
/// iterations carry (measured ms, Σ/max work units, remote bytes) per
/// superstep — the inputs a CostModelConfig fit needs.
void WriteTrace(const std::string& dir, const Tracer& tracer,
                const Ledger& ledger) {
  std::ofstream spans(dir + "/spans.jsonl");
  for (size_t i = 0; i < tracer.spans().size(); ++i) {
    const Tracer::Span& s = tracer.spans()[i];
    JsonObject j;
    j.Num("id", static_cast<double>(i));
    j.Num("parent", s.parent);
    j.Str("name", s.name);
    j.Num("start_s", s.start_s);
    j.Num("end_s", s.end_s);
    j.Num("tag", static_cast<double>(s.tag));
    spans << j.str() << "\n";
  }
  std::ofstream iters(dir + "/iterations.jsonl");
  for (const IterationRecord& r : ledger.iterations) {
    JsonObject j;
    j.Num("instance", r.instance);
    j.Num("iteration", static_cast<double>(r.iteration));
    j.Num("ms", r.ms);
    j.Num("full_rebuild", r.stats.full_rebuild ? 1 : 0);
    j.Num("moved", static_cast<double>(r.stats.num_moved));
    j.Num("proposals", static_cast<double>(r.stats.num_proposals));
    j.Num("recomputed", static_cast<double>(r.stats.num_recomputed));
    j.Num("delta_records", static_cast<double>(r.stats.num_delta_records));
    std::string steps = "[";
    for (size_t s = r.superstep_begin; s < r.superstep_end; ++s) {
      const SuperstepStats& st = ledger.supersteps[s];
      JsonObject step;
      step.Str("label", st.label);
      step.Num("work_sum", static_cast<double>(st.TotalWork()));
      step.Num("work_max", static_cast<double>(st.MaxWork()));
      step.Num("remote_bytes", static_cast<double>(st.traffic.remote_bytes));
      step.Num("envelope_bytes", static_cast<double>(st.envelope_bytes));
      if (s != r.superstep_begin) steps += ',';
      steps += step.str();
    }
    j.Raw("supersteps", steps + "]");
    iters << j.str() << "\n";
  }
}

int Run(const std::string& workload, const std::string& dir, bool trace) {
  if (workload != kSocial && workload != kBsp && workload != kServing) {
    std::fprintf(stderr, "unknown workload %s\n", workload.c_str());
    return 1;
  }
  if (FileBytes(InputPath(dir, workload)) == 0) {
    std::fprintf(stderr, "missing input %s\n",
                 InputPath(dir, workload).c_str());
    return 1;
  }
  ThreadPool& pool = GlobalThreadPool();
  Tracer tracer(trace);
  Ledger ledger(&tracer);
  Checks checks;
  RunOutput out;
  const double calibration_before_ms = CalibrationMs();
  {
    ScopedSpan span(&tracer, "bench.run");
    if (workload == kSocial) {
      RunSocial(dir, &pool, &tracer, &ledger, &checks, &out);
    } else if (workload == kBsp) {
      RunBsp(dir, &pool, &tracer, &ledger, &checks, &out);
    } else {
      RunServing(dir, &tracer, &ledger, &checks, &out);
    }
  }
  const double peak_rss_mb = PeakRssMb();
  const double calibration_ms =
      (calibration_before_ms + CalibrationMs()) / 2.0;

  JsonObject json;
  json.Num("attempted", static_cast<double>(checks.attempted));
  json.Num("failed", static_cast<double>(checks.failed));
  json.Num("threads", static_cast<double>(pool.num_threads()));
  json.Num("calibration_ms", calibration_ms);
  json.Num("op_s", out.op_s);
  json.Num("solve_s", out.solve_s);
  json.Num("serve_s", out.serve_s);
  json.Num("fanout", out.fanout);
  json.Num("peak_rss_mb", peak_rss_mb);
  json.Num("serving_p99_end_t", out.serving.p99_end);
  json.Num("serving_p99_during_worst_t", out.serving.p99_during_worst);
  json.Num("migrated_mb", out.serving.total_migration_bytes / 1e6);
  if (trace) {
    AddLayerMetrics(out, ledger, tracer, &json);
    WriteTrace(dir, tracer, ledger);
  }
  std::printf("RESULT %s\n", json.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Result<Flags> parsed = Flags::Parse(argc, argv);
  if (!parsed.ok() || parsed.value().positional().empty()) {
    std::fprintf(stderr,
                 "usage: shpbench gen|run --workload=W --dir=D "
                 "[--seed=N] [--trace=0|1]\n");
    return 1;
  }
  const Flags& flags = parsed.value();
  const std::string command = flags.positional()[0];
  const std::string workload = flags.GetString("workload", "");
  const std::string dir = flags.GetString("dir", "");
  if (dir.empty()) {
    std::fprintf(stderr, "--dir is required\n");
    return 1;
  }
  if (command == "gen") {
    return Generate(workload, static_cast<uint64_t>(flags.GetInt("seed", 1)),
                    dir);
  }
  if (command == "run") {
    return Run(workload, dir, flags.GetBool("trace", false));
  }
  std::fprintf(stderr, "unknown command %s\n", command.c_str());
  return 1;
}
