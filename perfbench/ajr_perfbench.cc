// End-to-end benchmark program for the adaptive join engine (README.md).
//
// One process runs one workload for a fixed wall-clock budget and prints
// its metrics. The untraced run (--trace 0) reports the end-to-end metrics
// a user of the engine sees; the traced run (--trace 1) reports per-layer
// metrics, each taken from outside the layer around calls into its public
// surface:
//
//   workload  GenerateDmv                     catalog  Catalog::AnalyzeAll
//   optimize  Planner::Plan                   exec     PipelineExecutor::Execute
//                                                      + an ExecObserver
//   adaptive  an AdaptationPolicy decorator   storage  direct Index::Probe
//   runtime   QueryEngine::Submit / QueryHandle::Wait + its MetricsRegistry
//
// Every query is checked against a static-order (no-switch) serial run of
// the same query: row count always, an order-independent output checksum
// in an untimed pass. Serial runs must also reproduce the reference run's
// work units and decision counts exactly, traced or not.
//
// The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
// and the exit code is nonzero when any query failed or mismatched.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "adaptive/policy.h"
#include "catalog/catalog.h"
#include "common/metrics.h"
#include "exec/exec_observer.h"
#include "exec/pipeline_executor.h"
#include "optimize/planner.h"
#include "runtime/query_engine.h"
#include "storage/key_codec.h"
#include "workload/dmv.h"
#include "workload/templates.h"

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#ifndef AJR_PERFBENCH_BUILD_TYPE
#define AJR_PERFBENCH_BUILD_TYPE "unspecified"
#endif

namespace ajr {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Arguments

constexpr size_t kOwners = 100000;  ///< DMV scale of the paper's Table 1

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string git_sha = "unknown";

  /// The data set is always the paper's Table 1 DMV set (the generator's
  /// default seed): data drawn from another seed shifts every query of a
  /// mix at once, which no mix size averages out. The seed draws the query
  /// instances of the serial mixes; hot_shared's instances are fixed (see
  /// HotSet) and its seed draws only the order clients submit them in.
  uint64_t QuerySeed() const { return workload == "hot_shared" ? DmvConfig{}.seed : seed; }
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: ajr_perfbench --workload fig7_serial|fig11_serial|"
               "hot_shared --seed N --seconds S --trace 0|1 "
               "[--git-sha SHA]\n",
               msg);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      args.workload = v;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--git-sha") {
      args.git_sha = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload != "fig7_serial" && args.workload != "fig11_serial" &&
      args.workload != "hot_shared") {
    Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  if (!(args.seconds > 0)) Usage("--seconds must be positive");
  return args;
}

// ---------------------------------------------------------------------------
// Exact sample statistics and process counters

/// Linear-interpolated quantile of `v` (sorted in place), q in [0, 1].
double Quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(v, 0.5); }

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double CurrentRssMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0, resident = 0;
  const int n = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

// ---------------------------------------------------------------------------
// Host stamp: CPUs the process may run on, and how many of them actually
// deliver independent throughput (a spin loop on 1 thread vs on all).

size_t OnlineCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<size_t>(n) : 1;
}

volatile uint64_t g_spin_sink = 0;

double Spin(uint64_t iters) {
  const auto t0 = Clock::now();
  uint64_t x = iters;
  for (uint64_t i = 0; i < iters; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    x ^= x >> 29;
  }
  g_spin_sink = x;
  return SecondsBetween(t0, Clock::now());
}

/// n x (time of one spinning thread) / (wall time of n spinning threads):
/// about n on a host with n free cores, about 1 on a host with one.
double EffectiveCores(size_t n) {
  uint64_t iters = 1 << 20;
  while (Spin(iters) < 0.02) iters *= 2;  // ~20-40 ms per spin
  std::vector<double> ratios;
  for (int rep = 0; rep < 3; ++rep) {
    const double one = Spin(iters);
    const auto t0 = Clock::now();
    std::vector<std::thread> threads;
    for (size_t i = 0; i < n; ++i) threads.emplace_back([iters] { Spin(iters); });
    for (std::thread& t : threads) t.join();
    ratios.push_back(static_cast<double>(n) * one / SecondsBetween(t0, Clock::now()));
  }
  return Median(ratios);
}

/// Keeps the whole process on one CPU at a time and moves it to the next
/// allowed CPU on every Next(). The host's free capacity swings between
/// about one and three cores with its neighbours' load, and its CPUs are
/// not equally fast at any moment: one CPU at a time keeps the parallelism
/// a run sees fixed, and rotating spreads every run over all of them.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
    }
  }

  size_t size() const { return cpus_.size(); }

  /// Pins every thread of the process (threads started later inherit the
  /// pinning of the thread that starts them) to the next CPU.
  void Next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    std::error_code ec;
    for (const auto& task : std::filesystem::directory_iterator("/proc/self/task", ec)) {
      const pid_t tid = static_cast<pid_t>(std::atoi(task.path().filename().c_str()));
      if (tid > 0) sched_setaffinity(tid, sizeof(one), &one);
    }
  }

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
};

/// How often a timed phase moves to the next CPU.
constexpr auto kRotatePeriod = std::chrono::milliseconds(500);

// ---------------------------------------------------------------------------
// Output checksum: order-independent sum of per-row hashes.

uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

struct Checksum {
  uint64_t rows = 0;
  uint64_t sum = 0;
  void Add(const Row& row) {
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (const Value& v : row) h = Mix64(h ^ static_cast<uint64_t>(v.Hash()));
    sum += Mix64(h);
    ++rows;
  }
  bool operator==(const Checksum& o) const { return rows == o.rows && sum == o.sum; }
};

// ---------------------------------------------------------------------------
// Tracing from outside the executor: an ExecObserver that stamps every hook
// and attributes the interval since the previous stamp to the phase of the
// hook that ends it, and a policy decorator that times Decide().

/// Cheap timestamps for the per-hook stamps: the TSC on x86-64 (about half
/// the cost of a steady_clock read here), steady_clock ticks elsewhere.
uint64_t Ticks() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return static_cast<uint64_t>(Clock::now().time_since_epoch().count());
#endif
}

/// Nanoseconds per Ticks() unit, measured against steady_clock.
double NsPerTick() {
  const auto t0 = Clock::now();
  const uint64_t k0 = Ticks();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const uint64_t k1 = Ticks();
  const double ns = std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  return k1 > k0 ? ns / static_cast<double>(k1 - k0) : 1.0;
}

enum Phase { kDriving, kProbe, kEmit, kCheck, kNumPhases };

class Tracer : public ExecObserver {
 public:
  /// Bracket Execute(); the first interval starts at BeginQuery().
  void BeginQuery() { begin_ = last_ = Ticks(); }
  void EndQuery() {
    wall_ticks += Ticks() - begin_;
    ++queries;
  }

  void OnDrivingRow(size_t, Rid, const ScanPosition&) override { Mark(kDriving); }
  void OnProbe(size_t, size_t, uint64_t fetched, uint64_t, uint64_t out) override {
    Mark(kProbe);
    ++probes;
    probe_fetched += fetched;
    probe_out += out;
  }
  void OnEmit(const std::vector<Rid>&) override { Mark(kEmit); }
  void OnDepleted(size_t) override {
    Mark(kCheck);
    ++depleted;
  }
  void OnAdaptation(const AdaptationEvent& event) override {
    Mark(kCheck);
    if (event.kind == AdaptationEvent::Kind::kDrivingSwitch) {
      ++driving_switches;
    } else {
      ++inner_reorders;
    }
  }

  /// Decide() brackets: the host's snapshot assembly before the call and
  /// the call itself are both adaptation-check time.
  void DecideBegin() { Mark(kCheck); }
  void DecideEnd(bool changed) {
    const uint64_t before = last_;
    Mark(kCheck);
    decide_ticks += last_ - before;
    ++decisions;
    if (changed) ++decisions_changed;
  }

  /// Execute wall time of the traced queries, and its split by phase; the
  /// remainder (after the last hook of each query) is unattributed.
  uint64_t wall_ticks = 0;
  uint64_t phase_ticks[kNumPhases] = {0, 0, 0, 0};
  uint64_t decide_ticks = 0;
  uint64_t queries = 0;
  uint64_t probes = 0, probe_fetched = 0, probe_out = 0;
  uint64_t depleted = 0, inner_reorders = 0, driving_switches = 0;
  uint64_t decisions = 0, decisions_changed = 0;

 private:
  void Mark(Phase phase) {
    const uint64_t now = Ticks();
    phase_ticks[phase] += now - last_;
    last_ = now;
  }

  uint64_t begin_ = 0;
  uint64_t last_ = 0;
};

/// Wraps the policy the executor would have built and times each Decide().
/// Mirrors the wrapped policy's stats() so snapshot epochs and
/// ExecStats::policy_* are exactly what the undecorated run produces.
class TimedPolicy : public AdaptationPolicy {
 public:
  TimedPolicy(std::unique_ptr<AdaptationPolicy> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  const char* name() const override { return inner_->name(); }
  bool adapts_inners() const override { return inner_->adapts_inners(); }
  bool adapts_driving() const override { return inner_->adapts_driving(); }
  PolicyDecision Decide(const PolicySnapshot& snapshot) override {
    tracer_->DecideBegin();
    PolicyDecision decision = inner_->Decide(snapshot);
    tracer_->DecideEnd(decision.changed());
    stats_ = inner_->stats();
    return decision;
  }

 private:
  std::unique_ptr<AdaptationPolicy> inner_;
  Tracer* tracer_;
};

// ---------------------------------------------------------------------------
// Data set, queries, and the static-order reference

AdaptiveOptions Adaptive() { return AdaptiveOptions{}; }  // rank, c=10, w=1000

AdaptiveOptions Static() {
  AdaptiveOptions o;
  o.reorder_inners = false;
  o.reorder_driving = false;
  return o;
}

struct Dataset {
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<Planner> planner;
  double load_s = 0;     ///< median GenerateDmv(analyze=false) wall time
  double analyze_s = 0;  ///< median Catalog::AnalyzeAll wall time
  double setup_s = 0;    ///< median total
  double rss_mb = 0;     ///< resident set after the kept set-up
};

constexpr int kSetupReps = 3;

/// Builds the DMV data set kSetupReps times (keeping the last) so set-up
/// time is a median, not one noisy sample.
Dataset Setup(CpuRotation* rotation) {
  Dataset ds;
  std::vector<double> load, analyze, total;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    rotation->Next();
    ds.planner.reset();
    ds.catalog.reset();
    const auto t0 = Clock::now();
    auto catalog = std::make_unique<Catalog>();
    DmvConfig config;
    config.num_owners = kOwners;
    config.analyze = false;
    auto cards = GenerateDmv(catalog.get(), config);
    if (!cards.ok()) {
      std::fprintf(stderr, "GenerateDmv failed: %s\n", cards.status().ToString().c_str());
      std::exit(1);
    }
    const auto t1 = Clock::now();
    Status st = catalog->AnalyzeAll();
    if (!st.ok()) {
      std::fprintf(stderr, "AnalyzeAll failed: %s\n", st.ToString().c_str());
      std::exit(1);
    }
    PlannerOptions popts;
    popts.stats_tier = StatsTier::kMinimal;  // the paper's Sec 5 optimizer
    ds.planner = std::make_unique<Planner>(catalog.get(), popts);
    const auto t2 = Clock::now();
    ds.catalog = std::move(catalog);
    load.push_back(SecondsBetween(t0, t1));
    analyze.push_back(SecondsBetween(t1, t2));
    total.push_back(SecondsBetween(t0, t2));
  }
  ds.load_s = Median(load);
  ds.analyze_s = Median(analyze);
  ds.setup_s = Median(total);
  ds.rss_mb = CurrentRssMb();
  return ds;
}

/// One distinct query with its reference results.
struct QueryRef {
  JoinQuery query;
  uint64_t rows = 0;            ///< static-order row count
  Checksum checksum;            ///< static-order output checksum
  uint64_t static_wu = 0;
  ExecStats adaptive;           ///< serial adaptive run (deterministic)
};

StatusOr<ExecStats> ExecutePlan(const PipelinePlan& plan, const AdaptiveOptions& options,
                                const RowSink& sink) {
  PipelineExecutor exec(&plan, options);
  return exec.Execute(sink);
}

/// Failure bookkeeping shared by all phases.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Fail(const std::string& what) {
    ++failed;
    if (failed <= 10) std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
};

/// Runs the static-order reference and the serial adaptive run of every
/// query with checksum sinks and compares them.
std::vector<QueryRef> BuildReference(const Planner& planner,
                                     const std::vector<JoinQuery>& queries, Tally* tally) {
  std::vector<QueryRef> refs;
  for (const JoinQuery& q : queries) {
    QueryRef ref;
    ref.query = q;
    ++tally->attempted;
    auto plan = planner.Plan(q);
    if (!plan.ok()) {
      tally->Fail(q.name + ": plan: " + plan.status().ToString());
      continue;
    }
    Checksum adaptive_sum;
    auto st = ExecutePlan(**plan, Static(), [&ref](const Row& r) { ref.checksum.Add(r); });
    auto ad = ExecutePlan(**plan, Adaptive(), [&adaptive_sum](const Row& r) { adaptive_sum.Add(r); });
    if (!st.ok() || !ad.ok()) {
      tally->Fail(q.name + ": reference execution failed");
      continue;
    }
    ref.rows = st->rows_out;
    ref.static_wu = st->work_units;
    ref.adaptive = *ad;
    if (!(adaptive_sum == ref.checksum) || ad->rows_out != ref.rows) {
      tally->Fail(q.name + ": adaptive output differs from static order");
    }
    refs.push_back(std::move(ref));
  }
  return refs;
}

std::vector<JoinQuery> Unwrap(StatusOr<std::vector<JoinQuery>> qs) {
  if (!qs.ok()) {
    std::fprintf(stderr, "query generation failed: %s\n", qs.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(qs).value();
}

/// The hot set: the first two T1 and T3 instances. It is fixed (see
/// QuerySeed) because four instances are too few to average out how much
/// each costs: the seed varies only the order clients submit them in.
std::vector<JoinQuery> HotSet(const DmvQueryGenerator& gen) {
  std::vector<JoinQuery> hot;
  for (int tmpl : {1, 3}) {
    for (size_t variant : {0, 1}) {
      auto q = gen.Generate(tmpl, variant);
      if (!q.ok()) {
        std::fprintf(stderr, "hot set: %s\n", q.status().ToString().c_str());
        std::exit(1);
      }
      hot.push_back(*q);
    }
  }
  return hot;
}

// ---------------------------------------------------------------------------
// Metrics output

struct Metric {
  std::string name;
  double value;
  std::string unit;
  size_t samples;  ///< sample count behind the value (printed, not emitted)
};

struct HostStamp {
  size_t nproc = 0;
  double effective_cores = 0;
  size_t rotated_cpus = 0;  ///< CPUs the run rotates over, one at a time
};

void PrintResult(const Args& args, const HostStamp& host,
                 const std::vector<Metric>& metrics, const Tally& tally) {
  std::printf("host: nproc=%zu effective_cores=%.2f rotated_cpus=%zu git_sha=%s "
              "build_type=%s seed=%llu workload=%s trace=%d owners=%zu\n",
              host.nproc, host.effective_cores, host.rotated_cpus, args.git_sha.c_str(),
              AJR_PERFBENCH_BUILD_TYPE,
              static_cast<unsigned long long>(args.seed), args.workload.c_str(),
              args.trace ? 1 : 0, kOwners);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6f %-8s n=%zu\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.samples);
  }
  std::printf("{\"host\": {\"nproc\": %zu, \"effective_cores\": %.3f, "
              "\"rotated_cpus\": %zu, \"git_sha\": \"%s\", \"build_type\": \"%s\", "
              "\"seed\": %llu, \"workload\": \"%s\", \"trace\": %d}}\n",
              host.nproc, host.effective_cores, host.rotated_cpus, args.git_sha.c_str(),
              AJR_PERFBENCH_BUILD_TYPE,
              static_cast<unsigned long long>(args.seed), args.workload.c_str(),
              args.trace ? 1 : 0);
  std::string json = "{\"correct\": ";
  json += tally.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Timed phases

/// What a timed phase measured; the serial and engine runners fill the
/// parts that apply to them.
struct PhaseResult {
  std::vector<double> latency_s;  ///< per query, as the client sees it
  double wall_s = 0;              ///< whole phase
  double cpu_s = 0;               ///< process user+sys during the phase
  uint64_t work_units = 0;
  ExecStats probe_counters;       ///< summed ExecStats probe/parallel/share counters
  double exec_wall_s = 0;         ///< sum of Execute wall (serial) / ExecStats wall (engine)
  // Traced serial passes only.
  Tracer tracer;
  std::vector<double> plan_us;
  /// Serial runs: samples per distinct query (index into the query list).
  struct QuerySamples {
    std::vector<double> latency_s, cpu_s, exec_s;
  };
  std::map<size_t, QuerySamples> untraced;
  std::map<size_t, std::vector<double>> traced_exec_s;
};

void AddCounters(ExecStats* sum, const ExecStats& s) {
  sum->probe_cache_hits += s.probe_cache_hits;
  sum->probe_cache_misses += s.probe_cache_misses;
  sum->probe_batches += s.probe_batches;
  sum->probe_batch_keys += s.probe_batch_keys;
  sum->probe_descents_saved += s.probe_descents_saved;
  sum->policy_decisions += s.policy_decisions;
  sum->inner_reorders += s.inner_reorders;
  sum->driving_switches += s.driving_switches;
  sum->morsels += s.morsels;
  sum->monitor_folds += s.monitor_folds;
}

/// Serial closed loop from one thread: Plan + Execute per query, cycling
/// through a seeded shuffle of the query list until `seconds` pass. With
/// `trace`, every query runs twice back to back, untraced and traced, the
/// first of the two alternating from pass to pass.
PhaseResult RunSerial(const Planner& planner, const std::vector<QueryRef>& refs,
                      const Args& args, CpuRotation* rotation, Tally* tally) {
  PhaseResult res;
  std::vector<size_t> order(refs.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::mt19937_64 rng(args.seed ^ 0x5eedULL);
  std::shuffle(order.begin(), order.end(), rng);

  auto run_one = [&](size_t qi, bool traced) {
    const QueryRef& ref = refs[qi];
    ++tally->attempted;
    const double cpu_start = ThreadCpuSeconds();
    const auto t0 = Clock::now();
    auto plan = planner.Plan(ref.query);
    const auto t1 = Clock::now();
    if (!plan.ok()) {
      tally->Fail(ref.query.name + ": plan: " + plan.status().ToString());
      return;
    }
    PipelineExecutor exec(plan->get(), Adaptive());
    if (traced) {
      exec.set_observer(&res.tracer);
      exec.set_policy(std::make_unique<TimedPolicy>(MakePolicy(Adaptive()), &res.tracer));
    }
    const auto t2 = Clock::now();
    if (traced) res.tracer.BeginQuery();
    auto stats = exec.Execute(nullptr);
    const auto t3 = Clock::now();
    if (traced) res.tracer.EndQuery();
    if (!stats.ok()) {
      tally->Fail(ref.query.name + ": " + stats.status().ToString());
      return;
    }
    const ExecStats& a = ref.adaptive;
    if (stats->rows_out != ref.rows) {
      tally->Fail(ref.query.name + ": row count differs from static order");
    } else if (stats->work_units != a.work_units ||
               stats->policy_decisions != a.policy_decisions ||
               stats->inner_reorders != a.inner_reorders ||
               stats->driving_switches != a.driving_switches) {
      tally->Fail(ref.query.name + (traced ? " (traced)" : "") +
                  ": work units or decisions differ from the reference run");
    }
    const double exec_s = SecondsBetween(t2, t3);
    if (traced) {  // traced runs feed only the per-layer metrics
      res.plan_us.push_back(1e6 * SecondsBetween(t0, t1));
      res.traced_exec_s[qi].push_back(exec_s);
      return;
    }
    PhaseResult::QuerySamples& q = res.untraced[qi];
    q.latency_s.push_back(SecondsBetween(t0, t3));
    q.cpu_s.push_back(ThreadCpuSeconds() - cpu_start);
    q.exec_s.push_back(exec_s);
    res.latency_s.push_back(SecondsBetween(t0, t3));
    res.exec_wall_s += exec_s;
    res.work_units += stats->work_units;
    AddCounters(&res.probe_counters, *stats);
  };

  const double cpu0 = CpuSeconds();
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(args.seconds);
  auto next_rotation = start + kRotatePeriod;
  for (size_t pass = 0; Clock::now() < deadline; ++pass) {
    for (size_t qi : order) {
      const auto now = Clock::now();
      if (now >= deadline) break;
      if (now >= next_rotation) {
        rotation->Next();
        next_rotation = now + kRotatePeriod;
      }
      if (!args.trace) {
        run_one(qi, false);
      } else {
        run_one(qi, pass % 2 == 1);
        run_one(qi, pass % 2 == 0);
      }
    }
  }
  res.wall_s = SecondsBetween(start, Clock::now());
  res.cpu_s = CpuSeconds() - cpu0;
  return res;
}

constexpr size_t kHotClients = 4;  ///< queries kept in flight

/// How hot_shared submits a query: two workers per query, driving scans and
/// probe results shared with the other queries in flight.
QuerySpec HotSpec(const QueryRef& ref) {
  QuerySpec spec;
  spec.query = ref.query;
  spec.adaptive = Adaptive();
  spec.dop = 2;
  spec.share_scan = true;
  spec.share_cache = true;
  return spec;
}

/// Engine closed loop: kHotClients client threads, each submitting its next
/// hot-set query (seeded draw) as soon as its previous one completes.
PhaseResult RunEngine(QueryEngine* engine, const std::vector<QueryRef>& refs,
                      const Args& args, CpuRotation* rotation, Tally* tally) {
  struct Client {
    std::vector<double> latency_s;
    std::vector<std::string> failures;
    uint64_t attempted = 0;
    uint64_t work_units = 0;
    double exec_wall_s = 0;
    ExecStats counters;
  };
  std::vector<Client> clients(kHotClients);
  engine->metrics().ResetAll();
  const double cpu0 = CpuSeconds();
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(args.seconds);
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kHotClients; ++c) {
      threads.emplace_back([&, c] {
        Client& me = clients[c];
        std::mt19937_64 rng(args.seed * 1000003ULL + c);
        while (Clock::now() < deadline) {
          const QueryRef& ref = refs[rng() % refs.size()];
          ++me.attempted;
          const auto t0 = Clock::now();
          auto handle = engine->Submit(HotSpec(ref));
          if (!handle.ok()) {
            me.failures.push_back(ref.query.name + ": submit: " + handle.status().ToString());
            continue;
          }
          const QueryResult& result = handle->Wait();
          me.latency_s.push_back(SecondsBetween(t0, Clock::now()));
          if (!result.status.ok()) {
            me.failures.push_back(ref.query.name + ": " + result.status.ToString());
          } else if (result.stats.rows_out != ref.rows) {
            me.failures.push_back(ref.query.name + ": row count differs from static order");
          }
          me.work_units += result.stats.work_units;
          me.exec_wall_s += result.stats.wall_seconds;
          AddCounters(&me.counters, result.stats);
        }
      });
    }
    for (auto t = start + kRotatePeriod; t < deadline; t += kRotatePeriod) {
      std::this_thread::sleep_until(t);
      rotation->Next();
    }
    for (std::thread& t : threads) t.join();
  }
  PhaseResult res;
  res.wall_s = SecondsBetween(start, Clock::now());
  res.cpu_s = CpuSeconds() - cpu0;
  for (Client& c : clients) {
    tally->attempted += c.attempted;
    for (const std::string& f : c.failures) tally->Fail(f);
    res.latency_s.insert(res.latency_s.end(), c.latency_s.begin(), c.latency_s.end());
    res.work_units += c.work_units;
    res.exec_wall_s += c.exec_wall_s;
    AddCounters(&res.probe_counters, c.counters);
  }
  return res;
}

// ---------------------------------------------------------------------------
// Per-layer measurements that need their own passes

/// Direct point probes against every index the query set probes through,
/// with keys read from the joining column of the other table.
double StorageProbeNs(const Planner& planner, const std::vector<QueryRef>& refs,
                      uint64_t seed) {
  struct Target {
    const Index* index;
    const TableEntry* source;
    size_t source_col;
  };
  std::vector<Target> targets;
  for (const QueryRef& ref : refs) {
    auto plan = planner.Plan(ref.query);
    if (!plan.ok()) continue;
    const PipelinePlan& p = **plan;
    for (size_t t = 0; t < p.access.size(); ++t) {
      for (const JoinEdge& e : p.query.edges) {
        if (!e.Touches(t)) continue;
        const IndexInfo* info = p.access[t].probe_index_by_edge[e.edge_id];
        if (info == nullptr) continue;
        const size_t other = e.Other(t);
        auto col = p.entries[other]->schema().ColumnIndex(e.ColumnOn(other));
        if (!col.ok()) continue;
        Target target{info->ProbeIndex(Adaptive().index_backend), p.entries[other], *col};
        bool seen = false;
        for (const Target& x : targets) {
          seen |= x.index == target.index && x.source == target.source &&
                  x.source_col == target.source_col;
        }
        if (!seen) targets.push_back(target);
      }
    }
  }
  constexpr size_t kKeys = 8192;
  std::mt19937_64 rng(seed ^ 0x9a0beULL);
  double total_ns = 0;
  uint64_t total_probes = 0;
  std::vector<Rid> out;
  for (const Target& t : targets) {
    const size_t n = t.source->table().num_rows();
    if (n == 0) continue;
    std::vector<IndexKey> keys;
    for (size_t i = 0; i < kKeys; ++i) {
      keys.push_back(EncodeKeyFromCell(t.source->table().View(rng() % n), t.source_col));
    }
    std::vector<double> per_probe;
    for (int rep = 0; rep < 3; ++rep) {
      WorkCounter wc;
      const auto t0 = Clock::now();
      for (const IndexKey& k : keys) {
        out.clear();
        t.index->Probe(k, &wc, &out);
      }
      per_probe.push_back(std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
                          static_cast<double>(kKeys));
    }
    total_ns += Median(per_probe) * kKeys;
    total_probes += kKeys;
  }
  return Ratio(total_ns, static_cast<double>(total_probes));
}

/// Share of queries whose adaptive Execute is >5% slower than the static
/// order's (best of 2 interleaved timings each, no sink), over the first
/// 300 queries of the list.
double DegradedFrac(const Planner& planner, const std::vector<QueryRef>& refs) {
  size_t degraded = 0, timed = 0;
  for (size_t i = 0; i < refs.size() && i < 300; ++i) {
    const QueryRef& ref = refs[i];
    auto plan = planner.Plan(ref.query);
    if (!plan.ok()) continue;
    double best_static = 1e300, best_adaptive = 1e300;
    for (int rep = 0; rep < 2; ++rep) {
      auto s = ExecutePlan(**plan, Static(), nullptr);
      auto a = ExecutePlan(**plan, Adaptive(), nullptr);
      if (!s.ok() || !a.ok()) break;
      best_static = std::min(best_static, s->wall_seconds);
      best_adaptive = std::min(best_adaptive, a->wall_seconds);
    }
    if (best_static >= 1e300 || best_adaptive >= 1e300) continue;
    ++timed;
    if (best_adaptive > 1.05 * best_static) ++degraded;
  }
  return Ratio(static_cast<double>(degraded), static_cast<double>(timed));
}

/// Traced/untraced Execute time over the queries run both ways (per-query
/// medians, so the mix of queries cannot bias the ratio).
double TraceOverhead(const PhaseResult& r) {
  double traced = 0, untraced = 0;
  for (const auto& [qi, t] : r.traced_exec_s) {
    auto u = r.untraced.find(qi);
    if (u == r.untraced.end()) continue;
    traced += Median(t);
    untraced += Median(u->second.exec_s);
  }
  return untraced > 0 ? traced / untraced - 1.0 : 0.0;
}

// ---------------------------------------------------------------------------

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  HostStamp host;
  host.nproc = OnlineCpus();
  host.effective_cores = EffectiveCores(host.nproc);
  CpuRotation rotation;
  host.rotated_cpus = rotation.size();

  Tally tally;
  Dataset ds = Setup(&rotation);
  const bool engine_workload = args.workload == "hot_shared";
  DmvQueryGenerator gen(ds.catalog.get(), args.QuerySeed());
  std::vector<JoinQuery> queries;
  if (args.workload == "fig7_serial") {
    // 1000 queries per mix (the paper: 300 for Fig 7, 100 for Fig 11): the
    // mean and the p99 then rest on many queries, not on one seed's few
    // heaviest, and 10 distinct queries lie beyond the p99.
    queries = Unwrap(gen.GenerateMix(200));
  } else if (args.workload == "fig11_serial") {
    queries = Unwrap(gen.GenerateSixTableMix(1000));
  } else {
    queries = HotSet(gen);
  }
  std::vector<QueryRef> refs = BuildReference(*ds.planner, queries, &tally);
  if (refs.empty()) {
    std::fprintf(stderr, "no query survived the reference pass\n");
    return 1;
  }

  std::unique_ptr<MetricsRegistry> registry;
  std::unique_ptr<QueryEngine> engine;
  if (engine_workload) {
    registry = std::make_unique<MetricsRegistry>();
    QueryEngineOptions eopts;
    eopts.num_workers = std::max<size_t>(1, host.nproc - 1);
    eopts.planner.stats_tier = StatsTier::kMinimal;
    eopts.metrics = registry.get();
    engine = std::make_unique<QueryEngine>(ds.catalog.get(), eopts);
    // Untimed checksum pass through the engine (also its warm-up).
    for (const QueryRef& ref : refs) {
      Checksum sum;
      QuerySpec spec = HotSpec(ref);
      spec.sink = [&sum](const Row& r) { sum.Add(r); };
      ++tally.attempted;
      auto handle = engine->Submit(std::move(spec));
      if (!handle.ok() || !handle->Wait().status.ok()) {
        tally.Fail(ref.query.name + ": engine checksum pass failed");
      } else if (!(sum == ref.checksum)) {
        tally.Fail(ref.query.name + ": engine output differs from static order");
      }
    }
  }

  PhaseResult run = engine_workload ? RunEngine(engine.get(), refs, args, &rotation, &tally)
                                    : RunSerial(*ds.planner, refs, args, &rotation, &tally);
  const double n = static_cast<double>(run.latency_s.size());
  std::vector<Metric> metrics;
  auto add = [&metrics](const char* name, double value, const char* unit, size_t samples) {
    metrics.push_back({name, value, unit, samples});
  };
  if (!args.trace) {
    const size_t ns = run.latency_s.size();
    std::vector<double> lat_ms;
    double qps = 0, cpu_ms = 0, wu = 0;
    if (engine_workload) {
      for (double s : run.latency_s) lat_ms.push_back(1e3 * s);
      qps = Ratio(n, run.wall_s);
      cpu_ms = Ratio(1e3 * run.cpu_s, n);
      wu = Ratio(static_cast<double>(run.work_units), n);
    } else {
      // Serial: a query's latency and CPU time are the medians over its
      // repeats in the run (host interference hits single executions), and
      // the figures are taken over the distinct queries.
      double lat_sum = 0, cpu_sum = 0, wu_sum = 0;
      for (const auto& [qi, q] : run.untraced) {
        lat_ms.push_back(1e3 * Median(q.latency_s));
        lat_sum += lat_ms.back();
        cpu_sum += 1e3 * Median(q.cpu_s);
        wu_sum += static_cast<double>(refs[qi].adaptive.work_units);  // checked equal
      }
      const double distinct = static_cast<double>(lat_ms.size());
      qps = Ratio(1e3 * distinct, lat_sum);
      cpu_ms = Ratio(cpu_sum, distinct);
      wu = Ratio(wu_sum, distinct);
    }
    const size_t samples = lat_ms.size();
    if (samples < 1000) {
      std::fprintf(stderr, "warning: %zu latency samples; fewer than 10 lie beyond p99\n",
                   samples);
    }
    add("setup_s", ds.setup_s, "s", kSetupReps);
    add("qps", qps, "1/s", samples);
    add("latency_p50_ms", Quantile(lat_ms, 0.50), "ms", samples);
    add("latency_p99_ms", Quantile(lat_ms, 0.99), "ms", samples);
    add("cpu_ms_per_query", cpu_ms, "ms", samples);
    add("work_units_per_query", wu, "wu", ns);
    add("peak_rss_mb", PeakRssMb(), "MB", 1);
    add("query_ok_frac",
        1.0 - Ratio(static_cast<double>(tally.failed), static_cast<double>(tally.attempted)),
        "ratio", tally.attempted);
  } else {
    const Tracer& tr = run.tracer;
    const double ns_per_tick = NsPerTick();
    const double traced_ticks = static_cast<double>(tr.wall_ticks);
    const double tq = static_cast<double>(tr.queries);
    const size_t nq = tr.queries;
    const ExecStats& c = run.probe_counters;
    double static_wu = 0, adaptive_wu = 0;
    for (const QueryRef& ref : refs) {
      static_wu += static_cast<double>(ref.static_wu);
      adaptive_wu += static_cast<double>(ref.adaptive.work_units);
    }
    double attributed = 0;
    for (uint64_t p : tr.phase_ticks) attributed += static_cast<double>(p);
    auto phase = [&tr](Phase p) { return static_cast<double>(tr.phase_ticks[p]); };

    add("workload.load_s", ds.load_s, "s", kSetupReps);
    add("catalog.analyze_s", ds.analyze_s, "s", kSetupReps);
    add("catalog.rss_mb", ds.rss_mb, "MB", 1);
    std::vector<double> plan_us = run.plan_us;
    if (engine_workload) {  // the engine plans internally: time Plan directly
      for (int rep = 0; rep < 50; ++rep) {
        for (const QueryRef& ref : refs) {
          const auto t0 = Clock::now();
          auto plan = ds.planner->Plan(ref.query);
          plan_us.push_back(1e6 * SecondsBetween(t0, Clock::now()));
        }
      }
    }
    add("optimize.plan_us_p50", Median(plan_us), "us", plan_us.size());
    // Engine queries overlap in time, so their Execute walls do not add up:
    // measured on the serial workloads only.
    add("exec.ns_per_work_unit",
        engine_workload ? 0.0
                        : Ratio(1e9 * run.exec_wall_s, static_cast<double>(run.work_units)),
        "ns/wu", engine_workload ? 0 : run.latency_s.size());
    add("exec.driving_self_frac", Ratio(phase(kDriving), traced_ticks), "ratio", nq);
    add("exec.probe_self_frac", Ratio(phase(kProbe), traced_ticks), "ratio", nq);
    add("exec.emit_self_frac", Ratio(phase(kEmit), traced_ticks), "ratio", nq);
    add("exec.check_self_frac", Ratio(phase(kCheck), traced_ticks), "ratio", nq);
    add("exec.unattributed_frac", traced_ticks > 0 ? 1.0 - attributed / traced_ticks : 0.0,
        "ratio", nq);
    add("exec.probe_ns", ns_per_tick * Ratio(phase(kProbe), static_cast<double>(tr.probes)),
        "ns", tr.probes);
    add("exec.probes_per_query", Ratio(static_cast<double>(tr.probes), tq), "count", nq);
    add("exec.fetched_per_probe",
        Ratio(static_cast<double>(tr.probe_fetched), static_cast<double>(tr.probes)),
        "rows", tr.probes);
    add("exec.probe_yield",
        Ratio(static_cast<double>(tr.probe_out), static_cast<double>(tr.probe_fetched)),
        "ratio", tr.probes);
    add("exec.probe_cache_hit_rate",
        Ratio(static_cast<double>(c.probe_cache_hits),
              static_cast<double>(c.probe_cache_hits + c.probe_cache_misses)),
        "ratio", run.latency_s.size());
    add("exec.probe_keys_per_batch",
        Ratio(static_cast<double>(c.probe_batch_keys), static_cast<double>(c.probe_batches)),
        "count", c.probe_batches);
    add("exec.descents_saved_frac",
        Ratio(static_cast<double>(c.probe_descents_saved),
              static_cast<double>(c.probe_batch_keys)),
        "ratio", c.probe_batch_keys);
    add("storage.probe_ns", StorageProbeNs(*ds.planner, refs, args.seed), "ns", 3);
    add("adaptive.decide_ns",
        ns_per_tick * Ratio(static_cast<double>(tr.decide_ticks),
                            static_cast<double>(tr.decisions)),
        "ns", tr.decisions);
    add("adaptive.decisions_per_query",
        engine_workload ? Ratio(static_cast<double>(c.policy_decisions), n)
                        : Ratio(static_cast<double>(tr.decisions), tq),
        "count", nq);
    add("adaptive.change_rate",
        Ratio(static_cast<double>(tr.decisions_changed), static_cast<double>(tr.decisions)),
        "ratio", tr.decisions);
    add("adaptive.depleted_per_query", Ratio(static_cast<double>(tr.depleted), tq), "count",
        nq);
    add("adaptive.inner_reorders_per_query",
        engine_workload ? Ratio(static_cast<double>(c.inner_reorders), n)
                        : Ratio(static_cast<double>(tr.inner_reorders), tq),
        "count", nq);
    add("adaptive.driving_switches_per_query",
        engine_workload ? Ratio(static_cast<double>(c.driving_switches), n)
                        : Ratio(static_cast<double>(tr.driving_switches), tq),
        "count", nq);
    add("adaptive.wu_vs_static", Ratio(adaptive_wu, static_wu), "ratio", refs.size());
    add("adaptive.degraded_frac", DegradedFrac(*ds.planner, refs), "ratio",
        std::min<size_t>(refs.size(), 300));

    // Runtime layer: engine runs only (zero on the serial workloads, which
    // bypass the runtime).
    double queue_wait_ms = 0, exec_frac = 0, parallel_wu = 0;
    double scan_passes = 0, attaches = 0, shared_hit = 0, conflicts = 0;
    double morsels = 0, folds = 0;
    if (engine_workload) {
      const MetricsRegistry& m = engine->metrics();
      auto counter = [&m](const char* name) -> double {
        const Counter* ctr = m.FindCounter(name);
        return ctr != nullptr ? static_cast<double>(ctr->value()) : 0.0;
      };
      const Histogram* wait = m.FindHistogram("engine.queue_wait_us");
      queue_wait_ms = wait != nullptr ? wait->Quantile(0.5) / 1e3 : 0;
      double client_s = 0;
      for (double s : run.latency_s) client_s += s;
      exec_frac = Ratio(run.exec_wall_s, client_s);
      // Serial work of the same query sequence: mean serial adaptive work
      // per hot query times the queries run (draws are uniform over refs).
      parallel_wu = Ratio(static_cast<double>(run.work_units) / n,
                          adaptive_wu / static_cast<double>(refs.size()));
      morsels = Ratio(counter("exec.parallel_morsels"), n);
      folds = Ratio(counter("exec.parallel_monitor_folds"), n);
      scan_passes = Ratio(counter("exec.shared_scan_morsels_produced"),
                          counter("exec.shared_scan_morsels_consumed"));
      attaches = Ratio(counter("exec.shared_scan_attaches"), n);
      const double hits = counter("exec.probe_cache_shared_hits");
      shared_hit = Ratio(hits, hits + counter("exec.probe_cache_shared_misses"));
      conflicts = Ratio(counter("exec.probe_cache_shared_stripe_conflicts"), n);
    }
    const size_t en = engine_workload ? run.latency_s.size() : 0;
    add("runtime.queue_wait_ms_p50", queue_wait_ms, "ms", en);
    add("runtime.exec_frac", exec_frac, "ratio", en);
    add("runtime.parallel_wu_ratio", parallel_wu, "ratio", en);
    add("runtime.morsels_per_query", morsels, "count", en);
    add("runtime.monitor_folds_per_query", folds, "count", en);
    add("runtime.scan_passes_per_query", scan_passes, "ratio", en);
    add("runtime.shared_attaches_per_query", attaches, "count", en);
    add("runtime.shared_cache_hit_rate", shared_hit, "ratio", en);
    add("runtime.stripe_conflicts_per_query", conflicts, "count", en);
    add("trace.overhead_frac", engine_workload ? 0.0 : TraceOverhead(run), "ratio", nq);
  }
  if (engine != nullptr) engine->Shutdown();
  PrintResult(args, host, metrics, tally);
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace ajr

int main(int argc, char** argv) { return ajr::perfbench::Main(argc, argv); }
