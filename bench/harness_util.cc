#include "bench/harness_util.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#ifdef __linux__
#include <sched.h>
#endif

namespace ajr {
namespace bench {

HarnessFlags HarnessFlags::Parse(int argc, char** argv) {
  HarnessFlags flags;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      size_t len = std::strlen(prefix);
      return std::strncmp(arg, prefix, len) == 0 ? arg + len : nullptr;
    };
    if (const char* v = value("--owners=")) {
      flags.owners = static_cast<size_t>(std::strtoull(v, nullptr, 10));
    } else if (const char* v = value("--per-template=")) {
      flags.per_template = static_cast<size_t>(std::strtoull(v, nullptr, 10));
    } else if (const char* v = value("--reps=")) {
      flags.reps = static_cast<size_t>(std::strtoull(v, nullptr, 10));
    } else if (const char* v = value("--seed=")) {
      flags.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--dop=")) {
      flags.dop = std::max<size_t>(1, std::strtoull(v, nullptr, 10));
    } else if (std::strcmp(arg, "--json") == 0) {
      flags.json = true;
    } else if (const char* v = value("--json=")) {
      flags.json = true;
      flags.json_path = v;
    } else if (std::strcmp(arg, "--stats=minimal") == 0) {
      flags.stats_tier = StatsTier::kMinimal;
    } else if (std::strcmp(arg, "--stats=base") == 0) {
      flags.stats_tier = StatsTier::kBase;
    } else if (std::strcmp(arg, "--stats=rich") == 0) {
      flags.stats_tier = StatsTier::kRich;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      std::exit(2);
    }
  }
  return flags;
}

Workbench::Workbench(const HarnessFlags& flags) : flags_(flags) {
  DmvConfig config;
  config.num_owners = flags.owners;
  config.seed = flags.seed;
  config.rich_stats = flags.stats_tier == StatsTier::kRich;
  auto cards = GenerateDmv(&catalog_, config);
  if (!cards.ok()) {
    std::fprintf(stderr, "DMV generation failed: %s\n",
                 cards.status().ToString().c_str());
    std::exit(1);
  }
  cards_ = *cards;
  PlannerOptions popts;
  popts.stats_tier = flags.stats_tier;
  planner_ = std::make_unique<Planner>(&catalog_, popts);
}

namespace {

// One timed execution; aborts the harness on failure.
ExecStats ExecuteOnce(const PipelinePlan& plan, const AdaptiveOptions& options,
                      const std::string& name) {
  PipelineExecutor exec(&plan, options);
  auto stats = exec.Execute(nullptr);
  if (!stats.ok()) {
    std::fprintf(stderr, "executing %s failed: %s\n", name.c_str(),
                 stats.status().ToString().c_str());
    std::exit(1);
  }
  return *stats;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// CPUs this process may run on (its affinity mask where available).
size_t AllowedCpus() {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(std::max(1, CPU_COUNT(&set)));
  }
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

volatile uint64_t g_spin_sink = 0;

/// Wall seconds of `iters` rounds of a dependent integer recurrence.
double Spin(uint64_t iters) {
  const auto t0 = std::chrono::steady_clock::now();
  uint64_t x = iters;
  for (uint64_t i = 0; i < iters; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    x ^= x >> 29;
  }
  g_spin_sink = x;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

double MeasureEffectiveCores() {
  static const double cores = [] {
    const size_t n = AllowedCpus();
    uint64_t iters = 1 << 20;
    while (Spin(iters) < 0.02) iters *= 2;  // ~20-40 ms per spin
    std::vector<double> ratios;
    for (int rep = 0; rep < 3; ++rep) {
      const double one = Spin(iters);
      const auto t0 = std::chrono::steady_clock::now();
      std::vector<std::thread> threads;
      for (size_t i = 0; i < n; ++i) threads.emplace_back([iters] { Spin(iters); });
      for (std::thread& t : threads) t.join();
      const double all =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
      ratios.push_back(static_cast<double>(n) * one / all);
    }
    return Median(ratios);
  }();
  return cores;
}

QueryRun Workbench::Run(const JoinQuery& query, const AdaptiveOptions& options) const {
  QueryRun run;
  run.name = query.name;
  auto plan = planner_->Plan(query);
  if (!plan.ok()) {
    std::fprintf(stderr, "planning %s failed: %s\n", query.name.c_str(),
                 plan.status().ToString().c_str());
    std::exit(1);
  }
  std::vector<double> times;
  for (size_t rep = 0; rep < std::max<size_t>(flags_.reps, 1); ++rep) {
    run.stats = ExecuteOnce(**plan, options, query.name);
    times.push_back(run.stats.wall_seconds * 1000.0);
  }
  run.wall_ms = Median(times);
  run.work_units = run.stats.work_units;
  run.rows_out = run.stats.rows_out;
  return run;
}

std::pair<QueryRun, QueryRun> Workbench::RunPair(const JoinQuery& query,
                                                 const AdaptiveOptions& options_a,
                                                 const AdaptiveOptions& options_b) const {
  QueryRun a, b;
  a.name = query.name;
  b.name = query.name;
  auto plan = planner_->Plan(query);
  if (!plan.ok()) {
    std::fprintf(stderr, "planning %s failed: %s\n", query.name.c_str(),
                 plan.status().ToString().c_str());
    std::exit(1);
  }
  // Untimed warm-up touches the relevant data once for both sides.
  ExecuteOnce(**plan, options_a, query.name);
  std::vector<double> times_a, times_b;
  for (size_t rep = 0; rep < std::max<size_t>(flags_.reps, 1); ++rep) {
    a.stats = ExecuteOnce(**plan, options_a, query.name);
    times_a.push_back(a.stats.wall_seconds * 1000.0);
    b.stats = ExecuteOnce(**plan, options_b, query.name);
    times_b.push_back(b.stats.wall_seconds * 1000.0);
  }
  a.wall_ms = Median(times_a);
  b.wall_ms = Median(times_b);
  a.work_units = a.stats.work_units;
  b.work_units = b.stats.work_units;
  a.rows_out = a.stats.rows_out;
  b.rows_out = b.stats.rows_out;
  return {a, b};
}

AdaptiveOptions Workbench::NoSwitch() {
  AdaptiveOptions o;
  o.reorder_inners = false;
  o.reorder_driving = false;
  return o;
}

AdaptiveOptions Workbench::SwitchBoth() {
  AdaptiveOptions o;  // defaults are the paper's: c = 10, w = 1000
  return o;
}

AdaptiveOptions Workbench::InnerOnly() {
  AdaptiveOptions o;
  o.reorder_driving = false;
  return o;
}

AdaptiveOptions Workbench::DrivingOnly() {
  AdaptiveOptions o;
  o.reorder_inners = false;
  return o;
}

AdaptiveOptions Workbench::PaperStrict() {
  AdaptiveOptions o;
  o.check_backoff = false;
  o.inner_benefit_epsilon = 0.0;
  o.switch_benefit_threshold = 1.0;
  o.min_edge_pairs = 1.0;
  o.min_leg_samples = 4;
  return o;
}

namespace {

// Minimal JSON string escaping (query/config names are plain ASCII, but a
// malformed file on odd input would be worse than the extra loop).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

JsonReport::JsonReport(std::string name, const HarnessFlags& flags)
    : name_(std::move(name)), enabled_(flags.json), flags_(flags) {
  if (!enabled_) return;
  path_ = flags.json_path.empty() ? "BENCH_" + name_ + ".json" : flags.json_path;
}

JsonReport::~JsonReport() { Finish(); }

void JsonReport::AddRun(const std::string& config, const QueryRun& run) {
  if (!enabled_) return;
  std::string obj = "{\"query\":\"" + JsonEscape(run.name) + "\",\"config\":\"" +
                    JsonEscape(config) + "\",\"wall_ms\":" + JsonNumber(run.wall_ms) +
                    ",\"work_units\":" + std::to_string(run.work_units) +
                    ",\"rows_out\":" + std::to_string(run.rows_out) +
                    ",\"order_switches\":" + std::to_string(run.stats.order_switches()) +
                    ",\"inner_reorders\":" + std::to_string(run.stats.inner_reorders) +
                    ",\"driving_switches\":" + std::to_string(run.stats.driving_switches) +
                    "}";
  runs_.push_back(std::move(obj));
}

void JsonReport::AddMetric(const std::string& name, double value) {
  if (!enabled_) return;
  metrics_.push_back("{\"name\":\"" + JsonEscape(name) +
                     "\",\"value\":" + JsonNumber(value) + "}");
}

void JsonReport::Finish() {
  if (!enabled_ || written_) return;
  written_ = true;
  std::FILE* f = std::fopen(path_.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path_.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n", JsonEscape(name_).c_str());
#ifndef AJR_GIT_SHA
#define AJR_GIT_SHA "unknown"
#endif
#ifndef AJR_BUILD_TYPE
#define AJR_BUILD_TYPE "unspecified"
#endif
  std::fprintf(f, "  \"git_sha\": \"%s\",\n  \"build_type\": \"%s\",\n",
               JsonEscape(AJR_GIT_SHA).c_str(), JsonEscape(AJR_BUILD_TYPE).c_str());
  std::fprintf(f, "  \"owners\": %zu,\n  \"per_template\": %zu,\n  \"reps\": %zu,\n",
               flags_.owners, flags_.per_template, flags_.reps);
  std::fprintf(f,
               "  \"seed\": %llu,\n  \"dop\": %zu,\n",
               static_cast<unsigned long long>(flags_.seed), flags_.dop);
  std::fprintf(f, "  \"effective_cores\": %s,\n",
               JsonNumber(MeasureEffectiveCores()).c_str());
  std::fprintf(f, "  \"runs\": [");
  for (size_t i = 0; i < runs_.size(); ++i) {
    std::fprintf(f, "%s\n    %s", i == 0 ? "" : ",", runs_[i].c_str());
  }
  std::fprintf(f, "%s],\n", runs_.empty() ? "" : "\n  ");
  std::fprintf(f, "  \"metrics\": [");
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::fprintf(f, "%s\n    %s", i == 0 ? "" : ",", metrics_[i].c_str());
  }
  std::fprintf(f, "%s]\n}\n", metrics_.empty() ? "" : "\n  ");
  std::fclose(f);
  std::printf("\nJSON results written to %s\n", path_.c_str());
}

void ScatterSummary::Add(const QueryRun& base, const QueryRun& adaptive) {
  ++queries;
  total_base_ms += base.wall_ms;
  total_adaptive_ms += adaptive.wall_ms;
  total_base_wu += static_cast<double>(base.work_units);
  total_adaptive_wu += static_cast<double>(adaptive.work_units);
  bool did_change = adaptive.stats.order_switches() > 0;
  if (did_change) {
    ++changed;
    total_base_changed_ms += base.wall_ms;
    total_adaptive_changed_ms += adaptive.wall_ms;
  }
  if (adaptive.wall_ms < base.wall_ms) ++improved;
  if (adaptive.wall_ms > base.wall_ms * 1.05) ++degraded;
  if (adaptive.wall_ms > 0) {
    max_speedup = std::max(max_speedup, base.wall_ms / adaptive.wall_ms);
  }
  if (adaptive.work_units > 0) {
    max_wu_speedup =
        std::max(max_wu_speedup, static_cast<double>(base.work_units) /
                                     static_cast<double>(adaptive.work_units));
  }
}

void ScatterSummary::Print(const char* base_label, const char* adaptive_label) const {
  std::printf("\nSummary (%zu queries; baseline=%s, adaptive=%s)\n", queries,
              base_label, adaptive_label);
  std::printf("  queries with order changes : %zu\n", changed);
  std::printf("  improved                   : %zu\n", improved);
  std::printf("  degraded >5%%               : %zu\n", degraded);
  std::printf("  max speedup                : %.2fx wall, %.2fx work units\n",
              max_speedup, max_wu_speedup);
  if (total_base_ms > 0) {
    std::printf("  total elapsed improvement  : %.1f%%  (%.1f ms -> %.1f ms)\n",
                100.0 * (1.0 - total_adaptive_ms / total_base_ms), total_base_ms,
                total_adaptive_ms);
  }
  if (total_base_changed_ms > 0) {
    std::printf(
        "  improvement (changed only) : %.1f%%  (%.1f ms -> %.1f ms)\n",
        100.0 * (1.0 - total_adaptive_changed_ms / total_base_changed_ms),
        total_base_changed_ms, total_adaptive_changed_ms);
  }
  if (total_base_wu > 0) {
    std::printf("  work-unit improvement      : %.1f%%  (deterministic)\n",
                100.0 * (1.0 - total_adaptive_wu / total_base_wu));
  }
}

}  // namespace bench
}  // namespace ajr
