// Differential fuzzing driver for the adaptive executor.
//
// Draws seeds from an atomic counter, generates one workload per seed
// (testing/workload_gen.h), and runs each through the differential oracle
// (testing/oracle.h): ReferenceExecutor vs PipelineExecutor under the
// default configuration spread, with the invariant checker attached. The
// first failure stops all workers, is greedily shrunk to a minimal spec,
// and printed as a self-contained repro plus a one-line replay command.
//
// Usage:
//   fuzz_differential [--seed N] [--count N] [--duration SECONDS]
//                     [--jobs N] [--inject none|nopos|dup]
//                     [--policy rank|regret|static] [--share] [--wide]
//                     [--expect-failure] [--no-shrink] [--start-seed N]
//
//   --seed N          run exactly seed N (replay mode)
//   --wide            generate with GeneratorOptions::WideProfile (6-20
//                     tables, tight output cap) instead of the default
//                     2-5 table profile; replay lines carry the flag
//   --count N         number of cases (default 200; ignored with --duration)
//   --duration S      keep fuzzing for S seconds of wall clock
//   --jobs N          worker threads (default 1)
//   --inject nopos    disable positional predicates (Sec 4.2 duplicate bug)
//   --inject dup      emit every output row twice
//   --policy P        restrict the config spread to one AdaptationPolicy
//                     (default: the full spread across all policies)
//   --share           run the cross-query sharing axis: shared-scan /
//                     shared-probe-cache modes in one work_class against
//                     sharing-off, each warm-re-run against its retained
//                     registry/cache (mutually exclusive with --policy)
//   --expect-failure  exit 0 only if a failure IS found (oracle self-test)
//   --no-shrink       print the raw failing spec without minimizing
//
// Exit status: 0 = clean run (or failure found under --expect-failure),
// 1 = failure found (or none found under --expect-failure), 2 = bad usage.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "adaptive/policy.h"
#include "testing/oracle.h"
#include "testing/shrinker.h"
#include "testing/workload_gen.h"

namespace {

using ajr::FaultInjection;
using ajr::testing::DifferentialOptions;
using ajr::testing::FailureReport;
using ajr::testing::GenerateWorkload;
using ajr::testing::RunDifferential;
using ajr::testing::SameKindFailure;
using ajr::testing::Shrink;
using ajr::testing::ShrinkResult;
using ajr::testing::WorkloadSpec;

struct Flags {
  std::optional<uint64_t> seed;
  uint64_t start_seed = 1;
  uint64_t count = 200;
  std::optional<double> duration_seconds;
  unsigned jobs = 1;
  std::string inject = "none";
  std::optional<ajr::PolicyKind> policy;
  bool share = false;
  bool wide = false;
  bool expect_failure = false;
  bool no_shrink = false;
};

/// Parses both `--flag=value` and `--flag value`. Returns false on usage
/// errors (message already printed).
bool ParseFlags(int argc, char** argv, Flags* flags) {
  auto value_of = [&](int* i, const char* name, const char* arg) -> const char* {
    size_t name_len = std::strlen(name);
    if (arg[name_len] == '=') return arg + name_len + 1;
    if (*i + 1 < argc) return argv[++*i];
    std::fprintf(stderr, "missing value for %s\n", name);
    return nullptr;
  };
  auto matches = [](const char* arg, const char* name) {
    size_t n = std::strlen(name);
    return std::strncmp(arg, name, n) == 0 && (arg[n] == '\0' || arg[n] == '=');
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* v = nullptr;
    if (matches(arg, "--seed")) {
      if ((v = value_of(&i, "--seed", arg)) == nullptr) return false;
      flags->seed = std::strtoull(v, nullptr, 10);
    } else if (matches(arg, "--start-seed")) {
      if ((v = value_of(&i, "--start-seed", arg)) == nullptr) return false;
      flags->start_seed = std::strtoull(v, nullptr, 10);
    } else if (matches(arg, "--count")) {
      if ((v = value_of(&i, "--count", arg)) == nullptr) return false;
      flags->count = std::strtoull(v, nullptr, 10);
    } else if (matches(arg, "--duration")) {
      if ((v = value_of(&i, "--duration", arg)) == nullptr) return false;
      flags->duration_seconds = std::strtod(v, nullptr);
    } else if (matches(arg, "--jobs")) {
      if ((v = value_of(&i, "--jobs", arg)) == nullptr) return false;
      flags->jobs = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
      if (flags->jobs == 0) flags->jobs = 1;
    } else if (matches(arg, "--inject")) {
      if ((v = value_of(&i, "--inject", arg)) == nullptr) return false;
      flags->inject = v;
      if (flags->inject != "none" && flags->inject != "nopos" &&
          flags->inject != "dup") {
        std::fprintf(stderr, "--inject must be none|nopos|dup, got %s\n", v);
        return false;
      }
    } else if (matches(arg, "--policy")) {
      if ((v = value_of(&i, "--policy", arg)) == nullptr) return false;
      flags->policy = ajr::ParsePolicyKind(v);
      if (!flags->policy.has_value()) {
        std::fprintf(stderr, "--policy must be rank|regret|static, got %s\n", v);
        return false;
      }
    } else if (std::strcmp(arg, "--share") == 0) {
      flags->share = true;
    } else if (std::strcmp(arg, "--wide") == 0) {
      flags->wide = true;
    } else if (std::strcmp(arg, "--expect-failure") == 0) {
      flags->expect_failure = true;
    } else if (std::strcmp(arg, "--no-shrink") == 0) {
      flags->no_shrink = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg);
      return false;
    }
  }
  return true;
}

struct SharedState {
  std::atomic<uint64_t> next_seed{0};
  std::atomic<uint64_t> cases_run{0};
  std::atomic<bool> stop{false};
  std::mutex mu;
  std::optional<FailureReport> failure;  // first failure wins
  WorkloadSpec failing_spec;
  std::string harness_error;
};

void Worker(const Flags& flags, const DifferentialOptions& options,
            std::chrono::steady_clock::time_point deadline, uint64_t end_seed,
            SharedState* shared) {
  while (!shared->stop.load(std::memory_order_relaxed)) {
    if (flags.duration_seconds.has_value()) {
      if (std::chrono::steady_clock::now() >= deadline) return;
    }
    uint64_t seed = shared->next_seed.fetch_add(1, std::memory_order_relaxed);
    if (!flags.duration_seconds.has_value() && seed >= end_seed) return;

    WorkloadSpec spec = GenerateWorkload(
        seed, flags.wide ? ajr::testing::GeneratorOptions::WideProfile()
                         : ajr::testing::GeneratorOptions{});
    auto outcome = RunDifferential(spec, options);
    shared->cases_run.fetch_add(1, std::memory_order_relaxed);
    if (outcome.ok() && !outcome->has_value()) continue;

    std::lock_guard<std::mutex> lock(shared->mu);
    if (shared->stop.exchange(true)) return;  // someone else failed first
    if (!outcome.ok()) {
      shared->harness_error = outcome.status().ToString();
    } else {
      shared->failure = **outcome;
      shared->failing_spec = std::move(spec);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return 2;

  FaultInjection faults;
  faults.disable_positional_predicates = flags.inject == "nopos";
  faults.double_emit = flags.inject == "dup";
  DifferentialOptions options;
  if (flags.inject != "none") options.faults = &faults;
  if (flags.policy.has_value() && flags.share) {
    std::fprintf(stderr, "--policy and --share are mutually exclusive axes\n");
    return 2;
  }
  if (flags.policy.has_value()) {
    options.configs = ajr::testing::ConfigsForPolicy(*flags.policy);
  }
  if (flags.share) {
    options.configs = ajr::testing::ConfigsForShare();
  }

  SharedState shared;
  const auto start = std::chrono::steady_clock::now();
  auto deadline = start;
  uint64_t end_seed = 0;
  if (flags.seed.has_value()) {
    shared.next_seed = *flags.seed;
    end_seed = *flags.seed + 1;
    flags.duration_seconds.reset();
    flags.jobs = 1;
  } else {
    shared.next_seed = flags.start_seed;
    end_seed = flags.start_seed + flags.count;
    if (flags.duration_seconds.has_value()) {
      deadline = start + std::chrono::microseconds(static_cast<int64_t>(
                             *flags.duration_seconds * 1e6));
    }
  }

  std::vector<std::thread> workers;
  for (unsigned i = 0; i < flags.jobs; ++i) {
    workers.emplace_back(Worker, std::cref(flags), std::cref(options), deadline,
                         end_seed, &shared);
  }
  for (std::thread& w : workers) w.join();

  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  std::printf(
      "fuzz_differential: %llu cases in %.1fs (%.0f cases/s), inject=%s, "
      "policy=%s, share=%s, profile=%s\n",
      static_cast<unsigned long long>(shared.cases_run.load()), elapsed,
      shared.cases_run.load() / (elapsed > 0 ? elapsed : 1),
      flags.inject.c_str(),
      flags.policy.has_value() ? ajr::PolicyKindName(*flags.policy) : "all",
      flags.share ? "on" : "off", flags.wide ? "wide" : "default");

  if (!shared.harness_error.empty()) {
    std::fprintf(stderr, "HARNESS ERROR: %s\n", shared.harness_error.c_str());
    return 1;
  }
  if (!shared.failure.has_value()) {
    if (flags.expect_failure) {
      std::fprintf(stderr,
                   "EXPECTED a failure (--expect-failure) but all cases "
                   "passed\n");
      return 1;
    }
    std::printf("OK: 0 mismatches, 0 invariant violations\n");
    return 0;
  }

  std::printf("\nFAILURE:\n%s\n", shared.failure->ToString().c_str());
  WorkloadSpec minimal = shared.failing_spec;
  if (!flags.no_shrink) {
    ShrinkResult shrunk = Shrink(
        shared.failing_spec, SameKindFailure(options, shared.failure->kind));
    std::printf("shrunk: %zu accepted transforms over %zu attempts "
                "(%zu -> %zu tables, %zu -> %zu rows)\n",
                shrunk.accepted, shrunk.attempts,
                shared.failing_spec.tables.size(), shrunk.spec.tables.size(),
                shared.failing_spec.TotalRows(), shrunk.spec.TotalRows());
    minimal = std::move(shrunk.spec);
  }
  std::printf("\n---- minimal repro ----\n%s", minimal.ToRepro().c_str());
  std::string axis;
  if (flags.policy.has_value()) {
    axis = std::string(" --policy ") + ajr::PolicyKindName(*flags.policy);
  } else if (flags.share) {
    axis = " --share";
  }
  std::printf("replay: fuzz_differential --seed %llu --inject %s%s%s\n",
              static_cast<unsigned long long>(shared.failure->seed),
              flags.inject.c_str(), axis.c_str(), flags.wide ? " --wide" : "");
  return flags.expect_failure ? 0 : 1;
}
