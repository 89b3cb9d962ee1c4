// Profiling harness: the steady state of a serial mix, in short children.
//
// gprofng's clock profiler samples only about the first two CPU-seconds of
// each process it follows, so one long run profiles set-up and the start of
// the query loop and nothing after. This harness builds the DMV catalog
// once, then forks children one at a time. Each child runs the Fig 7
// five-template mix or the Fig 11 six-table mix serially (Plan + Execute
// per query, default options) for about kChildCpuSeconds of CPU time and
// exits. Under `-F on` gprofng records every child as its own experiment,
// and together they sample the query loop's steady state for as long as
// asked. Child i starts at query i * n / children, so the children cover
// the mix.
//
//   $ gprofng collect app -F on -o prof.er ./build/bench/profile_mix
//         --owners=100000 --mix=six --children=12
//   $ gprofng display text -functions prof.er/_f*.er
//
// The mixes are perfbench's: GenerateMix(200) (fig7_serial) and
// GenerateSixTableMix(1000) (fig11_serial).
//
// Flags: --mix=fig7|six (default six) --children=N (1..64, default 12),
//        plus the common --owners=N --seed=N --stats=minimal|base|rich.
//
// Exits 1 if a child fails (a plan or an execution error) or dies.

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <vector>

#include "bench/harness_util.h"

using namespace ajr;
using namespace ajr::bench;

namespace {

/// CPU time one child spends in its query loop: under the profiler's
/// per-process limit, with room for the child's own start-up.
constexpr double kChildCpuSeconds = 0.9;
constexpr size_t kMaxChildren = 64;

struct Flags {
  HarnessFlags common;
  std::string mix = "six";
  size_t children = 12;
};

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  std::vector<char*> passthrough = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--mix=", 6) == 0) {
      flags.mix = argv[i] + 6;
      if (flags.mix != "fig7" && flags.mix != "six") {
        std::fprintf(stderr, "--mix must be fig7 or six\n");
        std::exit(2);
      }
    } else if (std::strncmp(argv[i], "--children=", 11) == 0) {
      flags.children = static_cast<size_t>(std::strtoull(argv[i] + 11, nullptr, 10));
      if (flags.children < 1 || flags.children > kMaxChildren) {
        std::fprintf(stderr, "--children must be in 1..%zu\n", kMaxChildren);
        std::exit(2);
      }
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  flags.common =
      HarnessFlags::Parse(static_cast<int>(passthrough.size()), passthrough.data());
  return flags;
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// One child's loop: cycles through the mix from `start` until it has
/// used kChildCpuSeconds. Returns the process exit code.
int RunChild(size_t child, const Planner& planner, const std::vector<JoinQuery>& queries,
             size_t start) {
  const double cpu0 = ProcessCpuSeconds();
  uint64_t executed = 0, work_units = 0;
  for (size_t i = start; ProcessCpuSeconds() - cpu0 < kChildCpuSeconds; ++i) {
    const JoinQuery& q = queries[i % queries.size()];
    auto plan = planner.Plan(q);
    if (!plan.ok()) {
      std::fprintf(stderr, "child %zu: plan %s: %s\n", child, q.name.c_str(),
                   plan.status().ToString().c_str());
      return 1;
    }
    PipelineExecutor exec(plan->get(), Workbench::SwitchBoth());
    auto stats = exec.Execute(nullptr);
    if (!stats.ok()) {
      std::fprintf(stderr, "child %zu: %s: %s\n", child, q.name.c_str(),
                   stats.status().ToString().c_str());
      return 1;
    }
    ++executed;
    work_units += stats->work_units;
  }
  std::printf("child %2zu: from query %zu, %llu queries, %llu work units, %.2f cpu-s\n",
              child, start, static_cast<unsigned long long>(executed),
              static_cast<unsigned long long>(work_units), ProcessCpuSeconds() - cpu0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv);
  Workbench bench(flags.common);
  DmvQueryGenerator gen(&bench.catalog(), flags.common.seed);
  auto queries = flags.mix == "fig7" ? gen.GenerateMix(200) : gen.GenerateSixTableMix(1000);
  if (!queries.ok() || queries->empty()) {
    std::fprintf(stderr, "query generation failed\n");
    return 1;
  }
  std::printf("profile_mix: owners=%zu mix=%s (%zu queries) seed=%llu, %zu children of "
              "~%.1f cpu-s each\n",
              flags.common.owners, flags.mix.c_str(), queries->size(),
              static_cast<unsigned long long>(flags.common.seed), flags.children,
              kChildCpuSeconds);
  std::fflush(stdout);  // a child must not inherit (and re-print) buffered output

  int failed = 0;
  for (size_t c = 0; c < flags.children; ++c) {
    const size_t start = c * queries->size() / flags.children;
    const pid_t pid = fork();
    if (pid < 0) {
      std::perror("fork");
      return 1;
    }
    if (pid == 0) {
      const int code = RunChild(c, bench.planner(), *queries, start);
      std::fflush(stdout);
      _exit(code);
    }
    int status = 0;
    if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "child %zu failed\n", c);
      ++failed;
    }
  }
  return failed == 0 ? 0 : 1;
}
