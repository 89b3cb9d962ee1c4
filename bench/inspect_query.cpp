// Diagnostic harness: plans and executes one template query and prints the
// optimizer's estimates against the actual values, plus the full adaptation
// event log. Usage:
//   inspect_query --template=3 --variant=0 [--owners=N] [--six-table]

#include <cstdio>
#include <cstring>

#include "bench/harness_util.h"
#include "exec/reference_executor.h"

using namespace ajr;
using namespace ajr::bench;

int main(int argc, char** argv) {
  int template_id = 1;
  size_t variant = 0;
  bool six_table = false;
  std::vector<char*> rest = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--template=", 11) == 0) {
      template_id = std::atoi(argv[i] + 11);
    } else if (std::strncmp(argv[i], "--variant=", 10) == 0) {
      variant = static_cast<size_t>(std::atoll(argv[i] + 10));
    } else if (std::strcmp(argv[i], "--six-table") == 0) {
      six_table = true;
    } else {
      rest.push_back(argv[i]);
    }
  }
  HarnessFlags flags = HarnessFlags::Parse(static_cast<int>(rest.size()), rest.data());
  Workbench bench(flags);
  DmvQueryGenerator gen(&bench.catalog(), flags.seed);
  auto q = six_table ? gen.GenerateSixTable(template_id, variant)
                     : gen.Generate(template_id, variant);
  if (!q.ok()) {
    std::fprintf(stderr, "%s\n", q.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n%s\n\n", q->name.c_str(), q->ToString().c_str());

  auto plan = bench.planner().Plan(*q);
  if (!plan.ok()) {
    std::fprintf(stderr, "%s\n", plan.status().ToString().c_str());
    return 1;
  }
  const PipelinePlan& p = **plan;

  // Per-table estimate vs actual leg cardinality.
  std::printf("%-6s %10s %12s %12s %12s  %s\n", "leg", "C(T)", "est CLEG",
              "actual CLEG", "est S_LPI", "driving access");
  for (size_t t = 0; t < p.query.tables.size(); ++t) {
    const TableEntry& entry = *p.entries[t];
    auto bound = BindPredicate(p.query.local_predicates[t], entry.schema());
    size_t actual = 0;
    for (Rid r = 0; r < entry.table().num_rows(); ++r) {
      if ((*bound)->Eval(entry.table().View(r))) ++actual;
    }
    const DrivingAccess& acc = p.access[t].driving;
    std::printf("%-6s %10zu %12.1f %12zu %12.4f  %s\n",
                p.query.tables[t].alias.c_str(), entry.table().num_rows(),
                p.est_local_sel[t] * entry.table().num_rows(), actual, acc.est_slpi,
                acc.index != nullptr ? acc.index->name.c_str() : "table scan");
  }
  std::printf("\ninitial order:");
  for (size_t t : p.initial_order) std::printf(" %s", p.query.tables[t].alias.c_str());
  std::printf("  (est cost %.0f wu)\n\n", p.est_cost);

  struct Mode {
    const char* label;
    AdaptiveOptions options;
  };
  const Mode modes[] = {{"no-switch", Workbench::NoSwitch()},
                        {"inner-only", Workbench::InnerOnly()},
                        {"driving-only", Workbench::DrivingOnly()},
                        {"switch-both", Workbench::SwitchBoth()}};
  for (const Mode& mode : modes) {
    QueryRun run = bench.Run(*q, mode.options);
    std::printf("%-12s: %8.3f ms, %10lu wu, %6lu rows, %lu inner + %lu driving moves\n",
                mode.label, run.wall_ms, static_cast<unsigned long>(run.work_units),
                static_cast<unsigned long>(run.rows_out),
                static_cast<unsigned long>(run.stats.inner_reorders),
                static_cast<unsigned long>(run.stats.driving_switches));
    for (const auto& event : run.stats.events) {
      std::printf("  %s\n", event.c_str());
    }
  }
  return 0;
}
