// Reproduces §4.2.4 "Time Models": GRECA's average %SA under the continuous
// vs the discrete dynamic affinity model (paper: 16.32% vs 16.60%, i.e. a
// saveup > 83% for both, near-identical costs).
#include <iostream>

#include "bench_common.h"
#include "common/table_printer.h"

int main() {
  using namespace greca;
  const auto& ctx = bench::BenchContext::Get();
  const PerformanceHarness perf(*ctx.engine, /*seed=*/2015);
  const auto groups = perf.RandomGroups(bench::kNumRandomGroups, 6);

  TablePrinter table("Section 4.2.4: Time Models — average %SA");
  table.SetColumns({"time model", "avg #SA %", "std err", "saveup %"});
  for (const auto& [label, model] :
       std::vector<std::pair<std::string, AffinityModelSpec>>{
           {"discrete", AffinityModelSpec::Default()},
           {"continuous", AffinityModelSpec::Continuous()}}) {
    QuerySpec spec = PerformanceHarness::DefaultSpec();
    spec.model = model;
    const auto m = perf.Measure(groups, spec);
    table.AddRow({label, TablePrinter::Cell(m.mean_sa_percent, 2),
                  TablePrinter::Cell(m.std_error, 2),
                  TablePrinter::Cell(m.mean_saveup_percent, 2)});
  }
  table.Print(std::cout);
  std::cout << "\nPaper reference: continuous 16.32%, discrete 16.60% — both "
               "models cost nearly the same with a slight edge for one of "
               "them; saveup > 83% either way.\n";
  return 0;
}
