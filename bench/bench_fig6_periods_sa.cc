// Reproduces Figure 6: "Average Percentage of SAs for Different Periods in
// Discrete Time Model" — GRECA's %SA as the evaluation horizon extends from
// the first two-month period to all six (each extra period adds one more
// affinity list to scan).
#include <iostream>

#include "bench_common.h"
#include "common/table_printer.h"

int main() {
  using namespace greca;
  const auto& ctx = bench::BenchContext::Get();
  const PerformanceHarness perf(*ctx.engine, /*seed=*/2015);
  const auto groups = perf.RandomGroups(bench::kNumRandomGroups, 6);

  TablePrinter table(
      "Figure 6: Average %SA per evaluation period (discrete model)");
  table.SetColumns({"periods used", "avg #SA %", "std err", "saveup %"});
  for (PeriodId p = 0; p < ctx.engine->num_periods(); ++p) {
    QuerySpec spec = PerformanceHarness::DefaultSpec();
    spec.eval_period = p;
    const auto m = perf.Measure(groups, spec);
    table.AddRow({TablePrinter::Cell(static_cast<std::size_t>(p + 1)),
                  TablePrinter::Cell(m.mean_sa_percent, 2),
                  TablePrinter::Cell(m.std_error, 2),
                  TablePrinter::Cell(m.mean_saveup_percent, 2)});
  }
  table.Print(std::cout);
  std::cout << "\nPaper shape: roughly linear growth with the number of "
               "periods (more affinity lists to consume), with plateaus "
               "where a period carries few common page-likes.\n";
  return 0;
}
