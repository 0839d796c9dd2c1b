// Reproduces Figure 5: "Average Percentage of SAs by Varying Result Size,
// Group Size and Number of Items" — GRECA's %SA over 20 random groups with
// the paper's defaults (group size 6, k 10, 3900 items, AP, discrete model).
//   (A) k in {5, 10, 15, 20, 25, 30}
//   (B) group size in {3, 6, 9, 12}
//   (C) number of items in {900, 1400, 1900, 2400, 2900, 3400, 3900}
#include <iostream>

#include "bench_common.h"
#include "common/table_printer.h"

int main() {
  using namespace greca;
  const auto& ctx = bench::BenchContext::Get();
  const PerformanceHarness perf(*ctx.engine, /*seed=*/2015);
  const QuerySpec base = PerformanceHarness::DefaultSpec();

  {
    TablePrinter table("Figure 5(A): Varying K — average %SA");
    table.SetColumns({"k", "avg #SA %", "std err", "saveup %"});
    for (const std::size_t k : {5u, 10u, 15u, 20u, 25u, 30u}) {
      QuerySpec spec = base;
      spec.k = k;
      const auto m =
          perf.MeasureRandomGroups(spec, 6, bench::kNumRandomGroups);
      table.AddRow({TablePrinter::Cell(k),
                    TablePrinter::Cell(m.mean_sa_percent, 2),
                    TablePrinter::Cell(m.std_error, 2),
                    TablePrinter::Cell(m.mean_saveup_percent, 2)});
    }
    table.Print(std::cout);
    std::cout << "Paper shape: roughly linear growth in k, saveup >= 81%.\n\n";
  }

  {
    TablePrinter table("Figure 5(B): Varying Group Size — average %SA");
    table.SetColumns({"group size", "avg #SA %", "std err", "saveup %"});
    for (const std::size_t size : {3u, 6u, 9u, 12u}) {
      const auto m =
          perf.MeasureRandomGroups(base, size, bench::kNumRandomGroups);
      table.AddRow({TablePrinter::Cell(size),
                    TablePrinter::Cell(m.mean_sa_percent, 2),
                    TablePrinter::Cell(m.std_error, 2),
                    TablePrinter::Cell(m.mean_saveup_percent, 2)});
    }
    table.Print(std::cout);
    std::cout << "Paper shape: scales well with group size, saveup >= 77%.\n\n";
  }

  {
    TablePrinter table("Figure 5(C): Varying Number of Items — average %SA");
    table.SetColumns({"# items", "avg #SA %", "std err", "saveup %"});
    for (const std::size_t items :
         {900u, 1'400u, 1'900u, 2'400u, 2'900u, 3'400u, 3'900u}) {
      QuerySpec spec = base;
      spec.num_candidate_items = items;
      const auto m =
          perf.MeasureRandomGroups(spec, 6, bench::kNumRandomGroups);
      table.AddRow({TablePrinter::Cell(items),
                    TablePrinter::Cell(m.mean_sa_percent, 2),
                    TablePrinter::Cell(m.std_error, 2),
                    TablePrinter::Cell(m.mean_saveup_percent, 2)});
    }
    table.Print(std::cout);
    std::cout << "Paper shape: no monotone growth with #items (depends on "
                 "score distributions), saveup >= 83% in the worst case.\n";
  }
  return 0;
}
