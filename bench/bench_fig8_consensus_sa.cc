// Reproduces Figure 8: "Average Percentage of SAs for Different Consensus
// Functions" — AR (= AP), MO, PD V1 (w1 = 0.8) and PD V2 (w1 = 0.2), the
// paper's §4.2.5 configuration.
#include <iostream>

#include "bench_common.h"
#include "common/table_printer.h"

int main() {
  using namespace greca;
  const auto& ctx = bench::BenchContext::Get();
  const PerformanceHarness perf(*ctx.engine, /*seed=*/2015);
  const auto groups = perf.RandomGroups(bench::kNumRandomGroups, 6);

  struct Row {
    std::string label;
    ConsensusSpec spec;
  };
  const std::vector<Row> rows{
      {"AR (average)", ConsensusSpec::AveragePreference()},
      {"MO (least misery)", ConsensusSpec::LeastMisery()},
      {"PD V1 (w1=0.8)", ConsensusSpec::PairwiseDisagreement(0.8)},
      {"PD V2 (w1=0.2)", ConsensusSpec::PairwiseDisagreement(0.2)},
  };

  TablePrinter table("Figure 8: Average %SA per consensus function");
  table.SetColumns({"consensus", "avg #SA %", "std err", "saveup %"});
  for (const Row& row : rows) {
    QuerySpec spec = PerformanceHarness::DefaultSpec();
    spec.consensus = row.spec;
    const auto m = perf.Measure(groups, spec);
    table.AddRow({row.label, TablePrinter::Cell(m.mean_sa_percent, 2),
                  TablePrinter::Cell(m.std_error, 2),
                  TablePrinter::Cell(m.mean_saveup_percent, 2)});
  }
  table.Print(std::cout);
  std::cout << "\nPaper shape: GRECA saves substantially for every function; "
               "PD V2 (disagreement-heavy) stops earliest, MO next best with "
               "saveups up to 83%.\n";
  return 0;
}
