// Reproduces Figure 3: "Comparative Evaluation" — pairwise forced choice:
//   (A) affinity-aware vs affinity-agnostic
//   (B) time-aware vs time-agnostic
//   (C) continuous vs discrete time model
// reporting the percentage of members preferring the first list.
#include <iostream>

#include "bench_common.h"
#include "common/table_printer.h"

int main() {
  using namespace greca;
  const auto& ctx = bench::BenchContext::Get();
  QualityHarness harness(*ctx.engine, *ctx.oracle,
                         FormStudyGroups(ctx.study, ctx.engine->affinity()),
                         /*k=*/10);

  struct Panel {
    std::string label;
    RecommendationVariant first;
    RecommendationVariant second;
  };
  const std::vector<Panel> panels{
      {"(A) Affinity-aware vs Affinity-agnostic",
       RecommendationVariant::Default(),
       RecommendationVariant::AffinityAgnostic()},
      {"(B) Time-aware vs Time-agnostic", RecommendationVariant::Default(),
       RecommendationVariant::TimeAgnostic()},
      {"(C) Continuous vs Discrete", RecommendationVariant::ContinuousModel(),
       RecommendationVariant::Default()},
  };

  TablePrinter table(
      "Figure 3: Comparative Evaluation — preference for first list (%)");
  std::vector<std::string> columns{"comparison"};
  for (const GroupCharacteristic c : AllCharacteristics()) {
    columns.push_back(CharacteristicName(c));
  }
  table.SetColumns(columns);
  for (const auto& panel : panels) {
    const auto shares = harness.ComparativeEval(panel.first, panel.second);
    std::vector<std::string> row{panel.label};
    for (const double s : shares) row.push_back(TablePrinter::Cell(s, 2));
    table.AddRow(row);
  }
  table.Print(std::cout);
  std::cout <<
      "\nPaper shape to match: (A) affinity-aware preferred in ~75% of cases "
      "(strongest for small, then high-affinity groups); (B) time-aware "
      "preferred in >80% of cases; (C) continuous preferred by dissimilar "
      "and large groups, discrete by high-affinity/high-similarity groups.\n";
  return 0;
}
