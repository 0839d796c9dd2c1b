// Reproduces Figure 2: "Qualitative Evaluation of Consensus Functions" —
// three-way forced choice between the AP, MO and PD lists (all with temporal
// affinity); vote shares per group characteristic.
#include <iostream>

#include "bench_common.h"
#include "common/table_printer.h"

int main() {
  using namespace greca;
  const auto& ctx = bench::BenchContext::Get();
  QualityHarness harness(*ctx.engine, *ctx.oracle,
                         FormStudyGroups(ctx.study, ctx.engine->affinity()),
                         /*k=*/10);

  const std::vector<RecommendationVariant> variants{
      RecommendationVariant::WithConsensus("AP",
                                           ConsensusSpec::AveragePreference()),
      RecommendationVariant::WithConsensus("MO", ConsensusSpec::LeastMisery()),
      RecommendationVariant::WithConsensus(
          "PD", ConsensusSpec::PairwiseDisagreement(0.8)),
  };
  const auto shares = harness.VoteShares(variants);

  TablePrinter table(
      "Figure 2: Qualitative Evaluation of Consensus Functions — vote share "
      "(%)");
  std::vector<std::string> columns{"function"};
  for (const GroupCharacteristic c : AllCharacteristics()) {
    columns.push_back(CharacteristicName(c));
  }
  table.SetColumns(columns);
  for (std::size_t v = 0; v < variants.size(); ++v) {
    std::vector<std::string> row{variants[v].label};
    for (const double s : shares[v]) row.push_back(TablePrinter::Cell(s, 2));
    table.AddRow(row);
  }
  table.Print(std::cout);
  std::cout <<
      "\nPaper reference (AP/MO/PD %): Sim 27.8/22.2/50.0, Diss 22.2/33.3/"
      "44.4, Small 44.4/16.7/38.9, Large 16.7/44.4/38.9, HighAff 38.9/16.7/"
      "44.4, LowAff 22.2/33.3/44.4. Shape: PD leads overall, AP strongest in "
      "small/high-affinity groups, MO strongest in large groups.\n";
  return 0;
}
