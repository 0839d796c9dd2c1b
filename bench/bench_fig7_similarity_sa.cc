// Reproduces Figure 7: "Average Percentage of SAs for Similar, Dissimilar,
// High Affinity and Low Affinity Groups". Groups of each type are formed
// greedily from bootstrapped subsets of the study participants so the
// measurement carries error bars.
#include <iostream>

#include "bench_common.h"
#include "common/distributions.h"
#include "common/stats.h"
#include "common/table_printer.h"
#include "groups/group_formation.h"

namespace {

using namespace greca;

enum class GroupKind { kSimilar, kDissimilar, kHighAffinity, kLowAffinity };

const char* KindName(GroupKind kind) {
  switch (kind) {
    case GroupKind::kSimilar:
      return "Sim";
    case GroupKind::kDissimilar:
      return "Diss";
    case GroupKind::kHighAffinity:
      return "High Aff";
    case GroupKind::kLowAffinity:
      return "Low Aff";
  }
  return "?";
}

}  // namespace

int main() {
  const auto& ctx = greca::bench::BenchContext::Get();
  const ShardedEngine& rec = *ctx.engine;
  const std::size_t n = ctx.study.num_participants();
  constexpr std::size_t kGroupSize = 6;
  constexpr std::size_t kTrials = 10;
  constexpr std::size_t kPoolSize = 24;

  const auto similarity = [&ctx](UserId a, UserId b) {
    return RatingSimilarity(ctx.study.study_ratings, a, b);
  };
  const AffinitySource& source = rec.affinity();
  const auto affinity = [&source](UserId a, UserId b) {
    return ModelAffinity(source, a, b, std::nullopt,
                         AffinityModelSpec::Default());
  };

  TablePrinter table(
      "Figure 7: Average %SA by group cohesiveness / affinity strength");
  table.SetColumns({"group type", "avg #SA %", "std err", "saveup %"});

  Rng rng(4242);
  for (const GroupKind kind :
       {GroupKind::kSimilar, GroupKind::kDissimilar, GroupKind::kHighAffinity,
        GroupKind::kLowAffinity}) {
    OnlineStats sa;
    OnlineStats saveup;
    for (std::size_t trial = 0; trial < kTrials; ++trial) {
      // Bootstrap an eligible pool, then greedily form the extreme group.
      const auto picks = SampleDistinct(rng, n, kPoolSize);
      std::vector<UserId> pool(picks.begin(), picks.end());
      const GroupFormer former(pool, similarity, affinity);
      Group group;
      switch (kind) {
        case GroupKind::kSimilar:
          group = former.FormSimilar(kGroupSize);
          break;
        case GroupKind::kDissimilar:
          group = former.FormDissimilar(kGroupSize);
          break;
        case GroupKind::kHighAffinity:
          group = former.FormHighAffinity(kGroupSize);
          break;
        case GroupKind::kLowAffinity:
          group = former.FormLowAffinity(kGroupSize);
          break;
      }
      const Recommendation r =
          rec.Recommend(group, PerformanceHarness::DefaultSpec()).value();
      sa.Add(r.raw.SequentialAccessPercent());
      saveup.Add(r.raw.SaveupPercent());
    }
    table.AddRow({KindName(kind), TablePrinter::Cell(sa.mean(), 2),
                  TablePrinter::Cell(sa.standard_error(), 2),
                  TablePrinter::Cell(saveup.mean(), 2)});
  }
  table.Print(std::cout);
  std::cout << "\nPaper shape: pruning works best for similar and "
               "high-affinity groups (their top-k score distributions "
               "separate early), so their %SA is lowest.\n";
  return 0;
}
