// The paper's motivating scenario (§1): interns join a lab's Facebook group;
// after the internship the group becomes alumni and the members' affinities
// drift apart (or together). Recommending events to the alumni group must
// account for how those affinities evolved — this example shows the same
// group receiving different recommendations at different evaluation periods,
// and inspects the underlying pair affinities.
#include <cmath>
#include <iostream>

#include "common/distributions.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "dataset/synthetic.h"
#include "eval/study_groups.h"
#include "groups/group_formation.h"
#include "shard/sharded_engine.h"

int main() {
  using namespace greca;

  SyntheticRatingsConfig universe_config;
  universe_config.num_users = 1'000;
  universe_config.num_items = 900;
  universe_config.target_ratings = 90'000;
  const SyntheticRatings universe = GenerateSyntheticRatings(universe_config);

  FacebookStudyConfig study_config;
  study_config.likes.drift_rate = 0.5;  // alumni drift apart faster
  const FacebookStudy study = GenerateFacebookStudy(study_config, universe);

  ShardedEngineOptions options;
  options.max_candidate_items = 900;
  const ShardedEngine engine(universe.dataset, study, options);
  const AffinitySource& affinity = engine.affinity();

  const auto last = static_cast<PeriodId>(engine.num_periods() - 1);

  // Find the intern cohort whose affinities drifted the most over the year —
  // the group for which temporal awareness matters most.
  Rng rng(99);
  Group alumni;
  double best_drift = -1.0;
  for (int trial = 0; trial < 400; ++trial) {
    const auto picks =
        SampleDistinct(rng, study.num_participants(), 4);
    Group candidate(picks.begin(), picks.end());
    // Consensus weights members by their mean affinity from the others, so
    // what re-ranks recommendations is *asymmetric* drift: some members
    // becoming closer to the group while others drift away.
    std::vector<double> delta(candidate.size(), 0.0);
    for (std::size_t a = 0; a < candidate.size(); ++a) {
      for (std::size_t b = 0; b < candidate.size(); ++b) {
        if (a == b) continue;
        delta[a] += ModelAffinity(affinity, candidate[a], candidate[b], last,
                                  AffinityModelSpec::Default()) -
                    ModelAffinity(affinity, candidate[a], candidate[b], 0,
                                  AffinityModelSpec::Default());
      }
    }
    double mean_delta = 0.0;
    for (const double d : delta) mean_delta += d;
    mean_delta /= static_cast<double>(delta.size());
    double asymmetry = 0.0;
    for (const double d : delta) asymmetry += std::abs(d - mean_delta);
    if (asymmetry > best_drift) {
      best_drift = asymmetry;
      alumni = std::move(candidate);
    }
  }

  // 1. How did the pair affinities evolve over the year?
  {
    TablePrinter table("Alumni pair affinities (discrete model) per period");
    std::vector<std::string> columns{"pair"};
    for (PeriodId p = 0; p <= last; ++p) {
      columns.push_back("p" + std::to_string(p));
    }
    table.SetColumns(columns);
    for (std::size_t a = 0; a < alumni.size(); ++a) {
      for (std::size_t b = a + 1; b < alumni.size(); ++b) {
        std::vector<std::string> row{"u" + std::to_string(alumni[a]) + "-u" +
                                     std::to_string(alumni[b])};
        for (PeriodId p = 0; p <= last; ++p) {
          row.push_back(FormatDouble(
              ModelAffinity(affinity, alumni[a], alumni[b], p,
                            AffinityModelSpec::Default()),
              3));
        }
        table.AddRow(row);
      }
    }
    table.Print(std::cout);
  }

  // 2. Recommend events right after the internship vs a year later.
  const auto recommend_at = [&](PeriodId period) {
    QuerySpec spec;
    spec.k = 5;
    spec.eval_period = period;
    spec.num_candidate_items = 900;
    return engine.Recommend(alumni, spec).value();
  };
  const Recommendation at_start = recommend_at(0);
  const Recommendation at_end = recommend_at(last);

  TablePrinter table("Top-5 events for the alumni group, then vs now");
  table.SetColumns({"rank", "during internship (p0)",
                    "one year later (p" + std::to_string(last) + ")"});
  for (std::size_t i = 0; i < 5; ++i) {
    table.AddRow({std::to_string(i + 1),
                  i < at_start.items.size()
                      ? "event #" + std::to_string(at_start.items[i])
                      : "-",
                  i < at_end.items.size()
                      ? "event #" + std::to_string(at_end.items[i])
                      : "-"});
  }
  table.Print(std::cout);

  std::size_t common = 0;
  for (const ItemId i : at_start.items) {
    for (const ItemId j : at_end.items) common += (i == j);
  }
  std::cout << "\n" << common
            << " of 5 recommendations survive the year; the rest shift with "
               "the group's drifting affinities.\n";
  return 0;
}
