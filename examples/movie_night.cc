// Movie night planner: one ad-hoc group, every consensus function and
// affinity model side by side — the decision a real deployment has to make
// (paper §4.1's comparison, as an application).
#include <iostream>
#include <vector>

#include "common/table_printer.h"
#include "dataset/synthetic.h"
#include "eval/study_groups.h"
#include "groups/group_formation.h"
#include "shard/sharded_engine.h"

int main() {
  using namespace greca;

  SyntheticRatingsConfig universe_config;
  universe_config.num_users = 1'500;
  universe_config.num_items = 1'200;
  universe_config.target_ratings = 150'000;
  const SyntheticRatings universe = GenerateSyntheticRatings(universe_config);
  const FacebookStudy study =
      GenerateFacebookStudy(FacebookStudyConfig{}, universe);

  ShardedEngineOptions options;
  options.max_candidate_items = 1'200;
  const ShardedEngine engine(universe.dataset, study, options);

  // Form a high-affinity friend group of four — the people most likely to
  // plan a movie night together.
  std::vector<UserId> everyone;
  for (UserId u = 0; u < study.num_participants(); ++u) {
    everyone.push_back(u);
  }
  const GroupFormer former(
      everyone,
      [&](UserId a, UserId b) {
        return RatingSimilarity(study.study_ratings, a, b);
      },
      [&](UserId a, UserId b) {
        return ModelAffinity(engine.affinity(), a, b, std::nullopt,
                             AffinityModelSpec::Default());
      });
  const Group group = former.FormHighAffinity(4);

  std::cout << "Movie night group:";
  for (const UserId u : group) std::cout << " u" << u;
  std::cout << "  (weakest pairwise affinity "
            << former.MinPairAffinity(group) << ")\n\n";

  struct Choice {
    std::string label;
    ConsensusSpec consensus;
    AffinityModelSpec model;
  };
  const std::vector<Choice> choices{
      {"AP + discrete affinity", ConsensusSpec::AveragePreference(),
       AffinityModelSpec::Default()},
      {"AP + continuous affinity", ConsensusSpec::AveragePreference(),
       AffinityModelSpec::Continuous()},
      {"AP, no affinity", ConsensusSpec::AveragePreference(),
       AffinityModelSpec::AffinityAgnostic()},
      {"Least misery (MO)", ConsensusSpec::LeastMisery(),
       AffinityModelSpec::Default()},
      {"Low-conflict (PD, w1=0.2)", ConsensusSpec::PairwiseDisagreement(0.2),
       AffinityModelSpec::Default()},
  };

  TablePrinter table("Movie night: top-5 under each strategy");
  table.SetColumns({"strategy", "#1", "#2", "#3", "#4", "#5", "saveup %"});
  for (const Choice& choice : choices) {
    QuerySpec spec;
    spec.k = 5;
    spec.consensus = choice.consensus;
    spec.model = choice.model;
    spec.num_candidate_items = 1'200;
    const Recommendation rec = engine.Recommend(group, spec).value();
    std::vector<std::string> row{choice.label};
    for (std::size_t i = 0; i < 5; ++i) {
      row.push_back(i < rec.items.size()
                        ? "#" + std::to_string(rec.items[i])
                        : "-");
    }
    row.push_back(TablePrinter::Cell(rec.raw.SaveupPercent(), 1));
    table.AddRow(row);
  }
  table.Print(std::cout);
  std::cout << "\nEach strategy is an exact top-k under its own semantics; "
               "GRECA terminates early in every case.\n";
  return 0;
}
