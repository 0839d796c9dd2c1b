// Quickstart: the smallest end-to-end use of the GRECA library through its
// serving engine.
//
// 1. Generate a MovieLens-like rating universe (or parse a real one).
// 2. Generate the social substrate: a 72-user study with friendships and a
//    year of page-like history.
// 3. Build a ShardedEngine, construct a validated query with QueryBuilder,
//    and ask for the top-5 movies for an ad-hoc group of three users under
//    the default temporal-affinity model.
// 4. Run a small batch to show the parallel entry point.
#include <iostream>

#include "api/query_builder.h"
#include "dataset/synthetic.h"
#include "shard/sharded_engine.h"

int main() {
  using namespace greca;

  // A small universe keeps the quickstart instant; scale the numbers up (or
  // load a real ratings file via ParseRatingsFile) for real use.
  SyntheticRatingsConfig universe_config;
  universe_config.num_users = 800;
  universe_config.num_items = 1'000;
  universe_config.target_ratings = 80'000;
  const SyntheticRatings universe = GenerateSyntheticRatings(universe_config);

  const FacebookStudy study =
      GenerateFacebookStudy(FacebookStudyConfig{}, universe);

  ShardedEngineOptions options;
  options.max_candidate_items = 1'000;
  const ShardedEngine engine(universe.dataset, study, options);

  // An ad-hoc group of three study participants. Build() validates the query
  // up front — bad k, empty groups, unknown users and out-of-range periods
  // all surface as a greca::Status here, before any work happens.
  const Result<Query> query = QueryBuilder(engine)
                                  .Members({4, 17, 29})
                                  .TopK(5)
                                  .Model(AffinityModelSpec::Default())
                                  .Consensus(ConsensusSpec::AveragePreference())
                                  .AtLastPeriod()
                                  .CandidatePool(1'000)
                                  .Build();
  if (!query.ok()) {
    std::cerr << "invalid query: " << query.status().ToString() << '\n';
    return 1;
  }

  const Recommendation rec =
      engine.Recommend(query.value().group, query.value().spec).value();

  std::cout << "Top-5 movies for group {4, 17, 29} "
            << "(discrete temporal affinity, AP consensus):\n";
  for (std::size_t i = 0; i < rec.items.size(); ++i) {
    std::cout << "  " << i + 1 << ". movie #" << rec.items[i]
              << "  (consensus score " << rec.scores[i] << ")\n";
  }
  std::cout << "\nGRECA read " << rec.raw.accesses.sequential << " of "
            << rec.raw.total_entries << " list entries ("
            << rec.raw.SequentialAccessPercent() << "% — a "
            << rec.raw.SaveupPercent() << "% saveup vs a full scan).\n";

  // Batches execute in parallel over the engine's batch pool, one result per
  // query in input order.
  std::vector<Query> batch;
  for (UserId u = 0; u + 2 < 12; u += 3) {
    batch.push_back(Query{{u, u + 1, u + 2}, query.value().spec});
  }
  const auto results = engine.RecommendBatch(batch);
  std::cout << "\nBatch of " << batch.size() << " group queries over "
            << engine.num_shards() << " shards:\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::cout << "  group {" << batch[i].group[0] << ", " << batch[i].group[1]
              << ", " << batch[i].group[2] << "} -> top movie #"
              << results[i].value().items.front() << '\n';
  }
  return 0;
}
