// Shared helpers for the GRECA test suite.
#ifndef GRECA_TESTS_TEST_UTIL_H_
#define GRECA_TESTS_TEST_UTIL_H_

#include <vector>

#include "affinity/periodic_affinity.h"
#include "affinity/static_affinity.h"
#include "affinity/temporal_model.h"
#include "common/rng.h"
#include "consensus/consensus.h"
#include "dataset/facebook_study.h"
#include "topk/problem.h"

namespace greca::testing {

/// Builds a randomized but fully valid GroupProblem: `g` members over `m`
/// candidate items and `num_periods` periods, every list covering its whole
/// key space with scores in [0, 1]. Deterministic in `rng`.
GroupProblem MakeRandomProblem(Rng& rng, std::size_t g, std::size_t m,
                               std::size_t num_periods,
                               const ConsensusSpec& consensus,
                               const AffinityModelSpec& model);

/// The paper's running example (§3.1, Tables 1–4): three users, three items,
/// two periods. Preferences are normalized to [0, 1] by the 5-star scale.
GroupProblem MakeRunningExampleProblem(const ConsensusSpec& consensus,
                                       const AffinityModelSpec& model);

/// The study's affinity tables, for tests that bind their own
/// StudyAffinitySource: the source references them, so they must outlive it
/// (and every engine it is bound to).
struct StudyTables {
  explicit StudyTables(const FacebookStudy& study)
      : static_counts(ComputeCommonFriendCounts(study.graph)),
        periodic(PeriodicAffinity::Compute(study.likes, study.periods)) {}
  PairTable static_counts;
  PeriodicAffinity periodic;
};

/// Sorted exact consensus scores of the given keys (descending).
std::vector<double> ExactScoresSorted(const GroupProblem& problem,
                                      const std::vector<ListEntry>& items);

}  // namespace greca::testing

#endif  // GRECA_TESTS_TEST_UTIL_H_
