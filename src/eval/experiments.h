// Experiment drivers shared by the bench harnesses: the quality study
// (Figures 1–3, §4.1) and the scalability study (Figures 5–8, §4.2).
#ifndef GRECA_EVAL_EXPERIMENTS_H_
#define GRECA_EVAL_EXPERIMENTS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/group_recommender.h"
#include "eval/satisfaction.h"
#include "eval/study_groups.h"

namespace greca {

class ShardedEngine;

/// One recommendation configuration compared in the quality study.
struct RecommendationVariant {
  std::string label;
  AffinityModelSpec model;
  ConsensusSpec consensus;

  /// The study's default: affinity-aware, discrete time model, AP (§4.1.4).
  static RecommendationVariant Default();
  static RecommendationVariant AffinityAgnostic();
  static RecommendationVariant TimeAgnostic();
  static RecommendationVariant ContinuousModel();
  static RecommendationVariant WithConsensus(std::string label,
                                             ConsensusSpec consensus);
};

/// Quality study driver. All judgments come from the SatisfactionOracle at
/// the last study period.
class QualityHarness {
 public:
  QualityHarness(const ShardedEngine& engine, const SatisfactionOracle& oracle,
                 std::vector<StudyGroup> groups, std::size_t k = 10);

  /// Independent evaluation (Figure 1): mean group satisfaction % per
  /// characteristic bucket, ordered as AllCharacteristics().
  std::vector<double> IndependentEval(const RecommendationVariant& v) const;

  /// Comparative evaluation (Figure 3): % of members preferring v1's list
  /// over v2's, per characteristic bucket.
  std::vector<double> ComparativeEval(const RecommendationVariant& v1,
                                      const RecommendationVariant& v2) const;

  /// Multi-way comparison (Figure 2): vote share of each variant per
  /// characteristic; result[variant][characteristic].
  std::vector<std::vector<double>> VoteShares(
      std::span<const RecommendationVariant> variants) const;

  /// The exact recommendation list a variant produces for one study group.
  std::vector<ItemId> RecommendList(const StudyGroup& group,
                                    const RecommendationVariant& v) const;

  const std::vector<StudyGroup>& groups() const { return groups_; }

 private:
  const ShardedEngine* engine_;
  const SatisfactionOracle* oracle_;
  std::vector<StudyGroup> groups_;
  std::size_t k_;
};

/// Scalability study driver: measures GRECA's %SA over random groups of
/// study participants (the paper's setup: 20 random groups, size 6, k = 10,
/// 3 900 items, AP, discrete model).
class PerformanceHarness {
 public:
  PerformanceHarness(const ShardedEngine& engine, std::uint64_t seed);

  struct SaMeasurement {
    double mean_sa_percent = 0.0;
    double std_error = 0.0;
    double mean_saveup_percent = 0.0;
    double mean_rounds = 0.0;
  };

  /// Deterministic random groups of the engine's users.
  std::vector<Group> RandomGroups(std::size_t count, std::size_t size) const;

  SaMeasurement Measure(std::span<const Group> groups,
                        const QuerySpec& spec) const;

  /// Convenience: measure over `num_groups` fresh random groups.
  SaMeasurement MeasureRandomGroups(const QuerySpec& spec,
                                    std::size_t group_size,
                                    std::size_t num_groups) const;

  /// The paper's default scalability query (AP, discrete, k=10, 3 900 items).
  static QuerySpec DefaultSpec();

 private:
  const ShardedEngine* engine_;
  std::uint64_t seed_;
};

}  // namespace greca

#endif  // GRECA_EVAL_EXPERIMENTS_H_
