// The eight user-study groups of §4.1.4, the six characteristic buckets
// used on every quality-figure x-axis (Sim, Diss, Small, Large, High Aff,
// Low Aff), and the two pair signals group formation optimizes.
#ifndef GRECA_EVAL_STUDY_GROUPS_H_
#define GRECA_EVAL_STUDY_GROUPS_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "affinity/affinity_source.h"
#include "affinity/temporal_model.h"
#include "dataset/facebook_study.h"
#include "groups/group_formation.h"

namespace greca {

struct StudyGroupSpec {
  std::size_t size = 3;       // small = 3, large = 6 (§4.1.3)
  bool similar = true;        // cohesive vs dissimilar ratings
  bool high_affinity = true;  // pair-wise affinity >= 0.4 vs minimized
};

struct StudyGroup {
  StudyGroupSpec spec;
  Group members;
  double sum_similarity = 0.0;
  double min_affinity = 0.0;
  double max_affinity = 0.0;
};

/// The x-axis buckets of Figures 1–3.
enum class GroupCharacteristic {
  kSim,
  kDiss,
  kSmall,
  kLarge,
  kHighAff,
  kLowAff,
};

inline constexpr std::size_t kNumCharacteristics = 6;

std::string CharacteristicName(GroupCharacteristic c);
std::vector<GroupCharacteristic> AllCharacteristics();
bool HasCharacteristic(const StudyGroupSpec& spec, GroupCharacteristic c);

/// Group cohesiveness signal: Pearson correlation of two users' own ratings
/// over co-rated items (§4.1.3). Plain cosine of all-positive star vectors
/// is always close to 1 and cannot separate similar from dissimilar tastes.
double RatingSimilarity(const RatingsDataset& ratings, UserId a, UserId b);

/// Model affinity of a pair at a period under `spec` (used to form high/low
/// affinity groups; the 0.4 cut of §4.1.3 applies to this value). `period`
/// follows the QuerySpec convention (nullopt = last period of `source`) and
/// must resolve — an out-of-range period is a programming error (returns 0
/// in release builds). Static affinity is normalized by the population max
/// (a bare pair has no group context).
double ModelAffinity(const AffinitySource& source, UserId a, UserId b,
                     std::optional<PeriodId> period,
                     const AffinityModelSpec& spec);

/// Forms the 2×2×2 study groups (size × cohesiveness × affinity) greedily
/// from the study participants. Cohesiveness (RatingSimilarity over the
/// as-generated study ratings) is optimized among users who rated the
/// matching movie set; affinity uses the discrete temporal model of
/// `affinity` at its last period with the paper's 0.4 aspiration for
/// high-affinity groups.
std::vector<StudyGroup> FormStudyGroups(const FacebookStudy& study,
                                        const AffinitySource& affinity);

/// Mean of `value(group)` over the study groups having characteristic `c`.
double CharacteristicMean(const std::vector<StudyGroup>& groups,
                          GroupCharacteristic c,
                          const std::function<double(const StudyGroup&)>& value);

}  // namespace greca

#endif  // GRECA_EVAL_STUDY_GROUPS_H_
