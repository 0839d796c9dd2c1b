// The group query vocabulary shared by the serving engine, the batch
// planner, the solvers and the evaluation harnesses: QuerySpec (k, temporal
// affinity model, consensus function, evaluation period, solver,
// member weighting, candidate pool), Query (an ad-hoc group plus its spec),
// Recommendation (the ranked items with their access statistics) and the
// per-worker QueryWorkspace.
//
// What one query computes (ad-hoc group G, evaluation period p):
//  1. candidate items = the top-C prefix of the popular-item pool, with
//     items any member already rated tombstoned (the problem definition
//     excludes individually known items, §2.4);
//  2. absolute preferences apref(u, ·) from user-based CF, held pre-sorted
//     over the pool in PreferenceIndex rows — per query each member's list
//     is a ListView slice of its row (no sort, no copy);
//  3. static affinities from common friends, normalized within the group;
//  4. periodic affinities from common page-like categories per period,
//     served from a (group, period) list cache;
//  5. the chosen temporal model + consensus function form a GroupProblem
//     solved by the registered solver (GRECA, TA, the naive scan, ...).
//
// ShardedEngine (shard/sharded_engine.h) serves these queries; invalid ones
// (empty group, k = 0, unknown member, out-of-range period, oversized group)
// come back as a greca::Status, never as an assert.
#ifndef GRECA_CORE_GROUP_RECOMMENDER_H_
#define GRECA_CORE_GROUP_RECOMMENDER_H_

#include <optional>
#include <string>
#include <vector>

#include "affinity/temporal_model.h"
#include "common/types.h"
#include "consensus/consensus.h"
#include "core/greca.h"
#include "topk/problem.h"
#include "topk/result.h"

namespace greca {

/// Legacy solver selector, kept as a thin alias for API compatibility: each
/// enumerator maps to a registered solver id (solver/solver_registry.h's
/// AlgorithmSolverId). New code — and any solver beyond these three — selects
/// by QuerySpec::solver_id instead; a non-empty solver_id always wins.
enum class Algorithm {
  kGreca,
  kNaive,
  kTa,
};

/// How member preferences are weighted inside the consensus functions.
enum class MemberWeighting {
  /// Every member counts equally — the historical, bit-identical default.
  kUniform,
  /// Per-member weights from social-graph influence (propagation
  /// centrality over the study's friendship graph), materialized by the
  /// bound AffinitySource and normalized per group. Flows through every
  /// registered solver without per-solver code.
  kInfluence,
};

/// Row layout of the PreferenceIndex rows (identical recommendations and
/// access counts either way — the layouts differ only in how many raw
/// entries a prefix-restricted sequential scan walks).
enum class IndexLayout {
  /// Rows bucketed by popularity band (geometric pool-position breakpoints),
  /// each band score-sorted: a prefix-restricted view walks only the bands
  /// its candidate pool intersects (≤ 2× the prefix), restoring the paper's
  /// access-cost model for small-pool queries.
  kBanded,
  /// One globally score-sorted row per user: exhausting a prefix slice skips
  /// every out-of-prefix entry one by one, walking the full row. Kept as the
  /// equivalence and bench baseline.
  kFlat,
};

struct QuerySpec {
  std::size_t k = 10;
  AffinityModelSpec model;
  ConsensusSpec consensus;
  /// Evaluation period index into the study timeline; recommendations use
  /// periods 0..eval_period inclusive. `std::nullopt` means "the last study
  /// period"; explicit indices must be in range — ResolveEvalPeriod rejects
  /// out-of-range values with kOutOfRange instead of clamping.
  std::optional<PeriodId> eval_period;
  Algorithm algorithm = Algorithm::kGreca;
  /// Registry solver id (solver/solver_registry.h). Empty — the default —
  /// falls back to the `algorithm` enum alias; non-empty always wins, so the
  /// enum never constrains which registered solver runs. Unknown ids are
  /// rejected at validation with kInvalidArgument.
  std::string solver_id;
  /// Per-member consensus weighting (see MemberWeighting). kUniform keeps
  /// the historical bit-identical scoring path.
  MemberWeighting weighting = MemberWeighting::kUniform;
  TerminationPolicy termination = TerminationPolicy::kBufferCondition;
  /// Candidate pool size for this query (at most the engine's pool).
  std::size_t num_candidate_items = 3'900;

  /// Field-wise equality. Note the batch planner (plan/batch_planner.h)
  /// buckets on RESOLVED periods and RESOLVED solver ids, so specs differing
  /// only in "nullopt vs explicit last period" (or "enum alias vs its
  /// explicit solver id") compare unequal here but still share a bucket.
  friend bool operator==(const QuerySpec&, const QuerySpec&) = default;
};

/// One group recommendation request: an ad-hoc group of study participants
/// plus the full query configuration. The unit of
/// ShardedEngine::RecommendBatch and of the batch planner's bucketing.
struct Query {
  std::vector<UserId> group;
  QuerySpec spec;
};

struct Recommendation {
  /// Universe item ids, best first.
  std::vector<ItemId> items;
  /// Matching (lower-bound) consensus scores.
  std::vector<double> scores;
  /// Raw algorithm output with access statistics.
  TopKResult raw;
  /// GRECA-only execution statistics (zeros for other algorithms).
  GrecaStats greca_stats;
};

/// Reusable per-query buffers: the problem-assembly arena (tombstones,
/// preference views, materialized affinity/agreement lists) plus GRECA's
/// bound buffers. One workspace per worker thread amortizes hot-path
/// allocations across a batch of queries; a workspace must never be shared
/// by concurrent queries, and a problem built into a workspace is
/// invalidated by the workspace's next BuildProblem.
struct QueryWorkspace {
  ProblemArena arena;
  GrecaWorkspace greca;
};

}  // namespace greca

#endif  // GRECA_CORE_GROUP_RECOMMENDER_H_
