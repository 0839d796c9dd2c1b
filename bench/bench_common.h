// Shared fixture for every bench harness: the paper-scale synthetic
// MovieLens twin (Table 5), the 72-participant Facebook study twin, a
// one-shard serving engine over them and the satisfaction oracle — built
// once per binary.
#ifndef GRECA_BENCH_BENCH_COMMON_H_
#define GRECA_BENCH_BENCH_COMMON_H_

#include <memory>
#include <vector>

#include "affinity/periodic_affinity.h"
#include "eval/experiments.h"
#include "eval/satisfaction.h"
#include "eval/study_groups.h"
#include "shard/sharded_engine.h"

namespace greca::bench {

struct BenchContext {
  SyntheticRatings universe;
  FacebookStudy study;
  /// The options `engine` was built with (one shard, batches inline, pool
  /// capped at the universe); benches copy and adjust them to build
  /// variants over the same datasets.
  ShardedEngineOptions options;
  std::unique_ptr<ShardedEngine> engine;
  /// The study's periodic affinity table (for benches that read it
  /// directly; the engine keeps its own copy behind its AffinitySource).
  std::unique_ptr<PeriodicAffinity> periodic;
  std::unique_ptr<SatisfactionOracle> oracle;

  /// Lazily-built process-wide context at the paper's scale (6 040 users,
  /// 3 952 movies, ~1M ratings, 72 study participants, 6 two-month periods).
  /// Set GRECA_BENCH_SMALL=1 to shrink the universe for smoke runs.
  static const BenchContext& Get();
};

/// Number of repetitions for group-sampled measurements (paper: 20 groups).
inline constexpr std::size_t kNumRandomGroups = 20;

}  // namespace greca::bench

#endif  // GRECA_BENCH_BENCH_COMMON_H_
