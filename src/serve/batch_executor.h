// The batch execution path behind ShardedEngine::RecommendBatch.
//
// Given the engine and one pinned ShardedSnapshotSet, the executor owns:
//
//  * the PLANNED path — the sole BatchPlanner::Plan call site in the
//    library: bucket valid queries by execution signature, solve one
//    representative per bucket, fan the result to every duplicate in input
//    order;
//  * the UNPLANNED reference path — one problem per query, kept selectable
//    so the planner's bit-identity contract stays testable against it;
//  * parallelism — work units (buckets when planned, queries when not) run
//    over the caller's thread pool, each worker on its own workspace leased
//    from a WorkspacePool; a null pool runs them inline on the calling
//    thread, which doubles as the serial reference for the parallel path;
//  * BatchReport assembly — dedup ratio, lazy-agreement counters, cache
//    deltas (the set's period and tombstone caches), per-query attribution.
//
// Determinism: work units are independent and the algorithms are
// deterministic functions of (pinned set, query), so parallel and serial
// execution produce bit-identical results — items, scores, access counts,
// statuses. Cache hit/miss counters may differ between the two (racing
// workers can both miss the same key) but cached VALUES never do.
//
// Concurrency: Execute is re-entrant. Workspaces come from the pool per
// call, so concurrent batches on one engine interleave instead of queueing
// behind a whole-batch mutex; the pinned set is immutable.
#ifndef GRECA_SERVE_BATCH_EXECUTOR_H_
#define GRECA_SERVE_BATCH_EXECUTOR_H_

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/group_recommender.h"
#include "plan/batch_planner.h"
#include "serve/workspace_pool.h"

namespace greca {

class ShardedEngine;
class ShardedSnapshotSet;

/// Shared thread-count default: 0 picks max(2, hardware_concurrency).
std::size_t ResolveBatchThreads(std::size_t requested);

class BatchExecutor {
 public:
  /// Runs `queries` against `engine` on the pinned `set` (non-null) and
  /// returns one result per query in input order. `planned` selects
  /// plan-then-solve vs the one-problem-per-query reference path. `pool` is
  /// the parallelism source: null runs every work unit inline on the
  /// calling thread (the serial reference). `report`, when non-null,
  /// receives planner stats, cache deltas, and per-query attribution.
  static std::vector<Result<Recommendation>> Execute(
      const ShardedEngine& engine,
      const std::shared_ptr<const ShardedSnapshotSet>& set,
      std::span<const Query> queries, bool planned, ThreadPool* pool,
      WorkspacePool& workspaces, BatchReport* report);
};

}  // namespace greca

#endif  // GRECA_SERVE_BATCH_EXECUTOR_H_
