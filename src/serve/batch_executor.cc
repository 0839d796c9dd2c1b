#include "serve/batch_executor.h"

#include <cstdint>
#include <optional>
#include <thread>
#include <utility>

#include "core/problem_assembly.h"
#include "shard/sharded_engine.h"

namespace greca {

std::size_t ResolveBatchThreads(std::size_t requested) {
  if (requested > 0) return requested;
  const std::size_t hw = std::thread::hardware_concurrency();
  return hw > 2 ? hw : 2;
}

namespace {

/// Lazy-agreement outcome of one solved problem, aggregated into
/// BatchReport::agreement_lists_{materialized,skipped}.
struct SolveOutcome {
  bool agreement_deferred = false;
  bool agreement_materialized = false;
};

/// The set's cache counters at one point in time, taken before and after a
/// batch to report the batch's own deltas.
struct CacheCounters {
  std::uint64_t period_hits = 0, period_misses = 0;
  std::uint64_t tomb_hits = 0, tomb_misses = 0, tomb_evictions = 0;

  explicit CacheCounters(const ShardedSnapshotSet& set)
      : period_hits(set.period_cache().hits()),
        period_misses(set.period_cache().misses()),
        tomb_hits(set.tombstone_cache().hits()),
        tomb_misses(set.tombstone_cache().misses()),
        tomb_evictions(set.tombstone_cache().evictions()) {}

  void DeltaInto(const CacheCounters& before, BatchReport& report) const {
    report.period_cache_hits = period_hits - before.period_hits;
    report.period_cache_misses = period_misses - before.period_misses;
    report.tombstone_cache_hits = tomb_hits - before.tomb_hits;
    report.tombstone_cache_misses = tomb_misses - before.tomb_misses;
    report.tombstone_cache_evictions = tomb_evictions - before.tomb_evictions;
  }
};

/// One query's build + solve on `ws` against the pinned set — exactly
/// ShardedEngine::Recommend, split so the problem's lazy-agreement flags
/// can be read back after the solve (materialization happens on first walk,
/// i.e. during the solve). Invalid queries yield the validation Status.
Result<Recommendation> SolveOne(
    const ShardedEngine& engine,
    const std::shared_ptr<const ShardedSnapshotSet>& set, const Query& query,
    QueryWorkspace& ws, SolveOutcome* outcome) {
  Result<GroupProblem> problem =
      engine.BuildProblem(set, query.group, query.spec, nullptr, &ws);
  if (!problem.ok()) return problem.status();
  Result<Recommendation> rec =
      SolveGroupProblem(problem.value(), query.spec, set->pool(), ws);
  if (outcome != nullptr) {
    outcome->agreement_deferred = problem.value().agreement_deferred();
    outcome->agreement_materialized = problem.value().agreement_materialized();
  }
  return rec;
}

/// Runs fn(workspace, index) for every index in [0, n): over `pool` with one
/// leased workspace per worker, or inline with a single lease when `pool` is
/// null or there is nothing to parallelize.
template <typename Fn>
void RunUnits(std::size_t n, ThreadPool* pool, WorkspacePool& workspaces,
              Fn&& fn) {
  if (n == 0) return;
  if (pool == nullptr || n == 1) {
    WorkspacePool::Lease lease = workspaces.Acquire();
    for (std::size_t i = 0; i < n; ++i) fn(*lease, i);
    return;
  }
  std::vector<WorkspacePool::Lease> leases;
  leases.reserve(pool->size());
  for (std::size_t w = 0; w < pool->size(); ++w) {
    leases.push_back(workspaces.Acquire());
  }
  pool->ParallelFor(
      n, [&](std::size_t worker, std::size_t i) { fn(*leases[worker], i); });
}

std::vector<Result<Recommendation>> ExecuteUnplanned(
    const ShardedEngine& engine,
    const std::shared_ptr<const ShardedSnapshotSet>& set,
    std::span<const Query> queries, ThreadPool* pool,
    WorkspacePool& workspaces, const CacheCounters& before,
    BatchReport* report) {
  // One problem per query; SolveOne validates internally, so invalid queries
  // surface their validation Status in place.
  std::vector<std::optional<Result<Recommendation>>> scratch(queries.size());
  RunUnits(queries.size(), pool, workspaces,
           [&](QueryWorkspace& ws, std::size_t i) {
             scratch[i].emplace(
                 SolveOne(engine, set, queries[i], ws, nullptr));
           });
  std::vector<Result<Recommendation>> results;
  results.reserve(queries.size());
  for (auto& r : scratch) {
    results.push_back(std::move(*r));
  }
  if (report != nullptr) {
    *report = BatchReport{};
    report->planned = false;
    report->num_queries = queries.size();
    report->per_query.resize(queries.size());
    std::uint32_t bucket = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (!results[i].ok()) {
        ++report->num_invalid;
        continue;
      }
      // Every valid query is its own single-member bucket here.
      report->per_query[i] = {bucket++, /*representative=*/true};
    }
    report->num_buckets = bucket;
    CacheCounters(*set).DeltaInto(before, *report);
  }
  return results;
}

std::vector<Result<Recommendation>> ExecutePlanned(
    const ShardedEngine& engine,
    const std::shared_ptr<const ShardedSnapshotSet>& set,
    std::span<const Query> queries, ThreadPool* pool,
    WorkspacePool& workspaces, const CacheCounters& before,
    BatchReport* report) {
  // Validation against the pinned set's binding: byte-identical to the
  // Status SolveOne would return for the same query.
  BatchPlan plan = BatchPlanner::Plan(
      queries,
      [&](const Query& q) {
        return engine.ValidateQuery(*set, q.group, q.spec);
      },
      engine.num_periods());

  // Solve one representative problem per bucket. Buckets are independent
  // (distinct execution signatures against one immutable pinned set), so
  // they run over the pool; every fanned-out copy below is bit-identical to
  // solving its query directly.
  struct BucketOutcome {
    std::optional<Result<Recommendation>> result;
    SolveOutcome agreement;
  };
  std::vector<BucketOutcome> solved(plan.buckets.size());
  RunUnits(plan.buckets.size(), pool, workspaces,
           [&](QueryWorkspace& ws, std::size_t b) {
             const Query& q = queries[plan.buckets[b].queries.front()];
             solved[b].result.emplace(
                 SolveOne(engine, set, q, ws, &solved[b].agreement));
           });

  // Fan the solved results back out to every duplicate, in input order.
  std::vector<Result<Recommendation>> results;
  results.reserve(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const std::uint32_t b = plan.bucket_of[i];
    if (b == BatchQueryAttribution::kInvalid) {
      results.emplace_back(plan.statuses[i]);
    } else {
      results.push_back(*solved[b].result);
    }
  }

  if (report != nullptr) {
    *report = BatchReport{};
    report->planned = true;
    report->num_queries = queries.size();
    report->num_invalid = queries.size() - plan.num_valid;
    report->num_buckets = plan.buckets.size();
    report->duplicates_shared = plan.num_valid - plan.buckets.size();
    report->dedup_ratio = plan.DedupRatio();
    for (const BucketOutcome& o : solved) {
      if (!o.agreement.agreement_deferred) continue;
      ++(o.agreement.agreement_materialized
             ? report->agreement_lists_materialized
             : report->agreement_lists_skipped);
    }
    report->per_query.resize(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const std::uint32_t b = plan.bucket_of[i];
      report->per_query[i] = {
          b, b != BatchQueryAttribution::kInvalid &&
                 plan.buckets[b].queries.front() ==
                     static_cast<std::uint32_t>(i)};
    }
    CacheCounters(*set).DeltaInto(before, *report);
  }
  return results;
}

}  // namespace

std::vector<Result<Recommendation>> BatchExecutor::Execute(
    const ShardedEngine& engine,
    const std::shared_ptr<const ShardedSnapshotSet>& set,
    std::span<const Query> queries, bool planned, ThreadPool* pool,
    WorkspacePool& workspaces, BatchReport* report) {
  const CacheCounters before(*set);
  return planned ? ExecutePlanned(engine, set, queries, pool, workspaces,
                                  before, report)
                 : ExecuteUnplanned(engine, set, queries, pool, workspaces,
                                    before, report);
}

}  // namespace greca
