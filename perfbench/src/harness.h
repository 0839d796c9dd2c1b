// Closed-loop benchmark harness shared by the three workloads.
//
// One client thread drives a ShardedEngine through a fixed, seeded sequence
// of rounds. Every operation waits for its reply before the next is issued,
// nothing is paced by a clock, and the engine's compaction is triggered by
// publish count, so a run with a given (workload, seed, seconds) always does
// identical work. The round count is fixed up front from --seconds and the
// workload's calibrated round rate, in whole blocks of kRoundBlock rounds
// (see README.md).
//
// Every answer is checked against computations the benchmark makes itself
// (its own record of the ratings, an exhaustive solver, a one-at-a-time
// replay, a query path rebuilt from public parts). A failed check is counted,
// never aborted on. Only exactness probes (see Probe) may fail and still
// leave the run correct: their verdict depends on fixed inputs alone, so
// they fail the same share of operations in every run.
//
// With tracing on, the same rounds run with spans recorded around calls into
// each library module from this file; see trace.h.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "api/snapshot.h"
#include "api/update.h"
#include "common/rng.h"
#include "core/group_recommender.h"
#include "shard/sharded_engine.h"
#include "topk/problem.h"
#include "trace.h"

namespace perfbench {

using greca::ItemId;
using greca::UserId;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Where the traced run writes its spans (one JSON object per line).
  std::string trace_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the JSON result.
  std::vector<std::string> notes;
};

/// Derives an independent 64-bit stream seed from the run seed (SplitMix64).
std::uint64_t Mix(std::uint64_t seed, std::uint64_t stream);

/// Worker threads the engine may use: the host's core count, never more.
std::size_t HostThreads();

/// The benchmark's own record of every rating the engine holds: the base
/// dataset plus every write, folded with the latest-(timestamp, rating)-wins
/// rule. Used to derive the expected `events_applied` of each write and the
/// items a group has rated.
class Ledger {
 public:
  void Reset(const greca::RatingsDataset* base) {
    base_ = base;
    written_.clear();
  }
  /// Folds one event; returns true when it takes effect (no stored rating
  /// for the pair, or (timestamp, rating) strictly greater than it).
  bool Apply(const greca::RatingEvent& e);
  /// Calls `fn(item)` for every item `u` has rated.
  template <typename Fn>
  void ForEachRated(UserId u, Fn&& fn) const {
    const auto it = written_.find(u);
    if (it == written_.end()) {
      for (const auto& e : base_->RatingsOfUser(u)) fn(e.item);
    } else {
      for (const auto& [item, value] : it->second) fn(item);
    }
  }

 private:
  const greca::RatingsDataset* base_ = nullptr;
  // Users with at least one write: their full merged row.
  std::map<UserId, std::map<ItemId, std::pair<greca::Timestamp, greca::Score>>>
      written_;
};

/// Named output checks with attempted/failed counts; the first failure of
/// each kind is kept for the report.
class Checks {
 public:
  bool Expect(const char* kind, bool ok, const std::string& detail = {});
  std::uint64_t failed() const;
  std::uint64_t failed(const std::string& kind) const;
  std::string Summary() const;

 private:
  struct Kind {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string first_failure;
  };
  std::map<std::string, Kind> kinds_;
};

class Bench {
 public:
  /// Measured rounds come in whole blocks of this many, so a workload that
  /// repeats a fixed schedule every block does the same operations in the
  /// same proportions at any length.
  static constexpr std::size_t kRoundBlock = 100;

  virtual ~Bench() = default;
  RunResult Run();

 protected:
  explicit Bench(RunOptions options);

  // --- Workload hooks ---
  /// Generates the inputs from the seed (not timed).
  virtual void Generate() = 0;
  /// Constructs the engine from the generated inputs (timed as setup_s)
  /// with a RecommendBatch pool of `batch_threads` (1 = inline).
  virtual std::unique_ptr<greca::ShardedEngine> Build(
      std::size_t batch_threads) const = 0;
  /// The ratings the engine starts from (the ledger's base).
  virtual const greca::RatingsDataset& BaseRatings() const = 0;
  /// One line describing the generated inputs.
  virtual std::string DescribeInputs() const = 0;
  /// Untimed work after the first engine is built and before the first
  /// round; the round counts are known by then.
  virtual void Prepare() {}
  /// Measured rounds served by one freshly built engine; divides
  /// kRoundBlock.
  virtual std::size_t RoundsPerEngine() const { return kRoundBlock; }
  /// Untimed work on each freshly built engine, before its warm-up.
  virtual void StartEngine() {}
  /// One round of operations (issued through Read*/Write below). Each
  /// engine runs max(1, RoundsPerEngine() / 20) warm-up rounds, `index`
  /// counting from 0, then RoundsPerEngine() measured rounds, `index`
  /// counting on from the previous engine's (see measuring()).
  virtual void Round(std::size_t index) = 0;
  /// Rounds per second of --seconds, chosen per workload so that a run
  /// measures enough reads for steady medians; the run makes
  /// rate * seconds measured rounds, rounded up to a whole number of
  /// kRoundBlock.
  virtual double RoundsPerSecond() const = 0;
  /// The fewest engine builds setup_s is the median of.
  virtual std::size_t SetupRepeats() const = 0;
  /// Ground-truth group satisfaction (%) of an answered query.
  virtual double Satisfaction(const greca::Query& q,
                              const greca::Recommendation& rec) const = 0;
  /// Traced run only: one user's raw pool scores, computed the way the
  /// engine's predictor computes them.
  virtual void PredictPoolRow(UserId user,
                              std::span<const greca::UserRatingEntry> merged,
                              std::span<const ItemId> pool,
                              std::span<greca::Score> out) = 0;
  /// Milliseconds spent in FormationPipeline::FormGroups over this
  /// workload's population (traced run only).
  virtual double FormGroupsMs() = 0;

  // --- Operations ---
  /// One Recommend call (the read of the single-query workload).
  void ReadSingle(const greca::Query& q);
  /// One exactness probe, not timed: GRECA's list for `q` on `set` must
  /// have the same exact consensus scores, rank by rank, as the naive
  /// solver's on the same set. Probing a set that no write changes, with
  /// queries that do not depend on the run seed, gives the same verdicts in
  /// every run.
  void Probe(const std::shared_ptr<const greca::ShardedSnapshotSet>& set,
             const greca::Query& q);
  /// One RecommendBatch call. `rep[i]` is the index of the first query in
  /// `queries` identical to query i (the benchmark's own view of the
  /// duplicates). Returns the batch results.
  std::vector<greca::Result<greca::Recommendation>> ReadBatch(
      const std::vector<greca::Query>& queries,
      const std::vector<std::uint32_t>& rep);
  /// One ApplyUpdates call.
  void Write(const std::vector<greca::RatingEvent>& events);

  greca::Timestamp NextTimestamp() { return next_ts_++; }
  bool measuring() const { return recording_; }

  RunOptions options_;
  greca::Rng rng_;
  std::unique_ptr<greca::ShardedEngine> engine_;
  /// Events of the latest write that took effect (read-your-writes).
  std::vector<greca::RatingEvent> last_applied_;

 private:
  /// Checks and quality stats for one answered query.
  void AfterAnswer(const greca::Query& q, const greca::Recommendation& rec,
                   bool check_list);
  void CheckList(const greca::Query& q, const greca::Recommendation& rec);
  /// Assembles `q`'s problem on `set` from public parts (ValidateQuery, the
  /// members' slices, AssembleGroupProblem) with the given caches, into
  /// `ws`'s arena; spans are recorded around each call.
  greca::Status Assemble(const greca::ShardedSnapshotSet& set,
                         const greca::Query& q,
                         greca::PeriodListCache* period_cache,
                         greca::TombstoneCache* tombstones,
                         greca::QueryWorkspace& ws,
                         std::optional<greca::GroupProblem>& problem);
  /// Rebuilds the query from public parts (Pin, Assemble, SolveGroupProblem)
  /// and checks it against `rec`, the answer the engine just gave on the
  /// same (unpublished) state. When `naive` is set, also checks GRECA's
  /// exact scores against the naive solver on the same pinned set.
  void Decomposed(const greca::Query& q, const greca::Recommendation& rec,
                  bool naive);
  /// Checks that `greca_list` (GRECA's list for `q` on `set`) has the
  /// exact scores of the naive solver's list, rank by rank, using `problem`
  /// (the query assembled on `set`) for the scores. Counted under `kind`.
  void CompareWithNaive(
      const char* kind,
      const std::shared_ptr<const greca::ShardedSnapshotSet>& set,
      const greca::Query& q, const greca::GroupProblem& problem,
      const greca::Recommendation& greca_list);
  /// Traced run only: times the decomposed path on `set` once with spans
  /// recorded and once without, back to back on warm caches, for
  /// trace.overhead_pct.
  void TimeTracingOverhead(
      const std::shared_ptr<const greca::ShardedSnapshotSet>& set,
      const greca::Query& q);
  /// Traced run only: times the publish stages on pre-write snapshots.
  void TraceWrite(
      const std::vector<std::shared_ptr<const greca::ShardSnapshot>>& pre,
      const std::vector<greca::RatingEvent>& events,
      const greca::ShardedUpdateReport& report);
  std::vector<Metric> EndToEndMetrics(double setup_s) const;
  std::vector<Metric> LayerMetrics();

  /// Traced run only: an engine built from the same inputs with a batch
  /// pool of HostThreads() workers. Batches are replayed on it, against the
  /// serving engine's pinned set, to time the parallel executor.
  std::unique_ptr<greca::ShardedEngine> pooled_;
  Tracer tracer_;
  Checks checks_;
  Ledger ledger_;
  greca::Timestamp next_ts_ = 4'000'000'000;
  bool recording_ = false;
  std::uint64_t op_attempted_ = 0;
  std::uint64_t op_failed_ = 0;
  std::uint64_t probes_ = 0;
  std::uint64_t overhead_pairs_ = 0;

  // Pool position of each universe item (-1 outside the pool).
  std::vector<std::int32_t> pool_pos_;
  std::vector<std::uint8_t> rated_scratch_;

  greca::QueryWorkspace read_ws_;
  greca::QueryWorkspace check_ws_;
  greca::QueryWorkspace trace_ws_;
  greca::QueryWorkspace probe_ws_;
  // The probes' own period cache, so probing leaves the engine's and the
  // decomposed path's cache counts untouched.
  greca::PeriodListCache probe_period_cache_;
  // The decomposed path's own caches, scoped like the engine's (the period
  // cache lives as long as the engine, the tombstone memo as long as a
  // pinned set), so they see the same hit/miss sequence. The set is held
  // weakly: holding it would keep a whole old generation resident across
  // the next publish.
  std::unique_ptr<greca::PeriodListCache> mirror_period_cache_;
  std::weak_ptr<const greca::ShardedSnapshotSet> mirror_set_;
  std::unique_ptr<greca::TombstoneCache> mirror_tombstones_;

  // End-to-end accumulators (measured rounds only).
  std::vector<double> read_ms_;
  std::vector<double> write_ms_;
  double read_seconds_ = 0.0;
  std::uint64_t answered_ = 0;
  double sa_pct_sum_ = 0.0;
  double satisfaction_sum_ = 0.0;

  // Per-layer accumulators (traced run, measured rounds only).
  struct Layers {
    double read_fanout = 0.0;
    std::uint64_t read_queries = 0;
    double write_fanout = 0.0;
    double users_rebuilt = 0.0;
    double delta_ratings = 0.0;
    std::uint64_t writes = 0;
    std::uint64_t compactions = 0;
    double buckets = 0.0;
    double dedup = 0.0;
    std::uint64_t batches = 0;
    double solve_sum_ms = 0.0;
    double batch_ms = 0.0;
    double list_entries = 0.0;
    std::uint64_t decomposed = 0;
    double spans_on_us = 0.0;
    double spans_off_us = 0.0;
    double sorted_accesses = 0.0;
    double random_accesses = 0.0;
    double rounds = 0.0;
    std::uint64_t period_hits = 0;
    std::uint64_t period_misses = 0;
    std::uint64_t tombstone_hits = 0;
    std::uint64_t tombstone_misses = 0;
  } layers_;
  /// True when cache counts come from BatchReport deltas (batch workloads);
  /// false when they come from the decomposed path's mirror caches.
  bool batch_cache_counts_ = false;
};

/// The workload named `name`, or null for an unknown name.
std::unique_ptr<Bench> MakeWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
