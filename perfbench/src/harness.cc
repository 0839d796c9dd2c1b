#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>
#include <thread>

#include "common/stopwatch.h"
#include "core/problem_assembly.h"
#include "plan/batch_planner.h"

namespace perfbench {

using greca::BatchReport;
using greca::Query;
using greca::Recommendation;
using greca::Result;
using greca::ShardedSnapshotSet;
using greca::Stopwatch;

std::uint64_t Mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::size_t HostThreads() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

namespace {

/// The check kind of exactness probes.
constexpr const char* kProbeCheck = "greca_exact_probe";

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  // Nearest rank.
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

bool SameRecommendation(const Recommendation& a, const Recommendation& b) {
  return a.items == b.items && a.scores == b.scores &&
         a.raw.accesses.sequential == b.raw.accesses.sequential &&
         a.raw.accesses.random == b.raw.accesses.random &&
         a.raw.rounds == b.raw.rounds &&
         a.raw.total_entries == b.raw.total_entries;
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string GroupString(std::span<const UserId> group) {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < group.size(); ++i) {
    out << (i ? "," : "") << group[i];
  }
  out << "]";
  return out.str();
}

}  // namespace

// ---------------------------------------------------------------- Ledger

bool Ledger::Apply(const greca::RatingEvent& e) {
  auto [it, inserted] = written_.try_emplace(e.user);
  if (inserted) {
    for (const auto& r : base_->RatingsOfUser(e.user)) {
      it->second.emplace(r.item, std::make_pair(r.timestamp, r.rating));
    }
  }
  const std::pair<greca::Timestamp, greca::Score> incoming(e.timestamp,
                                                           e.rating);
  auto [slot, fresh] = it->second.try_emplace(e.item, incoming);
  if (fresh) return true;
  if (incoming > slot->second) {
    slot->second = incoming;
    return true;
  }
  return false;
}

// ---------------------------------------------------------------- Checks

bool Checks::Expect(const char* kind, bool ok, const std::string& detail) {
  Kind& k = kinds_[kind];
  ++k.attempted;
  if (!ok) {
    if (k.failed == 0) k.first_failure = detail;
    ++k.failed;
  }
  return ok;
}

std::uint64_t Checks::failed() const {
  std::uint64_t n = 0;
  for (const auto& [name, k] : kinds_) n += k.failed;
  return n;
}

std::uint64_t Checks::failed(const std::string& kind) const {
  const auto it = kinds_.find(kind);
  return it == kinds_.end() ? 0 : it->second.failed;
}

std::string Checks::Summary() const {
  std::ostringstream out;
  out << "checks:";
  for (const auto& [name, k] : kinds_) {
    out << " " << name << "=" << k.attempted << "/" << k.failed;
  }
  for (const auto& [name, k] : kinds_) {
    if (k.failed > 0) {
      out << "\nFAILED " << name << ": " << k.first_failure;
    }
  }
  return out.str();
}

// ---------------------------------------------------------------- Bench

Bench::Bench(RunOptions options)
    : options_(std::move(options)),
      rng_(Mix(options_.seed, 99)),
      tracer_(options_.trace) {}

RunResult Bench::Run() {
  Generate();
  const auto blocks = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(RoundsPerSecond() *
                                            options_.seconds /
                                            static_cast<double>(kRoundBlock))));

  // Every RoundsPerEngine() rounds are served by a freshly built engine,
  // and each build is timed for setup_s. The read speed of one engine stays
  // at one level for as long as it serves and moves by up to 25 % with the
  // next build (README.md "Noise"), so every engine samples a new level.
  // Untraced runs with fewer engines than SetupRepeats() time the missing
  // builds before the first engine and after the last, so the median spans
  // the run.
  // The timed engine runs every batch inline on the client thread: on the
  // reference host the pool's parallel speedup flips between ~1x and ~3x
  // from run to run (README.md), which no end-to-end bound could absorb.
  std::vector<double> setup_seconds;
  auto build = [&] {
    engine_.reset();  // one engine alive at a time
    Stopwatch watch;
    engine_ = Build(/*batch_threads=*/1);
    setup_seconds.push_back(watch.ElapsedSeconds());
  };
  const std::size_t per_engine = RoundsPerEngine();
  assert(per_engine > 0 && kRoundBlock % per_engine == 0);
  const std::size_t engines = blocks * kRoundBlock / per_engine;
  const std::size_t warmup = std::max<std::size_t>(1, per_engine / 20);
  const std::size_t extra_setups =
      options_.trace || SetupRepeats() <= engines ? 0
                                                   : SetupRepeats() - engines;
  for (std::size_t i = 0; i < extra_setups - extra_setups / 2; ++i) build();

  double loop_seconds = 0.0;
  for (std::size_t e = 0; e < engines; ++e) {
    build();
    if (e == 0) {
      if (options_.trace) pooled_ = Build(HostThreads());
      const std::span<const ItemId> pool = engine_->pool();
      pool_pos_.assign(*std::max_element(pool.begin(), pool.end()) + 1, -1);
      for (std::size_t k = 0; k < pool.size(); ++k) {
        pool_pos_[pool[k]] = static_cast<std::int32_t>(k);
      }
      Prepare();
    }
    ledger_.Reset(&BaseRatings());
    last_applied_.clear();
    mirror_period_cache_ = std::make_unique<greca::PeriodListCache>();
    StartEngine();

    // The warm-up is neither timed nor traced.
    recording_ = false;
    tracer_.set_enabled(false);
    for (std::size_t r = 0; r < warmup; ++r) Round(r);
    recording_ = true;
    tracer_.set_enabled(options_.trace);
    Stopwatch loop_watch;
    for (std::size_t r = 0; r < per_engine; ++r) Round(e * per_engine + r);
    loop_seconds += loop_watch.ElapsedSeconds();
  }
  recording_ = false;

  RunResult result;
  result.attempted = op_attempted_;
  result.failed = op_failed_;
  // Probe failures are counted in `failed` only; any other failed check
  // makes the run incorrect.
  result.correct = checks_.failed() == checks_.failed(kProbeCheck);
  if (options_.trace) {
    result.metrics = LayerMetrics();
  } else {
    for (std::size_t i = 0; i < extra_setups / 2; ++i) build();
    result.metrics = EndToEndMetrics(Median(setup_seconds));
  }
  std::ostringstream ops;
  ops << "run: workload=" << options_.workload << " seed=" << options_.seed
      << " trace=" << (options_.trace ? 1 : 0) << " rounds="
      << engines * warmup << " warm-up + " << blocks * kRoundBlock
      << " measured on " << engines << " engine(s), " << loop_seconds
      << " s; measured reads=" << read_ms_.size()
      << " writes=" << write_ms_.size() << " queries=" << answered_
      << " probes=" << probes_ << "; all ops attempted=" << op_attempted_
      << " failed=" << op_failed_
      << "; setup repeats=" << setup_seconds.size();
  result.notes.push_back("inputs: " + DescribeInputs());
  result.notes.push_back(ops.str());
  // Drift inside the run: the read median of each tenth of the loop.
  std::ostringstream drift;
  drift << "read_p50_ms by tenth of the measured loop:";
  for (std::size_t t = 0; t < 10 && read_ms_.size() >= 10; ++t) {
    const std::size_t a = read_ms_.size() * t / 10;
    const std::size_t b = read_ms_.size() * (t + 1) / 10;
    drift << " " << Median({read_ms_.begin() + a, read_ms_.begin() + b});
  }
  result.notes.push_back(drift.str());
  result.notes.push_back(checks_.Summary());
  if (options_.trace && !options_.trace_path.empty()) {
    if (tracer_.WriteJsonLines(options_.trace_path)) {
      result.notes.push_back("spans written to " + options_.trace_path);
    } else {
      result.notes.push_back("could not write spans to " +
                             options_.trace_path);
    }
    std::ostringstream self;
    self << "span self time (measured rounds), ms:";
    for (const auto& [name, t] : tracer_.Summarize()) {
      self << "\n  " << name << " n=" << t.count
           << " total=" << t.total_us / 1e3 << " self=" << t.self_us / 1e3;
    }
    result.notes.push_back(self.str());
  }
  return result;
}

// ---------------------------------------------------------------- reads

void Bench::ReadSingle(const Query& q) {
  tracer_.BeginRequest();
  ScopedSpan root(tracer_, "read");
  const std::uint64_t failed_before = checks_.failed();
  Stopwatch watch;
  std::shared_ptr<const ShardedSnapshotSet> set;
  std::optional<Result<Recommendation>> res;
  {
    ScopedSpan span(tracer_, "engine.Recommend");
    set = engine_->Pin();
    res.emplace(engine_->Recommend(set, q.group, q.spec, &read_ws_));
  }
  const double ms = watch.ElapsedMillis();
  ++op_attempted_;
  if (recording_) {
    read_ms_.push_back(ms);
    read_seconds_ += ms / 1e3;
  }
  if (!res->ok()) {
    checks_.Expect("read_ok", false, res->status().ToString());
    ++op_failed_;
    return;
  }
  const Recommendation& rec = res->value();
  AfterAnswer(q, rec, /*check_list=*/true);

  if (options_.trace) Decomposed(q, rec, /*naive=*/false);
  if (options_.trace && recording_) {
    // One read in four: each pair costs two more passes of the query.
    if (layers_.decomposed % 4 == 0) TimeTracingOverhead(set, q);
    // The serve layer on a batch of one: what the executor and planner add
    // around a single query.
    const std::vector<Query> one{q};
    {
      ScopedSpan span(tracer_, "plan.Plan");
      greca::BatchPlanner::Plan(
          one,
          [this](const Query& x) {
            return engine_->ValidateQuery(x.group, x.spec);
          },
          engine_->num_periods());
    }
    BatchReport report;
    Stopwatch batch_watch;
    std::vector<Result<Recommendation>> batch;
    {
      ScopedSpan span(tracer_, "serve.PooledRecommendBatch");
      batch = pooled_->RecommendBatch(set, one, &report);
    }
    layers_.batch_ms += batch_watch.ElapsedMillis();
    layers_.solve_sum_ms += ms;
    ++layers_.batches;
    layers_.buckets += static_cast<double>(report.num_buckets);
    layers_.dedup += report.dedup_ratio;
    checks_.Expect("pooled_batch_equal",
                   batch.size() == 1 && batch[0].ok() &&
                       SameRecommendation(batch[0].value(), rec),
                   "group " + GroupString(q.group));
  }
  if (checks_.failed() > failed_before) ++op_failed_;
}

std::vector<Result<Recommendation>> Bench::ReadBatch(
    const std::vector<Query>& queries, const std::vector<std::uint32_t>& rep) {
  batch_cache_counts_ = true;
  tracer_.BeginRequest();
  ScopedSpan root(tracer_, "read");
  std::uint64_t failed_before = checks_.failed();
  BatchReport report;
  Stopwatch watch;
  std::shared_ptr<const ShardedSnapshotSet> set;
  std::vector<Result<Recommendation>> results;
  {
    ScopedSpan span(tracer_, "serve.RecommendBatch");
    set = engine_->Pin();
    results = engine_->RecommendBatch(set, queries, &report);
  }
  const double ms = watch.ElapsedMillis();
  op_attempted_ += queries.size();
  if (recording_) {
    read_ms_.push_back(ms);
    read_seconds_ += ms / 1e3;
    layers_.period_hits += report.period_cache_hits;
    layers_.period_misses += report.period_cache_misses;
    layers_.tombstone_hits += report.tombstone_cache_hits;
    layers_.tombstone_misses += report.tombstone_cache_misses;
  }
  std::size_t distinct = 0;
  for (std::size_t i = 0; i < rep.size(); ++i) distinct += rep[i] == i ? 1 : 0;
  checks_.Expect("plan_buckets",
                 results.size() == queries.size() &&
                     report.num_buckets == distinct,
                 "buckets " + std::to_string(report.num_buckets) +
                     " expected " + std::to_string(distinct));

  double solve_ms = 0.0;
  bool naive_done = false;
  for (std::size_t j = 0; j < queries.size() && j < results.size(); ++j) {
    const Query& q = queries[j];
    if (rep[j] == j) {
      // One-at-a-time replay of the representative on the same pinned set.
      Stopwatch single_watch;
      std::optional<Result<Recommendation>> single;
      {
        ScopedSpan span(tracer_, "serve.SolveOne");
        single.emplace(engine_->Recommend(set, q.group, q.spec, &check_ws_));
      }
      const double single_ms = single_watch.ElapsedMillis();
      solve_ms += single_ms;
      checks_.Expect("batch_equals_single",
                     single->ok() && results[j].ok() &&
                         SameRecommendation(single->value(),
                                            results[j].value()),
                     "group " + GroupString(q.group));
      if (results[j].ok()) {
        AfterAnswer(q, results[j].value(), /*check_list=*/true);
        if (options_.trace || !naive_done) {
          Decomposed(q, results[j].value(), /*naive=*/!naive_done);
          if (options_.trace && recording_ && !naive_done) {
            TimeTracingOverhead(set, q);
          }
          naive_done = true;
        }
      }
    } else {
      const bool same = results[j].ok() && results[rep[j]].ok() &&
                        SameRecommendation(results[j].value(),
                                           results[rep[j]].value());
      checks_.Expect("batch_equals_single", same,
                     "duplicate of query " + std::to_string(rep[j]));
      if (results[j].ok()) AfterAnswer(q, results[j].value(), false);
    }
    if (!results[j].ok()) {
      checks_.Expect("read_ok", false, results[j].status().ToString());
    }
    if (checks_.failed() > failed_before) ++op_failed_;
    failed_before = checks_.failed();
  }

  if (options_.trace && recording_) {
    {
      ScopedSpan span(tracer_, "plan.Plan");
      greca::BatchPlanner::Plan(
          queries,
          [this](const Query& x) {
            return engine_->ValidateQuery(x.group, x.spec);
          },
          engine_->num_periods());
    }
    Stopwatch pooled_watch;
    std::vector<Result<Recommendation>> pooled;
    {
      ScopedSpan span(tracer_, "serve.PooledRecommendBatch");
      pooled = pooled_->RecommendBatch(set, queries);
    }
    layers_.batch_ms += pooled_watch.ElapsedMillis();
    bool same = pooled.size() == results.size();
    for (std::size_t j = 0; same && j < pooled.size(); ++j) {
      same = pooled[j].ok() && results[j].ok() &&
             SameRecommendation(pooled[j].value(), results[j].value());
    }
    checks_.Expect("pooled_batch_equal", same);
    ++layers_.batches;
    layers_.buckets += static_cast<double>(report.num_buckets);
    layers_.dedup += report.dedup_ratio;
    layers_.solve_sum_ms += solve_ms;
  }
  return results;
}

void Bench::AfterAnswer(const Query& q, const Recommendation& rec,
                        bool check_list) {
  if (recording_) {
    ++answered_;
    sa_pct_sum_ += rec.raw.SequentialAccessPercent();
    satisfaction_sum_ += Satisfaction(q, rec);
    layers_.sorted_accesses +=
        static_cast<double>(rec.raw.accesses.sequential);
    layers_.random_accesses +=
        static_cast<double>(rec.raw.accesses.random);
    layers_.rounds += static_cast<double>(rec.raw.rounds);
  }
  if (!check_list) return;
  CheckList(q, rec);
  for (const greca::RatingEvent& e : last_applied_) {
    if (std::find(q.group.begin(), q.group.end(), e.user) == q.group.end()) {
      continue;
    }
    checks_.Expect(
        "read_your_writes",
        std::find(rec.items.begin(), rec.items.end(), e.item) ==
            rec.items.end(),
        "user " + std::to_string(e.user) + " got back item " +
            std::to_string(e.item) + " it just rated");
  }
  if (options_.trace && recording_) {
    layers_.read_fanout +=
        static_cast<double>(engine_->ShardsTouched(q.group));
    ++layers_.read_queries;
  }
}

void Bench::CheckList(const Query& q, const Recommendation& rec) {
  // Expected length: min(k, |pool prefix \ items rated by any member|), from
  // the benchmark's own record of the ratings.
  const std::size_t prefix =
      std::min(q.spec.num_candidate_items, engine_->pool().size());
  rated_scratch_.assign(prefix, 0);
  std::size_t rated = 0;
  for (const UserId u : q.group) {
    ledger_.ForEachRated(u, [&](ItemId item) {
      if (item >= pool_pos_.size() || pool_pos_[item] < 0) return;
      const auto pos = static_cast<std::size_t>(pool_pos_[item]);
      if (pos < prefix && rated_scratch_[pos] == 0) {
        rated_scratch_[pos] = 1;
        ++rated;
      }
    });
  }
  const std::size_t expected = std::min(q.spec.k, prefix - rated);
  bool ok = rec.items.size() == expected && rec.scores.size() == expected;
  std::string detail = "group " + GroupString(q.group) + " k " +
                       std::to_string(q.spec.k) + ": " +
                       std::to_string(rec.items.size()) + " items, expected " +
                       std::to_string(expected);
  for (const ItemId item : rec.items) {
    if (item >= pool_pos_.size() || pool_pos_[item] < 0 ||
        static_cast<std::size_t>(pool_pos_[item]) >= prefix) {
      ok = false;
      detail = "item " + std::to_string(item) + " is outside the pool prefix";
      break;
    }
    std::uint8_t& mark =
        rated_scratch_[static_cast<std::size_t>(pool_pos_[item])];
    if (mark != 0) {
      ok = false;
      detail = "item " + std::to_string(item) +
               (mark == 1 ? " is rated by a member" : " appears twice");
      break;
    }
    mark = 2;
  }
  checks_.Expect("list_valid", ok, detail);
}

greca::Status Bench::Assemble(const ShardedSnapshotSet& set, const Query& q,
                              greca::PeriodListCache* period_cache,
                              greca::TombstoneCache* tombstones,
                              greca::QueryWorkspace& ws,
                              std::optional<greca::GroupProblem>& problem) {
  greca::Status status;
  {
    ScopedSpan span(tracer_, "shard.ValidateQuery");
    status = engine_->ValidateQuery(q.group, q.spec);
  }
  if (!status.ok()) return status;
  const greca::PeriodId eval_period =
      greca::ResolveEvalPeriod(q.spec.eval_period, engine_->num_periods())
          .value();
  std::vector<greca::MemberSlice> slices;
  slices.reserve(q.group.size());
  for (const UserId u : q.group) {
    const std::size_t s = engine_->router().ShardOf(u);
    const greca::ShardSnapshot& snap = set.shard(s);
    slices.push_back({snap.index.get(), engine_->shard(s).LocalRowOf(u),
                      snap.ratings.get(), u});
  }
  const TracedAffinitySource affinity(engine_->affinity(), tracer_);
  greca::StampMemberWeights(affinity, q.group, q.spec, slices);
  greca::AssemblyContext ctx;
  ctx.key_index = set.shard(0).index.get();
  ctx.affinity = &affinity;
  ctx.period_cache = period_cache;
  ctx.tombstone_cache = tombstones;
  ScopedSpan span(tracer_, "core.AssembleGroupProblem");
  problem.emplace(greca::AssembleGroupProblem(ctx, q.group, slices, q.spec,
                                              eval_period, nullptr, &ws));
  return status;
}

void Bench::Decomposed(const Query& q, const Recommendation& rec,
                       bool naive) {
  std::shared_ptr<const ShardedSnapshotSet> pinned;
  std::optional<greca::GroupProblem> problem;
  Recommendation out;
  std::uint64_t period_hits = 0, period_misses = 0, tomb_hits = 0,
                tomb_misses = 0;
  {
    ScopedSpan root(tracer_, "query.decomposed");
    {
      ScopedSpan span(tracer_, "shard.Pin");
      pinned = engine_->Pin();
    }
    if (mirror_set_.lock() != pinned) {
      mirror_set_ = pinned;
      mirror_tombstones_ = std::make_unique<greca::TombstoneCache>();
    }
    period_hits = mirror_period_cache_->hits();
    period_misses = mirror_period_cache_->misses();
    tomb_hits = mirror_tombstones_->hits();
    tomb_misses = mirror_tombstones_->misses();
    const greca::Status status =
        Assemble(*pinned, q, mirror_period_cache_.get(),
                 mirror_tombstones_.get(), trace_ws_, problem);
    if (!checks_.Expect("decomposed_path", status.ok(), status.ToString())) {
      return;
    }
    period_hits = mirror_period_cache_->hits() - period_hits;
    period_misses = mirror_period_cache_->misses() - period_misses;
    tomb_hits = mirror_tombstones_->hits() - tomb_hits;
    tomb_misses = mirror_tombstones_->misses() - tomb_misses;
    problem->PinLifetime(pinned);
    {
      ScopedSpan span(tracer_, "solver.SolveGroupProblem");
      out = greca::SolveGroupProblem(*problem, q.spec,
                                     pinned->shard(0).index->pool(), trace_ws_);
    }
  }
  checks_.Expect("decomposed_path", SameRecommendation(out, rec),
                 "group " + GroupString(q.group) +
                     " differs from Recommend's list");
  if (recording_) {
    ++layers_.decomposed;
    layers_.list_entries += static_cast<double>(problem->TotalEntries());
    if (!batch_cache_counts_) {
      layers_.period_hits += period_hits;
      layers_.period_misses += period_misses;
      layers_.tombstone_hits += tomb_hits;
      layers_.tombstone_misses += tomb_misses;
    }
  }
  if (naive) CompareWithNaive("greca_vs_naive", pinned, q, *problem, out);
}

void Bench::CompareWithNaive(
    const char* kind, const std::shared_ptr<const ShardedSnapshotSet>& set,
    const Query& q, const greca::GroupProblem& problem,
    const Recommendation& greca_list) {
  // GRECA returns lower bounds, so compare EXACT consensus scores of both
  // lists, rank by rank (equal scores may hold different items).
  greca::QuerySpec naive_spec = q.spec;
  naive_spec.algorithm = greca::Algorithm::kNaive;
  naive_spec.solver_id.clear();
  const Result<Recommendation> exhaustive =
      engine_->Recommend(set, q.group, naive_spec, &check_ws_);
  if (!checks_.Expect(kind, exhaustive.ok(),
                      exhaustive.ok() ? "" : exhaustive.status().ToString())) {
    return;
  }
  auto exact = [&](const std::vector<greca::ListEntry>& items) {
    std::vector<double> scores;
    for (const greca::ListEntry& e : items) {
      scores.push_back(problem.ExactScore(e.id));
    }
    std::sort(scores.begin(), scores.end(), std::greater<>());
    return scores;
  };
  const std::vector<double> a = exact(greca_list.raw.items);
  const std::vector<double> b = exact(exhaustive.value().raw.items);
  std::string detail;
  if (a != b) {
    std::ostringstream msg;
    msg.precision(17);
    msg << "group " << GroupString(q.group) << " k " << q.spec.k << " "
        << q.spec.model.Name() << " " << q.spec.consensus.Name()
        << " period " << q.spec.eval_period.value_or(0) << ": " << a.size()
        << " vs " << b.size() << " items";
    for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
      if (a[i] != b[i]) {
        msg << ", rank " << i << " greca " << a[i] << " naive " << b[i];
        break;
      }
    }
    detail = msg.str();
  }
  checks_.Expect(kind, a == b, detail);
}

void Bench::Probe(const std::shared_ptr<const ShardedSnapshotSet>& set,
                  const Query& q) {
  ++op_attempted_;
  ++probes_;
  const std::uint64_t failed_before = checks_.failed();
  // Probes are not part of the traced layers.
  const bool tracing = tracer_.enabled();
  tracer_.set_enabled(false);
  const Result<Recommendation> listed =
      engine_->Recommend(set, q.group, q.spec, &probe_ws_);
  std::optional<greca::GroupProblem> problem;
  const greca::Status status =
      listed.ok() ? Assemble(*set, q, &probe_period_cache_, nullptr,
                             trace_ws_, problem)
                  : listed.status();
  if (checks_.Expect(kProbeCheck, status.ok(), status.ToString())) {
    problem->PinLifetime(set);
    CompareWithNaive(kProbeCheck, set, q, *problem, listed.value());
  }
  tracer_.set_enabled(tracing);
  if (checks_.failed() > failed_before) ++op_failed_;
}

void Bench::TimeTracingOverhead(
    const std::shared_ptr<const ShardedSnapshotSet>& set, const Query& q) {
  // The decomposed path records the most spans per query. Both passes run
  // on the same pinned set with the caches the recorded pass just warmed;
  // which pass goes first alternates from query to query.
  const std::size_t mark = tracer_.size();
  const bool on_first = overhead_pairs_++ % 2 == 0;
  for (int pass = 0; pass < 2; ++pass) {
    const bool on = (pass == 0) == on_first;
    tracer_.set_enabled(on);
    std::optional<greca::GroupProblem> problem;
    Stopwatch watch;
    {
      ScopedSpan root(tracer_, "query.decomposed");
      const greca::Status status =
          Assemble(*set, q, mirror_period_cache_.get(),
                   mirror_tombstones_.get(), trace_ws_, problem);
      if (status.ok()) {
        ScopedSpan span(tracer_, "solver.SolveGroupProblem");
        greca::SolveGroupProblem(*problem, q.spec, set->shard(0).index->pool(),
                                 trace_ws_);
      }
    }
    (on ? layers_.spans_on_us : layers_.spans_off_us) +=
        watch.ElapsedSeconds() * 1e6;
  }
  tracer_.set_enabled(true);
  tracer_.Truncate(mark);
}

// ---------------------------------------------------------------- writes

void Bench::Write(const std::vector<greca::RatingEvent>& events) {
  tracer_.BeginRequest();
  ScopedSpan root(tracer_, "write");
  const std::uint64_t failed_before = checks_.failed();
  std::vector<std::shared_ptr<const greca::ShardSnapshot>> pre;
  if (options_.trace && recording_) {
    for (std::size_t s = 0; s < engine_->num_shards(); ++s) {
      pre.push_back(engine_->shard(s).snapshot());
    }
  }
  greca::ShardedUpdateReport report;
  Stopwatch watch;
  greca::Status status;
  {
    ScopedSpan span(tracer_, "engine.ApplyUpdates");
    status = engine_->ApplyUpdates(events, &report);
  }
  const double ms = watch.ElapsedMillis();
  ++op_attempted_;
  if (recording_) write_ms_.push_back(ms);
  if (!status.ok()) {
    checks_.Expect("write_ok", false, status.ToString());
    ++op_failed_;
    return;
  }
  std::size_t applied = 0;
  last_applied_.clear();
  for (const greca::RatingEvent& e : events) {
    if (ledger_.Apply(e)) {
      ++applied;
      last_applied_.push_back(e);
    }
  }
  checks_.Expect(
      "events_applied",
      report.total.events_applied == applied &&
          report.total.events_ignored_stale == events.size() - applied,
      "engine applied " + std::to_string(report.total.events_applied) +
          " (stale " + std::to_string(report.total.events_ignored_stale) +
          "), ledger derives " + std::to_string(applied) + " of " +
          std::to_string(events.size()));
  if (recording_) {
    ++layers_.writes;
    layers_.write_fanout += static_cast<double>(report.shards_touched);
    layers_.users_rebuilt += static_cast<double>(report.total.users_rebuilt);
    layers_.delta_ratings +=
        static_cast<double>(report.total.delta_log_ratings);
    for (const greca::UpdateReport& r : report.per_shard) {
      layers_.compactions += r.compacted ? 1 : 0;
    }
    if (options_.trace) TraceWrite(pre, events, report);
  }
  if (checks_.failed() > failed_before) ++op_failed_;
}

void Bench::TraceWrite(
    const std::vector<std::shared_ptr<const greca::ShardSnapshot>>& pre,
    const std::vector<greca::RatingEvent>& events,
    const greca::ShardedUpdateReport& report) {
  // Re-runs each touched shard's publish stages through the public calls,
  // on the generation the write started from: fold, predict, row clone,
  // and (where the engine compacted) compaction.
  std::vector<greca::UserRatingEntry> scratch;
  for (std::size_t s = 0; s < pre.size(); ++s) {
    std::vector<greca::RatingRecord> records;
    for (const greca::RatingEvent& e : events) {
      if (engine_->router().ShardOf(e.user) == s) {
        records.push_back({e.user, e.item, e.rating, e.timestamp});
      }
    }
    if (records.empty()) continue;
    greca::RatingsOverlay::ApplyStats stats;
    std::shared_ptr<const greca::RatingsOverlay> folded;
    {
      ScopedSpan span(tracer_, "overlay.WithEvents");
      folded = pre[s]->ratings->WithEvents(records, &stats);
    }
    const greca::PreferenceIndex& index = *pre[s]->index;
    const std::size_t width = index.pool_size();
    std::vector<UserId> rows;
    std::vector<greca::Score> scores(stats.touched_users.size() * width);
    std::vector<std::span<const greca::Score>> views;
    for (std::size_t i = 0; i < stats.touched_users.size(); ++i) {
      const UserId u = stats.touched_users[i];
      rows.push_back(engine_->shard(s).LocalRowOf(u));
      const std::span<greca::Score> out(scores.data() + i * width, width);
      {
        ScopedSpan span(tracer_, "cf.Predict");
        PredictPoolRow(u, folded->MergedRatingsOfUser(u, scratch),
                       index.pool(), out);
      }
      views.emplace_back(out);
    }
    {
      ScopedSpan span(tracer_, "index.CloneWithUpdatedPoolRows");
      const greca::PreferenceIndex clone =
          index.CloneWithUpdatedPoolRows(rows, views);
    }
    if (report.per_shard[s].compacted) {
      ScopedSpan span(tracer_, "overlay.Compact");
      const greca::RatingsDataset compacted = folded->Compact();
    }
  }
}

// ---------------------------------------------------------------- metrics

std::vector<Metric> Bench::EndToEndMetrics(double setup_s) const {
  const double n = std::max<double>(1.0, static_cast<double>(answered_));
  return {
      {"setup_s", setup_s, "s"},
      {"query_qps",
       read_seconds_ > 0.0 ? static_cast<double>(answered_) / read_seconds_
                           : 0.0,
       "1/s"},
      {"read_p50_ms", Percentile(read_ms_, 0.50), "ms"},
      {"read_p90_ms", Percentile(read_ms_, 0.90), "ms"},
      {"write_p50_ms", Percentile(write_ms_, 0.50), "ms"},
      {"write_p90_ms", Percentile(write_ms_, 0.90), "ms"},
      {"sa_pct", sa_pct_sum_ / n, "%"},
      {"satisfaction_pct", satisfaction_sum_ / n, "%"},
      {"peak_rss_mb", PeakRssMiB(), "MiB"},
  };
}

std::vector<Metric> Bench::LayerMetrics() {
  const auto spans = tracer_.Summarize();
  auto total_us = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.total_us;
  };
  auto mean_us = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() || it->second.count == 0
               ? 0.0
               : it->second.total_us / static_cast<double>(it->second.count);
  };
  auto per = [](double sum, std::uint64_t n) {
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
  };
  const Layers& l = layers_;
  greca::PreferenceIndex::MemoryBreakdown memory;
  for (std::size_t s = 0; s < engine_->num_shards(); ++s) {
    const auto b = engine_->shard(s).snapshot()->index->MemoryBreakdownBytes();
    memory.banded_bytes += b.banded_bytes;
    memory.flat_twin_bytes += b.flat_twin_bytes;
    memory.map_bytes += b.map_bytes;
  }
  constexpr double kMiB = 1024.0 * 1024.0;
  const double form_ms = FormGroupsMs();
  return {
      {"shard.pin_us", mean_us("shard.Pin"), "us"},
      {"shard.read_fanout", per(l.read_fanout, l.read_queries), "count"},
      {"shard.write_fanout", per(l.write_fanout, l.writes), "count"},
      {"publish.users_rebuilt", per(l.users_rebuilt, l.writes), "count"},
      {"plan.plan_us", mean_us("plan.Plan"), "us"},
      {"plan.buckets", per(l.buckets, l.batches), "count"},
      {"plan.dedup_ratio", per(l.dedup, l.batches), "ratio"},
      {"serve.batch_ms", per(l.batch_ms, l.batches), "ms"},
      {"serve.solve_sum_ms", per(l.solve_sum_ms, l.batches), "ms"},
      {"serve.parallel_speedup",
       l.batch_ms > 0.0 ? l.solve_sum_ms / l.batch_ms : 0.0, "x"},
      {"core.assemble_us", mean_us("core.AssembleGroupProblem"), "us"},
      {"core.list_entries", per(l.list_entries, l.decomposed), "count"},
      {"affinity.materialize_us",
       per(total_us("affinity.MaterializeStaticListInto") +
               total_us("affinity.MaterializePeriodListInto"),
           l.decomposed),
       "us"},
      {"cache.period_hits", static_cast<double>(l.period_hits), "count"},
      {"cache.period_misses", static_cast<double>(l.period_misses), "count"},
      {"cache.tombstone_hits", static_cast<double>(l.tombstone_hits), "count"},
      {"cache.tombstone_misses", static_cast<double>(l.tombstone_misses),
       "count"},
      {"solver.solve_us", mean_us("solver.SolveGroupProblem"), "us"},
      {"solver.sorted_accesses", per(l.sorted_accesses, answered_), "count"},
      {"solver.random_accesses", per(l.random_accesses, answered_), "count"},
      {"solver.rounds", per(l.rounds, answered_), "count"},
      {"overlay.fold_us", per(total_us("overlay.WithEvents"), l.writes), "us"},
      {"overlay.delta_ratings", per(l.delta_ratings, l.writes), "count"},
      {"overlay.compact_ms", mean_us("overlay.Compact") / 1e3, "ms"},
      {"overlay.compactions", static_cast<double>(l.compactions), "count"},
      {"cf.predict_us", mean_us("cf.Predict"), "us"},
      {"index.clone_ms",
       per(total_us("index.CloneWithUpdatedPoolRows"), l.writes) / 1e3, "ms"},
      {"index.banded_mb", static_cast<double>(memory.banded_bytes) / kMiB,
       "MiB"},
      {"index.twin_mb", static_cast<double>(memory.flat_twin_bytes) / kMiB,
       "MiB"},
      {"index.map_mb", static_cast<double>(memory.map_bytes) / kMiB, "MiB"},
      {"groups.form_ms", form_ms, "ms"},
      {"trace.overhead_pct",
       l.spans_off_us > 0.0
           ? 100.0 * (l.spans_on_us - l.spans_off_us) / l.spans_off_us
           : 0.0,
       "%"},
  };
}

}  // namespace perfbench
