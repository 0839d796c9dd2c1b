// The three workloads. Each generates its inputs with fixed generator seeds,
// builds a ShardedEngine from them, and issues one fixed kind of round whose
// operations the run seed drives. See README.md for why each workload exists
// and which layers it exercises.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>

#include "common/distributions.h"
#include "common/stopwatch.h"
#include "dataset/facebook_study.h"
#include "dataset/synthetic.h"
#include "eval/satisfaction.h"
#include "groups/formation_pipeline.h"
#include "harness.h"

namespace perfbench {
namespace {

using namespace greca;

constexpr std::size_t kShards = 4;

/// Compaction is triggered by each shard's publish count only, so it falls
/// on the same writes in every run of a seed.
ShardedEngineOptions EngineOptions(std::size_t batch_threads,
                                   std::size_t compact_every) {
  ShardedEngineOptions o;
  o.num_shards = kShards;
  o.strategy = ShardStrategy::kHash;
  o.batch_threads = batch_threads;
  o.compact_every_n_publishes = compact_every;
  o.compact_delta_fraction = 0.0;
  return o;
}

/// The scale populations' predictor: the user's own rating where one
/// exists, the generator's latent preference everywhere else (no CF model
/// is trained at this scale).
void TruthPredict(const RatingGroundTruth& truth, UserId u,
                  std::span<const UserRatingEntry> merged,
                  std::span<const ItemId> pool, std::span<Score> out) {
  for (std::size_t k = 0; k < pool.size(); ++k) {
    const ItemId item = pool[k];
    const auto it = std::lower_bound(
        merged.begin(), merged.end(), item,
        [](const UserRatingEntry& e, ItemId i) { return e.item < i; });
    out[k] = (it != merged.end() && it->item == item)
                 ? it->rating
                 : truth.TruePreference(u, item);
  }
}

double TimeFormGroups(const FormationPipeline& pipeline,
                      std::vector<FormedGroup>* groups) {
  Stopwatch watch;
  std::vector<FormedGroup> formed = pipeline.FormGroups();
  const double ms = watch.ElapsedMillis();
  if (groups != nullptr) *groups = std::move(formed);
  return ms;
}

/// A scale population shared by scale-churn and formation-batch.
class ScaleBench : public Bench {
 protected:
  ScaleBench(RunOptions options, std::size_t users, std::size_t items,
             std::size_t periods, std::size_t compact_every)
      : Bench(std::move(options)),
        users_(users),
        items_(items),
        periods_(periods),
        compact_every_(compact_every) {}

  void Generate() override {
    ScaleRatingsConfig sc;
    sc.num_users = users_;
    sc.num_items = items_;  // generator seed fixed: the run seed drives ops
    SyntheticRatings scale = GenerateScaleRatings(sc);
    base_ = std::make_shared<const RatingsDataset>(std::move(scale.dataset));
    truth_ = std::move(scale.truth);
    pool_ = base_->TopPopularItems(kPool);
    oracle_ = std::make_unique<SatisfactionOracle>(truth_);
  }

  std::unique_ptr<ShardedEngine> Build(
      std::size_t batch_threads) const override {
    ShardedEngineInputs inputs;
    inputs.ratings = base_;
    inputs.affinity = std::make_shared<const ConstantAffinitySource>(
        users_, periods_, /*static_value=*/1.0, /*periodic_value=*/1.0);
    const RatingGroundTruth* truth = &truth_;
    inputs.predictor = [truth](UserId u, std::span<const UserRatingEntry> m,
                               std::span<const ItemId> pool,
                               std::span<Score> out) {
      TruthPredict(*truth, u, m, pool, out);
    };
    inputs.pool = pool_;
    inputs.num_universe_items = base_->num_items();
    inputs.num_periods = periods_;
    return std::make_unique<ShardedEngine>(
        std::move(inputs), EngineOptions(batch_threads, compact_every_));
  }

  const RatingsDataset& BaseRatings() const override { return *base_; }

  std::string DescribeInputs() const override {
    return std::to_string(base_->num_users()) + " users x " +
           std::to_string(base_->num_items()) + " items, " +
           std::to_string(base_->num_ratings()) + " ratings, pool " +
           std::to_string(pool_.size()) + ", " + std::to_string(periods_) +
           " period(s), " + std::to_string(kShards) + " hash shards";
  }

  double Satisfaction(const Query& q,
                      const Recommendation& rec) const override {
    return oracle_->GroupSatisfactionPercent(q.group, rec.items,
                                             q.spec.eval_period.value_or(0));
  }

  void PredictPoolRow(UserId user, std::span<const UserRatingEntry> merged,
                      std::span<const ItemId> pool,
                      std::span<Score> out) override {
    TruthPredict(truth_, user, merged, pool, out);
  }

  static constexpr std::size_t kPool = 256;
  const std::size_t users_;
  const std::size_t items_;
  const std::size_t periods_;
  const std::size_t compact_every_;
  std::shared_ptr<const RatingsDataset> base_;
  RatingGroundTruth truth_;
  std::vector<ItemId> pool_;
  std::unique_ptr<SatisfactionOracle> oracle_;
};

// ------------------------------------------------------------ study-temporal

class StudyTemporal final : public Bench {
 public:
  explicit StudyTemporal(RunOptions options) : Bench(std::move(options)) {}

 protected:
  void Generate() override {
    // The paper-scale twins with their fixed generator seeds (6 040 x 3 952,
    // ~1M ratings; 72 participants, 6 two-month periods); the run seed
    // drives the operations.
    universe_ = GenerateSyntheticRatings(SyntheticRatingsConfig{});
    study_ = GenerateFacebookStudy(FacebookStudyConfig{}, universe_);
    oracle_ = std::make_unique<SatisfactionOracle>(
        universe_.truth, study_.like_truth, study_.universe_user,
        OracleWeights{});
    if (options_.trace) {
      knn_ = std::make_unique<UserKnn>(universe_.dataset, UserKnnConfig{});
    }
  }

  std::unique_ptr<ShardedEngine> Build(
      std::size_t batch_threads) const override {
    // Each engine serves 25 writes, about 6 per shard: compacting every 4th
    // publish of a shard keeps compaction in the measured writes.
    ShardedEngineOptions o = EngineOptions(batch_threads, 4);
    o.max_candidate_items = kPool;
    return std::make_unique<ShardedEngine>(universe_.dataset, study_, o);
  }

  const RatingsDataset& BaseRatings() const override {
    return study_.study_ratings;
  }

  std::string DescribeInputs() const override {
    return "universe " + std::to_string(universe_.dataset.num_users()) +
           " users x " + std::to_string(universe_.dataset.num_items()) +
           " items, " + std::to_string(universe_.dataset.num_ratings()) +
           " ratings; study " + std::to_string(study_.num_participants()) +
           " participants, " +
           std::to_string(study_.study_ratings.num_ratings()) +
           " ratings, " + std::to_string(study_.periods.num_periods()) +
           " periods; pool " + std::to_string(kPool) + ", " +
           std::to_string(kShards) + " hash shards; catalogue " +
           std::to_string(catalogue_.size()) + " reads";
  }

  void Prepare() override {
    // The reads form a catalogue made from a fixed seed, three per round of
    // a block: the warm-up's entries first, then the measured rounds'.
    // Group size (3..12), k and consensus follow a fixed schedule; members,
    // temporal model and evaluation period are drawn. Every run reads the
    // catalogue in the same order, once per block, so every run has the
    // same reads and only the writes (drawn from the run seed) differ.
    Rng catalogue_rng(kCatalogueSeed);
    catalogue_.clear();
    for (std::size_t i = 0; i < 3 * (kWarmupRounds + kRoundBlock); ++i) {
      catalogue_.push_back(MakeQuery(i, catalogue_rng));
    }
  }

  void StartEngine() override {
    // The engine's state before any write: probes run against it, so their
    // verdicts do not depend on the seed-driven writes.
    initial_set_ = engine_->Pin();
  }

  void Round(std::size_t index) override {
    // Three catalogue reads, a write by a member of the first read's group,
    // and that group's read again (read-your-writes). A measured round also
    // probes one of its three reads against the exhaustive solver on the
    // initial state.
    const std::size_t first =
        measuring() ? 3 * (kWarmupRounds + index % kRoundBlock)
                    : 3 * (index % kWarmupRounds);
    for (std::size_t j = 0; j < 3; ++j) ReadSingle(catalogue_[first + j]);
    const std::vector<UserId>& group = catalogue_[first].group;
    Write(MakeEvents(group[rng_.NextBounded(group.size())]));
    ReadSingle(catalogue_[first]);
    if (measuring()) Probe(initial_set_, catalogue_[first + index % 3]);
  }

  double RoundsPerSecond() const override { return 19.0; }
  std::size_t RoundsPerEngine() const override { return 25; }
  std::size_t SetupRepeats() const override { return 8; }

  double Satisfaction(const Query& q,
                      const Recommendation& rec) const override {
    return oracle_->GroupSatisfactionPercent(q.group, rec.items,
                                             q.spec.eval_period.value());
  }

  void PredictPoolRow(UserId, std::span<const UserRatingEntry> merged,
                      std::span<const ItemId> pool,
                      std::span<Score> out) override {
    const std::vector<Score> predictions = knn_->PredictAll(merged);
    for (std::size_t k = 0; k < pool.size(); ++k) {
      out[k] = predictions[pool[k]];
    }
  }

  double FormGroupsMs() override {
    FormationPipelineConfig fc;
    fc.num_groups = 12;
    fc.group_size = 4;
    fc.candidate_users = 0;  // all participants
    fc.num_clusters = 3;
    fc.num_feature_items = 24;
    const AffinitySource& affinity = engine_->affinity();
    const FormationPipeline pipeline(
        study_.study_ratings,
        [&affinity](UserId a, UserId b) {
          return affinity.NormalizedStatic(a, b);
        },
        fc);
    return TimeFormGroups(pipeline, nullptr);
  }

 private:
  static constexpr std::size_t kPool = 3'900;
  static constexpr std::uint64_t kCatalogueSeed = 2015;
  // Catalogue rounds kept for warm-ups, which cycle through them.
  static constexpr std::size_t kWarmupRounds = 5;

  /// Catalogue read `i`.
  Query MakeQuery(std::size_t i, Rng& rng) const {
    const std::size_t n = study_.num_participants();
    const std::size_t size = 3 + i % 10;
    Query q;
    while (q.group.size() < size) {
      const auto u = static_cast<UserId>(rng.NextBounded(n));
      if (std::find(q.group.begin(), q.group.end(), u) == q.group.end()) {
        q.group.push_back(u);
      }
    }
    static constexpr std::size_t kKs[] = {5, 10, 20};
    q.spec.k = kKs[i % 3];
    q.spec.model = rng.NextBounded(2) == 0 ? AffinityModelSpec::Default()
                                           : AffinityModelSpec::Continuous();
    switch (i / 3 % 4) {
      case 0: q.spec.consensus = ConsensusSpec::AveragePreference(); break;
      case 1: q.spec.consensus = ConsensusSpec::LeastMisery(); break;
      case 2: q.spec.consensus = ConsensusSpec::PairwiseDisagreement(0.8);
        break;
      default: q.spec.consensus = ConsensusSpec::VarianceDisagreement(0.8);
    }
    q.spec.eval_period =
        static_cast<PeriodId>(rng.NextBounded(engine_->num_periods()));
    q.spec.algorithm = Algorithm::kGreca;
    q.spec.num_candidate_items = kPool;
    return q;
  }

  /// One participant's ratings: three fresh events plus one redelivery,
  /// back-dated copy or same-timestamp re-rating of one of that
  /// participant's earlier events, so the latest-(timestamp, rating)-wins
  /// rule decides it. Every write touches exactly one participant.
  std::vector<RatingEvent> MakeEvents(UserId writer) {
    const std::span<const ItemId> pool = engine_->pool();
    std::vector<RatingEvent>& past = history_[writer];
    std::vector<RatingEvent> events;
    for (int i = 0; i < 4; ++i) {
      RatingEvent e;
      if (i == 3 && !past.empty()) {
        e = past[rng_.NextBounded(past.size())];
        const std::uint64_t kind = rng_.NextBounded(3);
        if (kind == 1) e.timestamp -= 1;
        if (kind == 2) e.rating = std::min(5.0, e.rating + 1.0);
      } else {
        e.user = writer;
        e.item = pool[rng_.NextBounded(pool.size())];
        e.rating = static_cast<Score>(1 + rng_.NextBounded(5));
        e.timestamp = NextTimestamp();
      }
      events.push_back(e);
    }
    past.insert(past.end(), events.begin(), events.end());
    return events;
  }

  SyntheticRatings universe_;
  FacebookStudy study_;
  std::unique_ptr<SatisfactionOracle> oracle_;
  std::unique_ptr<UserKnn> knn_;
  std::vector<Query> catalogue_;
  std::shared_ptr<const ShardedSnapshotSet> initial_set_;
  std::map<UserId, std::vector<RatingEvent>> history_;  // per writer
};

// ------------------------------------------------------------ scale-churn

class ScaleChurn final : public ScaleBench {
 public:
  explicit ScaleChurn(RunOptions options)
      : ScaleBench(std::move(options), 50'000, 10'000, /*periods=*/1,
                   /*compact_every=*/5) {}

 protected:
  void Generate() override {
    ScaleBench::Generate();
    Rng rng(Mix(options_.seed, 3));
    zipf_ = std::make_unique<ZipfSampler>(users_, 1.0);
    user_of_rank_.resize(users_);
    std::iota(user_of_rank_.begin(), user_of_rank_.end(), UserId{0});
    Shuffle(rng, user_of_rank_);
  }

  void Round(std::size_t) override {
    // Fresh events from Zipf-skewed users on pool items, kEventsPerShard
    // for each shard (users drawn from the Zipf until one lands there), so
    // every write publishes every shard and the shards compact in step.
    // The last event redelivers the first, so every write also has one
    // stale event.
    std::vector<RatingEvent> events;
    for (std::size_t shard = 0; shard < engine_->num_shards(); ++shard) {
      for (std::size_t i = 0; i < kEventsPerShard; ++i) {
        RatingEvent e;
        do {
          e.user = user_of_rank_[zipf_->Sample(rng_)];
        } while (engine_->router().ShardOf(e.user) != shard);
        e.item = pool_[rng_.NextBounded(pool_.size())];
        e.rating = static_cast<Score>(1 + rng_.NextBounded(5));
        e.timestamp = NextTimestamp();
        events.push_back(e);
      }
    }
    events.push_back(events.front());
    Write(events);

    // Distinct groups; the first few each contain a user just written.
    std::vector<UserId> writers;
    for (const RatingEvent& e : last_applied_) {
      if (std::find(writers.begin(), writers.end(), e.user) == writers.end()) {
        writers.push_back(e.user);
      }
    }
    std::vector<Query> queries(kGroups);
    std::vector<std::uint32_t> rep(kGroups);
    for (std::size_t g = 0; g < kGroups; ++g) {
      Query& q = queries[g];
      if (g < kWriterGroups && g < writers.size()) {
        q.group.push_back(writers[g]);
      }
      while (q.group.size() < kGroupSize) {
        const auto u = static_cast<UserId>(rng_.NextBounded(users_));
        if (std::find(q.group.begin(), q.group.end(), u) == q.group.end()) {
          q.group.push_back(u);
        }
      }
      q.spec.k = 10;
      q.spec.model = AffinityModelSpec::TimeAgnostic();
      q.spec.consensus = g % 2 == 0 ? ConsensusSpec::AveragePreference()
                                    : ConsensusSpec::LeastMisery();
      q.spec.eval_period = 0;
      q.spec.algorithm = Algorithm::kGreca;
      q.spec.num_candidate_items = kPool;
      rep[g] = static_cast<std::uint32_t>(g);
    }
    ReadBatch(queries, rep);
  }

  double RoundsPerSecond() const override { return 5.0; }
  std::size_t RoundsPerEngine() const override { return 50; }
  std::size_t SetupRepeats() const override { return 4; }

  double FormGroupsMs() override {
    FormationPipelineConfig fc;
    fc.num_groups = 32;
    fc.candidate_users = 1'000;
    fc.num_clusters = 4;
    fc.num_feature_items = 32;
    const FormationPipeline pipeline(
        *base_, [](UserId, UserId) { return 1.0; }, fc);
    return TimeFormGroups(pipeline, nullptr);
  }

 private:
  static constexpr std::size_t kEventsPerShard = 4;
  static constexpr std::size_t kGroups = 16;
  static constexpr std::size_t kWriterGroups = 4;
  static constexpr std::size_t kGroupSize = 5;
  std::unique_ptr<ZipfSampler> zipf_;
  std::vector<UserId> user_of_rank_;
};

// ------------------------------------------------------------ formation-batch

class FormationBatch final : public ScaleBench {
 public:
  explicit FormationBatch(RunOptions options)
      : ScaleBench(std::move(options), 8'000, 4'000, /*periods=*/4,
                   /*compact_every=*/64) {}

 protected:
  void Prepare() override {
    FormationPipelineConfig fc;
    fc.num_groups = 160;
    fc.group_size = 5;
    fc.candidate_users = 2'000;
    fc.num_clusters = 8;
    fc.num_feature_items = 48;  // formation seed fixed, like the population's
    const FormationPipeline pipeline(
        *base_, [](UserId, UserId) { return 1.0; }, fc);
    form_ms_ = TimeFormGroups(pipeline, &groups_);
    if (groups_.size() < kSlice) {
      std::cerr << "formation-batch: formed only " << groups_.size()
                << " groups\n";
      std::exit(1);
    }
    cursor_ = rng_.NextBounded(groups_.size());
  }

  void Round(std::size_t) override {
    // A slice of formed groups: the group that gave feedback last round
    // (read-your-writes) plus the next ones in formation order.
    std::vector<std::size_t> slice;
    if (feedback_.has_value()) slice.push_back(*feedback_);
    while (slice.size() < kSlice && slice.size() < groups_.size()) {
      const std::size_t g = cursor_++ % groups_.size();
      if (std::find(slice.begin(), slice.end(), g) == slice.end()) {
        slice.push_back(g);
      }
    }
    // Every member requests its group's list: member-major order, so the
    // first pass holds each group's representative.
    std::size_t max_size = 0;
    for (const std::size_t g : slice) {
      max_size = std::max(max_size, groups_[g].members.size());
    }
    std::vector<Query> queries;
    std::vector<std::uint32_t> rep;
    for (std::size_t m = 0; m < max_size; ++m) {
      for (std::size_t i = 0; i < slice.size(); ++i) {
        if (m >= groups_[slice[i]].members.size()) continue;
        queries.push_back({groups_[slice[i]].members, SpecFor(slice[i])});
        rep.push_back(static_cast<std::uint32_t>(i));
      }
    }
    const auto results = ReadBatch(queries, rep);

    // Feedback: one group watches the top item of its list and every member
    // rates it. A group whose members have rated the whole pool has an
    // empty list; the next group in the slice gives feedback instead.
    std::size_t pick = rng_.NextBounded(slice.size());
    for (std::size_t tries = 0; tries < slice.size(); ++tries) {
      if (results[pick].ok() && !results[pick].value().items.empty()) break;
      pick = (pick + 1) % slice.size();
    }
    if (!results[pick].ok() || results[pick].value().items.empty()) return;
    const ItemId item = results[pick].value().items.front();
    std::vector<RatingEvent> events;
    for (const UserId member : groups_[slice[pick]].members) {
      RatingEvent e;
      e.user = member;
      e.item = item;
      e.rating = std::clamp(std::round(truth_.TruePreference(member, item)),
                            1.0, 5.0);
      e.timestamp = NextTimestamp();
      events.push_back(e);
    }
    Write(events);
    feedback_ = slice[pick];
  }

  double RoundsPerSecond() const override { return 45.0; }
  std::size_t SetupRepeats() const override { return 6; }
  double FormGroupsMs() override { return form_ms_; }

 private:
  static constexpr std::size_t kSlice = 8;

  QuerySpec SpecFor(std::size_t g) const {
    QuerySpec spec;
    spec.k = g % 2 == 0 ? 10 : 5;
    spec.model = AffinityModelSpec::Default();
    switch (g % 3) {
      case 0: spec.consensus = ConsensusSpec::AveragePreference(); break;
      case 1: spec.consensus = ConsensusSpec::LeastMisery(); break;
      default: spec.consensus = ConsensusSpec::PairwiseDisagreement(0.8);
    }
    spec.eval_period = static_cast<PeriodId>(g % periods_);
    spec.algorithm = Algorithm::kGreca;
    spec.num_candidate_items = kPool;
    return spec;
  }

  std::vector<FormedGroup> groups_;
  double form_ms_ = 0.0;
  std::size_t cursor_ = 0;
  std::optional<std::size_t> feedback_;
};

}  // namespace

std::unique_ptr<Bench> MakeWorkload(const RunOptions& options) {
  if (options.workload == "study-temporal") {
    return std::make_unique<StudyTemporal>(options);
  }
  if (options.workload == "scale-churn") {
    return std::make_unique<ScaleChurn>(options);
  }
  if (options.workload == "formation-batch") {
    return std::make_unique<FormationBatch>(options);
  }
  return nullptr;
}

}  // namespace perfbench
