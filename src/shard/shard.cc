#include "shard/shard.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace greca {

Shard::Shard(std::size_t shard_id, std::vector<UserId> users,
             std::shared_ptr<const RatingsDataset> base,
             PoolPredictor predictor, double scale_max,
             std::vector<ItemId> pool, std::size_t num_universe_items,
             std::span<const std::uint32_t> band_breakpoints,
             ShardOptions options, ThreadPool* build_threads)
    : shard_id_(shard_id),
      users_(std::move(users)),
      predictor_(std::move(predictor)),
      options_(options) {
  assert(std::is_sorted(users_.begin(), users_.end()));
  assert(base != nullptr);
  // Generation 1: empty delta log + streaming-built index (one row per
  // owned user, filled straight from the base ratings — no universe-scale
  // prediction matrix ever exists).
  auto overlay = std::make_shared<const RatingsOverlay>(base);
  const RatingsDataset& ratings = *base;
  for (const UserId u : users_) {
    own_base_ratings_ += ratings.RatingsOfUser(u).size();
  }
  auto index =
      std::make_shared<const PreferenceIndex>(PreferenceIndex::BuildStreaming(
          users_.size(),
          [&](UserId row, std::span<const ItemId> p, std::span<Score> out) {
            const UserId global = users_[row];
            predictor_(global, ratings.RatingsOfUser(global), p, out);
          },
          scale_max, std::move(pool), num_universe_items, band_breakpoints,
          options_.build_flat_twin, build_threads));
  snapshot_ = MakeSnapshot(/*generation=*/1, std::move(overlay),
                           std::move(index));
}

std::uint32_t Shard::LocalRowOf(UserId u) const {
  const auto it = std::lower_bound(users_.begin(), users_.end(), u);
  assert(it != users_.end() && *it == u && "user not owned by this shard");
  return static_cast<std::uint32_t>(it - users_.begin());
}

bool Shard::Owns(UserId u) const {
  return std::binary_search(users_.begin(), users_.end(), u);
}

std::shared_ptr<const ShardSnapshot> Shard::MakeSnapshot(
    std::uint64_t generation, std::shared_ptr<const RatingsOverlay> ratings,
    std::shared_ptr<const PreferenceIndex> index) {
  auto snap = std::make_shared<ShardSnapshot>();
  snap->generation = generation;
  snap->ratings = std::move(ratings);
  snap->index = std::move(index);
  return snap;
}

Status Shard::Apply(std::span<const RatingEvent> events,
                    UpdateReport* report) {
  if (events.empty()) {
    if (report != nullptr) {
      const std::shared_ptr<const ShardSnapshot> cur = snapshot();
      *report = UpdateReport{};
      report->published_generation = cur->generation;
      report->batches_coalesced = 1;
      report->delta_log_ratings = cur->ratings->delta_ratings();
    }
    return Status::Ok();
  }
  PendingUpdate self;
  self.events = events;
  const Status status =
      commit_.Commit(self, [this](std::span<PendingUpdate* const> round) {
        PublishRound(round);
      });
  if (report != nullptr) *report = self.report;
  return status;
}

void Shard::PublishRound(std::span<PendingUpdate* const> round) {
  std::lock_guard<std::mutex> lock(update_mu_);
  const std::shared_ptr<const ShardSnapshot> cur = snapshot();

  // Fold each coalesced batch in arrival order; per-batch attribution
  // (applied vs stale) falls out of folding batch by batch.
  std::shared_ptr<const RatingsOverlay> overlay = cur->ratings;
  std::vector<UserId> touched;
  std::vector<RatingRecord> records;
  std::size_t round_applied = 0;
  for (PendingUpdate* batch : round) {
    records.clear();
    records.reserve(batch->events.size());
    for (const RatingEvent& e : batch->events) {
      assert(Owns(e.user) && "event routed to the wrong shard");
      records.push_back({e.user, e.item, e.rating, e.timestamp});
    }
    RatingsOverlay::ApplyStats stats;
    overlay = overlay->WithEvents(records, &stats);
    batch->report = UpdateReport{};
    batch->report.events_applied = stats.applied;
    batch->report.events_ignored_stale = stats.ignored_stale;
    batch->report.batches_coalesced = round.size();
    touched.insert(touched.end(), stats.touched_users.begin(),
                   stats.touched_users.end());
    round_applied += stats.applied;
  }
  if (round_applied == 0) {
    for (PendingUpdate* batch : round) {
      batch->report.published_generation = cur->generation;
      batch->report.delta_log_ratings = overlay->delta_ratings();
    }
    return;
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());

  // Compaction folds the owned users' delta rows into a fresh shard-private
  // base — O(shard), amortized across the publishes since the last fold.
  bool compacted = false;
  if ((options_.compact_every_n_publishes > 0 &&
       publishes_since_compaction_ + 1 >=
           options_.compact_every_n_publishes) ||
      (options_.compact_delta_fraction > 0.0 &&
       static_cast<double>(overlay->delta_ratings()) >
           options_.compact_delta_fraction *
               static_cast<double>(own_base_ratings_))) {
    auto base = std::make_shared<const RatingsDataset>(
        overlay->CompactUsers(users_));
    own_base_ratings_ = base->num_ratings();
    overlay = std::make_shared<const RatingsOverlay>(std::move(base));
    compacted = true;
  }

  // Rebuild only the touched local rows: predictor over the merged view →
  // raw pool scores → CloneWithUpdatedPoolRows, which copies only the row
  // chunks holding a touched row and shares the rest with `cur`.
  const PreferenceIndex& index = *cur->index;
  std::vector<std::uint32_t> rows;
  rows.reserve(touched.size());
  std::vector<Score> scores(touched.size() * index.pool_size());
  std::vector<std::span<const Score>> score_views;
  score_views.reserve(touched.size());
  std::vector<UserRatingEntry> scratch;
  for (std::size_t i = 0; i < touched.size(); ++i) {
    const UserId global = touched[i];
    rows.push_back(LocalRowOf(global));
    const std::span<Score> out(scores.data() + i * index.pool_size(),
                               index.pool_size());
    predictor_(global, overlay->MergedRatingsOfUser(global, scratch),
               index.pool(), out);
    score_views.emplace_back(out);
  }
  std::size_t bytes_copied = 0;
  auto next_index = std::make_shared<const PreferenceIndex>(
      index.CloneWithUpdatedPoolRows(rows, score_views, &bytes_copied));

  const std::size_t delta_after = overlay->delta_ratings();
  const std::uint64_t generation = next_generation_++;
  {
    std::lock_guard<std::mutex> swap_lock(snapshot_mu_);
    snapshot_ = MakeSnapshot(generation, std::move(overlay),
                             std::move(next_index));
  }
  publishes_since_compaction_ = compacted ? 0 : publishes_since_compaction_ + 1;
  for (PendingUpdate* batch : round) {
    batch->report.published_generation = generation;
    batch->report.users_rebuilt = touched.size();
    batch->report.compacted = compacted;
    batch->report.delta_log_ratings = delta_after;
    batch->report.index_bytes_copied = bytes_copied;
  }
}

}  // namespace greca
