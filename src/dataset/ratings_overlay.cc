#include "dataset/ratings_overlay.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <utility>

namespace greca {

namespace {

/// The FromRecords dedup rule: of two ratings for the same (user, item), the
/// lexicographic max of (timestamp, rating) wins. An incoming event that
/// TIES the stored key loses here: the two are the same value (the key is
/// the whole payload), so dropping the newcomer folds to the identical state
/// while keeping exact duplicates no-ops — redelivered batches must not
/// publish phantom generations.
bool WinsOver(Timestamp ts_a, Score rating_a, Timestamp ts_b, Score rating_b) {
  if (ts_a != ts_b) return ts_a > ts_b;
  return rating_a > rating_b;
}

/// Binary search a sorted-by-item rating row.
const UserRatingEntry* FindItem(std::span<const UserRatingEntry> row,
                                ItemId item) {
  const auto it = std::lower_bound(
      row.begin(), row.end(), item,
      [](const UserRatingEntry& e, ItemId i) { return e.item < i; });
  return (it != row.end() && it->item == item) ? &*it : nullptr;
}

}  // namespace

RatingsOverlay::RatingsOverlay(std::shared_ptr<const RatingsDataset> base)
    : base_(std::move(base)) {
  assert(base_ != nullptr);
  delta_.resize(base_->num_users());
}

std::shared_ptr<const RatingsOverlay> RatingsOverlay::WithEvents(
    std::span<const RatingRecord> events, ApplyStats* stats) const {
  auto next = std::make_shared<RatingsOverlay>(base_);
  next->delta_ = delta_;  // one shared_ptr per user, not one rating
  next->delta_entries_ = delta_entries_;
  next->delta_only_entries_ = delta_only_entries_;
  if (stats != nullptr) *stats = ApplyStats{};

  // Group the events by user, preserving arrival order within a user (the
  // fold is sequential: each event competes against the state left by its
  // predecessors, so coalesced batches replay deterministically).
  std::vector<std::size_t> order(events.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return events[a].user < events[b].user;
                   });

  std::vector<UserRatingEntry> row;  // working copy of one delta row
  for (std::size_t run = 0; run < order.size();) {
    const UserId user = events[order[run]].user;
    assert(user < num_users());
    const std::span<const UserRatingEntry> base_row =
        base_->RatingsOfUser(user);

    row.clear();
    const auto& old_row = next->delta_[user];
    if (old_row != nullptr) row = *old_row;
    bool changed = false;
    std::size_t added_entries = 0;  // events inserted as new delta entries
    std::size_t added_only = 0;     // ... whose item the base never rated

    for (; run < order.size() && events[order[run]].user == user; ++run) {
      const RatingRecord& e = events[order[run]];
      assert(e.item < num_items());
      // The stored rating this event competes with: the live delta entry if
      // one exists (it already beat the base), else the base entry.
      const auto it = std::lower_bound(
          row.begin(), row.end(), e.item,
          [](const UserRatingEntry& entry, ItemId i) {
            return entry.item < i;
          });
      if (it != row.end() && it->item == e.item) {
        if (WinsOver(e.timestamp, e.rating, it->timestamp, it->rating)) {
          it->rating = e.rating;
          it->timestamp = e.timestamp;
          changed = true;
          if (stats != nullptr) ++stats->applied;
        } else if (stats != nullptr) {
          ++stats->ignored_stale;
        }
        continue;
      }
      const UserRatingEntry* stored = FindItem(base_row, e.item);
      if (stored != nullptr &&
          !WinsOver(e.timestamp, e.rating, stored->timestamp,
                    stored->rating)) {
        if (stats != nullptr) ++stats->ignored_stale;
        continue;
      }
      row.insert(it, UserRatingEntry{e.item, e.rating, e.timestamp});
      changed = true;
      ++added_entries;
      if (stored == nullptr) ++added_only;
      if (stats != nullptr) ++stats->applied;
    }

    if (!changed) continue;  // every event for this user was stale
    // Replacements change neither count; only insertions do (rows never
    // shrink), so the batch's increments were tallied during insertion.
    next->delta_entries_ += added_entries;
    next->delta_only_entries_ += added_only;
    next->delta_[user] =
        std::make_shared<const std::vector<UserRatingEntry>>(row);
    if (stats != nullptr) stats->touched_users.push_back(user);
  }
  return next;
}

std::span<const UserRatingEntry> RatingsOverlay::MergedRatingsOfUser(
    UserId u, std::vector<UserRatingEntry>& scratch) const {
  const std::span<const UserRatingEntry> base_row = base_->RatingsOfUser(u);
  const std::span<const UserRatingEntry> delta_row = DeltaOfUser(u);
  if (delta_row.empty()) return base_row;

  scratch.clear();
  scratch.reserve(base_row.size() + delta_row.size());
  std::size_t b = 0, d = 0;
  while (b < base_row.size() && d < delta_row.size()) {
    if (base_row[b].item < delta_row[d].item) {
      scratch.push_back(base_row[b++]);
    } else if (delta_row[d].item < base_row[b].item) {
      scratch.push_back(delta_row[d++]);
    } else {
      scratch.push_back(delta_row[d++]);  // delta overrides base
      ++b;
    }
  }
  scratch.insert(scratch.end(), base_row.begin() + b, base_row.end());
  scratch.insert(scratch.end(), delta_row.begin() + d, delta_row.end());
  return scratch;
}

std::optional<Score> RatingsOverlay::GetRating(UserId u, ItemId i) const {
  if (const UserRatingEntry* e = FindItem(DeltaOfUser(u), i)) return e->rating;
  return base_->GetRating(u, i);
}

RatingsDataset RatingsOverlay::Compact() const {
  std::vector<UserId> users(num_users());
  std::iota(users.begin(), users.end(), UserId{0});
  return CompactUsers(users);
}

RatingsDataset RatingsOverlay::CompactUsers(
    std::span<const UserId> users) const {
  assert(std::is_sorted(users.begin(), users.end()));
  std::size_t bound = 0;  // base + delta sizes: an upper bound on merged
  for (const UserId u : users) {
    bound += base_->RatingsOfUser(u).size() + DeltaOfUser(u).size();
  }
  std::vector<RatingRecord> records;
  records.reserve(bound);
  std::vector<UserRatingEntry> scratch;
  for (const UserId u : users) {
    for (const UserRatingEntry& e : MergedRatingsOfUser(u, scratch)) {
      records.push_back({u, e.item, e.rating, e.timestamp});
    }
  }
  // Rows are already merged latest-wins, so FromRecords finds no duplicates;
  // going through it anyway keeps one single authority for the CSR layout.
  return RatingsDataset::FromRecords(num_users(), num_items(),
                                     std::move(records));
}

}  // namespace greca
