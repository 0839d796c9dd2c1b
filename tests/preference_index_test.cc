// Tests for the shared PreferenceIndex: row ordering, the item↔key maps,
// prefix/tombstone slicing through UserView, and the copy-on-write row
// chunks behind CloneWithUpdatedPoolRows.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "index/preference_index.h"
#include "topk/list_view.h"

namespace greca {
namespace {

/// Zips a row's SoA key/score arrays back into entry order for assertions.
std::vector<ListEntry> RowEntries(const PreferenceIndex& index, UserId u) {
  const auto keys = index.UserKeys(u);
  const auto scores = index.UserScores(u);
  std::vector<ListEntry> row;
  row.reserve(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    row.push_back({keys[i], scores[i]});
  }
  return row;
}

PreferenceIndex MakeIndex() {
  // Two users over a 6-item universe; the pool keeps 4 items in "popularity"
  // order 5, 2, 0, 3 (universe item ids).
  const std::vector<std::vector<Score>> predictions = {
      {1.0, 2.0, 3.0, 4.0, 0.0, 5.0},  // user 0
      {4.0, 0.5, 4.0, 1.0, 2.5, 2.0},  // user 1
  };
  return PreferenceIndex::Build(predictions, /*scale_max=*/5.0,
                                {5, 2, 0, 3}, /*num_universe_items=*/6);
}

TEST(PreferenceIndexTest, PoolMapsRoundTrip) {
  const PreferenceIndex index = MakeIndex();
  EXPECT_EQ(index.num_users(), 2u);
  EXPECT_EQ(index.pool_size(), 4u);
  ASSERT_EQ(index.pool().size(), 4u);
  EXPECT_EQ(index.pool()[0], 5u);
  EXPECT_EQ(index.pool()[2], 0u);
  EXPECT_EQ(index.PoolPositionOf(5), 0u);
  EXPECT_EQ(index.PoolPositionOf(3), 3u);
  // Items outside the pool (or the universe) are kNotPooled.
  EXPECT_EQ(index.PoolPositionOf(1), PreferenceIndex::kNotPooled);
  EXPECT_EQ(index.PoolPositionOf(4), PreferenceIndex::kNotPooled);
  EXPECT_EQ(index.PoolPositionOf(999), PreferenceIndex::kNotPooled);
}

TEST(PreferenceIndexTest, RowsAreSortedDescendingWithPoolKeyTies) {
  const PreferenceIndex index = MakeIndex();
  // User 0 pool scores (key order): item5=1.0, item2=0.6, item0=0.2,
  // item3=0.8 → sorted keys 0, 3, 1, 2.
  const auto row0 = RowEntries(index, 0);
  ASSERT_EQ(row0.size(), 4u);
  EXPECT_EQ(row0[0].id, 0u);
  EXPECT_DOUBLE_EQ(row0[0].score, 1.0);
  EXPECT_EQ(row0[1].id, 3u);
  EXPECT_DOUBLE_EQ(row0[1].score, 0.8);
  EXPECT_EQ(row0[2].id, 1u);
  EXPECT_EQ(row0[3].id, 2u);
  // User 1 pool scores: item5=0.4, item2=0.8, item0=0.8, item3=0.2 — the
  // 0.8 tie breaks by ascending pool key (1 before 2).
  const auto row1 = RowEntries(index, 1);
  EXPECT_EQ(row1[0].id, 1u);
  EXPECT_EQ(row1[1].id, 2u);
  EXPECT_EQ(row1[2].id, 0u);
  EXPECT_EQ(row1[3].id, 3u);
}

TEST(PreferenceIndexTest, UserViewSlicesPrefixAndSkipsTombstones) {
  const PreferenceIndex index = MakeIndex();
  // Prefix 3 (keys 0..2), tombstone key 0. User 0's live order: 1, 2.
  const std::vector<std::uint64_t> tombstones = {0b001};
  const ListView view = index.UserView(0, /*prefix=*/3, tombstones,
                                       /*live_entries=*/2);
  EXPECT_EQ(view.size(), 2u);
  EXPECT_EQ(view.key_space(), 3u);
  EXPECT_TRUE(view.IsTombstoned(0));
  EXPECT_FALSE(view.IsTombstoned(1));
  EXPECT_TRUE(view.IsTombstoned(3));  // beyond the prefix

  AccessCounter counter;
  std::size_t cursor = 0;
  ASSERT_TRUE(view.SkipToLive(cursor));
  EXPECT_EQ(view.ReadSequential(cursor, counter).id, 1u);
  ASSERT_TRUE(view.SkipToLive(cursor));
  EXPECT_EQ(view.ReadSequential(cursor, counter).id, 2u);
  EXPECT_FALSE(view.SkipToLive(cursor));
  EXPECT_EQ(counter.sequential, 2u);  // skipped entries are not counted

  // Random access: live keys read their score, dead keys read as absent.
  EXPECT_DOUBLE_EQ(view.ScoreOfKey(1), 0.6);
  EXPECT_DOUBLE_EQ(view.ScoreOfKey(0), 0.0);
  EXPECT_DOUBLE_EQ(view.ScoreOfKey(3), 0.0);
  EXPECT_DOUBLE_EQ(view.MaxScore(), 0.6);
}

TEST(PreferenceIndexTest, BandedRowsSortEachBandIndependently) {
  const std::vector<std::vector<Score>> predictions = {
      {1.0, 2.0, 3.0, 4.0, 0.0, 5.0},  // user 0
  };
  // Pool 5, 2, 0, 3 with one interior breakpoint at 2: band 0 = keys {0, 1},
  // band 1 = keys {2, 3}.
  const std::vector<std::uint32_t> breakpoints{2};
  const PreferenceIndex index = PreferenceIndex::Build(
      predictions, /*scale_max=*/5.0, {5, 2, 0, 3}, /*num_universe_items=*/6,
      breakpoints);
  EXPECT_EQ(index.num_bands(), 2u);
  ASSERT_EQ(index.band_boundaries().size(), 3u);
  EXPECT_EQ(index.band_boundaries()[1], 2u);

  // Key scores: key0=1.0, key1=0.6, key2=0.2, key3=0.8. Band-local order:
  // band 0 → 0, 1; band 1 → 3, 2 (NOT the global order 0, 3, 1, 2).
  const auto row = RowEntries(index, 0);
  EXPECT_EQ(row[0].id, 0u);
  EXPECT_EQ(row[1].id, 1u);
  EXPECT_EQ(row[2].id, 3u);
  EXPECT_EQ(row[3].id, 2u);

  // A full-prefix view covers the whole row, where the merge cannot pay for
  // itself: the flat-order twin serves it (global order, no merge), and
  // random access resolves through the matching position map.
  const ListView view = index.UserView(0, 4, {}, 4);
  EXPECT_EQ(view.num_bands(), 1u);
  EXPECT_EQ(view.scan_footprint(), 4u);
  AccessCounter counter;
  std::size_t cursor = 0;
  const std::uint32_t expected[] = {0, 3, 1, 2};
  for (const std::uint32_t id : expected) {
    ASSERT_TRUE(view.SkipToLive(cursor));
    EXPECT_EQ(view.ReadSequential(cursor, counter).id, id);
  }
  EXPECT_FALSE(view.SkipToLive(cursor));
  EXPECT_DOUBLE_EQ(view.ScoreOfKey(3), 0.8);
  EXPECT_DOUBLE_EQ(view.MaxScore(), 1.0);

  // A prefix inside the first band never receives band 1: flat single-band
  // view whose scan footprint is the band, not the row.
  const ListView prefix_view = index.UserView(0, 2, {}, 2);
  EXPECT_EQ(prefix_view.num_bands(), 1u);
  EXPECT_EQ(prefix_view.scan_footprint(), 2u);
}

TEST(PreferenceIndexTest, SmallPrefixViewMergesCoveredBands) {
  // Pool of 8 with bands {0..1}, {2..3}, {4..7}: a prefix of 3 covers two
  // bands (footprint 4 <= half the row), so the view is a real band merge
  // that must still read in global score order.
  const std::vector<std::vector<Score>> predictions = {
      {4.0, 1.0, 3.5, 2.0, 5.0, 0.5, 4.5, 1.5},
  };
  const std::vector<std::uint32_t> breakpoints{2, 4};
  const PreferenceIndex index = PreferenceIndex::Build(
      predictions, /*scale_max=*/5.0, {0, 1, 2, 3, 4, 5, 6, 7},
      /*num_universe_items=*/8, breakpoints);
  ASSERT_EQ(index.num_bands(), 3u);

  const ListView view = index.UserView(0, /*prefix=*/3, {}, 3);
  EXPECT_EQ(view.num_bands(), 2u);
  EXPECT_EQ(view.scan_footprint(), 4u);  // next boundary past the prefix
  // Key scores: 0→0.8, 1→0.2, 2→0.7 (key 3 is out of prefix).
  AccessCounter counter;
  std::size_t cursor = 0;
  const std::uint32_t expected[] = {0, 2, 1};
  for (const std::uint32_t id : expected) {
    ASSERT_TRUE(view.SkipToLive(cursor));
    EXPECT_EQ(view.ReadSequential(cursor, counter).id, id);
  }
  EXPECT_FALSE(view.SkipToLive(cursor));
  EXPECT_EQ(counter.sequential, 3u);
  EXPECT_DOUBLE_EQ(view.MaxScore(), 0.8);
}

TEST(PreferenceIndexTest, GeometricBandBreakpointsDoubleAndCap) {
  const auto bp = PreferenceIndex::GeometricBandBreakpoints(3'900, 64);
  const std::vector<std::uint32_t> expected{64, 128, 256, 512, 1024, 2048};
  EXPECT_EQ(bp, expected);
  // A prefix P >= 32 walks at most the first boundary >= P, which is < 2P.
  EXPECT_TRUE(PreferenceIndex::GeometricBandBreakpoints(64, 64).empty());
  EXPECT_TRUE(PreferenceIndex::GeometricBandBreakpoints(100, 0).empty());
  // Never more than ListView::kMaxBands bands even for huge pools.
  const auto huge =
      PreferenceIndex::GeometricBandBreakpoints(1u << 30, 1);
  EXPECT_LE(huge.size() + 1, ListView::kMaxBands);
}

TEST(PreferenceIndexTest, FullPrefixViewMatchesRow) {
  const PreferenceIndex index = MakeIndex();
  const ListView view = index.UserView(1, index.pool_size(), {},
                                       index.pool_size());
  EXPECT_EQ(view.size(), 4u);
  std::size_t cursor = 0;
  AccessCounter counter;
  const auto row = RowEntries(index, 1);
  for (std::size_t i = 0; i < row.size(); ++i) {
    ASSERT_TRUE(view.SkipToLive(cursor));
    const ListEntry& e = view.ReadSequential(cursor, counter);
    EXPECT_EQ(e.id, row[i].id);
    EXPECT_DOUBLE_EQ(e.score, row[i].score);
  }
  EXPECT_FALSE(view.SkipToLive(cursor));
}

// PreferenceIndex::Build over a full per-item prediction matrix is the row
// oracle for the serving paths: BuildStreaming (fed pool-position scores)
// and CloneWithUpdatedPoolRows (rebuilding some rows of an index built from
// other scores) must produce bit-identical rows — the banded arrays and the
// order a full-prefix view walks (the flat twin where there is one) — in
// both layouts.
TEST(PreferenceIndexTest, StreamingBuildAndRowCloneMatchFullMatrixBuild) {
  constexpr std::size_t kUsers = 9;
  constexpr std::size_t kItems = 300;
  Rng rng(404);
  const auto random_matrix = [&rng] {
    std::vector<std::vector<Score>> m(kUsers, std::vector<Score>(kItems));
    for (auto& row : m) {
      // Coarse values so ties (broken by ascending key) are common.
      for (Score& v : row) v = 0.5 * static_cast<double>(rng.NextBounded(11));
    }
    return m;
  };
  const std::vector<std::vector<Score>> target = random_matrix();
  const std::vector<std::vector<Score>> stale = random_matrix();
  std::vector<ItemId> pool;
  for (ItemId i = 0; i < kItems; i += 3) pool.push_back(kItems - 1 - i);
  const auto pool_scores = [&pool](const std::vector<Score>& row) {
    std::vector<Score> out(pool.size());
    for (std::size_t k = 0; k < pool.size(); ++k) out[k] = row[pool[k]];
    return out;
  };

  for (const bool banded : {true, false}) {
    const std::vector<std::uint32_t> breakpoints =
        banded ? PreferenceIndex::GeometricBandBreakpoints(pool.size(), 8)
               : std::vector<std::uint32_t>{};
    const PreferenceIndex oracle = PreferenceIndex::Build(
        target, 5.0, pool, kItems, breakpoints);
    ASSERT_EQ(oracle.num_bands() > 1, banded);

    const PreferenceIndex streamed = PreferenceIndex::BuildStreaming(
        kUsers,
        [&](UserId row, std::span<const ItemId> p, std::span<Score> out) {
          ASSERT_EQ(p.size(), pool.size());
          const std::vector<Score> scores = pool_scores(target[row]);
          std::copy(scores.begin(), scores.end(), out.begin());
        },
        5.0, pool, kItems, breakpoints);

    // Rows 0, 3, 4 and 8 rebuilt from the target; the rest built from the
    // target to begin with.
    std::vector<std::vector<Score>> mixed = target;
    const std::vector<UserId> touched = {0, 3, 4, 8};
    for (const UserId u : touched) mixed[u] = stale[u];
    const PreferenceIndex before =
        PreferenceIndex::Build(mixed, 5.0, pool, kItems, breakpoints);
    std::vector<std::vector<Score>> rebuilt;
    for (const UserId u : touched) rebuilt.push_back(pool_scores(target[u]));
    std::vector<std::span<const Score>> views(rebuilt.begin(), rebuilt.end());
    const PreferenceIndex cloned =
        before.CloneWithUpdatedPoolRows(touched, views);

    for (const PreferenceIndex* index : {&streamed, &cloned}) {
      ASSERT_EQ(index->num_bands(), oracle.num_bands());
      for (UserId u = 0; u < kUsers; ++u) {
        const auto want = RowEntries(oracle, u);
        const auto got = RowEntries(*index, u);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(got[i].id, want[i].id) << "user " << u << " pos " << i;
          EXPECT_EQ(got[i].score, want[i].score) << "user " << u;
        }
        // The full-prefix view (the flat twin on banded rows) walks the
        // same global order.
        const ListView a = oracle.UserView(u, pool.size(), {}, pool.size());
        const ListView b = index->UserView(u, pool.size(), {}, pool.size());
        std::size_t ca = 0, cb = 0;
        AccessCounter counter;
        while (a.SkipToLive(ca)) {
          ASSERT_TRUE(b.SkipToLive(cb));
          const ListEntry& ea = a.ReadSequential(ca, counter);
          const ListEntry& eb = b.ReadSequential(cb, counter);
          EXPECT_EQ(ea.id, eb.id) << "user " << u;
          EXPECT_EQ(ea.score, eb.score) << "user " << u;
        }
        EXPECT_FALSE(b.SkipToLive(cb));
      }
    }
  }
}

// ---- Copy-on-write row chunks ---------------------------------------------

/// Everything a reader can observe of one row: the band-order arrays and
/// the order and scores a full-prefix view walks (the flat twin where there
/// is one).
std::vector<ListEntry> ObservedRow(const PreferenceIndex& index, UserId u) {
  std::vector<ListEntry> row = RowEntries(index, u);
  const ListView view =
      index.UserView(u, index.pool_size(), {}, index.pool_size());
  std::size_t cursor = 0;
  AccessCounter counter;
  while (view.SkipToLive(cursor)) {
    row.push_back(view.ReadSequential(cursor, counter));
  }
  return row;
}

void ExpectSameRows(const PreferenceIndex& want, const PreferenceIndex& got,
                    const std::string& label) {
  ASSERT_EQ(got.num_users(), want.num_users()) << label;
  ASSERT_EQ(got.num_bands(), want.num_bands()) << label;
  for (UserId u = 0; u < want.num_users(); ++u) {
    const auto a = ObservedRow(want, u);
    const auto b = ObservedRow(got, u);
    ASSERT_EQ(a.size(), b.size()) << label << " user " << u;
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].id, b[i].id) << label << " user " << u << " pos " << i;
      ASSERT_EQ(a[i].score, b[i].score) << label << " user " << u;
    }
  }
}

/// A chunk-geometry fixture: random per-item prediction matrices over a
/// 300-item universe and a 256-item pool (8 KiB rows with the flat twin,
/// 4 KiB without — tens of rows per chunk, so multi-chunk indexes stay
/// small).
struct ChunkFixture {
  static constexpr std::size_t kItems = 300;
  std::vector<ItemId> pool;
  std::vector<std::uint32_t> breakpoints;
  bool twin = true;
  Rng rng{2024};

  ChunkFixture(bool banded, bool flat_twin) : twin(flat_twin) {
    for (ItemId i = 0; i < 256; ++i) pool.push_back(kItems - 1 - i);
    if (banded) {
      breakpoints = PreferenceIndex::GeometricBandBreakpoints(pool.size(), 16);
    }
  }
  std::vector<std::vector<Score>> Matrix(std::size_t rows) {
    std::vector<std::vector<Score>> m(rows, std::vector<Score>(kItems));
    for (auto& row : m) {
      // Coarse values so ties (broken by ascending key) are common.
      for (Score& v : row) v = 0.5 * static_cast<double>(rng.NextBounded(11));
    }
    return m;
  }
  std::vector<Score> PoolScores(const std::vector<Score>& row) const {
    std::vector<Score> out(pool.size());
    for (std::size_t k = 0; k < pool.size(); ++k) out[k] = row[pool[k]];
    return out;
  }
  PreferenceIndex Build(const std::vector<std::vector<Score>>& m) const {
    return PreferenceIndex::Build(m, 5.0, pool, kItems, breakpoints, twin);
  }
  std::size_t RowsPerChunk() {
    return Build(Matrix(1)).rows_per_chunk();
  }
  /// Publishes `touched` rows of `from` rebuilt from `target`.
  PreferenceIndex Clone(const PreferenceIndex& from,
                        const std::vector<std::vector<Score>>& target,
                        const std::vector<UserId>& touched,
                        std::size_t* bytes_copied = nullptr) const {
    std::vector<std::vector<Score>> scores;
    for (const UserId u : touched) scores.push_back(PoolScores(target[u]));
    const std::vector<std::span<const Score>> views(scores.begin(),
                                                    scores.end());
    return from.CloneWithUpdatedPoolRows(touched, views, bytes_copied);
  }
};

/// Row counts around the chunk size (1, chunk−1, chunk, chunk+1, 3·chunk+5)
/// in both layouts with the flat twin on and off: BuildStreaming and a clone
/// that rebuilds the first and last row of a chunk and of the last partial
/// chunk are bit-identical to PreferenceIndex::Build over the full matrix,
/// and the last chunk holds only the rows that remain.
TEST(PreferenceIndexChunkTest, ChunkEdgesMatchFullMatrixBuild) {
  for (const bool banded : {true, false}) {
    for (const bool twin : {true, false}) {
      ChunkFixture fx(banded, twin);
      const std::size_t chunk = fx.RowsPerChunk();
      ASSERT_GE(chunk, 2u);
      ASSERT_EQ(chunk & (chunk - 1), 0u) << "rows per chunk is a power of 2";
      for (const std::size_t n :
           {std::size_t{1}, chunk - 1, chunk, chunk + 1, 3 * chunk + 5}) {
        const std::string label = std::string(banded ? "banded" : "flat") +
                                  (twin ? "+twin" : "") + " rows " +
                                  std::to_string(n);
        const auto target = fx.Matrix(n);
        const PreferenceIndex oracle = fx.Build(target);
        ASSERT_EQ(oracle.has_flat_twin(), banded && twin) << label;
        EXPECT_EQ(oracle.rows_per_chunk(), chunk) << label;
        EXPECT_EQ(oracle.num_chunks(), (n + chunk - 1) / chunk) << label;
        // No padding: the rows take exactly n × pool entries.
        const auto memory = oracle.MemoryBreakdownBytes();
        const std::size_t entry_bytes =
            sizeof(ListKey) + sizeof(Score) + sizeof(std::uint32_t);
        EXPECT_EQ(memory.banded_bytes, n * fx.pool.size() * entry_bytes)
            << label;
        EXPECT_EQ(memory.flat_twin_bytes,
                  oracle.has_flat_twin() ? memory.banded_bytes : 0u)
            << label;

        const PreferenceIndex streamed = PreferenceIndex::BuildStreaming(
            n,
            [&](UserId row, std::span<const ItemId>, std::span<Score> out) {
              const auto scores = fx.PoolScores(target[row]);
              std::copy(scores.begin(), scores.end(), out.begin());
            },
            5.0, fx.pool, ChunkFixture::kItems, fx.breakpoints, twin);
        ExpectSameRows(oracle, streamed, label + " streamed");

        // Rebuild the first and last rows of every full chunk's edge and of
        // the last (possibly partial) chunk from stale contents.
        std::set<UserId> edges = {0, static_cast<UserId>(n - 1)};
        for (const std::size_t row : {chunk - 1, chunk, 2 * chunk - 1,
                                      (n - 1) / chunk * chunk}) {
          if (row < n) edges.insert(static_cast<UserId>(row));
        }
        const std::vector<UserId> touched(edges.begin(), edges.end());
        auto mixed = target;
        const auto stale = fx.Matrix(n);
        for (const UserId u : touched) mixed[u] = stale[u];
        const PreferenceIndex before = fx.Build(mixed);
        const PreferenceIndex cloned = fx.Clone(before, target, touched);
        ExpectSameRows(oracle, cloned, label + " cloned");
      }
    }
  }
}

/// A pinned generation is never written: after K publishes that keep
/// rewriting rows of its chunks (the same chunk every time, and others),
/// every row it exposes is byte-identical to what it exposed when pinned,
/// and each publish shares every untouched chunk with its parent.
TEST(PreferenceIndexChunkTest, PinnedGenerationSurvivesPublishes) {
  ChunkFixture fx(/*banded=*/true, /*twin=*/true);
  const std::size_t chunk = fx.RowsPerChunk();
  const std::size_t n = 3 * chunk + 5;
  const auto pinned = std::make_shared<const PreferenceIndex>(
      fx.Build(fx.Matrix(n)));
  std::vector<std::vector<ListEntry>> pinned_rows;
  for (UserId u = 0; u < n; ++u) pinned_rows.push_back(ObservedRow(*pinned, u));

  std::shared_ptr<const PreferenceIndex> latest = pinned;
  constexpr std::size_t kPublishes = 6;
  for (std::size_t k = 0; k < kPublishes; ++k) {
    // Row 1 (chunk 0) every time, plus one row of a rotating other chunk.
    const UserId other =
        static_cast<UserId>(((k % 3) + 1) * chunk + k) % static_cast<UserId>(n);
    std::vector<UserId> touched = {1, other};
    if (other == 1) touched.pop_back();
    const auto next = std::make_shared<const PreferenceIndex>(
        fx.Clone(*latest, fx.Matrix(n), touched));
    std::set<std::size_t> dirty;
    for (const UserId u : touched) dirty.insert(u / chunk);
    for (UserId u = 0; u < n; ++u) {
      const bool shared = next->UserKeys(u).data() == latest->UserKeys(u).data();
      EXPECT_EQ(shared, dirty.count(u / chunk) == 0)
          << "publish " << k << " user " << u;
    }
    latest = next;
  }
  for (UserId u = 0; u < n; ++u) {
    const auto row = ObservedRow(*pinned, u);
    ASSERT_EQ(row.size(), pinned_rows[u].size());
    for (std::size_t i = 0; i < row.size(); ++i) {
      ASSERT_EQ(row[i].id, pinned_rows[u][i].id) << "user " << u;
      ASSERT_EQ(row[i].score, pinned_rows[u][i].score) << "user " << u;
    }
  }
}

/// index_bytes_copied counts the copied chunks plus the pointer table: a
/// one-row update copies exactly one chunk whatever the row count, a row of
/// the partial last chunk copies only that chunk's rows, and no publish
/// copies more than (distinct touched chunks) × chunk_bytes() + the table.
TEST(PreferenceIndexChunkTest, BytesCopiedFollowTouchedChunks) {
  for (const bool twin : {true, false}) {
    ChunkFixture fx(/*banded=*/true, twin);
    const std::size_t chunk = fx.RowsPerChunk();
    std::size_t one_row_bytes = 0;
    for (const std::size_t n : {2 * chunk, 8 * chunk}) {
      const auto target = fx.Matrix(n);
      const PreferenceIndex index = fx.Build(target);
      std::size_t bytes = 0;
      fx.Clone(index, target, {static_cast<UserId>(chunk + 1)}, &bytes);
      EXPECT_EQ(bytes, index.chunk_bytes() + index.chunk_table_bytes());
      if (one_row_bytes == 0) one_row_bytes = bytes - index.chunk_table_bytes();
      EXPECT_EQ(bytes - index.chunk_table_bytes(), one_row_bytes)
          << "one-row publish cost depends on the row count";
      // Two rows of one chunk still copy it once.
      fx.Clone(index, target, {0, static_cast<UserId>(chunk - 1)}, &bytes);
      EXPECT_EQ(bytes, index.chunk_bytes() + index.chunk_table_bytes());
    }

    const std::size_t n = 3 * chunk + 5;
    const auto target = fx.Matrix(n);
    PreferenceIndex index = fx.Build(target);
    std::size_t bytes = 0;
    fx.Clone(index, target, {static_cast<UserId>(n - 1)}, &bytes);
    EXPECT_EQ(bytes, index.chunk_bytes() / chunk * 5 +
                         index.chunk_table_bytes())
        << "the partial last chunk copies only its own rows";

    for (std::size_t publish = 0; publish < 20; ++publish) {
      std::vector<UserId> touched;
      const std::size_t rows = 1 + fx.rng.NextBounded(6);
      for (std::size_t i = 0; i < rows; ++i) {
        touched.push_back(static_cast<UserId>(fx.rng.NextBounded(n)));
      }
      std::sort(touched.begin(), touched.end());
      touched.erase(std::unique(touched.begin(), touched.end()),
                    touched.end());
      std::set<std::size_t> chunks;
      for (const UserId u : touched) chunks.insert(u / chunk);
      index = fx.Clone(index, fx.Matrix(n), touched, &bytes);
      EXPECT_LE(bytes, chunks.size() * index.chunk_bytes() +
                           index.chunk_table_bytes())
          << "publish " << publish;
      EXPECT_GE(bytes, index.chunk_table_bytes());
    }
  }
}

}  // namespace
}  // namespace greca
