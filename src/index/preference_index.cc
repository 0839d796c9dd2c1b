#include "index/preference_index.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

#include "common/thread_pool.h"

namespace greca {

namespace {

/// AoS fill/sort scratch, one per thread: rows are filled and sorted as
/// interleaved (key, score) entries — exactly the pre-SoA semantics, under
/// the one canonical ListEntryOrder — then scattered into the parallel
/// arrays. Thread-local so the parallel build/clone fan-outs stay
/// allocation-free after warm-up without sharing buffers across workers.
std::vector<ListEntry>& RowScratch() {
  thread_local std::vector<ListEntry> scratch;
  return scratch;
}

std::vector<ListEntry>& FlatScratch() {
  thread_local std::vector<ListEntry> scratch;
  return scratch;
}

}  // namespace

std::vector<std::uint32_t> PreferenceIndex::GeometricBandBreakpoints(
    std::size_t pool_size, std::size_t first_band) {
  std::vector<std::uint32_t> breakpoints;
  if (first_band == 0) return breakpoints;
  for (std::size_t b = first_band;
       b < pool_size && breakpoints.size() + 1 < ListView::kMaxBands; b *= 2) {
    breakpoints.push_back(static_cast<std::uint32_t>(b));
  }
  return breakpoints;
}

PreferenceIndex::RowChunk::RowChunk(std::size_t entries, bool flat_twin)
    : keys(entries), scores(entries), positions(entries) {
  if (flat_twin) {
    flat_keys.resize(entries);
    flat_scores.resize(entries);
    flat_positions.resize(entries);
  }
}

std::size_t PreferenceIndex::RowChunk::BandedBytes() const {
  return keys.size() * sizeof(ListKey) + scores.size() * sizeof(Score) +
         positions.size() * sizeof(std::uint32_t);
}

std::size_t PreferenceIndex::RowChunk::TwinBytes() const {
  return flat_keys.size() * sizeof(ListKey) +
         flat_scores.size() * sizeof(Score) +
         flat_positions.size() * sizeof(std::uint32_t);
}

std::shared_ptr<const PreferenceIndex::Schema> PreferenceIndex::EmptySchema() {
  static const std::shared_ptr<const Schema> empty =
      std::make_shared<const Schema>();
  return empty;
}

PreferenceIndex::MemoryBreakdown PreferenceIndex::MemoryBreakdownBytes()
    const {
  MemoryBreakdown b;
  for (const auto& chunk : chunks_) {
    b.banded_bytes += chunk->BandedBytes();
    b.flat_twin_bytes += chunk->TwinBytes();
  }
  const Schema& schema = *schema_;
  b.map_bytes = schema.pool.size() * sizeof(ItemId) +
                schema.pool_position_of_item.size() * sizeof(std::uint32_t) +
                schema.band_begin.size() * sizeof(std::uint32_t) +
                chunk_table_bytes();
  return b;
}

void PreferenceIndex::SortRow(const Schema& schema, RowChunk& chunk,
                              std::size_t row, std::span<ListEntry> entries) {
  const std::size_t pool_size = schema.pool.size();
  assert(entries.size() == pool_size);
  const std::size_t offset = row * pool_size;
  constexpr ListEntryOrder by_score{};
  if (schema.flat_twin) {
    // Global-order twin for the large-prefix fast path, sorted from the
    // key-order fill before the bands scramble it.
    std::vector<ListEntry>& flat = FlatScratch();
    flat.assign(entries.begin(), entries.end());
    std::sort(flat.begin(), flat.end(), by_score);
    ListKey* const fk = chunk.flat_keys.data() + offset;
    Score* const fs = chunk.flat_scores.data() + offset;
    std::uint32_t* const fpos = chunk.flat_positions.data() + offset;
    for (std::size_t p = 0; p < pool_size; ++p) {
      fk[p] = flat[p].id;
      fs[p] = flat[p].score;
      fpos[flat[p].id] = static_cast<std::uint32_t>(p);
    }
  }
  const std::vector<std::uint32_t>& band_begin = schema.band_begin;
  for (std::size_t b = 0; b + 1 < band_begin.size(); ++b) {
    std::sort(entries.begin() + band_begin[b],
              entries.begin() + band_begin[b + 1], by_score);
  }
  ListKey* const keys = chunk.keys.data() + offset;
  Score* const scores = chunk.scores.data() + offset;
  std::uint32_t* const pos = chunk.positions.data() + offset;
  for (std::size_t p = 0; p < pool_size; ++p) {
    keys[p] = entries[p].id;
    scores[p] = entries[p].score;
    pos[entries[p].id] = static_cast<std::uint32_t>(p);
  }
}

void PreferenceIndex::FillRowFromItems(const Schema& schema, RowChunk& chunk,
                                       std::size_t row,
                                       std::span<const Score> predictions) {
  assert(schema.scale_max > 0.0);
  const std::size_t pool_size = schema.pool.size();
  std::vector<ListEntry>& entries = RowScratch();
  entries.resize(pool_size);
  // Band b holds exactly the keys [band_begin[b], band_begin[b+1]), so a
  // key-order fill already places every entry in its band; each band is then
  // score-sorted independently. One band (the flat layout) degenerates to
  // the global sort — same normalization and ordering as the per-query seed
  // path: keys are pool positions, scores predictions/scale_max in [0, 1].
  for (std::uint32_t key = 0; key < pool_size; ++key) {
    assert(schema.pool[key] < predictions.size());
    entries[key] = {key, std::clamp(predictions[schema.pool[key]] /
                                        schema.scale_max,
                                    0.0, 1.0)};
  }
  SortRow(schema, chunk, row, entries);
}

void PreferenceIndex::FillRowFromPool(const Schema& schema, RowChunk& chunk,
                                      std::size_t row,
                                      std::span<const Score> pool_scores) {
  assert(schema.scale_max > 0.0);
  const std::size_t pool_size = schema.pool.size();
  assert(pool_scores.size() == pool_size);
  std::vector<ListEntry>& entries = RowScratch();
  entries.resize(pool_size);
  for (std::uint32_t key = 0; key < pool_size; ++key) {
    entries[key] = {key,
                    std::clamp(pool_scores[key] / schema.scale_max, 0.0, 1.0)};
  }
  SortRow(schema, chunk, row, entries);
}

std::vector<std::shared_ptr<PreferenceIndex::RowChunk>>
PreferenceIndex::InitStorage(std::size_t num_rows, double scale_max,
                             std::vector<ItemId> pool,
                             std::size_t num_universe_items,
                             std::span<const std::uint32_t> band_breakpoints,
                             bool build_flat_twin) {
  auto schema = std::make_shared<Schema>();
  schema->scale_max = scale_max;
  schema->pool = std::move(pool);
  const std::size_t pool_size = schema->pool.size();

  // Normalize the breakpoints defensively (not assert-only): out-of-range
  // and non-ascending values are dropped and the band count is clamped to
  // ListView's inline merge arrays — a bad grid degrades to coarser bands,
  // never to out-of-bounds writes in release builds.
  std::vector<std::uint32_t>& band_begin = schema->band_begin;
  band_begin.assign(1, 0);
  for (const std::uint32_t breakpoint : band_breakpoints) {
    if (breakpoint == 0 || breakpoint >= pool_size) continue;
    if (breakpoint <= band_begin.back()) continue;
    if (band_begin.size() >= ListView::kMaxBands) break;
    band_begin.push_back(breakpoint);
  }
  band_begin.push_back(static_cast<std::uint32_t>(pool_size));
  assert(band_begin.size() - 1 <= ListView::kMaxBands);
  schema->flat_twin = band_begin.size() > 2 && build_flat_twin;

  schema->pool_position_of_item.assign(num_universe_items, kNotPooled);
  for (std::size_t key = 0; key < pool_size; ++key) {
    assert(schema->pool[key] < num_universe_items);
    schema->pool_position_of_item[schema->pool[key]] =
        static_cast<std::uint32_t>(key);
  }

  // Chunk geometry: the largest power-of-two row count whose arrays fit
  // kChunkTargetBytes (at least one row).
  num_users_ = num_rows;
  schema_ = schema;
  const std::size_t rows_per_chunk = std::bit_floor(std::max<std::size_t>(
      1, kChunkTargetBytes / std::max<std::size_t>(1, RowBytes())));
  schema->chunk_shift =
      static_cast<unsigned>(std::countr_zero(rows_per_chunk));

  // The last chunk holds only the rows that remain — never padded.
  std::vector<std::shared_ptr<RowChunk>> chunks;
  chunks.reserve((num_rows + rows_per_chunk - 1) / rows_per_chunk);
  for (std::size_t first = 0; first < num_rows; first += rows_per_chunk) {
    const std::size_t rows = std::min(rows_per_chunk, num_rows - first);
    chunks.push_back(
        std::make_shared<RowChunk>(rows * pool_size, schema->flat_twin));
  }
  return chunks;
}

PreferenceIndex PreferenceIndex::Build(
    std::span<const std::vector<Score>> predictions, double scale_max,
    std::vector<ItemId> pool, std::size_t num_universe_items,
    std::span<const std::uint32_t> band_breakpoints, bool build_flat_twin) {
  PreferenceIndex index;
  const std::vector<std::shared_ptr<RowChunk>> chunks =
      index.InitStorage(predictions.size(), scale_max, std::move(pool),
                        num_universe_items, band_breakpoints, build_flat_twin);
  const Schema& schema = *index.schema_;
  for (UserId u = 0; u < index.num_users_; ++u) {
    FillRowFromItems(schema, *chunks[u >> schema.chunk_shift],
                     u & (index.rows_per_chunk() - 1), predictions[u]);
  }
  index.chunks_.assign(chunks.begin(), chunks.end());
  return index;
}

PreferenceIndex PreferenceIndex::BuildStreaming(
    std::size_t num_rows, const PoolScoreFiller& fill, double scale_max,
    std::vector<ItemId> pool, std::size_t num_universe_items,
    std::span<const std::uint32_t> band_breakpoints, bool build_flat_twin,
    ThreadPool* threads) {
  PreferenceIndex index;
  const std::vector<std::shared_ptr<RowChunk>> chunks =
      index.InitStorage(num_rows, scale_max, std::move(pool),
                        num_universe_items, band_breakpoints, build_flat_twin);
  const Schema& schema = *index.schema_;
  const std::size_t row_mask = index.rows_per_chunk() - 1;
  const auto fill_row = [&](UserId u, std::span<Score> scores) {
    fill(u, schema.pool, scores);
    FillRowFromPool(schema, *chunks[u >> schema.chunk_shift], u & row_mask,
                    scores);
  };
  if (threads != nullptr && num_rows > 1) {
    // One raw-score scratch per worker; rows are disjoint, so concurrent
    // fills never touch the same storage.
    std::vector<std::vector<Score>> scratch(threads->size());
    for (auto& s : scratch) s.resize(schema.pool.size());
    threads->ParallelFor(num_rows, [&](std::size_t worker, std::size_t row) {
      fill_row(static_cast<UserId>(row), scratch[worker]);
    });
  } else {
    std::vector<Score> scores(schema.pool.size());
    for (UserId u = 0; u < num_rows; ++u) fill_row(u, scores);
  }
  index.chunks_.assign(chunks.begin(), chunks.end());
  return index;
}

PreferenceIndex PreferenceIndex::CloneWithUpdatedPoolRows(
    std::span<const UserId> users,
    std::span<const std::span<const Score>> pool_scores,
    std::size_t* bytes_copied) const {
  assert(users.size() == pool_scores.size());
  PreferenceIndex clone;
  clone.num_users_ = num_users_;
  clone.schema_ = schema_;
  clone.chunks_ = chunks_;  // every chunk shared until a touched row lands
  const Schema& schema = *schema_;
  const std::size_t row_mask = rows_per_chunk() - 1;
  std::size_t copied = chunk_table_bytes();
  // Copy-on-write: the first touched row of a chunk swaps the shared chunk
  // for a private copy; later rows of the same chunk rebuild into it.
  std::vector<RowChunk*> writable(chunks_.size(), nullptr);
  for (std::size_t i = 0; i < users.size(); ++i) {
    const UserId u = users[i];
    assert(u < num_users_);
    const std::size_t c = u >> schema.chunk_shift;
    if (writable[c] == nullptr) {
      auto copy = std::make_shared<RowChunk>(*chunks_[c]);
      copied += copy->BandedBytes() + copy->TwinBytes();
      writable[c] = copy.get();
      clone.chunks_[c] = std::move(copy);
    }
    FillRowFromPool(schema, *writable[c], u & row_mask, pool_scores[i]);
  }
  if (bytes_copied != nullptr) *bytes_copied = copied;
  return clone;
}

}  // namespace greca
