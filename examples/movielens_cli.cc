// Command-line group recommender over a real MovieLens ratings file.
//
//   movielens_cli <ratings-file> [format] [user1 user2 ...]
//
// `format` is one of ml-1m ("::"-separated, the default), ml-100k (tabs) or
// csv. Users are dense ids printed by this tool (external ids are remapped).
// The social layer (friendships, page likes) is not part of MovieLens, so it
// is synthesized over the loaded users — exactly the substitution DESIGN.md
// documents for offline reproduction.
//
// Without arguments, a bundled sample file is used.
#include <iostream>
#include <string>

#include "dataset/movielens.h"
#include "dataset/synthetic.h"
#include "groups/group_formation.h"
#include "shard/sharded_engine.h"

int main(int argc, char** argv) {
  using namespace greca;

  std::string path = "data/ml-sample/ratings.dat";
  MovieLensParseOptions parse_options;
  parse_options.strict = false;
  parse_options.min_rating = 0.5;
  if (argc > 1) path = argv[1];
  if (argc > 2) {
    const std::string format = argv[2];
    if (format == "ml-100k") {
      parse_options.format = MovieLensFormat::kMl100k;
    } else if (format == "csv") {
      parse_options.format = MovieLensFormat::kCsv;
    } else if (format != "ml-1m") {
      std::cerr << "unknown format '" << format
                << "' (expected ml-1m, ml-100k or csv)\n";
      return 1;
    }
  }

  const auto parsed = ParseRatingsFile(path, parse_options);
  if (!parsed.ok()) {
    std::cerr << "cannot load " << path << ": "
              << parsed.status().ToString() << '\n'
              << "usage: movielens_cli <ratings-file> [ml-1m|ml-100k|csv] "
                 "[user ids...]\n";
    return 1;
  }
  const MovieLensData& data = parsed.value();
  const DatasetStats stats = data.ratings.Stats();
  std::cout << "Loaded " << path << ": " << stats.num_users << " users, "
            << stats.num_items << " movies, " << stats.num_ratings
            << " ratings";
  if (data.skipped_lines > 0) {
    std::cout << " (" << data.skipped_lines << " malformed lines skipped)";
  }
  std::cout << ".\n";

  // Synthesize the social layer over the first up-to-72 loaded users, then
  // rebuild their study ratings from the real data (their actual MovieLens
  // histories double as "study" profiles).
  const std::size_t participants =
      std::min<std::size_t>(72, stats.num_users);
  FacebookStudyConfig study_config;
  study_config.graph.total_users = participants;
  study_config.graph.num_seeds =
      std::max<std::size_t>(1, std::min<std::size_t>(13, participants / 4));
  study_config.popular_set_size =
      std::min<std::size_t>(50, stats.num_items);
  study_config.diversity_set_size =
      std::min<std::size_t>(25, stats.num_items / 2);
  study_config.diversity_pool =
      std::min<std::size_t>(200, stats.num_items);
  study_config.min_ratings_per_user =
      std::min<std::size_t>(30, study_config.popular_set_size);

  // The study generator needs a universe; reuse the parsed ratings through a
  // shell SyntheticRatings (the generator only reads popularity/variance).
  SyntheticRatingsConfig tiny;
  tiny.num_users = std::max<std::size_t>(stats.num_users, participants);
  tiny.num_items = stats.num_items;
  tiny.target_ratings = tiny.num_users * 20;
  tiny.min_ratings_per_user =
      std::min<std::size_t>(20, stats.num_items);
  SyntheticRatings shell = GenerateSyntheticRatings(tiny);
  shell.dataset = data.ratings;  // real ratings drive everything observable
  const FacebookStudy study =
      GenerateFacebookStudy(study_config, shell);

  ShardedEngineOptions options;
  options.num_shards = 1;
  options.max_candidate_items = std::min<std::size_t>(3'900, stats.num_items);
  const ShardedEngine engine(data.ratings, study, options);

  Group group;
  for (int a = 3; a < argc; ++a) {
    const auto user = static_cast<UserId>(std::stoul(argv[a]));
    if (user >= participants) {
      std::cerr << "user " << user << " out of range (0.."
                << participants - 1 << ")\n";
      return 1;
    }
    group.push_back(user);
  }
  if (group.empty()) group = {0, 1, 2};

  QuerySpec spec;
  spec.k = 10;
  spec.num_candidate_items = options.max_candidate_items;
  const Result<Recommendation> result = engine.Recommend(group, spec);
  if (!result.ok()) {
    std::cerr << "query failed: " << result.status().ToString() << '\n';
    return 1;
  }
  const Recommendation& rec = result.value();

  std::cout << "\nTop-" << spec.k << " for group {";
  for (std::size_t i = 0; i < group.size(); ++i) {
    std::cout << (i > 0 ? ", " : "") << group[i];
  }
  std::cout << "}:\n";
  for (std::size_t i = 0; i < rec.items.size(); ++i) {
    std::cout << "  " << i + 1 << ". movie (external id "
              << data.item_external_ids[rec.items[i]] << ", dense "
              << rec.items[i] << ") score " << rec.scores[i] << '\n';
  }
  std::cout << "\nAccesses: " << rec.raw.accesses.sequential << " SAs of "
            << rec.raw.total_entries << " entries ("
            << rec.raw.SaveupPercent() << "% saveup).\n";
  return 0;
}
