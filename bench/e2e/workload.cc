#include "workload.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <set>
#include <sstream>

namespace unistore {
namespace bench {
namespace e2e {
namespace {

constexpr double kZipfTheta = 0.99;
constexpr uint64_t kClusterSeed = 2007;
constexpr uint64_t kHotMapSeed = 0x40f7a11;
constexpr size_t kDeckSize = 200;  ///< Mix shares are half percents.

const char* kSkylineQuery =
    "SELECT ?name,?age,?cnt WHERE {(?a,'name',?name) (?a,'age',?age) "
    "(?a,'num_of_pubs',?cnt) (?a,'has_published',?title) "
    "(?p,'title',?title) (?p,'published_in',?conf) (?c,'confname',?conf) "
    "(?c,'series',?sr) FILTER edist(?sr,'ICDE')<3} "
    "ORDER BY SKYLINE OF ?age MIN, ?cnt MAX";

core::ClusterOptions ClusterShape(size_t peers, size_t replication,
                                  bool sharded) {
  core::ClusterOptions options;
  options.peers = peers;
  options.replication = replication;
  options.latency = core::ClusterOptions::Latency::kWan;
  options.seed = kClusterSeed;
  if (sharded) {
    // Inline shards (threads = 1): one host thread, and no run-to-run
    // variance from worker scheduling.
    options.engine = core::ClusterOptions::Engine::kSharded;
    options.shards = 4;
    options.threads = 1;
  }
  return options;
}

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> all(3);
  Workload& lookup = all[0];
  lookup.name = "lookup_1024";
  lookup.cluster = ClusterShape(1024, 2, /*sharded=*/true);
  lookup.rate_per_s = 2500;
  lookup.ops_per_wall_s = 10000;
  lookup.span_every = 16;
  lookup.mix = {{OpClass::kPoint, 0.70},
                {OpClass::kExact, 0.20},
                {OpClass::kTop5, 0.10}};

  Workload& query = all[1];
  query.name = "query_mix";
  query.cluster = ClusterShape(256, 2, /*sharded=*/false);
  query.rate_per_s = 100;
  query.ops_per_wall_s = 220;
  query.mix = {{OpClass::kPoint, 0.30},     {OpClass::kExact, 0.15},
               {OpClass::kRange, 0.15},     {OpClass::kSubstring, 0.10},
               {OpClass::kSimilarity, 0.10}, {OpClass::kTop5, 0.05},
               {OpClass::kJoin, 0.145},     {OpClass::kSkyline, 0.005}};

  Workload& write = all[2];
  write.name = "write_mix";
  write.cluster = ClusterShape(256, 3, /*sharded=*/false);
  write.authors = 250;
  write.rate_per_s = 500;
  write.ops_per_wall_s = 600;
  write.mix = {{OpClass::kInsert, 0.50},
               {OpClass::kPoint, 0.25},
               {OpClass::kPoint, 0.25, /*contact=*/true}};
  return all;
}

// Zipf rank -> item through a permutation that depends only on the
// universe size, so every seed shares one hot set.
class HotMap {
 public:
  explicit HotMap(size_t n) : zipf_(n, kZipfTheta), items_(n) {
    for (size_t i = 0; i < n; ++i) items_[i] = i;
    Rng shuffle(kHotMapSeed + n);
    shuffle.Shuffle(&items_);
  }
  size_t Draw(Rng* rng) const { return items_[zipf_.Sample(rng)]; }

 private:
  ZipfGenerator zipf_;
  std::vector<size_t> items_;
};

std::string PointQuery(const std::string& oid) {
  return "SELECT ?p,?v WHERE { ('" + oid + "',?p,?v) }";
}

}  // namespace

std::string_view OpClassName(OpClass cls) {
  switch (cls) {
    case OpClass::kPoint: return "point";
    case OpClass::kExact: return "exact";
    case OpClass::kRange: return "range";
    case OpClass::kSubstring: return "substring";
    case OpClass::kSimilarity: return "similarity";
    case OpClass::kTop5: return "top5";
    case OpClass::kJoin: return "join";
    case OpClass::kSkyline: return "skyline";
    case OpClass::kInsert: return "insert";
  }
  return "?";
}

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> all = MakeWorkloads();
  return all;
}

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

core::Bibliography Dataset(const Workload& workload) {
  core::BibliographyOptions options;
  options.authors = workload.authors;
  options.publications_per_author = 2;
  options.typo_probability = 0.2;
  options.seed = 7;
  return core::GenerateBibliography(options);
}

std::vector<std::string> TitleWords(const core::Bibliography& data) {
  std::set<std::string> words;
  for (const triple::Tuple& pub : data.publications) {
    std::istringstream in(pub.attributes.at("title").AsString());
    std::string word;
    while (in >> word) {
      if (std::isalpha(static_cast<unsigned char>(word[0]))) {
        words.insert(word);
      }
    }
  }
  return {words.begin(), words.end()};
}

std::vector<std::string> SeriesNames(const core::Bibliography& data) {
  std::set<std::string> series;
  for (const triple::Tuple& conf : data.conferences) {
    const std::string& name = conf.attributes.at("confname").AsString();
    series.insert(name.substr(0, name.find(' ')));
  }
  return {series.begin(), series.end()};
}

std::vector<Op> GenerateOps(const Workload& workload,
                            const core::Bibliography& data, uint64_t seed,
                            size_t count) {
  const std::vector<std::string> words = TitleWords(data);
  const std::vector<std::string> series = SeriesNames(data);
  const HotMap persons(data.persons.size());
  const HotMap ages(kAgeCount);
  const HotMap range_starts(kAgeCount - kRangeWidth + 1);
  const HotMap word_map(words.size());
  const HotMap series_map(series.size());

  // Classes and initiators are dealt from shuffled decks rather than drawn
  // independently: every kDeckSize consecutive ops hold the mix exactly and
  // every peer initiates equally often, so seeds differ in order, targets
  // and arrival times but not in how much of each kind of work they ask.
  std::vector<const MixEntry*> class_deck;
  for (const MixEntry& e : workload.mix) {
    class_deck.insert(class_deck.end(),
                      static_cast<size_t>(std::llround(e.share * kDeckSize)),
                      &e);
  }
  std::vector<net::PeerId> peer_deck(workload.cluster.peers);
  for (size_t p = 0; p < peer_deck.size(); ++p) {
    peer_deck[p] = static_cast<net::PeerId>(p);
  }

  Rng rng(seed);
  const double mean_gap_us =
      static_cast<double>(sim::kMicrosPerSecond) / workload.rate_per_s;
  double now_us = 0;
  std::vector<sim::SimTime> insert_due;
  std::vector<Op> ops;
  ops.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    if (i % class_deck.size() == 0) rng.Shuffle(&class_deck);
    if (i % peer_deck.size() == 0) rng.Shuffle(&peer_deck);
    now_us += rng.NextExponential(mean_gap_us);
    Op op;
    op.due_us = std::max<sim::SimTime>(1, std::llround(now_us));
    const MixEntry* entry = class_deck[i % class_deck.size()];
    op.cls = entry->cls;
    op.via = peer_deck[i % peer_deck.size()];
    switch (op.cls) {
      case OpClass::kPoint: {
        const size_t old_enough = static_cast<size_t>(
            std::upper_bound(insert_due.begin(), insert_due.end(),
                             op.due_us - kReadAfterWriteUs) -
            insert_due.begin());
        if (entry->contact && old_enough > 0) {
          op.contact = true;
          op.target = static_cast<size_t>(rng.NextBounded(old_enough));
          op.vql = PointQuery("contact-" + std::to_string(op.target));
        } else {
          op.target = persons.Draw(&rng);
          op.vql = PointQuery(data.persons[op.target].oid);
        }
        break;
      }
      case OpClass::kExact:
        op.target = static_cast<size_t>(kMinAge) + ages.Draw(&rng);
        op.vql = "SELECT ?a WHERE { (?a,'age'," + std::to_string(op.target) +
                 ") }";
        break;
      case OpClass::kRange:
        op.target = static_cast<size_t>(kMinAge) + range_starts.Draw(&rng);
        op.vql = "SELECT ?a,?g WHERE { (?a,'age',?g) FILTER ?g >= " +
                 std::to_string(op.target) + " AND ?g <= " +
                 std::to_string(op.target + kRangeWidth - 1) + " }";
        break;
      case OpClass::kSubstring:
        op.target = word_map.Draw(&rng);
        op.vql = "SELECT ?p,?t WHERE { (?p,'title',?t) FILTER ?t CONTAINS '" +
                 words[op.target] + "' }";
        break;
      case OpClass::kSimilarity:
        op.target = series_map.Draw(&rng);
        op.vql = "SELECT ?c,?s WHERE { (?c,'series',?s) FILTER edist(?s,'" +
                 series[op.target] + "')<2 }";
        break;
      case OpClass::kTop5:
        op.target = static_cast<size_t>(kMinAge) + ages.Draw(&rng);
        op.vql = "SELECT ?g WHERE { (?a,'age',?g) FILTER ?g >= " +
                 std::to_string(op.target) + " } ORDER BY ?g LIMIT " +
                 std::to_string(kTopN);
        break;
      case OpClass::kJoin:
        op.target = persons.Draw(&rng);
        op.vql = "SELECT ?t,?c WHERE { ('" + data.persons[op.target].oid +
                 "','has_published',?t) (?p,'title',?t) "
                 "(?p,'published_in',?c) }";
        break;
      case OpClass::kSkyline:
        op.vql = kSkylineQuery;
        break;
      case OpClass::kInsert:
        op.target = insert_due.size();
        insert_due.push_back(op.due_us);
        break;
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

std::vector<triple::Tuple> Contacts(const std::vector<Op>& ops,
                                    uint64_t seed) {
  const size_t inserts = static_cast<size_t>(
      std::count_if(ops.begin(), ops.end(),
                    [](const Op& op) { return op.cls == OpClass::kInsert; }));
  return core::GenerateContactTuples(inserts, seed);
}

}  // namespace e2e
}  // namespace bench
}  // namespace unistore
