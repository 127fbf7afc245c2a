// Dynamicity demo (paper §4: "the platform's ability to handle
// dynamicity"): peers crash and rejoin while the data stays queryable
// thanks to replication, rumor-spreading updates and anti-entropy
// catch-up.
//
//   $ ./churn_demo
#include <cstdio>

#include "core/cluster.h"
#include "core/datagen.h"

using namespace unistore;

int main() {
  core::ClusterOptions options;
  options.peers = 24;
  options.replication = 3;
  options.seed = 7;
  core::Cluster cluster(options);

  core::BibliographyOptions data;
  data.authors = 15;
  data.seed = 77;
  auto bib = core::GenerateBibliography(data);
  size_t i = 0;
  for (const auto& tuple : bib.AllTuples()) {
    auto via = static_cast<net::PeerId>(i++ % cluster.size());
    if (!cluster.InsertTupleSync(via, tuple).ok()) return 1;
  }
  cluster.scheduler().RunUntilIdle();
  cluster.RefreshStats();

  const std::string query = "SELECT ?n WHERE { (?a,'name',?n) }";
  auto baseline = cluster.QuerySync(0, query);
  if (!baseline.ok()) return 1;
  std::printf("healthy network: %zu names visible\n",
              baseline->rows.size());

  // A quarter of the peers crash.
  Rng rng(5);
  std::vector<net::PeerId> crashed;
  while (crashed.size() < 6) {
    auto victim = static_cast<net::PeerId>(rng.NextBounded(24));
    if (cluster.overlay().IsAlive(victim)) {
      cluster.overlay().Crash(victim);
      crashed.push_back(victim);
    }
  }
  std::printf("crashed %zu peers: ", crashed.size());
  for (auto id : crashed) std::printf("%u ", id);
  std::printf("\n");

  // Queries keep working from surviving peers (replicas answer).
  int successes = 0, attempts = 0;
  for (net::PeerId via = 0; via < 24; ++via) {
    if (!cluster.overlay().IsAlive(via)) continue;
    ++attempts;
    auto result = cluster.QuerySync(via, query);
    if (result.ok() && result->rows.size() == baseline->rows.size()) {
      ++successes;
    }
  }
  std::printf("under churn: %d/%d surviving peers answered the full "
              "query\n", successes, attempts);

  // An update happens while peers are down...
  triple::Triple update("person-0", "age", triple::Value::Int(99));
  cluster.RemoveTripleSync(1, triple::Triple("person-0", "age",
                                             triple::Value::Int(0)));
  cluster.InsertTripleSync(1, update);
  cluster.scheduler().RunUntilIdle();

  // ...and the crashed peers rejoin and catch up via anti-entropy.
  // (Revive everyone first so each pull finds a live replica.)
  for (auto id : crashed) cluster.overlay().Revive(id);
  for (auto id : crashed) {
    Status pulled = cluster.overlay().PullFromReplicaSync(id);
    std::printf("peer %u rejoined: %s\n", id,
                pulled.ok() ? "synced" : pulled.ToString().c_str());
  }

  auto after = cluster.QuerySync(crashed[0], query);
  std::printf("after rejoin, peer %u sees %zu names (expected %zu)\n",
              crashed[0], after.ok() ? after->rows.size() : 0,
              baseline->rows.size());
  return 0;
}
