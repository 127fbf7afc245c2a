// Conference data sharing — the paper's §4 demonstration scenario:
// participants share contacts and publications; the example walks through
// the "whole set of query formulation and processing capabilities":
// exact lookups, range filters, substring search, similarity joins with
// typo'd data, top-N and skylines — plus updates and deletes.
//
//   $ ./conference_sharing
#include <cstdio>

#include "core/cluster.h"
#include "core/datagen.h"

using namespace unistore;

namespace {

void Run(core::Cluster& cluster, net::PeerId via, const char* label,
         const std::string& query) {
  std::printf("--- %s ---\n%s\n", label, query.c_str());
  auto measured = cluster.QueryMeasured(via, query);
  if (!measured.ok()) {
    std::printf("  ERROR: %s\n\n", measured.status().ToString().c_str());
    return;
  }
  std::printf("%s", measured->result.ToTable().c_str());
  std::printf("  [%llu msgs, %.1f ms]\n\n",
              static_cast<unsigned long long>(
                  measured->traffic.messages_sent),
              static_cast<double>(measured->virtual_latency_us) / 1000.0);
}

}  // namespace

int main() {
  core::ClusterOptions options;
  options.peers = 32;
  options.replication = 2;  // Conference wifi is flaky; replicate.
  options.seed = 4;
  core::Cluster cluster(options);

  // Every participant (peer) contributes their own batch of tuples —
  // data enters the system from many different nodes, as in the live
  // demo, but each participant ships its contribution as one bulk load.
  core::BibliographyOptions data;
  data.authors = 30;
  data.publications_per_author = 2;
  data.typo_probability = 0.25;
  data.seed = 12;
  auto bib = core::GenerateBibliography(data);
  const auto tuples = bib.AllTuples();
  std::vector<std::vector<triple::Tuple>> batches(cluster.size());
  for (size_t i = 0; i < tuples.size(); ++i) {
    batches[i % cluster.size()].push_back(tuples[i]);
  }
  for (size_t via = 0; via < batches.size(); ++via) {
    if (batches[via].empty()) continue;
    if (!cluster
             .BulkLoadTuplesSync(static_cast<net::PeerId>(via), batches[via])
             .ok()) {
      return 1;
    }
  }
  cluster.scheduler().RunUntilIdle();
  cluster.RefreshStats();
  std::printf("%zu participants shared %zu tuples\n\n", cluster.size(),
              bib.AllTuples().size());

  Run(cluster, 0, "who is exactly 30?",
      "SELECT ?n WHERE { (?a,'age',30) (?a,'name',?n) }");

  Run(cluster, 5, "thirty-somethings (range filter)",
      "SELECT ?n,?g WHERE { (?a,'name',?n) (?a,'age',?g) "
      "FILTER ?g >= 30 AND ?g < 40 }");

  Run(cluster, 9, "publications at any 2005 venue (join + exact value)",
      "SELECT ?t,?cn WHERE { (?p,'title',?t) (?p,'published_in',?cn) "
      "(?c,'confname',?cn) (?c,'year',2005) }");

  Run(cluster, 13, "titles containing 'skyline' (substring search)",
      "SELECT ?t WHERE { (?p,'title',?t) FILTER ?t CONTAINS 'skyline' }");

  Run(cluster, 17, "series names within edit distance 2 of 'ICDE' "
      "(similarity — catches the typos)",
      "SELECT ?c,?s WHERE { (?c,'series',?s) FILTER edist(?s,'ICDE') < 3 }");

  Run(cluster, 21, "five youngest participants (top-N via ordered walk)",
      "SELECT ?n,?g WHERE { (?a,'name',?n) (?a,'age',?g) } "
      "ORDER BY ?g LIMIT 5");

  Run(cluster, 25, "young-and-prolific skyline",
      "SELECT ?n,?g,?c WHERE { (?a,'name',?n) (?a,'age',?g) "
      "(?a,'num_of_pubs',?c) } ORDER BY SKYLINE OF ?g MIN, ?c MAX");

  // A participant updates their phone number (delete + insert), then the
  // record is read back.
  std::printf("--- updating person-0's phone ---\n");
  auto old_phone = cluster.QuerySync(
      2, "SELECT ?p WHERE { ('person-0','phone',?p) }");
  if (old_phone.ok() && !old_phone->rows.empty()) {
    triple::Value old_value = old_phone->rows[0].at("p");
    cluster.RemoveTripleSync(3, triple::Triple("person-0", "phone",
                                               old_value));
    cluster.InsertTripleSync(3, triple::Triple("person-0", "phone",
                                               triple::Value::Int(5550123)));
    cluster.scheduler().RunUntilIdle();
  }
  Run(cluster, 8, "person-0's record after the update",
      "SELECT ?p,?v WHERE { ('person-0',?p,?v) }");
  return 0;
}
