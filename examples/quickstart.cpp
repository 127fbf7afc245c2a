// Quickstart: build a small UniStore network, insert Figure-3-style data,
// and run the paper's §2 example query — the skyline of authors from the
// youngest to the most published, restricted to ICDE-like series (with an
// edit distance of up to 2 to tolerate typos).
//
//   $ ./quickstart
#include <cstdio>

#include "core/cluster.h"
#include "core/datagen.h"

using namespace unistore;

int main() {
  // 1. A simulated network of 16 peers (LAN latencies, deterministic).
  core::ClusterOptions options;
  options.peers = 16;
  options.seed = 2006;
  core::Cluster cluster(options);
  std::printf("built a %zu-peer P-Grid overlay (trie depth %zu)\n",
              cluster.size(), cluster.overlay().MaxPathDepth());

  // 2. Bulk-load a bibliography dataset following the paper's example
  //    schema (persons, publications, conferences — typos included). The
  //    whole batch travels as one routed BulkInsert walk and the owners
  //    ingest their slices directly into sorted runs.
  core::BibliographyOptions data;
  data.authors = 20;
  data.publications_per_author = 2;
  data.typo_probability = 0.2;
  auto bib = core::GenerateBibliography(data);
  Status status = cluster.BulkLoadTuplesSync(/*via=*/0, bib.AllTuples());
  if (!status.ok()) {
    std::fprintf(stderr, "bulk load failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  cluster.scheduler().RunUntilIdle();
  std::printf("bulk-loaded %zu logical tuples (%zu triples, x3 indexes)\n",
              bib.AllTuples().size(), bib.TripleCount());

  // 3. Let peers build and gossip statistics (feeds the cost model).
  cluster.RefreshStats();

  // 4. The paper's example query, verbatim.
  const char* query = R"(
    SELECT ?name,?age,?cnt
    WHERE {(?a,'name',?name) (?a,'age',?age)
           (?a,'num_of_pubs',?cnt)
           (?a,'has_published',?title) (?p,'title',?title)
           (?p,'published_in',?conf) (?c,'confname',?conf)
           (?c,'series',?sr) FILTER edist(?sr,'ICDE')<3
    }
    ORDER BY SKYLINE OF ?age MIN, ?cnt MAX)";
  std::printf("\nVQL query:%s\n\n", query);

  auto measured = cluster.QueryMeasured(/*via=*/3, query);
  if (!measured.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 measured.status().ToString().c_str());
    return 1;
  }

  std::printf("physical plan:\n%s\n", measured->result.plan_text.c_str());
  std::printf("execution trace (operator -> output cardinality):\n");
  for (const auto& line : measured->result.trace) {
    std::printf("  %s\n", line.c_str());
  }
  std::printf("\n");
  std::printf("skyline of authors (young vs prolific):\n%s\n",
              measured->result.ToTable().c_str());
  std::printf("cost: %llu messages, %llu bytes, %.1f ms virtual latency\n",
              static_cast<unsigned long long>(
                  measured->traffic.messages_sent),
              static_cast<unsigned long long>(measured->traffic.bytes_sent),
              static_cast<double>(measured->virtual_latency_us) / 1000.0);
  return 0;
}
