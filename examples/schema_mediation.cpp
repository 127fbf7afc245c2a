// Schema mediation: two communities describe the same concept with
// different attribute names; schema-mapping triples (paper §2: "we allow
// to store triples representing a simple kind of schema mappings") let
// queries span both — either explicitly (the user queries the metadata) or
// automatically (the optimizer expands attributes with their
// correspondence classes).
//
//   $ ./schema_mediation
#include <cstdio>

#include "core/cluster.h"

using namespace unistore;

namespace {

void Show(const char* label, const Result<exec::QueryResult>& result) {
  std::printf("== %s ==\n", label);
  if (!result.ok()) {
    std::printf("ERROR: %s\n\n", result.status().ToString().c_str());
    return;
  }
  std::printf("%s\n", result->ToTable().c_str());
}

}  // namespace

int main() {
  core::ClusterOptions options;
  options.peers = 16;
  options.seed = 99;
  core::Cluster cluster(options);

  // Community A: English attribute names.
  for (int i = 0; i < 5; ++i) {
    triple::Tuple t;
    t.oid = "en-" + std::to_string(i);
    t.attributes["name"] =
        triple::Value::String("english-person-" + std::to_string(i));
    t.attributes["phone"] = triple::Value::Int(1000 + i);
    if (!cluster.InsertTupleSync(0, t).ok()) return 1;
  }
  // Community B: German attribute names for the same concepts.
  for (int i = 0; i < 5; ++i) {
    triple::Tuple t;
    t.oid = "de-" + std::to_string(i);
    t.attributes["name"] =
        triple::Value::String("deutsche-person-" + std::to_string(i));
    t.attributes["telefon"] = triple::Value::Int(2000 + i);
    if (!cluster.InsertTupleSync(8, t).ok()) return 1;
  }
  cluster.scheduler().RunUntilIdle();

  // Someone who knows both schemas publishes the correspondence once; it
  // is ordinary, queryable data.
  if (!cluster.InsertMappingSync(3, "phone", "telefon").ok()) return 1;
  cluster.RefreshStats();

  Show("1. without mappings, 'phone' finds only community A",
       cluster.QuerySync(5, "SELECT ?a,?p WHERE { (?a,'phone',?p) }"));

  Show("2. the mapping itself is queryable metadata (paper: 'queried "
       "explicitly by the user')",
       cluster.QuerySync(
           11,
           "SELECT ?from,?to WHERE { (?from,'map#corresponds_to',?to) }"));

  // 3. A peer that joined later pulls the correspondences from the
  //    network and enables automatic application.
  Status loaded = cluster.LoadMappingsSync(5);
  if (!loaded.ok()) {
    std::printf("loading mappings failed: %s\n", loaded.ToString().c_str());
    return 1;
  }
  plan::PlannerOptions with_mappings;
  with_mappings.apply_mappings = true;
  cluster.node(5).SetPlannerOptions(with_mappings);

  auto mapped =
      cluster.QuerySync(5, "SELECT ?a,?p WHERE { (?a,'phone',?p) }");
  Show("3. with mappings applied automatically, both communities match",
       mapped);
  if (mapped.ok()) {
    std::printf("plan (note the expanded attrs={phone,telefon}):\n%s\n",
                mapped->plan_text.c_str());
  }
  return 0;
}
