// The triple: UniStore's universal data model.
//
// Paper §2: each relational tuple (OID, v1, ..., vn) of schema
// R(A1, ..., An) is stored as n triples (OID, Ai, vi); attribute names may
// carry a namespace prefix ("ns:attr") to distinguish relations. The layout
// is exactly RDF, so RDF data is stored seamlessly.
#ifndef UNISTORE_TRIPLE_TRIPLE_H_
#define UNISTORE_TRIPLE_TRIPLE_H_

#include <string>
#include <vector>

#include "common/codec.h"
#include "common/result.h"
#include "triple/value.h"

namespace unistore {
namespace triple {

/// \brief One (OID, attribute, value) statement.
struct Triple {
  std::string oid;        ///< System-generated logical-tuple id (or URI).
  std::string attribute;  ///< Optionally namespace-prefixed ("ns:attr").
  Value value;

  Triple() = default;
  Triple(std::string o, std::string a, Value v)
      : oid(std::move(o)), attribute(std::move(a)), value(std::move(v)) {}

  /// Stable identity of this statement: its encoding (Encode into a
  /// standalone string). Two triples with equal identity denote the same
  /// logical fact; the identity is the body of every DHT entry id of the
  /// triple (triple/index.h), so re-insertion is idempotent, versioned
  /// updates replace, and the id decodes back into the triple.
  std::string Identity() const;

  /// "(oid, attr, value)" for logs and result rendering.
  std::string ToString() const;

  void Encode(BufferWriter* w) const;
  static Result<Triple> Decode(BufferReader* r);

  bool operator==(const Triple& other) const {
    return oid == other.oid && attribute == other.attribute &&
           value == other.value;
  }
};

}  // namespace triple
}  // namespace unistore

#endif  // UNISTORE_TRIPLE_TRIPLE_H_
