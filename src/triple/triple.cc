#include "triple/triple.h"

namespace unistore {
namespace triple {

std::string Triple::Identity() const {
  BufferWriter w;
  Encode(&w);
  return w.Release();
}

std::string Triple::ToString() const {
  return "(" + oid + ", '" + attribute + "', " + value.ToDisplayString() +
         ")";
}

void Triple::Encode(BufferWriter* w) const {
  w->PutString(oid);
  w->PutString(attribute);
  value.Encode(w);
}

Result<Triple> Triple::Decode(BufferReader* r) {
  Triple t;
  UNISTORE_ASSIGN_OR_RETURN(t.oid, r->GetString());
  UNISTORE_ASSIGN_OR_RETURN(t.attribute, r->GetString());
  UNISTORE_ASSIGN_OR_RETURN(t.value, Value::Decode(r));
  return t;
}

}  // namespace triple
}  // namespace unistore
