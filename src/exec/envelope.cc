#include "exec/envelope.h"

namespace unistore {
namespace exec {

void EncodeTerm(const vql::Term& term, BufferWriter* w) {
  w->PutBool(term.is_variable);
  if (term.is_variable) {
    w->PutString(term.variable);
  } else {
    term.literal.Encode(w);
  }
}

Result<vql::Term> DecodeTerm(BufferReader* r) {
  UNISTORE_ASSIGN_OR_RETURN(bool is_variable, r->GetBool());
  if (is_variable) {
    UNISTORE_ASSIGN_OR_RETURN(std::string name, r->GetString());
    return vql::Term::Var(std::move(name));
  }
  UNISTORE_ASSIGN_OR_RETURN(triple::Value value, triple::Value::Decode(r));
  return vql::Term::Lit(std::move(value));
}

void EncodePattern(const vql::TriplePattern& pattern, BufferWriter* w) {
  EncodeTerm(pattern.subject, w);
  EncodeTerm(pattern.predicate, w);
  EncodeTerm(pattern.object, w);
}

Result<vql::TriplePattern> DecodePattern(BufferReader* r) {
  vql::TriplePattern p;
  UNISTORE_ASSIGN_OR_RETURN(p.subject, DecodeTerm(r));
  UNISTORE_ASSIGN_OR_RETURN(p.predicate, DecodeTerm(r));
  UNISTORE_ASSIGN_OR_RETURN(p.object, DecodeTerm(r));
  return p;
}

// --- PlanEnvelope -----------------------------------------------------------

std::string PlanEnvelope::Encode() const {
  BufferWriter w;
  w.PutU32(initiator);
  w.PutU64(walk_id);
  w.PutU32(branch);
  w.PutU32(chunk_id);
  w.PutU32(chunk_count);
  EncodePattern(pattern, &w);
  pgrid::EncodeKey(remaining.lo, &w);
  pgrid::EncodeKey(remaining.hi, &w);
  EncodeBindings(bindings, &w);
  return w.Release();
}

Result<PlanEnvelope> PlanEnvelope::Decode(std::string_view bytes) {
  BufferReader r(bytes);
  PlanEnvelope env;
  UNISTORE_ASSIGN_OR_RETURN(env.initiator, r.GetU32());
  UNISTORE_ASSIGN_OR_RETURN(env.walk_id, r.GetU64());
  UNISTORE_ASSIGN_OR_RETURN(env.branch, r.GetU32());
  UNISTORE_ASSIGN_OR_RETURN(env.chunk_id, r.GetU32());
  UNISTORE_ASSIGN_OR_RETURN(env.chunk_count, r.GetU32());
  if (env.chunk_count == 0 || env.chunk_id >= env.chunk_count) {
    return Status::Corruption("envelope chunk ", env.chunk_id, "/",
                              env.chunk_count, " out of range");
  }
  UNISTORE_ASSIGN_OR_RETURN(env.pattern, DecodePattern(&r));
  UNISTORE_ASSIGN_OR_RETURN(env.remaining.lo, pgrid::DecodeKey(&r));
  UNISTORE_ASSIGN_OR_RETURN(env.remaining.hi, pgrid::DecodeKey(&r));
  UNISTORE_ASSIGN_OR_RETURN(env.bindings, DecodeBindings(&r));
  return env;
}

// --- EnvelopeReply ----------------------------------------------------------

std::string EnvelopeReply::Encode() const {
  BufferWriter w;
  w.PutU8(status_code);
  w.PutString(error);
  w.PutU8(static_cast<uint8_t>(kind));
  w.PutU32(origin);
  w.PutU64(walk_id);
  w.PutU32(branch);
  w.PutU32(chunk_id);
  pgrid::EncodeKey(covered_lo, &w);
  pgrid::EncodeKey(covered_hi, &w);
  EncodeBindings(results, &w);
  w.PutU32(retry_after_us);
  return w.Release();
}

Result<EnvelopeReply> EnvelopeReply::Decode(std::string_view bytes) {
  BufferReader r(bytes);
  EnvelopeReply reply;
  UNISTORE_ASSIGN_OR_RETURN(reply.status_code, r.GetU8());
  UNISTORE_ASSIGN_OR_RETURN(reply.error, r.GetString());
  UNISTORE_ASSIGN_OR_RETURN(uint8_t kind, r.GetU8());
  if (kind > static_cast<uint8_t>(Kind::kPartial)) {
    return Status::Corruption("bad envelope reply kind ",
                              static_cast<int>(kind));
  }
  reply.kind = static_cast<Kind>(kind);
  UNISTORE_ASSIGN_OR_RETURN(reply.origin, r.GetU32());
  UNISTORE_ASSIGN_OR_RETURN(reply.walk_id, r.GetU64());
  UNISTORE_ASSIGN_OR_RETURN(reply.branch, r.GetU32());
  UNISTORE_ASSIGN_OR_RETURN(reply.chunk_id, r.GetU32());
  UNISTORE_ASSIGN_OR_RETURN(reply.covered_lo, pgrid::DecodeKey(&r));
  UNISTORE_ASSIGN_OR_RETURN(reply.covered_hi, pgrid::DecodeKey(&r));
  UNISTORE_ASSIGN_OR_RETURN(reply.results, DecodeBindings(&r));
  UNISTORE_ASSIGN_OR_RETURN(reply.retry_after_us, r.GetU32());
  return reply;
}

}  // namespace exec
}  // namespace unistore
