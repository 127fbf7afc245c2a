// Mutant query plan envelopes (paper §2, after Papadimos & Maier's Mutant
// Query Plans): a serialized plan fragment that migrates between peers.
// UniStore uses envelopes for the Migrate join strategy: the envelope
// carries the left-side bindings along the peers of the right pattern's
// attribute partition. Every visited peer shrinks the remaining range and
// forwards the envelope before its local join completes, then streams its
// own rows straight back to the initiator (kPlanExecPartial; the last peer
// of the walk sends the terminal kPlanExecReply). The envelope therefore
// never carries results, and each struct has exactly one wire layout
// (DESIGN.md §4).
#ifndef UNISTORE_EXEC_ENVELOPE_H_
#define UNISTORE_EXEC_ENVELOPE_H_

#include <string>
#include <vector>

#include "exec/binding.h"
#include "net/message.h"
#include "pgrid/key.h"
#include "vql/ast.h"

namespace unistore {
namespace exec {

/// The migrating plan fragment.
struct PlanEnvelope {
  net::PeerId initiator = net::kNoPeer;
  /// Unique id of this walk instance (observability; retries get fresh
  /// ones).
  uint64_t walk_id = 0;
  /// Fan-out branch index: which disjoint sub-range of the partition this
  /// walk covers. Stable across retries of the branch.
  uint32_t branch = 0;
  /// Binding-chunk index within the walk.
  uint32_t chunk_id = 0;
  /// The pattern each visited peer matches against its local store.
  vql::TriplePattern pattern;
  /// The key range still to visit (this branch's slice of the right
  /// attribute's partition).
  pgrid::KeyRange remaining;
  /// Left-side input bindings (one chunk of them under chunking).
  std::vector<Binding> bindings;

  std::string Encode() const;
  static Result<PlanEnvelope> Decode(std::string_view bytes);
};

/// A reply of an envelope walk: either a streamed partial (one visited
/// peer's local results) or the terminal reply of one walk instance.
struct EnvelopeReply {
  uint8_t status_code = 0;
  std::string error;
  /// kTerminal: the walk ended at the sending peer (normally or with an
  /// error). kPartial: one intermediate peer's streamed results.
  enum class Kind : uint8_t { kTerminal = 0, kPartial = 1 };
  Kind kind = Kind::kTerminal;
  net::PeerId origin = net::kNoPeer;
  uint64_t walk_id = 0;
  uint32_t branch = 0;
  uint32_t chunk_id = 0;
  /// The slice of the branch range whose results this reply carries
  /// (inclusive). Both empty = no coverage (e.g. a routing dead end
  /// before any peer served). The coordinator assembles these
  /// intervals into a coverage frontier: a walk is complete when its
  /// branch range is fully covered, and retries resume at the first gap.
  pgrid::Key covered_lo;
  pgrid::Key covered_hi;
  std::vector<Binding> results;

  bool has_coverage() const { return !covered_hi.empty(); }

  std::string Encode() const;
  static Result<EnvelopeReply> Decode(std::string_view bytes);
};

void EncodeTerm(const vql::Term& term, BufferWriter* w);
Result<vql::Term> DecodeTerm(BufferReader* r);
void EncodePattern(const vql::TriplePattern& pattern, BufferWriter* w);
Result<vql::TriplePattern> DecodePattern(BufferReader* r);

}  // namespace exec
}  // namespace unistore

#endif  // UNISTORE_EXEC_ENVELOPE_H_
