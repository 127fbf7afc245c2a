#include "pgrid/messages.h"

#include <algorithm>
#include <limits>

namespace unistore {
namespace pgrid {
namespace {

void EncodeRange(const KeyRange& range, BufferWriter* w) {
  EncodeKey(range.lo, w);
  EncodeKey(range.hi, w);
}

Result<KeyRange> DecodeRange(BufferReader* r) {
  KeyRange range;
  UNISTORE_ASSIGN_OR_RETURN(range.lo, DecodeKey(r));
  UNISTORE_ASSIGN_OR_RETURN(range.hi, DecodeKey(r));
  return range;
}

Result<uint32_t> DecodeSlot(BufferReader* r) {
  UNISTORE_ASSIGN_OR_RETURN(uint64_t slot, r->GetVarint());
  if (slot > std::numeric_limits<uint32_t>::max()) {
    return Status::Corruption("batch slot out of range");
  }
  return static_cast<uint32_t>(slot);
}

void EncodeSlots(const std::vector<uint32_t>& slots, BufferWriter* w) {
  w->PutVarint(slots.size());
  for (uint32_t slot : slots) w->PutVarint(slot);
}

Result<std::vector<uint32_t>> DecodeSlots(BufferReader* r) {
  UNISTORE_ASSIGN_OR_RETURN(uint64_t n, r->GetVarint());
  std::vector<uint32_t> slots;
  slots.reserve(std::min<uint64_t>(n, 4096));  // `n` is wire data.
  for (uint64_t i = 0; i < n; ++i) {
    UNISTORE_ASSIGN_OR_RETURN(uint32_t slot, DecodeSlot(r));
    slots.push_back(slot);
  }
  return slots;
}

}  // namespace

void RefsBlock::Encode(BufferWriter* w) const {
  w->PutVarint(refs.size());
  for (const auto& level : refs) {
    w->PutVarint(level.size());
    for (PeerId p : level) w->PutU32(p);
  }
}

Result<RefsBlock> RefsBlock::Decode(BufferReader* r) {
  RefsBlock block;
  UNISTORE_ASSIGN_OR_RETURN(uint64_t nlevels, r->GetVarint());
  if (nlevels > 4096) return Status::Corruption("refs block too deep");
  block.refs.resize(nlevels);
  for (uint64_t l = 0; l < nlevels; ++l) {
    UNISTORE_ASSIGN_OR_RETURN(uint64_t n, r->GetVarint());
    if (n > 65536) return Status::Corruption("refs level too wide");
    block.refs[l].reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      UNISTORE_ASSIGN_OR_RETURN(PeerId p, r->GetU32());
      block.refs[l].push_back(p);
    }
  }
  return block;
}

void ReplicaAdvert::Encode(BufferWriter* w) const {
  // The path travels only with its replicas.
  w->PutVarint(replicas.size());
  if (replicas.empty()) return;
  for (PeerId p : replicas) w->PutU32(p);
  EncodeKey(path, w);
}

Result<ReplicaAdvert> ReplicaAdvert::Decode(BufferReader* r) {
  ReplicaAdvert advert;
  UNISTORE_ASSIGN_OR_RETURN(uint64_t n, r->GetVarint());
  if (n == 0) return advert;
  if (n > r->remaining() / 4) {
    return Status::Corruption("replica advert longer than its message");
  }
  advert.replicas.resize(n);
  for (PeerId& p : advert.replicas) {
    UNISTORE_ASSIGN_OR_RETURN(p, r->GetU32());
  }
  UNISTORE_ASSIGN_OR_RETURN(advert.path, DecodeKey(r));
  return advert;
}

std::string LookupBatchRequest::Encode() const {
  BufferWriter w;
  w.PutU32(initiator);
  w.PutVarint(keys.size());
  for (const BatchKey& k : keys) {
    w.PutVarint(k.slot);
    EncodeKey(k.key, &w);
  }
  const size_t filtered = static_cast<size_t>(
      std::count_if(keys.begin(), keys.end(),
                    [](const BatchKey& k) { return !k.suffixes.empty(); }));
  if (filtered == 0) return w.Release();
  w.PutVarint(filtered);
  for (size_t i = 0; i < keys.size(); ++i) {
    if (keys[i].suffixes.empty()) continue;
    w.PutVarint(i);
    w.PutVarint(keys[i].suffixes.size());
    for (const std::string& suffix : keys[i].suffixes) w.PutString(suffix);
  }
  return w.Release();
}

Result<LookupBatchRequest> LookupBatchRequest::Decode(std::string_view bytes) {
  BufferReader r(bytes);
  LookupBatchRequest req;
  UNISTORE_ASSIGN_OR_RETURN(req.initiator, r.GetU32());
  UNISTORE_ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
  req.keys.reserve(std::min<uint64_t>(n, 4096));  // `n` is wire data.
  for (uint64_t i = 0; i < n; ++i) {
    BatchKey k;
    UNISTORE_ASSIGN_OR_RETURN(k.slot, DecodeSlot(&r));
    UNISTORE_ASSIGN_OR_RETURN(k.key, DecodeKey(&r));
    req.keys.push_back(std::move(k));
  }
  if (r.AtEnd()) return req;
  // The suffix trailer. Every count is checked against the bytes left
  // (a filtered key takes at least two, a suffix at least one) before
  // anything is reserved or read.
  UNISTORE_ASSIGN_OR_RETURN(uint64_t filtered, r.GetVarint());
  if (filtered > r.remaining() / 2) {
    return Status::Corruption("suffix trailer longer than its message");
  }
  uint64_t next = 0;  // Indices strictly increase.
  for (uint64_t i = 0; i < filtered; ++i) {
    UNISTORE_ASSIGN_OR_RETURN(uint64_t index, r.GetVarint());
    if (index < next || index >= req.keys.size()) {
      return Status::Corruption("suffix trailer names key ", index, " of ",
                                req.keys.size());
    }
    next = index + 1;
    UNISTORE_ASSIGN_OR_RETURN(uint64_t count, r.GetVarint());
    if (count > r.remaining()) {
      return Status::Corruption("more suffixes than bytes left");
    }
    std::vector<std::string>& suffixes = req.keys[index].suffixes;
    suffixes.reserve(count);
    for (uint64_t j = 0; j < count; ++j) {
      UNISTORE_ASSIGN_OR_RETURN(std::string suffix, r.GetString());
      suffixes.push_back(std::move(suffix));
    }
  }
  if (!r.AtEnd()) return Status::Corruption("bytes after the suffix trailer");
  return req;
}

std::string LookupBatchReply::Encode() const {
  std::vector<uint32_t> slots;
  slots.reserve(answers.size());
  for (const Answer& answer : answers) slots.push_back(answer.slot);
  return EncodeStreamed(slots, [this](size_t i, BufferWriter* w) {
    EncodeEntries(answers[i].entries, w, /*keyless=*/true);
  });
}

std::string LookupBatchReply::EncodeStreamed(const std::vector<uint32_t>& slots,
                                             AnswerStreamFn emit) const {
  BufferWriter w;
  w.PutU32(peer);
  w.PutVarint(slots.size());
  for (size_t i = 0; i < slots.size(); ++i) {
    w.PutVarint(slots[i]);
    emit(i, &w);
  }
  EncodeSlots(dead_ends, &w);
  advert.Encode(&w);
  return w.Release();
}

Result<LookupBatchReply> LookupBatchReply::Decode(std::string_view bytes) {
  BufferReader r(bytes);
  LookupBatchReply reply;
  UNISTORE_ASSIGN_OR_RETURN(reply.peer, r.GetU32());
  UNISTORE_ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
  reply.answers.reserve(std::min<uint64_t>(n, 4096));  // `n` is wire data.
  for (uint64_t i = 0; i < n; ++i) {
    Answer answer;
    UNISTORE_ASSIGN_OR_RETURN(answer.slot, DecodeSlot(&r));
    UNISTORE_ASSIGN_OR_RETURN(answer.entries,
                              DecodeEntries(&r, /*keyless=*/true));
    reply.answers.push_back(std::move(answer));
  }
  UNISTORE_ASSIGN_OR_RETURN(reply.dead_ends, DecodeSlots(&r));
  UNISTORE_ASSIGN_OR_RETURN(reply.advert, ReplicaAdvert::Decode(&r));
  return reply;
}

std::string BulkInsertRequest::Encode() const {
  BufferWriter w;
  w.PutU32(initiator);
  EntryListWriter::Write(&w, /*keyless=*/false,
                         [this, &w](EntryListWriter* list) {
                           for (const BatchEntry& e : entries) {
                             w.PutVarint(e.slot);
                             list->Add(e.entry);
                           }
                         });
  return w.Release();
}

Result<BulkInsertRequest> BulkInsertRequest::Decode(std::string_view bytes) {
  BufferReader r(bytes);
  BulkInsertRequest req;
  UNISTORE_ASSIGN_OR_RETURN(req.initiator, r.GetU32());
  UNISTORE_ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
  req.entries.reserve(std::min<uint64_t>(n, 4096));  // `n` is wire data.
  for (uint64_t i = 0; i < n; ++i) {
    BatchEntry e;
    UNISTORE_ASSIGN_OR_RETURN(e.slot, DecodeSlot(&r));
    UNISTORE_ASSIGN_OR_RETURN(
        e.entry, DecodeListedEntry(&r, req.entries.empty()
                                           ? nullptr
                                           : &req.entries.back().entry));
    req.entries.push_back(std::move(e));
  }
  return req;
}

std::string BulkInsertReply::Encode() const {
  BufferWriter w;
  w.PutU32(peer);
  EncodeSlots(stored, &w);
  EncodeSlots(dead_ends, &w);
  advert.Encode(&w);
  return w.Release();
}

Result<BulkInsertReply> BulkInsertReply::Decode(std::string_view bytes) {
  BufferReader r(bytes);
  BulkInsertReply reply;
  UNISTORE_ASSIGN_OR_RETURN(reply.peer, r.GetU32());
  UNISTORE_ASSIGN_OR_RETURN(reply.stored, DecodeSlots(&r));
  UNISTORE_ASSIGN_OR_RETURN(reply.dead_ends, DecodeSlots(&r));
  UNISTORE_ASSIGN_OR_RETURN(reply.advert, ReplicaAdvert::Decode(&r));
  return reply;
}

std::string RangeSeqRequest::Encode() const {
  BufferWriter w;
  w.PutU32(initiator);
  EncodeRange(range, &w);
  w.PutU32(limit);
  w.PutU32(collected);
  return w.Release();
}

Result<RangeSeqRequest> RangeSeqRequest::Decode(std::string_view bytes) {
  BufferReader r(bytes);
  RangeSeqRequest req;
  UNISTORE_ASSIGN_OR_RETURN(req.initiator, r.GetU32());
  UNISTORE_ASSIGN_OR_RETURN(req.range, DecodeRange(&r));
  UNISTORE_ASSIGN_OR_RETURN(req.limit, r.GetU32());
  UNISTORE_ASSIGN_OR_RETURN(req.collected, r.GetU32());
  return req;
}

std::string RangeSeqReply::Encode() const {
  BufferWriter w;
  EncodeEntries(entries, &w);
  return EncodeStreamed(std::move(w));
}

std::string RangeSeqReply::EncodeStreamed(BufferWriter w) const {
  w.PutBool(will_forward);
  EncodeKey(peer_path, &w);
  w.PutU8(status_code);
  w.PutString(error);
  return w.Release();
}

Result<RangeSeqReply> RangeSeqReply::Decode(std::string_view bytes) {
  BufferReader r(bytes);
  RangeSeqReply reply;
  UNISTORE_ASSIGN_OR_RETURN(reply.entries, DecodeEntries(&r));
  UNISTORE_ASSIGN_OR_RETURN(reply.will_forward, r.GetBool());
  UNISTORE_ASSIGN_OR_RETURN(reply.peer_path, DecodeKey(&r));
  UNISTORE_ASSIGN_OR_RETURN(reply.status_code, r.GetU8());
  UNISTORE_ASSIGN_OR_RETURN(reply.error, r.GetString());
  return reply;
}

std::string RangeShowerRequest::Encode() const {
  BufferWriter w;
  w.PutU32(initiator);
  EncodeRange(range, &w);
  return w.Release();
}

Result<RangeShowerRequest> RangeShowerRequest::Decode(
    std::string_view bytes) {
  BufferReader r(bytes);
  RangeShowerRequest req;
  UNISTORE_ASSIGN_OR_RETURN(req.initiator, r.GetU32());
  UNISTORE_ASSIGN_OR_RETURN(req.range, DecodeRange(&r));
  return req;
}

std::string RangeShowerReply::Encode() const {
  BufferWriter w;
  EncodeEntries(entries, &w);
  return EncodeStreamed(std::move(w));
}

std::string RangeShowerReply::EncodeStreamed(BufferWriter w) const {
  w.PutU32(forwards);
  w.PutU32(unreachable);
  EncodeKey(peer_path, &w);
  return w.Release();
}

Result<RangeShowerReply> RangeShowerReply::Decode(std::string_view bytes) {
  BufferReader r(bytes);
  RangeShowerReply reply;
  UNISTORE_ASSIGN_OR_RETURN(reply.entries, DecodeEntries(&r));
  UNISTORE_ASSIGN_OR_RETURN(reply.forwards, r.GetU32());
  UNISTORE_ASSIGN_OR_RETURN(reply.unreachable, r.GetU32());
  UNISTORE_ASSIGN_OR_RETURN(reply.peer_path, DecodeKey(&r));
  return reply;
}

std::string ExchangeRequest::Encode() const {
  BufferWriter w;
  w.PutU32(initiator);
  EncodeKey(path, &w);
  w.PutVarint(live_size);
  w.PutU32(replica_count);
  w.PutU32(ttl);
  refs.Encode(&w);
  return w.Release();
}

Result<ExchangeRequest> ExchangeRequest::Decode(std::string_view bytes) {
  BufferReader r(bytes);
  ExchangeRequest req;
  UNISTORE_ASSIGN_OR_RETURN(req.initiator, r.GetU32());
  UNISTORE_ASSIGN_OR_RETURN(req.path, DecodeKey(&r));
  UNISTORE_ASSIGN_OR_RETURN(req.live_size, r.GetVarint());
  UNISTORE_ASSIGN_OR_RETURN(req.replica_count, r.GetU32());
  UNISTORE_ASSIGN_OR_RETURN(req.ttl, r.GetU32());
  UNISTORE_ASSIGN_OR_RETURN(req.refs, RefsBlock::Decode(&r));
  return req;
}

std::string ExchangeReply::Encode() const {
  BufferWriter w;
  w.PutU8(static_cast<uint8_t>(action));
  EncodeKey(new_initiator_path, &w);
  EncodeKey(responder_path, &w);
  w.PutVarint(responder_size);
  EncodeEntries(entries, &w);
  refs.Encode(&w);
  return w.Release();
}

Result<ExchangeReply> ExchangeReply::Decode(std::string_view bytes) {
  BufferReader r(bytes);
  ExchangeReply reply;
  UNISTORE_ASSIGN_OR_RETURN(uint8_t action, r.GetU8());
  if (action > 5) return Status::Corruption("bad exchange action");
  reply.action = static_cast<ExchangeAction>(action);
  UNISTORE_ASSIGN_OR_RETURN(reply.new_initiator_path, DecodeKey(&r));
  UNISTORE_ASSIGN_OR_RETURN(reply.responder_path, DecodeKey(&r));
  UNISTORE_ASSIGN_OR_RETURN(reply.responder_size, r.GetVarint());
  UNISTORE_ASSIGN_OR_RETURN(reply.entries, DecodeEntries(&r));
  UNISTORE_ASSIGN_OR_RETURN(reply.refs, RefsBlock::Decode(&r));
  return reply;
}

std::string EntryBatch::Encode() const {
  BufferWriter w;
  EncodeEntries(entries, &w);
  w.PutBool(reroute_if_foreign);
  w.PutBool(gossip);
  w.PutVarint(informed.size());
  for (PeerId p : informed) w.PutVarint(p);
  return w.Release();
}

Result<EntryBatch> EntryBatch::Decode(std::string_view bytes) {
  BufferReader r(bytes);
  EntryBatch batch;
  UNISTORE_ASSIGN_OR_RETURN(batch.entries, DecodeEntries(&r));
  UNISTORE_ASSIGN_OR_RETURN(batch.reroute_if_foreign, r.GetBool());
  UNISTORE_ASSIGN_OR_RETURN(batch.gossip, r.GetBool());
  // Every id takes at least one byte, so a count beyond the bytes left
  // is corrupt.
  UNISTORE_ASSIGN_OR_RETURN(uint64_t count, r.GetVarint());
  if (count > r.remaining()) return Status::Corruption("bad informed count");
  batch.informed.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    UNISTORE_ASSIGN_OR_RETURN(uint64_t p, r.GetVarint());
    if (p > std::numeric_limits<PeerId>::max()) {
      return Status::Corruption("bad informed peer id");
    }
    batch.informed.push_back(static_cast<PeerId>(p));
  }
  return batch;
}

std::string ManifestPullReply::Encode() const {
  BufferWriter w;
  w.PutVarint(runs.size());
  for (const RunSummary& run : runs) {
    w.PutVarint(run.run_id);
    w.PutVarint(run.entry_count);
    w.PutU32(run.checksum);
  }
  w.PutVarint(memtable_entries);
  EncodeKey(donor_path, &w);
  return w.Release();
}

Result<ManifestPullReply> ManifestPullReply::Decode(std::string_view bytes) {
  BufferReader r(bytes);
  ManifestPullReply reply;
  UNISTORE_ASSIGN_OR_RETURN(uint64_t count, r.GetVarint());
  if (count > bytes.size()) return Status::Corruption("bad run count");
  reply.runs.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    RunSummary run;
    UNISTORE_ASSIGN_OR_RETURN(run.run_id, r.GetVarint());
    UNISTORE_ASSIGN_OR_RETURN(run.entry_count, r.GetVarint());
    UNISTORE_ASSIGN_OR_RETURN(run.checksum, r.GetU32());
    reply.runs.push_back(run);
  }
  UNISTORE_ASSIGN_OR_RETURN(reply.memtable_entries, r.GetVarint());
  UNISTORE_ASSIGN_OR_RETURN(reply.donor_path, DecodeKey(&r));
  return reply;
}

std::string RunFetchRequest::Encode() const {
  BufferWriter w;
  w.PutVarint(run_id);
  w.PutU32(expected_checksum);
  w.PutVarint(start_entry);
  w.PutVarint(max_bytes);
  return w.Release();
}

Result<RunFetchRequest> RunFetchRequest::Decode(std::string_view bytes) {
  BufferReader r(bytes);
  RunFetchRequest req;
  UNISTORE_ASSIGN_OR_RETURN(req.run_id, r.GetVarint());
  UNISTORE_ASSIGN_OR_RETURN(req.expected_checksum, r.GetU32());
  UNISTORE_ASSIGN_OR_RETURN(req.start_entry, r.GetVarint());
  UNISTORE_ASSIGN_OR_RETURN(req.max_bytes, r.GetVarint());
  return req;
}

std::string RunFetchReply::Encode() const {
  BufferWriter w;
  w.PutU8(code);
  w.PutVarint(run_id);
  w.PutVarint(start_entry);
  w.PutVarint(total_entries);
  w.PutBool(done);
  w.PutU32(chunk_crc);
  w.PutString(block);
  return w.Release();
}

Result<RunFetchReply> RunFetchReply::Decode(std::string_view bytes) {
  BufferReader r(bytes);
  RunFetchReply reply;
  UNISTORE_ASSIGN_OR_RETURN(reply.code, r.GetU8());
  if (reply.code > kGone) return Status::Corruption("bad run-fetch code");
  UNISTORE_ASSIGN_OR_RETURN(reply.run_id, r.GetVarint());
  UNISTORE_ASSIGN_OR_RETURN(reply.start_entry, r.GetVarint());
  UNISTORE_ASSIGN_OR_RETURN(reply.total_entries, r.GetVarint());
  UNISTORE_ASSIGN_OR_RETURN(reply.done, r.GetBool());
  UNISTORE_ASSIGN_OR_RETURN(reply.chunk_crc, r.GetU32());
  UNISTORE_ASSIGN_OR_RETURN(reply.block, r.GetString());
  return reply;
}

std::string ReplicaProbeRequest::Encode() const {
  BufferWriter w;
  w.PutU32(initiator);
  EncodeKey(path, &w);
  return w.Release();
}

Result<ReplicaProbeRequest> ReplicaProbeRequest::Decode(
    std::string_view bytes) {
  BufferReader r(bytes);
  ReplicaProbeRequest req;
  UNISTORE_ASSIGN_OR_RETURN(req.initiator, r.GetU32());
  UNISTORE_ASSIGN_OR_RETURN(req.path, DecodeKey(&r));
  return req;
}

std::string ReplicaProbeReply::Encode() const {
  BufferWriter w;
  EncodeKey(path, &w);
  w.PutVarint(live_size);
  return w.Release();
}

Result<ReplicaProbeReply> ReplicaProbeReply::Decode(std::string_view bytes) {
  BufferReader r(bytes);
  ReplicaProbeReply reply;
  UNISTORE_ASSIGN_OR_RETURN(reply.path, DecodeKey(&r));
  UNISTORE_ASSIGN_OR_RETURN(reply.live_size, r.GetVarint());
  return reply;
}

std::string JoinRequest::Encode() const {
  BufferWriter w;
  w.PutU32(initiator);
  return w.Release();
}

Result<JoinRequest> JoinRequest::Decode(std::string_view bytes) {
  BufferReader r(bytes);
  JoinRequest req;
  UNISTORE_ASSIGN_OR_RETURN(req.initiator, r.GetU32());
  return req;
}

std::string JoinReply::Encode() const {
  BufferWriter w;
  w.PutBool(accepted);
  w.PutBool(split);
  EncodeKey(new_path, &w);
  EncodeKey(sponsor_path, &w);
  w.PutU32(static_cast<uint32_t>(replicas.size()));
  for (PeerId p : replicas) w.PutU32(p);
  refs.Encode(&w);
  EncodeEntries(entries, &w);
  return w.Release();
}

Result<JoinReply> JoinReply::Decode(std::string_view bytes) {
  BufferReader r(bytes);
  JoinReply reply;
  UNISTORE_ASSIGN_OR_RETURN(reply.accepted, r.GetBool());
  UNISTORE_ASSIGN_OR_RETURN(reply.split, r.GetBool());
  UNISTORE_ASSIGN_OR_RETURN(reply.new_path, DecodeKey(&r));
  UNISTORE_ASSIGN_OR_RETURN(reply.sponsor_path, DecodeKey(&r));
  UNISTORE_ASSIGN_OR_RETURN(uint32_t replica_count, r.GetU32());
  reply.replicas.reserve(replica_count);
  for (uint32_t i = 0; i < replica_count; ++i) {
    UNISTORE_ASSIGN_OR_RETURN(PeerId p, r.GetU32());
    reply.replicas.push_back(p);
  }
  UNISTORE_ASSIGN_OR_RETURN(reply.refs, RefsBlock::Decode(&r));
  UNISTORE_ASSIGN_OR_RETURN(reply.entries, DecodeEntries(&r));
  return reply;
}

std::string RecruitRequest::Encode() const {
  BufferWriter w;
  w.PutU32(initiator);
  EncodeKey(path, &w);
  refs.Encode(&w);
  return w.Release();
}

Result<RecruitRequest> RecruitRequest::Decode(std::string_view bytes) {
  BufferReader r(bytes);
  RecruitRequest req;
  UNISTORE_ASSIGN_OR_RETURN(req.initiator, r.GetU32());
  UNISTORE_ASSIGN_OR_RETURN(req.path, DecodeKey(&r));
  UNISTORE_ASSIGN_OR_RETURN(req.refs, RefsBlock::Decode(&r));
  return req;
}

std::string RecruitReply::Encode() const {
  BufferWriter w;
  w.PutBool(accepted);
  return w.Release();
}

Result<RecruitReply> RecruitReply::Decode(std::string_view bytes) {
  BufferReader r(bytes);
  RecruitReply reply;
  UNISTORE_ASSIGN_OR_RETURN(reply.accepted, r.GetBool());
  return reply;
}

std::string RefUpdate::Encode() const {
  BufferWriter w;
  w.PutU32(peer);
  EncodeKey(path, &w);
  return w.Release();
}

Result<RefUpdate> RefUpdate::Decode(std::string_view bytes) {
  BufferReader r(bytes);
  RefUpdate update;
  UNISTORE_ASSIGN_OR_RETURN(update.peer, r.GetU32());
  UNISTORE_ASSIGN_OR_RETURN(update.path, DecodeKey(&r));
  return update;
}

}  // namespace pgrid
}  // namespace unistore
