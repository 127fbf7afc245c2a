// Protocol robustness: peers must survive corrupt payloads, unknown
// message types, late/duplicate replies and degenerate exchanges without
// crashing or corrupting state (DESIGN.md testing strategy: "never hang or
// return wrong data silently").
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "pgrid/overlay.h"

namespace unistore {
namespace pgrid {
namespace {

net::Message Garbage(net::PeerId src, net::PeerId dst,
                     net::MessageType type) {
  net::Message m;
  m.type = type;
  m.src = src;
  m.dst = dst;
  m.request_id = 999999;
  m.payload = "\xFF\x01garbage\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80";
  return m;
}

class RobustnessTest : public ::testing::Test {
 protected:
  RobustnessTest() {
    OverlayOptions options;
    options.seed = 321;
    overlay_ = std::make_unique<Overlay>(options);
    overlay_->AddPeers(8);
    overlay_->BuildBalanced();
  }

  std::unique_ptr<Overlay> overlay_;
};

TEST_F(RobustnessTest, CorruptPayloadsAreDropped) {
  using MT = net::MessageType;
  for (MT type : {MT::kLookup, MT::kBulkInsert, MT::kRangeSeq,
                  MT::kRangeShower, MT::kExchange, MT::kReplicaPush,
                  MT::kLookupReply, MT::kBulkInsertReply, MT::kRangeSeqReply,
                  MT::kRangeShowerReply}) {
    overlay_->transport().Send(Garbage(0, 3, type));
  }
  overlay_->scheduler().RunUntilIdle();
  // The network still works afterwards.
  Entry e;
  e.key = OpHash("post-garbage");
  e.id = "pg";
  ASSERT_TRUE(overlay_->InsertSync(1, e).ok());
  auto found = overlay_->LookupSync(6, e.key);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->entries.size(), 1u);
}

TEST_F(RobustnessTest, TruncatedAndCorruptAdvertsAreRejected) {
  // Lookup and insert replies end in the same replica-group advert: a
  // replica count, the ids, then the path.
  ReplicaAdvert advert;
  advert.replicas = {1, 4, 6};
  advert.path = Key::FromBits("101");
  BufferWriter w;
  advert.Encode(&w);
  const size_t advert_bytes = w.Release().size();

  LookupBatchReply lookup;
  lookup.peer = 4;
  lookup.answers.push_back({0, {Entry{OpHash("x"), "x", 1, false}}});
  lookup.advert = advert;
  BulkInsertReply insert;
  insert.peer = 4;
  insert.stored = {0, 2};
  insert.advert = advert;
  const auto decode_lookup = [](std::string_view bytes) {
    return LookupBatchReply::Decode(bytes).status();
  };
  const auto decode_insert = [](std::string_view bytes) {
    return BulkInsertReply::Decode(bytes).status();
  };
  for (const auto& [frame, decode] :
       {std::pair{lookup.Encode(), +decode_lookup},
        std::pair{insert.Encode(), +decode_insert}}) {
    ASSERT_TRUE(decode(frame).ok());
    // Every strict prefix fails to decode.
    for (size_t cut = 0; cut < frame.size(); ++cut) {
      EXPECT_FALSE(decode(std::string_view(frame).substr(0, cut)).ok())
          << "prefix of " << cut << " bytes";
    }
    // A replica count larger than the bytes left is rejected before any
    // id is read.
    std::string corrupt = frame;
    const size_t count_at = frame.size() - advert_bytes;
    ASSERT_EQ(corrupt[count_at], '\x03');
    corrupt[count_at] = '\x7f';
    const Status status = decode(corrupt);
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
    EXPECT_NE(status.ToString().find("advert longer than its message"),
              std::string::npos)
        << status.ToString();
  }
}

// The suffix trailer of a lookup request (messages.h): filtered keys
// round-trip, a request without suffixes keeps the bytes it had before the
// trailer existed, and a malformed trailer fails to decode, so the serving
// peer drops the request without a reply.
LookupBatchRequest TwoKeyRequest() {
  LookupBatchRequest req;
  req.initiator = 7;
  req.keys.push_back({0, Key::FromBits("101"), {}});
  req.keys.push_back({3, Key::FromBits("0110000"), {}});
  return req;
}

TEST_F(RobustnessTest, LookupRequestSuffixesRoundTrip) {
  LookupBatchRequest req = TwoKeyRequest();
  req.keys[1].suffixes = {"apple", "fig", ""};
  req.keys.push_back({4, OpHash("a#title#s"), {std::string("\0\xFF", 2)}});
  auto decoded = LookupBatchRequest::Decode(req.Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->initiator, req.initiator);
  ASSERT_EQ(decoded->keys.size(), req.keys.size());
  for (size_t i = 0; i < req.keys.size(); ++i) {
    EXPECT_EQ(decoded->keys[i].slot, req.keys[i].slot);
    EXPECT_EQ(decoded->keys[i].key, req.keys[i].key);
    EXPECT_EQ(decoded->keys[i].suffixes, req.keys[i].suffixes);
  }
}

TEST_F(RobustnessTest, UnfilteredLookupRequestBytesArePinned) {
  // The initiator, two keys (slot, bit length, packed bits), no trailer.
  EXPECT_EQ(TwoKeyRequest().Encode(),
            std::string("\x07\x00\x00\x00\x02\x00\x03\xa0\x03\x07\x60",
                        11));
}

TEST_F(RobustnessTest, MalformedSuffixTrailersAreDropped) {
  // Keys peer 3 serves, so every request that decodes gets a reply.
  LookupBatchRequest req;
  req.initiator = 0;
  req.keys.push_back({0, overlay_->peer(3)->path().PadTo(kKeyBits, false), {}});
  req.keys.push_back({1, overlay_->peer(3)->path().PadTo(kKeyBits, true), {}});
  const std::string keys = req.Encode();
  auto trailer = [&keys](auto write) {
    BufferWriter w;
    w.PutRaw(keys);
    write(&w);
    return w.Release();
  };
  const std::vector<std::pair<std::string, std::string>> malformed = {
      {trailer([](BufferWriter* w) {  // Key index 2 of 2 keys.
         w->PutVarint(1);
         w->PutVarint(2);
         w->PutVarint(1);
         w->PutString("a");
       }),
       "names key 2 of 2"},
      {trailer([](BufferWriter* w) {  // A 5-byte suffix cut after 2.
         w->PutVarint(1);
         w->PutVarint(0);
         w->PutVarint(1);
         w->PutVarint(5);
         w->PutRaw("ab");
       }),
       "string body"},
      {trailer([](BufferWriter* w) {  // 100 suffixes in 1 byte.
         w->PutVarint(1);
         w->PutVarint(1);
         w->PutVarint(100);
         w->PutString("");
       }),
       "more suffixes than bytes left"},
      {trailer([](BufferWriter* w) {  // 50 filtered keys in 3 bytes.
         w->PutVarint(50);
         w->PutVarint(0);
         w->PutVarint(0);
         w->PutVarint(0);
       }),
       "trailer longer than its message"},
  };
  auto replies_to = [this](std::string payload) {
    const net::TrafficStats before = overlay_->transport().stats();
    net::Message m;
    m.type = net::MessageType::kLookup;
    m.src = 0;
    m.dst = 3;
    m.request_id = 424242;
    m.payload = std::move(payload);
    overlay_->transport().Send(std::move(m));
    overlay_->scheduler().RunUntilIdle();
    const auto& sent = overlay_->transport().stats().Since(before).per_type;
    auto it = sent.find(net::MessageType::kLookupReply);
    return it == sent.end() ? 0u : it->second;
  };
  ASSERT_EQ(replies_to(keys), 1u);
  for (const auto& [payload, error] : malformed) {
    const Status status = LookupBatchRequest::Decode(payload).status();
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
    EXPECT_NE(status.ToString().find(error), std::string::npos)
        << status.ToString();
    EXPECT_EQ(replies_to(payload), 0u) << error;
  }
}

TEST_F(RobustnessTest, UnknownMessageTypeIsIgnored) {
  net::Message m = Garbage(0, 2, static_cast<net::MessageType>(222));
  overlay_->transport().Send(std::move(m));
  overlay_->scheduler().RunUntilIdle();
  EXPECT_TRUE(overlay_->LookupSync(0, OpHash("anything")).ok());
}

TEST_F(RobustnessTest, DuplicateRepliesAreIgnored) {
  // A lookup completes once; stale replies naming its request id (and ids
  // never issued) then leave no state behind and fire no callback.
  Key foreign = overlay_->peer(0)->path().Sibling().PadTo(kKeyBits, false);
  int callbacks = 0;
  overlay_->peer(0)->Lookup(foreign,
                            [&callbacks](Result<LookupResult> r) {
                              EXPECT_TRUE(r.ok()) << r.status().ToString();
                              ++callbacks;
                            });
  overlay_->scheduler().RunUntilIdle();
  ASSERT_EQ(callbacks, 1);
  LookupBatchReply reply;
  reply.peer = 5;
  LookupBatchReply::Answer& answer = reply.answers.emplace_back();
  answer.slot = 0;
  answer.entries.push_back(Entry{foreign, "stale", 1, false});
  reply.dead_ends = {0};
  for (uint64_t request_id = 1; request_id <= 64; ++request_id) {
    net::Message m;
    m.type = net::MessageType::kLookupReply;
    m.src = 5;
    m.dst = 0;
    m.request_id = request_id;
    m.payload = reply.Encode();
    overlay_->transport().Send(std::move(m));
  }
  overlay_->scheduler().RunUntilIdle();
  EXPECT_EQ(callbacks, 1);
  EXPECT_EQ(overlay_->peer(0)->key_sets_in_flight(), 0u);
  EXPECT_EQ(overlay_->peer(0)->rpc().pending_count(), 0u);
}

TEST_F(RobustnessTest, ExchangeWithSelfIsRejected) {
  Status status = overlay_->ExchangeSync(2, 2);
  EXPECT_TRUE(status.IsInvalidArgument());
}

TEST_F(RobustnessTest, ExchangeWithCorruptPathIsDropped) {
  ExchangeRequest req;
  req.initiator = 0;
  req.path = Key::FromBits("0101");
  net::Message m;
  m.type = net::MessageType::kExchange;
  m.src = 0;
  m.dst = 4;
  m.request_id = 7;
  m.payload = req.Encode();
  // The path follows the u32 initiator as a varint bit length (4) and one
  // byte (0x50); set one of its four padding bits.
  ASSERT_EQ(m.payload[5], '\x50');
  m.payload[5] = '\x51';
  overlay_->transport().Send(std::move(m));
  overlay_->scheduler().RunUntilIdle();
  // Responder's path unchanged.
  EXPECT_EQ(overlay_->peer(4)->path().size(), 3u);
}

TEST_F(RobustnessTest, LookupToDeadNetworkTimesOutCleanly) {
  for (net::PeerId id = 1; id < 8; ++id) overlay_->Crash(id);
  // Peer 0 can only reach itself; a key outside its subtree dead-ends.
  Key foreign = overlay_->peer(0)->path().Sibling().PadTo(kKeyBits, false);
  auto result = overlay_->LookupSync(0, foreign);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsTimeout() ||
              result.status().IsUnavailable());
  EXPECT_EQ(overlay_->peer(0)->rpc().pending_count(), 0u);
}

TEST_F(RobustnessTest, InsertRetriesExhaustGracefully) {
  OverlayOptions options;
  options.seed = 5;
  options.loss_probability = 1.0;  // Every message is lost.
  options.peer.request_timeout = 100 * sim::kMicrosPerMilli;
  options.peer.request_retries = 1;
  Overlay lossy(options);
  lossy.AddPeers(4);
  lossy.BuildBalanced();
  Entry e;
  e.key = OpHash("lost forever");
  e.id = "l";
  // Find a peer NOT responsible so the insert must route.
  net::PeerId via = 0;
  for (net::PeerId id = 0; id < 4; ++id) {
    if (!lossy.peer(id)->IsResponsible(e.key)) {
      via = id;
      break;
    }
  }
  Status status = lossy.InsertSync(via, e);
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(status.IsTimeout() || status.IsUnavailable());
}

TEST_F(RobustnessTest, ScanStateCleanedUpAfterTimeout) {
  // Crash the peers of the '1' half so a full scan cannot complete; the
  // scan must finish incomplete and clear its state.
  for (net::PeerId id = 0; id < 8; ++id) {
    if (overlay_->peer(id)->path().bit(0)) overlay_->Crash(id);
  }
  net::PeerId from = net::kNoPeer;
  for (net::PeerId id = 0; id < 8; ++id) {
    if (overlay_->IsAlive(id)) {
      from = id;
      break;
    }
  }
  KeyRange full{Key().PadTo(kKeyBits, false), Key().PadTo(kKeyBits, true)};
  auto result = overlay_->RangeSeqSync(from, full);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->complete);
  // Running the simulation further must not fire stray callbacks.
  overlay_->scheduler().RunUntilIdle();
}

TEST_F(RobustnessTest, RemoveEverywherePurgesDeadRefs) {
  auto* peer = overlay_->peer(0);
  size_t before = peer->routing().TotalRefs();
  ASSERT_GT(before, 0u);
  // Remove one referenced peer everywhere.
  net::PeerId victim = net::kNoPeer;
  for (size_t l = 0; l < peer->routing().levels(); ++l) {
    if (!peer->routing().RefsAt(l).empty()) {
      victim = peer->routing().RefsAt(l)[0];
      break;
    }
  }
  ASSERT_NE(victim, net::kNoPeer);
  peer->routing().RemoveEverywhere(victim);
  EXPECT_LT(peer->routing().TotalRefs(), before);
}

TEST_F(RobustnessTest, ConcurrentScansDoNotInterfere) {
  for (int i = 0; i < 40; ++i) {
    Entry e;
    e.key = OpHash(std::string(1, static_cast<char>(i * 6 + 1)) + "-v" +
                   std::to_string(i));
    e.id = "c" + std::to_string(i);
    overlay_->InsertDirect(e);
  }
  KeyRange full{Key().PadTo(kKeyBits, false), Key().PadTo(kKeyBits, true)};
  int done = 0;
  std::vector<size_t> sizes;
  for (int i = 0; i < 6; ++i) {
    auto cb = [&done, &sizes](Result<RangeResult> r) {
      ++done;
      if (r.ok()) sizes.push_back(r->entries.size());
    };
    if (i % 2 == 0) {
      overlay_->peer(static_cast<net::PeerId>(i))->RangeScanSeq(full, cb);
    } else {
      overlay_->peer(static_cast<net::PeerId>(i))->RangeScanShower(full, cb);
    }
  }
  overlay_->scheduler().RunUntilIdle();
  EXPECT_EQ(done, 6);
  for (size_t s : sizes) EXPECT_EQ(s, 40u);
}

// --- Front-coded entry lists (entry.h EntryListWriter) ---------------------

// Sorted entries whose keys and ids share prefixes with their neighbours.
std::vector<Entry> SharingEntries() {
  std::vector<Entry> out;
  for (int i = 0; i < 6; ++i) {
    Entry e;
    e.key = OpHash("a#year#" + std::to_string(1990 + i / 2));
    e.id = "a#pub" + std::to_string(i) + "#year";
    e.version = static_cast<uint64_t>(i + 1);
    e.deleted = i == 3;
    out.push_back(std::move(e));
  }
  return out;
}

TEST(FrontCodedWireTest, RoundTripAndEveryStrictPrefixFails) {
  const std::vector<Entry> entries = SharingEntries();
  std::vector<Entry> keyless = entries;
  for (Entry& e : keyless) e.key = Key();

  LookupBatchReply lookup;
  lookup.peer = 4;
  lookup.answers.push_back({2, keyless});
  lookup.answers.push_back({0, {keyless[1]}});
  lookup.dead_ends = {5};
  RangeSeqReply range;
  range.entries = entries;
  range.will_forward = true;
  range.peer_path = Key::FromBits("011");
  range.error = "e";
  EntryBatch batch;
  batch.entries = entries;
  batch.gossip = true;
  batch.informed = {1, 300};
  BulkInsertRequest insert;
  insert.initiator = 2;
  for (size_t i = 0; i < entries.size(); ++i) {
    insert.entries.push_back({static_cast<uint32_t>(9 - i), entries[i]});
  }

  using Decoder = Status (*)(std::string_view);
  const std::vector<std::pair<std::string, Decoder>> frames = {
      {lookup.Encode(),
       [](std::string_view bytes) {
         return LookupBatchReply::Decode(bytes).status();
       }},
      {range.Encode(),
       [](std::string_view bytes) {
         return RangeSeqReply::Decode(bytes).status();
       }},
      {batch.Encode(),
       [](std::string_view bytes) {
         return EntryBatch::Decode(bytes).status();
       }},
      {insert.Encode(),
       [](std::string_view bytes) {
         return BulkInsertRequest::Decode(bytes).status();
       }},
  };
  for (const auto& [frame, decode] : frames) {
    ASSERT_TRUE(decode(frame).ok());
    for (size_t cut = 0; cut < frame.size(); ++cut) {
      EXPECT_FALSE(decode(std::string_view(frame).substr(0, cut)).ok())
          << "prefix of " << cut << " of " << frame.size() << " bytes";
    }
  }

  auto lookup_back = LookupBatchReply::Decode(lookup.Encode());
  ASSERT_TRUE(lookup_back.ok());
  EXPECT_EQ(lookup_back->answers[0].slot, 2u);
  EXPECT_EQ(lookup_back->answers[0].entries, keyless);
  EXPECT_EQ(lookup_back->answers[1].entries,
            std::vector<Entry>{keyless[1]});
  EXPECT_EQ(lookup_back->dead_ends, lookup.dead_ends);
  auto range_back = RangeSeqReply::Decode(range.Encode());
  ASSERT_TRUE(range_back.ok());
  EXPECT_EQ(range_back->entries, entries);
  EXPECT_EQ(range_back->peer_path, range.peer_path);
  EXPECT_EQ(range_back->error, "e");
  auto batch_back = EntryBatch::Decode(batch.Encode());
  ASSERT_TRUE(batch_back.ok());
  EXPECT_EQ(batch_back->entries, entries);
  EXPECT_EQ(batch_back->informed, batch.informed);
  auto insert_back = BulkInsertRequest::Decode(insert.Encode());
  ASSERT_TRUE(insert_back.ok());
  ASSERT_EQ(insert_back->entries.size(), entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(insert_back->entries[i].slot, insert.entries[i].slot);
    EXPECT_EQ(insert_back->entries[i].entry, entries[i]);
  }
}

// Hand-built list entries: the key fields (header, bit length, key
// bytes) of a keyed list and the fields every list has.
void PutKey(BufferWriter* w, uint64_t shared, uint64_t bit_len,
            std::string_view bytes) {
  w->PutVarint(shared << 1 | (bit_len == kKeyBits ? 1 : 0));
  if (bit_len != kKeyBits) w->PutVarint(bit_len);
  w->PutRaw(bytes);
}

void PutRest(BufferWriter* w, uint64_t shared_id, std::string_view id) {
  w->PutVarint(shared_id);
  w->PutString(id);
  w->PutVarint(1);
  w->PutBool(false);
}

TEST(FrontCodedWireTest, MalformedListsAreCorruption) {
  const std::string full(16, '\x5a');
  struct Case {
    const char* what;
    bool keyless;
    std::string frame;
    std::string error;
  };
  auto list = [](uint64_t count, auto write) {
    BufferWriter w;
    w.PutVarint(count);
    write(&w);
    return w.Release();
  };
  const std::vector<Case> cases = {
      {"first entry shares key bytes", false, list(1, [&](BufferWriter* w) {
         PutKey(w, 1, kKeyBits, full.substr(1));
         PutRest(w, 0, "a");
       }),
       "key shares 1 bytes with a 0-bit previous key"},
      {"first entry shares id bytes", false, list(1, [&](BufferWriter* w) {
         PutKey(w, 0, kKeyBits, full);
         PutRest(w, 1, "");
       }),
       "id shares 1 bytes with a 0-byte previous id"},
      {"first keyless entry shares id bytes", true,
       list(1, [](BufferWriter* w) { PutRest(w, 2, "x"); }),
       "id shares 2 bytes with a 0-byte previous id"},
      {"shares more than the previous key holds", false,
       list(2, [&](BufferWriter* w) {
         PutKey(w, 0, 8, "\xab");
         PutRest(w, 0, "a");
         PutKey(w, 2, kKeyBits, full.substr(2));
         PutRest(w, 0, "b");
       }),
       "key shares 2 bytes with a 8-bit previous key"},
      {"shares more than the key holds", false, list(2, [&](BufferWriter* w) {
         PutKey(w, 0, kKeyBits, full);
         PutRest(w, 0, "a");
         PutKey(w, 3, 16, "");
         PutRest(w, 0, "b");
       }),
       "as a 16-bit key"},
      {"shares more than the previous id holds", false,
       list(2, [&](BufferWriter* w) {
         PutKey(w, 0, kKeyBits, full);
         PutRest(w, 0, "ab");
         PutKey(w, 16, kKeyBits, "");
         PutRest(w, 3, "");
       }),
       "id shares 3 bytes with a 2-byte previous id"},
      {"keyless shares more than the previous id holds", true,
       list(2, [](BufferWriter* w) {
         PutRest(w, 0, "ab");
         PutRest(w, 3, "");
       }),
       "id shares 3 bytes with a 2-byte previous id"},
      {"nonzero key padding", false, list(1, [](BufferWriter* w) {
         PutKey(w, 0, 7, "\x01");
         PutRest(w, 0, "a");
       }),
       "padding"},
      {"129-bit key", false, list(1, [&](BufferWriter* w) {
         PutKey(w, 0, 129, full + "\x00");
         PutRest(w, 0, "a");
       }),
       "key of 129 bits"},
      {"full-width key without its flag", false,
       list(1, [&](BufferWriter* w) {
         w->PutVarint(0);
         w->PutVarint(kKeyBits);
         w->PutRaw(full);
         PutRest(w, 0, "a");
       }),
       "key of 128 bits"},
  };
  for (const Case& c : cases) {
    BufferReader r(c.frame);
    const Status status = DecodeEntries(&r, c.keyless).status();
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << c.what;
    EXPECT_NE(status.ToString().find(c.error), std::string::npos)
        << c.what << ": " << status.ToString();
  }
  // The bounds are tight: sharing exactly what both hold decodes.
  const std::string tight = list(2, [&](BufferWriter* w) {
    PutKey(w, 0, 8, "\xab");
    PutRest(w, 0, "ab");
    PutKey(w, 1, 16, "\xcd");
    PutRest(w, 2, "");
  });
  BufferReader r(tight);
  auto back = DecodeEntries(&r);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->size(), 2u);
  EXPECT_EQ((*back)[1].key, Key::FromBits("1010101111001101"));
  EXPECT_EQ((*back)[1].id, "ab");
}

TEST(FrontCodedWireTest, HugeCountsFailWithoutALargeReservation) {
  // Each count is read before anything is reserved; a reservation sized
  // from it would throw instead of failing with Corruption.
  constexpr uint64_t kHuge = ~uint64_t{0};
  for (bool keyless : {false, true}) {
    BufferWriter w;
    w.PutVarint(kHuge);
    BufferReader r(w.buffer());
    EXPECT_EQ(DecodeEntries(&r, keyless).status().code(),
              StatusCode::kCorruption);
  }
  BufferWriter lookup;
  lookup.PutU32(4);
  lookup.PutVarint(1);  // One answer, for slot 0, of kHuge entries.
  lookup.PutVarint(0);
  lookup.PutVarint(kHuge);
  EXPECT_EQ(LookupBatchReply::Decode(lookup.buffer()).status().code(),
            StatusCode::kCorruption);
  BufferWriter insert;
  insert.PutU32(2);
  insert.PutVarint(kHuge);
  EXPECT_EQ(BulkInsertRequest::Decode(insert.buffer()).status().code(),
            StatusCode::kCorruption);
}

}  // namespace
}  // namespace pgrid
}  // namespace unistore
