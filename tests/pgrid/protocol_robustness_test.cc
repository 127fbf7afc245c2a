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
  overlay_->peer(0)->Lookup(foreign, LookupMode::kExact,
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

}  // namespace
}  // namespace pgrid
}  // namespace unistore
