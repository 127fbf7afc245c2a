// Entries on the wire carry only what the receiver lacks (DESIGN.md §3,
// §13): a lookup answer leaves out the key the requester named, and a
// range reply front-codes each key and id against the entry before it.
// A client registered on the transport sees the replies as sent; peers
// looking up through the overlay still get entries with their keys.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "pgrid/overlay.h"

namespace unistore {
namespace pgrid {
namespace {

class WireBytesTest : public ::testing::Test {
 protected:
  WireBytesTest() {
    OverlayOptions options;
    options.seed = 11;
    overlay_ = std::make_unique<Overlay>(options);
    overlay_->AddPeers(8);
    overlay_->BuildBalanced();
    client_ = overlay_->transport().AddPeer(
        [this](const net::Message& m) { received_.push_back(m); });
  }

  // Stores `entries` at their owners and returns them in scan order.
  std::vector<Entry> Store(std::vector<Entry> entries) {
    for (const Entry& e : entries) overlay_->InsertDirect(e);
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) {
                return a.key != b.key ? a.key < b.key : a.id < b.id;
              });
    return entries;
  }

  // Sends `payload` from the client to the owner of `key`; returns every
  // message the client got back.
  std::vector<net::Message> Ask(net::MessageType type, const Key& key,
                                std::string payload) {
    received_.clear();
    net::Message m;
    m.type = type;
    m.src = client_;
    m.dst = overlay_->ResponsiblePeers(key).front();
    m.request_id = 77;
    m.payload = std::move(payload);
    overlay_->transport().Send(std::move(m));
    overlay_->scheduler().RunUntilIdle();
    return received_;
  }

  // A peer that does not own `key`, so its lookups cross the wire.
  net::PeerId Stranger(const Key& key) const {
    net::PeerId id = 0;
    while (overlay_->peer(id)->IsResponsible(key)) ++id;
    return id;
  }

  std::unique_ptr<Overlay> overlay_;
  net::PeerId client_ = net::kNoPeer;
  std::vector<net::Message> received_;
};

// The 20 triples of one tuple, as its O-index entries: one key, ids that
// share the tuple's prefix.
std::vector<Entry> TupleEntries(const std::string& oid) {
  std::vector<Entry> out;
  for (int i = 0; i < 20; ++i) {
    Entry e;
    e.key = OpHash("o#" + oid);
    e.id = "o#" + oid + "#attr" + std::to_string(i) + "#value" +
           std::to_string(i * 37);
    e.version = 1 + static_cast<uint64_t>(i % 4);
    out.push_back(std::move(e));
  }
  return out;
}

TEST_F(WireBytesTest, LookupAnswersLeaveOutTheKey) {
  const std::vector<Entry> stored = Store(TupleEntries("pub17"));
  const Key key = stored.front().key;

  LookupBatchRequest req;
  req.initiator = client_;
  req.keys.push_back({0, key, {}});
  const std::vector<net::Message> replies =
      Ask(net::MessageType::kLookup, key, req.Encode());
  ASSERT_EQ(replies.size(), 1u);
  ASSERT_EQ(replies[0].type, net::MessageType::kLookupReply);
  unsigned char buf[Key::kMaxBytes];
  const std::string_view packed = key.Packed(buf);
  ASSERT_EQ(packed.size(), 16u);
  EXPECT_EQ(replies[0].payload.find(packed), std::string::npos);
  auto reply = LookupBatchReply::Decode(replies[0].payload);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->answers.size(), 1u);
  ASSERT_EQ(reply->answers[0].entries.size(), stored.size());
  for (const Entry& e : reply->answers[0].entries) EXPECT_TRUE(e.key.empty());

  // The initiator puts the key back.
  auto found = overlay_->LookupSync(Stranger(key), key);
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  EXPECT_EQ(found->entries, stored);
}

TEST_F(WireBytesTest, BatchAnswersGetTheKeysOfTheirSlots) {
  const std::vector<Entry> a = Store(TupleEntries("pub17"));
  const std::vector<Entry> b = Store(TupleEntries("pub18"));
  const Key key_a = a.front().key;
  const Key key_b = b.front().key;
  auto found = overlay_->LookupBatchSync(Stranger(key_a),
                                         std::vector<Key>{key_b, key_a});
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  EXPECT_EQ(found->at(key_a), a);
  EXPECT_EQ(found->at(key_b), b);
}

TEST_F(WireBytesTest, RangeRepliesFrontCodeSortedEntries) {
  // 100 entries of one attribute: keys of one A-index prefix, ids of one
  // tag and attribute.
  std::vector<Entry> entries;
  for (int i = 0; i < 100; ++i) {
    Entry e;
    const std::string value = std::to_string(1900 + i);
    e.key = OpHash("a#year#" + value);
    e.id = "a#pub" + std::to_string(i * 7) + "#year#" + value;
    entries.push_back(std::move(e));
  }
  const std::vector<Entry> stored = Store(std::move(entries));
  size_t uncoded = 0;
  for (const Entry& e : stored) uncoded += e.EncodedSize();

  RangeSeqRequest req;
  req.initiator = client_;
  req.range = {stored.front().key, stored.back().key};
  size_t sent = 0;
  std::vector<Entry> got;
  for (const net::Message& m :
       Ask(net::MessageType::kRangeSeq, req.range.lo, req.Encode())) {
    ASSERT_EQ(m.type, net::MessageType::kRangeSeqReply);
    sent += m.payload.size();
    auto reply = RangeSeqReply::Decode(m.payload);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    got.insert(got.end(), reply->entries.begin(), reply->entries.end());
  }
  EXPECT_EQ(got, stored);
  EXPECT_LE(sent * 10, uncoded * 7)
      << sent << " bytes sent for " << uncoded << " bytes of entries";
}

// A served list counts its entries after writing them, widening the count
// in place once it needs two varint bytes: lists of 128 or more entries
// must still decode to what was stored.
TEST_F(WireBytesTest, LongServedListsDecodeToTheStoredEntries) {
  std::vector<Entry> under_key;
  for (int i = 0; i < 300; ++i) {
    Entry e;
    e.key = OpHash("o#pub17");
    e.id = "o#pub17#attr" + std::to_string(i);
    e.version = 1 + static_cast<uint64_t>(i % 3);
    under_key.push_back(std::move(e));
  }
  const std::vector<Entry> stored_key = Store(std::move(under_key));
  const Key key = stored_key.front().key;
  LookupBatchRequest lookup;
  lookup.initiator = client_;
  lookup.keys.push_back({0, key, {}});
  const std::vector<net::Message> answers =
      Ask(net::MessageType::kLookup, key, lookup.Encode());
  ASSERT_EQ(answers.size(), 1u);
  auto answer = LookupBatchReply::Decode(answers[0].payload);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  ASSERT_EQ(answer->answers.size(), 1u);
  std::vector<Entry> got = answer->answers[0].entries;
  for (Entry& e : got) e.key = key;
  EXPECT_EQ(got, stored_key);

  std::vector<Entry> in_range;
  for (int i = 0; i < 200; ++i) {
    Entry e;
    const std::string value = std::to_string(1000 + i);
    e.key = OpHash("a#year#" + value);
    e.id = "a#pub" + std::to_string(i) + "#year#" + value;
    in_range.push_back(std::move(e));
  }
  const std::vector<Entry> stored_range = Store(std::move(in_range));
  for (const bool shower : {false, true}) {
    SCOPED_TRACE(shower ? "shower" : "sequential");
    const KeyRange range{stored_range.front().key, stored_range.back().key};
    std::string payload;
    if (shower) {
      RangeShowerRequest req;
      req.initiator = client_;
      req.range = range;
      payload = req.Encode();
    } else {
      RangeSeqRequest req;
      req.initiator = client_;
      req.range = range;
      payload = req.Encode();
    }
    std::vector<Entry> scanned;
    size_t longest = 0;
    for (const net::Message& m :
         Ask(shower ? net::MessageType::kRangeShower
                    : net::MessageType::kRangeSeq,
             range.lo, std::move(payload))) {
      std::vector<Entry> entries;
      if (shower) {
        auto reply = RangeShowerReply::Decode(m.payload);
        ASSERT_TRUE(reply.ok()) << reply.status().ToString();
        entries = std::move(reply->entries);
      } else {
        auto reply = RangeSeqReply::Decode(m.payload);
        ASSERT_TRUE(reply.ok()) << reply.status().ToString();
        entries = std::move(reply->entries);
      }
      longest = std::max(longest, entries.size());
      scanned.insert(scanned.end(), entries.begin(), entries.end());
    }
    std::sort(scanned.begin(), scanned.end(),
              [](const Entry& a, const Entry& b) {
                return a.key != b.key ? a.key < b.key : a.id < b.id;
              });
    EXPECT_EQ(scanned, stored_range);
    EXPECT_GE(longest, 128u) << "no reply carried a two-byte count";
  }
}

}  // namespace
}  // namespace pgrid
}  // namespace unistore
