// Run-level summaries for manifest-delta replica repair (DESIGN.md §9).
//
// Anti-entropy no longer ships a replica's whole store in one message.
// Instead the donor describes its state as a list of RunSummary records —
// one per immutable run, oldest first — and the repairing peer pulls only
// the runs it is missing as chunked, checksum-verified entry streams.
// This header is deliberately tiny so `pgrid/messages.h` can carry
// summaries on the wire without pulling in the storage backend.
#ifndef UNISTORE_PGRID_RUN_SUMMARY_H_
#define UNISTORE_PGRID_RUN_SUMMARY_H_

#include <cstdint>
#include <string_view>

#include "common/crc32.h"
#include "pgrid/entry.h"

namespace unistore {
namespace pgrid {

/// Identity card for one immutable run: a backend-assigned id (stable for
/// the lifetime of the run; disk runs use their file number), the number
/// of entries, and a CRC-32C over the logical entry stream. Two runs with
/// equal (entry_count, checksum) hold the same entries in the same order,
/// which is what lets a repairing replica match its own runs against the
/// donor's manifest even though ids are assigned per-peer.
struct RunSummary {
  uint64_t run_id = 0;
  uint64_t entry_count = 0;
  uint32_t checksum = 0;
};

/// Pseudo run id used by the fallback entry-stream path for entries that
/// live in the donor's mutable memtable and therefore have no run file.
inline constexpr uint64_t kMemtableRunId = ~0ull;

/// Accumulates the canonical CRC-32C over a run's logical entry stream.
/// Every variable-length field is length-prefixed before folding so field
/// boundaries cannot alias ("ab","c" vs "a","bc"). Both the donor (when
/// summarising runs) and the repairer (when re-verifying a fetched run)
/// must fold entries in run order through this exact accumulator.
struct RunChecksum {
  uint32_t crc = 0;

  void Fold(std::string_view s) {
    const uint32_t len = static_cast<uint32_t>(s.size());
    crc = Crc32c(&len, sizeof(len), crc);
    crc = Crc32c(s.data(), s.size(), crc);
  }

  /// Folds the key's packed bytes, prefixed by its bit length.
  void Fold(const Key& key) {
    unsigned char buf[Key::kMaxBytes];
    const std::string_view packed = key.Packed(buf);
    const uint32_t len = static_cast<uint32_t>(key.size());
    crc = Crc32c(&len, sizeof(len), crc);
    crc = Crc32c(packed.data(), packed.size(), crc);
  }

  void Add(const EntryView& e) {
    Fold(e.key);
    Fold(e.id);
    const uint64_t version = e.version;
    crc = Crc32c(&version, sizeof(version), crc);
    const uint8_t deleted = e.deleted ? 1 : 0;
    crc = Crc32c(&deleted, sizeof(deleted), crc);
  }
};

}  // namespace pgrid
}  // namespace unistore

#endif  // UNISTORE_PGRID_RUN_SUMMARY_H_
