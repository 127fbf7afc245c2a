// Initiator-side cache of replica-group adverts (DESIGN.md §8).
#ifndef UNISTORE_PGRID_ADVERT_CACHE_H_
#define UNISTORE_PGRID_ADVERT_CACHE_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "net/message.h"
#include "pgrid/key.h"
#include "sim/scheduler.h"

namespace unistore {
namespace pgrid {

using net::PeerId;

/// How long an initiator honours an advert after the last reply that
/// carried it.
inline constexpr sim::SimTime kAdvertTtl = 2 * sim::kMicrosPerSecond;

/// Adverts one initiator caches. Over the cap, a new path is shed unless
/// an expired advert can make room. The ledger workloads peak at 1-3
/// cached adverts per peer.
inline constexpr size_t kAdvertCacheCap = 64;

/// \brief The replica groups a peer has learnt from its lookup replies,
/// keyed by the advertised path.
///
/// A lookup reply names the serving peer's path and replica group; the
/// initiator sends later keys under that path one hop, round-robin, to
/// the group. Expiry is lazy: Find erases the expired adverts it meets,
/// and Learn sweeps only when the cache is full.
class AdvertCache {
 public:
  struct Advert {
    std::vector<PeerId> replicas;  ///< Serving peer + its replica group.
    size_t next = 0;               ///< Round-robin cursor.
    sim::SimTime expires_at = 0;
    /// Members a timed-out attempt dropped from the rotation. The group
    /// keeps listing them, so the drop lasts while this advert lives,
    /// unless the member itself replies.
    std::vector<PeerId> dropped;

    bool Dropped(PeerId peer) const {
      return std::find(dropped.begin(), dropped.end(), peer) != dropped.end();
    }
  };

  /// Caches `replicas`, advertised by `from`, as the group serving `path`
  /// until now + kAdvertTtl.
  void Learn(const Key& path, const std::vector<PeerId>& replicas,
             PeerId from, sim::SimTime now);

  /// The live advert of the longest cached path that is a prefix of
  /// `key`, or nullptr.
  Advert* Find(const Key& key, sim::SimTime now);

  /// Drops `replica` from the rotation of the live advert covering
  /// `key`, if it is a member.
  void Forget(const Key& key, PeerId replica, sim::SimTime now);

  size_t size() const { return adverts_.size(); }
  /// New paths not cached because the cache was full of live adverts.
  uint64_t sheds() const { return sheds_; }
  void Clear() { adverts_.clear(); }

 private:
  std::map<Key, Advert> adverts_;
  uint64_t sheds_ = 0;
};

}  // namespace pgrid
}  // namespace unistore

#endif  // UNISTORE_PGRID_ADVERT_CACHE_H_
