#include "pgrid/advert_cache.h"

#include <algorithm>

namespace unistore {
namespace pgrid {

void AdvertCache::Learn(const Key& path, const std::vector<PeerId>& replicas,
                        PeerId from, sim::SimTime now) {
  auto it = adverts_.find(path);
  if (it == adverts_.end()) {
    if (adverts_.size() >= kAdvertCacheCap) {
      for (auto e = adverts_.begin(); e != adverts_.end();) {
        e = e->second.expires_at <= now ? adverts_.erase(e) : std::next(e);
      }
      if (adverts_.size() >= kAdvertCacheCap) {
        ++sheds_;
        return;
      }
    }
    it = adverts_.emplace(path, Advert{}).first;
  }
  Advert& advert = it->second;
  if (advert.expires_at <= now) advert.dropped.clear();
  advert.expires_at = now + kAdvertTtl;
  // A reply is proof of life: its sender rejoins the rotation.
  advert.dropped.erase(
      std::remove(advert.dropped.begin(), advert.dropped.end(), from),
      advert.dropped.end());
  if (advert.replicas != replicas) {
    advert.replicas = replicas;
    advert.next = 0;
  }
}

AdvertCache::Advert* AdvertCache::Find(const Key& key, sim::SimTime now) {
  // Walk back from `key` in key order. An advert that is not a prefix of
  // `key` shares with it a common prefix that every covering advert is a
  // prefix of, so the walk jumps there.
  auto it = adverts_.upper_bound(key);
  while (it != adverts_.begin()) {
    --it;
    if (!it->first.IsPrefixOf(key)) {
      it = adverts_.upper_bound(
          key.Prefix(it->first.CommonPrefixLength(key)));
    } else if (it->second.expires_at <= now) {
      it = adverts_.erase(it);
    } else {
      return &it->second;
    }
  }
  return nullptr;
}

void AdvertCache::Forget(const Key& key, PeerId replica, sim::SimTime now) {
  Advert* advert = Find(key, now);
  if (advert == nullptr || advert->Dropped(replica)) return;
  const auto& group = advert->replicas;
  if (std::find(group.begin(), group.end(), replica) != group.end()) {
    advert->dropped.push_back(replica);
  }
}

}  // namespace pgrid
}  // namespace unistore
