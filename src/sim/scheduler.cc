#include "sim/scheduler.h"

#include "common/logging.h"

namespace unistore {
namespace sim {

uint64_t Scheduler::NextSeq(uint32_t domain) {
  if (domain == kHarnessDomain) return harness_seq_++;
  if (domain >= seq_.size()) seq_.resize(domain + 1, 0);
  return seq_[domain]++;
}

EventId Scheduler::ScheduleEvent(SimTime when, uint32_t domain,
                                 std::function<void()> fn) {
  UNISTORE_CHECK(when >= now_) << "scheduling in the past: " << when
                               << " < " << now_;
  uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  slots_[slot].fn = std::move(fn);
  heap_.push_back(Entry{when, domain, slot, NextSeq(domain)});
  SiftUp(heap_.size() - 1);
  return (EventId{slots_[slot].gen} << 32) | slot;
}

EventId Scheduler::Schedule(SimTime delay, std::function<void()> fn) {
  return ScheduleAfter(delay, kHarnessDomain, std::move(fn));
}

EventId Scheduler::ScheduleAt(SimTime when, std::function<void()> fn) {
  return ScheduleEvent(when, kHarnessDomain, std::move(fn));
}

EventId Scheduler::ScheduleAfter(SimTime delay, uint32_t domain,
                                 std::function<void()> fn) {
  UNISTORE_CHECK(delay >= 0) << "negative delay " << delay;
  return ScheduleEvent(now_ + delay, domain, std::move(fn));
}

void Scheduler::Cancel(EventId id) {
  const uint32_t slot = static_cast<uint32_t>(id);
  if (slot >= slots_.size() || slots_[slot].gen != id >> 32) return;
  Take(slots_[slot].pos);
}

void Scheduler::Place(size_t pos, const Entry& e) {
  heap_[pos] = e;
  slots_[e.slot].pos = static_cast<uint32_t>(pos);
}

void Scheduler::SiftUp(size_t pos) {
  const Entry e = heap_[pos];
  while (pos > 0) {
    const size_t parent = (pos - 1) / 2;
    if (!Before(e, heap_[parent])) break;
    Place(pos, heap_[parent]);
    pos = parent;
  }
  Place(pos, e);
}

void Scheduler::SiftDown(size_t pos) {
  const Entry e = heap_[pos];
  const size_t n = heap_.size();
  for (;;) {
    size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && Before(heap_[child + 1], heap_[child])) ++child;
    if (!Before(heap_[child], e)) break;
    Place(pos, heap_[child]);
    pos = child;
  }
  Place(pos, e);
}

std::function<void()> Scheduler::Take(size_t pos) {
  const uint32_t slot = heap_[pos].slot;
  const Entry last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) {
    // The last entry fills the hole and moves whichever way it belongs.
    Place(pos, last);
    if (pos > 0 && Before(last, heap_[(pos - 1) / 2])) {
      SiftUp(pos);
    } else {
      SiftDown(pos);
    }
  }
  Slot& s = slots_[slot];
  std::function<void()> fn = std::move(s.fn);
  s.fn = nullptr;
  // Retires the id this tenant was scheduled under; skips 0, so that no
  // id is ever kNoEvent.
  if (++s.gen == 0) s.gen = 1;
  free_slots_.push_back(slot);
  return fn;
}

bool Scheduler::PopAndRun() {
  if (heap_.empty()) return false;
  // Run after taking the event out, so that events scheduled (or
  // cancelled) by `fn` see a consistent queue.
  now_ = heap_.front().when;
  std::function<void()> fn = Take(0);
  ++processed_;
  fn();
  return true;
}

size_t Scheduler::RunUntilIdle() {
  size_t n = 0;
  while (PopAndRun()) ++n;
  return n;
}

size_t Scheduler::RunFor(SimTime duration) {
  const SimTime deadline = now_ + duration;
  size_t n = 0;
  while (!heap_.empty() && heap_.front().when <= deadline) {
    PopAndRun();
    ++n;
  }
  now_ = deadline;
  return n;
}

bool Scheduler::RunUntil(const std::function<bool()>& pred) {
  if (pred()) return true;
  while (PopAndRun()) {
    if (pred()) return true;
  }
  return pred();
}

}  // namespace sim
}  // namespace unistore
