#include "sim/scheduler.h"

#include "common/logging.h"

namespace unistore {
namespace sim {

uint64_t Scheduler::NextSeq(uint32_t domain) {
  if (domain == kHarnessDomain) return harness_seq_++;
  if (domain >= seq_.size()) seq_.resize(domain + 1, 0);
  return seq_[domain]++;
}

void Scheduler::ScheduleEvent(SimTime when, uint32_t domain,
                              std::function<void()> fn) {
  UNISTORE_CHECK(when >= now_) << "scheduling in the past: " << when
                               << " < " << now_;
  queue_.push(Event{when, domain, NextSeq(domain), std::move(fn)});
}

void Scheduler::Schedule(SimTime delay, std::function<void()> fn) {
  ScheduleAfter(delay, kHarnessDomain, std::move(fn));
}

void Scheduler::ScheduleAt(SimTime when, std::function<void()> fn) {
  ScheduleEvent(when, kHarnessDomain, std::move(fn));
}

void Scheduler::ScheduleAfter(SimTime delay, uint32_t domain,
                              std::function<void()> fn) {
  UNISTORE_CHECK(delay >= 0) << "negative delay " << delay;
  ScheduleEvent(now_ + delay, domain, std::move(fn));
}

bool Scheduler::PopAndRun() {
  if (queue_.empty()) return false;
  // priority_queue::top returns const&; the function object must be moved
  // out before pop. Run after popping so that events scheduled by `fn` see
  // a consistent queue.
  Event ev = std::move(const_cast<Event&>(queue_.top()));
  queue_.pop();
  now_ = ev.when;
  ++processed_;
  ev.fn();
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
  while (!queue_.empty() && queue_.top().when <= deadline) {
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
