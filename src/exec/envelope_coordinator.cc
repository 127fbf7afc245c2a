#include "exec/envelope_coordinator.h"

#include <algorithm>

namespace unistore {
namespace exec {

std::vector<pgrid::KeyRange> SplitRangeByPathSample(
    const pgrid::KeyRange& range, const std::vector<pgrid::Key>& peer_paths,
    size_t max_parts, size_t key_width) {
  // Region starts of sampled peers intersecting the range, clamped.
  std::vector<pgrid::Key> starts;
  for (const pgrid::Key& prefix : peer_paths) {
    if (!range.IntersectsPrefix(prefix, key_width)) continue;
    starts.push_back(range.ClampToPrefix(prefix, key_width).lo);
  }
  std::sort(starts.begin(), starts.end());
  starts.erase(std::unique(starts.begin(), starts.end()), starts.end());
  const size_t parts = std::min(std::max<size_t>(1, max_parts), starts.size());
  if (parts <= 1) {
    return pgrid::SplitRange(range, max_parts, key_width);
  }
  // Boundary = the region start beginning each group of ceil-even size;
  // a branch runs from its boundary to just before the next one.
  std::vector<pgrid::KeyRange> out;
  pgrid::Key lo = range.lo;
  for (size_t part = 1; part < parts; ++part) {
    const size_t at = part * starts.size() / parts;
    const pgrid::Key& boundary = starts[at];
    if (boundary.Compare(lo) <= 0) continue;  // Degenerate group.
    out.push_back(pgrid::KeyRange{lo, boundary.Decrement()});
    lo = boundary;
  }
  out.push_back(pgrid::KeyRange{lo, range.hi});
  return out;
}

EnvelopeCoordinator::EnvelopeCoordinator(
    net::PeerId initiator, vql::TriplePattern pattern, pgrid::KeyRange range,
    std::vector<Binding> bindings, const cost::MigrateBatching& batching,
    uint32_t walk_retries, size_t key_width, uint64_t walk_id_base,
    const std::vector<pgrid::Key>& peer_path_sample)
    : initiator_(initiator),
      pattern_(std::move(pattern)),
      walk_retries_(walk_retries),
      next_walk_id_(walk_id_base) {
  branches_ = SplitRangeByPathSample(range, peer_path_sample,
                                     std::max<uint32_t>(1, batching.fanout),
                                     key_width);

  const size_t limit = batching.max_bindings_per_envelope;
  if (limit == 0 || bindings.size() <= limit) {
    chunks_.push_back(std::move(bindings));
  } else {
    for (size_t at = 0; at < bindings.size(); at += limit) {
      const size_t end = std::min(at + limit, bindings.size());
      chunks_.emplace_back(std::make_move_iterator(bindings.begin() + at),
                           std::make_move_iterator(bindings.begin() + end));
    }
  }

  walks_.resize(branches_.size() * chunks_.size());
  for (size_t b = 0; b < branches_.size(); ++b) {
    for (size_t c = 0; c < chunks_.size(); ++c) {
      Walk& w = walks_[b * chunks_.size() + c];
      w.range = branches_[b];
      w.frontier = w.range.lo;
      w.retries_left = walk_retries;
    }
  }
}

PlanEnvelope EnvelopeCoordinator::MakeEnvelope(uint32_t branch,
                                               uint32_t chunk) {
  Walk& w = walk(branch, chunk);
  PlanEnvelope env;
  env.initiator = initiator_;
  env.walk_id = next_walk_id_++;
  env.branch = branch;
  env.chunk_id = chunk;
  env.pattern = pattern_;
  env.remaining.lo = w.frontier;
  env.remaining.hi = w.range.hi;
  env.bindings = chunks_[chunk];
  w.latest_walk_id = env.walk_id;
  ++envelopes_launched_;
  return env;
}

std::vector<PlanEnvelope> EnvelopeCoordinator::Launch() {
  std::vector<PlanEnvelope> out;
  out.reserve(walks_.size());
  for (uint32_t b = 0; b < branches_.size(); ++b) {
    for (uint32_t c = 0; c < chunks_.size(); ++c) {
      out.push_back(MakeEnvelope(b, c));
    }
  }
  return out;
}

void EnvelopeCoordinator::AbandonWalk(Walk* w) {
  // Freeze the walk where it stands: the frontier no longer moves (the
  // `complete` guard drops late coverage), so [frontier, range.hi] is
  // exactly the uncovered interval TakeResult will report as a gap.
  w->complete = true;
  w->abandoned = true;
  ++walks_done_;
  ++walks_abandoned_;
}

void EnvelopeCoordinator::AbandonIncomplete() {
  for (Walk& w : walks_) {
    if (!w.complete) AbandonWalk(&w);
  }
}

void EnvelopeCoordinator::AdvanceFrontier(Walk* w) {
  while (!w->complete) {
    if (w->frontier.empty()) {  // Incremented past the all-ones key.
      w->complete = true;
      break;
    }
    auto it = w->pending.find(w->frontier);
    if (it == w->pending.end()) break;
    const pgrid::Key hi = it->second;
    w->pending.erase(it);
    if (hi >= w->range.hi) {
      w->complete = true;
    } else {
      w->frontier = hi.Increment();
    }
  }
}

EnvelopeCoordinator::ReplyOutcome EnvelopeCoordinator::OnReply(
    EnvelopeReply reply) {
  ReplyOutcome out;
  if (reply.branch >= branches_.size() ||
      reply.chunk_id >= chunks_.size()) {
    return out;
  }
  Walk& w = walk(reply.branch, reply.chunk_id);

  // Coverage is accepted from any walk instance — a slow superseded walk
  // and its replacement race safely: the first interval for a position
  // wins, duplicates are dropped.
  if (reply.has_coverage() && !reply.covered_lo.empty() && !w.complete) {
    const pgrid::Key& lo = reply.covered_lo;
    const bool duplicate = w.results.count(lo) != 0 || lo < w.frontier;
    if (!duplicate) {
      w.results[lo] = std::move(reply.results);
      w.pending[lo] = reply.covered_hi;
      w.accepted[lo] = reply.covered_hi;
      ++w.peer_visits;
      AdvanceFrontier(&w);
      out.progress = true;
      out.accepted = true;
      if (w.complete) ++walks_done_;
    } else {
      // A racing instance re-delivered a segment head. Its rows must be
      // dropped (the head was already accepted and its rows cannot be
      // split out exactly), but when it extends past what we stored the
      // branch is demonstrably alive: count it as progress and repay the
      // retry the race consumed, so the timer relaunches the uncovered
      // tail instead of abandoning a fully-delivered walk.
      auto it = w.accepted.find(lo);
      if (it != w.accepted.end() && reply.covered_hi > it->second) {
        out.progress = true;
        if (w.retries_left < walk_retries_) ++w.retries_left;
      }
    }
  }

  // A terminal error (routing dead end, stall) from the *current* walk
  // instance: relaunch from the frontier if budget remains. Stale errors
  // from superseded instances are ignored.
  if (reply.status_code != 0 && !w.complete &&
      reply.walk_id == w.latest_walk_id) {
    if (w.retries_left == 0) {
      AbandonWalk(&w);
      out.progress = true;
    } else {
      --w.retries_left;
      ++retries_;
      out.progress = true;
      out.relaunch.push_back(MakeEnvelope(reply.branch, reply.chunk_id));
    }
  }
  return out;
}

EnvelopeCoordinator::TimerOutcome EnvelopeCoordinator::OnTimer(
    uint32_t branch, uint32_t chunk) {
  TimerOutcome out;
  if (branch >= branches_.size() || chunk >= chunks_.size()) return out;
  Walk& w = walk(branch, chunk);
  if (w.complete) return out;
  if (w.retries_left == 0) {
    // Give this walk up instead of hanging the join out to its overall
    // deadline: the join finishes now with an explicit coverage gap.
    AbandonWalk(&w);
    out.action = TimerOutcome::Action::kAbandon;
    return out;
  }
  --w.retries_left;
  ++retries_;
  out.action = TimerOutcome::Action::kRelaunch;
  out.envelope = MakeEnvelope(branch, chunk);
  return out;
}

MigrateResult EnvelopeCoordinator::TakeResult() {
  MigrateResult result;
  result.branches = static_cast<uint32_t>(branches_.size());
  result.chunks_per_branch = static_cast<uint32_t>(chunks_.size());
  result.envelopes_launched = envelopes_launched_;
  result.retries = retries_;
  result.complete = walks_abandoned_ == 0;
  for (const Walk& w : walks_) {
    result.max_walk_peers = std::max(result.max_walk_peers, w.peer_visits);
    if (!w.abandoned) continue;
    result.coverage_gaps.emplace_back(w.frontier.bits(), w.range.hi.bits());
  }
  std::sort(result.coverage_gaps.begin(), result.coverage_gaps.end());
  result.coverage_gaps.erase(std::unique(result.coverage_gaps.begin(),
                                         result.coverage_gaps.end()),
                             result.coverage_gaps.end());

  size_t total = 0;
  for (uint32_t b = 0; b < branches_.size(); ++b) {
    uint32_t branch_visits = 0;
    for (uint32_t c = 0; c < chunks_.size(); ++c) {
      Walk& w = walk(b, c);
      branch_visits = std::max(branch_visits, w.peer_visits);
      for (const auto& [lo, rows] : w.results) total += rows.size();
    }
    result.peers_visited += branch_visits;
  }

  result.rows.reserve(total);
  for (uint32_t b = 0; b < branches_.size(); ++b) {
    for (uint32_t c = 0; c < chunks_.size(); ++c) {
      for (auto& [lo, rows] : walk(b, c).results) {
        result.rows.insert(result.rows.end(),
                           std::make_move_iterator(rows.begin()),
                           std::make_move_iterator(rows.end()));
      }
    }
  }
  // Canonical order: whatever the fan-out, chunking or retry schedule
  // produced the rows, the merged bytes are identical.
  std::vector<std::pair<std::string, size_t>> order;
  order.reserve(result.rows.size());
  for (size_t i = 0; i < result.rows.size(); ++i) {
    BufferWriter w;
    EncodeBinding(result.rows[i], &w);
    order.emplace_back(w.Release(), i);
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  std::vector<Binding> sorted;
  sorted.reserve(result.rows.size());
  for (const auto& [bytes, index] : order) {
    sorted.push_back(std::move(result.rows[index]));
  }
  result.rows = std::move(sorted);
  return result;
}

}  // namespace exec
}  // namespace unistore
