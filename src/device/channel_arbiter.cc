#include "device/channel_arbiter.h"

#include <algorithm>
#include <cassert>

namespace ghostdb::device {

ChannelArbiter::ChannelArbiter(Channel* channel) : channel_(channel) {}

void ChannelArbiter::Register(int32_t session, std::string name) {
  std::lock_guard<std::mutex> lk(mu_);
  sessions_.push_back(SessionState{session, std::move(name), 0, 0});
}

void ChannelArbiter::Unregister(int32_t session) {
  std::lock_guard<std::mutex> lk(mu_);
  for (size_t i = 0; i < sessions_.size(); ++i) {
    if (sessions_[i].id != session) continue;
    sessions_.erase(sessions_.begin() + static_cast<ptrdiff_t>(i));
    if (cursor_ > i) cursor_ -= 1;
    if (!sessions_.empty()) cursor_ %= sessions_.size();
    return;
  }
}

size_t ChannelArbiter::IndexOfLocked(int32_t session) const {
  for (size_t i = 0; i < sessions_.size(); ++i) {
    if (sessions_[i].id == session) return i;
  }
  return sessions_.size();
}

int32_t ChannelArbiter::PickNextLocked(
    const std::vector<std::pair<int32_t, uint32_t>>& pending) {
  assert(!pending.empty());
  // Work-conserving fast path: an uncontended request is admitted without
  // touching the DRR credit state (credit bookkeeping only matters for
  // choosing among competitors).
  if (pending.size() == 1) return pending[0].first;
  // Safety: if no pending session is registered the cycle scan could never
  // terminate; fall back to arrival order (still visible-only).
  bool any_registered = false;
  for (const auto& p : pending) {
    if (IndexOfLocked(p.first) < sessions_.size()) {
      any_registered = true;
      break;
    }
  }
  if (sessions_.empty() || !any_registered) return pending[0].first;
  // Deficit round-robin over the registration cycle: each visit earns one
  // credit; the first visited session whose credit covers its declared
  // weight wins. Weights are >= 1 and bounded by the query shape, so the
  // scan terminates within max_weight cycles.
  for (;;) {
    SessionState& s = sessions_[cursor_];
    const std::pair<int32_t, uint32_t>* req = nullptr;
    for (const auto& p : pending) {
      if (p.first == s.id) {
        req = &p;
        break;
      }
    }
    if (req != nullptr) {
      s.deficit += 1;
      uint32_t weight = std::max<uint32_t>(1, req->second);
      if (s.deficit >= weight) {
        s.deficit -= weight;
        cursor_ = (cursor_ + 1) % sessions_.size();
        return s.id;
      }
    }
    cursor_ = (cursor_ + 1) % sessions_.size();
  }
}

int32_t ChannelArbiter::PickNext(
    const std::vector<std::pair<int32_t, uint32_t>>& pending) {
  std::lock_guard<std::mutex> lk(mu_);
  return PickNextLocked(pending);
}

void ChannelArbiter::TryGrantLocked() {
  if (busy_ || waiting_.empty()) return;
  int32_t pick;
  if (waiting_.size() == 1) {
    // Uncontended grant: no policy consult (the deterministic scheduler
    // already picked via PickNext; re-running DRR here would charge the
    // query's weight twice).
    pick = waiting_[0].session;
  } else {
    std::vector<std::pair<int32_t, uint32_t>> pending;
    pending.reserve(waiting_.size());
    for (const Waiter& w : waiting_) pending.emplace_back(w.session, w.weight);
    pick = PickNextLocked(pending);
  }
  // Among waiters of the picked session, grant the earliest request.
  size_t best = waiting_.size();
  for (size_t i = 0; i < waiting_.size(); ++i) {
    if (waiting_[i].session != pick) continue;
    if (best == waiting_.size() ||
        waiting_[i].ticket < waiting_[best].ticket) {
      best = i;
    }
  }
  assert(best < waiting_.size());
  busy_ = true;
  granted_ticket_ = waiting_[best].ticket;
  size_t idx = IndexOfLocked(pick);
  if (idx < sessions_.size()) sessions_[idx].admissions += 1;
  total_admissions_ += 1;
  waiting_.erase(waiting_.begin() + static_cast<ptrdiff_t>(best));
  cv_.notify_all();
}

void ChannelArbiter::Admit(int32_t session, uint32_t weight) {
  std::unique_lock<std::mutex> lk(mu_);
  uint64_t ticket = next_ticket_++;
  waiting_.push_back(Waiter{session, weight, ticket});
  TryGrantLocked();
  cv_.wait(lk, [&] { return granted_ticket_ == ticket; });
  // Exclusive until Release(): tag the transcript with the admitted
  // session. The write is ordered by mu_ against the previous holder's
  // clear.
  channel_->set_current_session(session);
}

void ChannelArbiter::Release(int32_t session) {
  std::lock_guard<std::mutex> lk(mu_);
  (void)session;
  channel_->set_current_session(-1);
  busy_ = false;
  granted_ticket_ = 0;
  TryGrantLocked();
}

uint64_t ChannelArbiter::admissions(int32_t session) const {
  std::lock_guard<std::mutex> lk(mu_);
  size_t i = IndexOfLocked(session);
  return i < sessions_.size() ? sessions_[i].admissions : 0;
}

uint64_t ChannelArbiter::total_admissions() const {
  std::lock_guard<std::mutex> lk(mu_);
  return total_admissions_;
}

}  // namespace ghostdb::device
