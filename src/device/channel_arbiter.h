// The channel arbiter: admits per-session access to the device (channel +
// MCU + RAM + flash) one session at a time.
//
// Resource arbitration is a classic side channel: if the scheduler's
// decisions depended on hidden data (result sizes, selectivities, timing of
// hidden work), the *order* of messages on the USB link would leak what the
// per-message contents do not. The arbiter therefore decides from visible
// information only:
//
//   * the set of sessions with a pending request (who is asking),
//   * each request's declared weight — a pure function of the visible query
//     shape (the number of FROM tables), declared before execution,
//   * the arbiter's own state (registration order, deficit counters).
//
// The policy is deficit round-robin: sessions are visited in registration
// order; a visit earns one credit, and a session whose accumulated credit
// covers its pending request's weight is admitted (heavier shapes are
// admitted proportionally less often). Nothing derived from hidden data —
// not result sizes, not execution outcomes, not even whether a query
// erred — ever feeds back into the policy, so for a fixed submission
// pattern the interleaving (and with it the global transcript) is a
// function of visible inputs alone. The leak tests check exactly this:
// interleaved transcripts, session tags included, must be byte-identical
// across databases differing only in any session's hidden data.
//
// Two driving modes share the one policy:
//   * PickNext() — the deterministic scheduler (GhostDB::DrainSessions)
//     asks the arbiter whom to serve next among the sessions with queued
//     statements;
//   * Admit()/Release() — concurrently driven sessions block until granted;
//     contention among simultaneous waiters resolves by the same DRR
//     policy. Admission doubles as the device's mutual exclusion: all
//     query-time device access happens between Admit and Release.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "device/channel.h"

namespace ghostdb::device {

/// \brief Deterministic, visible-only admission control for the channel.
class ChannelArbiter {
 public:
  /// `channel` receives the admitted session's id as the transcript tag.
  explicit ChannelArbiter(Channel* channel);

  /// Adds a session to the cycle (cycle position = registration order).
  void Register(int32_t session, std::string name);
  /// Removes a session. The session must not be waiting or admitted.
  void Unregister(int32_t session);

  /// Deficit-round-robin pick among `pending` (session id -> declared
  /// weight, in a caller-fixed order). Deterministic: depends only on the
  /// arbiter's state and the argument. `pending` must be non-empty. The
  /// pick advances the DRR credit state but not the admission counters —
  /// the caller is expected to follow up with Admit() for the picked
  /// session (uncontended, so the grant does not re-run the policy).
  int32_t PickNext(
      const std::vector<std::pair<int32_t, uint32_t>>& pending);

  /// Blocks until `session` is granted exclusive device access. `weight`
  /// is the declared shape weight of the request (>= 1). Reentrant
  /// admission is a caller bug (the device would deadlock); sessions admit
  /// once per query.
  void Admit(int32_t session, uint32_t weight);

  /// Releases the device and hands it to the next waiter (if any).
  void Release(int32_t session);

  // RAII admission lives in device/guards.h (AdmissionGuard): leakcheck's
  // paired-resource rule only permits Admit/Release through it.

  /// Queries admitted for `session` so far.
  uint64_t admissions(int32_t session) const;
  /// Total admissions across all sessions.
  uint64_t total_admissions() const;

 private:
  struct SessionState {
    int32_t id;
    std::string name;
    uint64_t deficit = 0;
    uint64_t admissions = 0;
  };
  struct Waiter {
    int32_t session;
    uint32_t weight;
    uint64_t ticket;  ///< unique per request; grants are by ticket so two
                      ///< waiters sharing a session id can't both proceed
  };

  int32_t PickNextLocked(
      const std::vector<std::pair<int32_t, uint32_t>>& pending);
  void TryGrantLocked();
  size_t IndexOfLocked(int32_t session) const;

  Channel* channel_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<SessionState> sessions_;  // registration order = cycle order
  size_t cursor_ = 0;                   // DRR position in sessions_
  std::vector<Waiter> waiting_;         // arrival order (policy reorders)
  bool busy_ = false;
  uint64_t next_ticket_ = 1;
  uint64_t granted_ticket_ = 0;  ///< 0 = none
  uint64_t total_admissions_ = 0;
};

}  // namespace ghostdb::device
