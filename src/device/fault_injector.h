// Deterministic fault injection for the Secure device stack.
//
// Every SecureDevice owns one FaultInjector. Sites in the flash simulator,
// the RAM manager, the channel, the page allocator, the run writer, and the
// scatter-gather orchestration consult it before doing their work; the
// injector answers from a seeded counter-based schedule (splitmix64 over
// (seed, site, draw index)), so a given config replays the exact same fault
// sequence on every run — a failing chaos schedule is a repro, not a flake.
//
// Fault taxonomy:
//  * flash read/write faults — transient (absorbed by the device's bounded
//    retry-with-backoff, charged to the simulated clock) or permanent
//    (surface as a tagged IOError);
//  * torn run writes — a RunWriter page flush fails mid-run, leaving
//    allocated extents for the abort path to reclaim;
//  * page-allocation faults — PageAllocator::Alloc fails;
//  * channel stalls — a transfer costs extra simulated time (the USB layer
//    retries transparently; stalls never error and never touch the
//    transcript);
//  * RAM-acquire faults — RamManager::Acquire fails with a tagged
//    ResourceExhausted;
//  * shard resets — a whole device drops out at the start of a scatter leg.
//
// Injected errors carry the kTag marker in their Status message, so upper
// layers can tell a scheduled fault from a genuine one: under the padded
// volume modes GhostDB erases the failed attempt's transcript range and
// deterministically replays the query with the injector masked, making
// fault occurrence and fault kind invisible on the wire.
//
// The injector is disarmed during construction and the Build()/load phase;
// GhostDB::Build() arms it (per shard, each on its own seed lane) just
// before the database becomes queryable. All query-time access is
// serialized by the device's channel-arbiter admission, so the counters
// need no atomics.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "common/sim_clock.h"
#include "common/status.h"
#include "common/units.h"

namespace ghostdb::device {

/// Where a fault can fire. One deterministic draw stream per site.
enum class FaultSite : uint8_t {
  kFlashRead = 0,   ///< FlashDevice::ReadPage
  kFlashWrite,      ///< FlashDevice::WritePage
  kPageAlloc,       ///< storage::PageAllocator::Alloc
  kRunWrite,        ///< storage::RunWriter page flush (torn run write)
  kChannelStall,    ///< Channel::Transfer (simulated-time stall, no error)
  kRamAcquire,      ///< RamManager::Acquire
  kShardReset,      ///< scatter leg entry in GhostDB::RunSelect (fan-out)
};
inline constexpr size_t kFaultSiteCount = 7;

const char* FaultSiteName(FaultSite site);

/// What a draw produced. Transient flash faults are retried (with backoff)
/// up to the configured budget; everything else that fires is terminal for
/// the operation.
enum class FaultKind : uint8_t { kNone = 0, kTransient, kPermanent };

/// Seeded fault schedule. All-zero probabilities (the default) make the
/// injector free to keep in the hot path: one armed/enabled check per site.
struct FaultConfig {
  bool enabled = false;  ///< master switch; false = all sites inert
  uint64_t seed = 0;     ///< schedule seed (per shard: seed + lane offset)
  // Per-site fire probabilities in [0, 1], drawn once per operation.
  double flash_read_p = 0.0;
  double flash_write_p = 0.0;
  double page_alloc_p = 0.0;
  double run_write_p = 0.0;
  double channel_stall_p = 0.0;
  double ram_acquire_p = 0.0;
  double shard_reset_p = 0.0;
  /// Of the flash faults that fire, the fraction that are transient
  /// (retryable); the rest are permanent.
  double transient_fraction = 0.75;
  /// Retry transient flash faults (with exponential backoff charged to the
  /// simulated clock) before giving up.
  bool retry_enabled = true;
  /// Retries allowed per flash operation before a transient fault
  /// escalates to an error. Must be nonzero while retry_enabled.
  uint32_t flash_retry_budget = 3;
};

/// Base backoff before re-issuing a faulted flash operation; doubles per
/// retry. Charged to the "fault-retry" clock category.
inline constexpr SimNanos kRetryBackoff = 100 * kMicrosecond;
/// Simulated time one channel stall costs ("fault-stall" category).
inline constexpr SimNanos kChannelStall = 500 * kMicrosecond;

/// Rejects malformed schedules (probabilities outside [0, 1], a zero or
/// absurd retry budget with retries enabled) with InvalidArgument. Called
/// by GhostDB::Build() alongside ValidateExecConfig.
Status ValidateFaultConfig(const FaultConfig& config);

/// \brief Deterministic per-device fault source. See file comment.
class FaultInjector {
 public:
  /// Marker every injected error's Status message carries.
  static constexpr const char* kTag = "[injected fault]";

  FaultInjector(FaultConfig config, SimClock* clock)
      : config_(config), clock_(clock), seed_(config.seed) {}

  /// True when `status` was produced by a fault injector (any device's):
  /// the replay path recovers these and only these — genuine errors keep
  /// their documented residual visibility.
  static bool IsInjectedFault(const Status& status);

  /// Restarts the schedule from `seed` (draw counters reset). Build() uses
  /// this to give each shard its own seed lane.
  void Reseed(uint64_t seed);

  /// Armed = the probabilistic schedule is live. The injector is built
  /// disarmed so the load phase stays fault-free; one-shot faults armed
  /// via ArmOnce() fire regardless (targeted unit tests need no config).
  void set_armed(bool armed) { armed_ = armed; }
  bool armed() const { return armed_; }

  /// Queues exactly one fault of `kind` at `site`, firing after skipping
  /// `after_draws` draws at that site. Works while disarmed and with
  /// enabled=false.
  void ArmOnce(FaultSite site, FaultKind kind, uint64_t after_draws = 0);

  /// Suppresses every draw (all sites report kNone) while in scope — the
  /// masked-replay error path. Nests.
  class MaskScope {
   public:
    explicit MaskScope(FaultInjector* injector) : injector_(injector) {
      injector_->mask_depth_ += 1;
    }
    ~MaskScope() { injector_->mask_depth_ -= 1; }
    MaskScope(const MaskScope&) = delete;
    MaskScope& operator=(const MaskScope&) = delete;

   private:
    FaultInjector* injector_;
  };

  /// Flash read/write entry hook: absorbs transient faults with the
  /// configured retry budget (backoff charged to the clock), errors on
  /// permanent faults or an exhausted budget. `site` must be kFlashRead or
  /// kFlashWrite.
  Status OnFlashOp(FaultSite site);

  /// Single-shot error sites (page alloc, run write, RAM acquire): returns
  /// a tagged error when the draw fires — ResourceExhausted for
  /// kRamAcquire (an out-of-RAM shape upper layers already handle),
  /// IOError otherwise. `what` names the failed operation.
  Status CheckSite(FaultSite site, const std::string& what);

  /// Channel-transfer hook: a firing draw charges one stall's worth of
  /// simulated time. Stalls never error — the wire image is unchanged.
  void MaybeStallChannel();

  /// Scatter-leg entry hook: true when this leg's device "resets".
  bool DrawShardReset();

  // Exact counters since construction / Reseed().
  uint64_t faults_injected() const { return faults_injected_; }
  uint64_t flash_retries() const { return flash_retries_; }
  uint64_t channel_stalls() const { return channel_stalls_; }

  const FaultConfig& config() const { return config_; }

 private:
  /// One deterministic draw at `site` (advances that site's counter).
  FaultKind Draw(FaultSite site);
  double SiteProbability(FaultSite site) const;

  struct OneShot {
    FaultKind kind = FaultKind::kNone;
    uint64_t after = 0;
    bool pending = false;
  };

  FaultConfig config_;
  SimClock* clock_;
  uint64_t seed_;
  bool armed_ = false;
  uint32_t mask_depth_ = 0;
  std::array<uint64_t, kFaultSiteCount> draws_{};
  std::array<OneShot, kFaultSiteCount> one_shot_{};
  uint64_t faults_injected_ = 0;
  uint64_t flash_retries_ = 0;
  uint64_t channel_stalls_ = 0;
};

}  // namespace ghostdb::device
