#include "device/fault_injector.h"

#include <cmath>

namespace ghostdb::device {

namespace {

// splitmix64: the repo's standard cheap deterministic mixer (same core as
// the shard partitioner). Statelessly maps (seed, site, draw#) to a draw.
uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Uniform double in [0, 1) from the top 53 bits of a mixed word.
double ToUnit(uint64_t x) {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

Status BadProbability(const char* name, double value) {
  return Status::InvalidArgument("fault_config." + std::string(name) + " = " +
                                 std::to_string(value) +
                                 " is not a probability in [0, 1]");
}

}  // namespace

const char* FaultSiteName(FaultSite site) {
  switch (site) {
    case FaultSite::kFlashRead:
      return "flash-read";
    case FaultSite::kFlashWrite:
      return "flash-write";
    case FaultSite::kPageAlloc:
      return "page-alloc";
    case FaultSite::kRunWrite:
      return "run-write";
    case FaultSite::kChannelStall:
      return "channel-stall";
    case FaultSite::kRamAcquire:
      return "ram-acquire";
    case FaultSite::kShardReset:
      return "shard-reset";
  }
  return "unknown";
}

Status ValidateFaultConfig(const FaultConfig& config) {
  const struct {
    const char* name;
    double value;
  } probs[] = {
      {"flash_read_p", config.flash_read_p},
      {"flash_write_p", config.flash_write_p},
      {"page_alloc_p", config.page_alloc_p},
      {"run_write_p", config.run_write_p},
      {"channel_stall_p", config.channel_stall_p},
      {"ram_acquire_p", config.ram_acquire_p},
      {"shard_reset_p", config.shard_reset_p},
      {"transient_fraction", config.transient_fraction},
  };
  for (const auto& p : probs) {
    if (!std::isfinite(p.value) || p.value < 0.0 || p.value > 1.0) {
      return BadProbability(p.name, p.value);
    }
  }
  if (config.retry_enabled && config.flash_retry_budget == 0) {
    return Status::InvalidArgument(
        "fault_config.flash_retry_budget must be nonzero while "
        "retry_enabled; set retry_enabled=false to disable retries");
  }
  if (config.flash_retry_budget > 64) {
    return Status::InvalidArgument(
        "fault_config.flash_retry_budget = " +
        std::to_string(config.flash_retry_budget) +
        " exceeds the sane bound of 64");
  }
  return Status::OK();
}

bool FaultInjector::IsInjectedFault(const Status& status) {
  // Substring, not prefix: the executor annotates ResourceExhausted
  // messages with session/partition context appended after the original
  // text.
  return !status.ok() && status.message().find(kTag) != std::string::npos;
}

void FaultInjector::Reseed(uint64_t seed) {
  seed_ = seed;
  draws_.fill(0);
  one_shot_ = {};
  faults_injected_ = 0;
  flash_retries_ = 0;
  channel_stalls_ = 0;
}

void FaultInjector::ArmOnce(FaultSite site, FaultKind kind,
                            uint64_t after_draws) {
  OneShot& slot = one_shot_[static_cast<size_t>(site)];
  slot.kind = kind;
  slot.after = after_draws;
  slot.pending = true;
}

double FaultInjector::SiteProbability(FaultSite site) const {
  switch (site) {
    case FaultSite::kFlashRead:
      return config_.flash_read_p;
    case FaultSite::kFlashWrite:
      return config_.flash_write_p;
    case FaultSite::kPageAlloc:
      return config_.page_alloc_p;
    case FaultSite::kRunWrite:
      return config_.run_write_p;
    case FaultSite::kChannelStall:
      return config_.channel_stall_p;
    case FaultSite::kRamAcquire:
      return config_.ram_acquire_p;
    case FaultSite::kShardReset:
      return config_.shard_reset_p;
  }
  return 0.0;
}

FaultKind FaultInjector::Draw(FaultSite site) {
  // Masked replays must not observe OR advance the schedule: the replay has
  // to be a pure function of the visible inputs.
  if (mask_depth_ > 0) {
    return FaultKind::kNone;
  }
  const size_t idx = static_cast<size_t>(site);
  OneShot& slot = one_shot_[idx];
  if (slot.pending) {
    if (slot.after == 0) {
      slot.pending = false;
      return slot.kind;
    }
    slot.after -= 1;
    return FaultKind::kNone;
  }
  if (!armed_ || !config_.enabled) {
    return FaultKind::kNone;
  }
  const double p = SiteProbability(site);
  if (p <= 0.0) {
    return FaultKind::kNone;
  }
  const uint64_t n = draws_[idx]++;
  const uint64_t word =
      SplitMix64(seed_ ^ SplitMix64((static_cast<uint64_t>(idx) << 56) ^ n));
  if (ToUnit(word) >= p) {
    return FaultKind::kNone;
  }
  if (site != FaultSite::kFlashRead && site != FaultSite::kFlashWrite) {
    return FaultKind::kPermanent;
  }
  return ToUnit(SplitMix64(word)) < config_.transient_fraction
             ? FaultKind::kTransient
             : FaultKind::kPermanent;
}

Status FaultInjector::OnFlashOp(FaultSite site) {
  uint32_t retries = 0;
  for (;;) {
    const FaultKind kind = Draw(site);
    if (kind == FaultKind::kNone) {
      return Status::OK();
    }
    faults_injected_ += 1;
    if (kind == FaultKind::kPermanent) {
      return Status::IOError(std::string(kTag) + " permanent " +
                             FaultSiteName(site) + " fault");
    }
    if (!config_.retry_enabled || retries >= config_.flash_retry_budget) {
      return Status::IOError(std::string(kTag) + " transient " +
                             FaultSiteName(site) + " fault persisted after " +
                             std::to_string(retries) + " retries");
    }
    // Exponential backoff before the re-issue, charged to simulated time so
    // the cost decomposition (and thus the transcript timing model) stays
    // deterministic.
    auto scope = clock_->Enter("fault-retry");
    clock_->Advance(kRetryBackoff << retries);
    retries += 1;
    flash_retries_ += 1;
  }
}

Status FaultInjector::CheckSite(FaultSite site, const std::string& what) {
  if (Draw(site) == FaultKind::kNone) {
    return Status::OK();
  }
  faults_injected_ += 1;
  const std::string message =
      std::string(kTag) + " " + FaultSiteName(site) + " fault: " + what;
  return site == FaultSite::kRamAcquire ? Status::ResourceExhausted(message)
                                        : Status::IOError(message);
}

void FaultInjector::MaybeStallChannel() {
  if (Draw(FaultSite::kChannelStall) == FaultKind::kNone) {
    return;
  }
  faults_injected_ += 1;
  channel_stalls_ += 1;
  auto scope = clock_->Enter("fault-stall");
  clock_->Advance(kChannelStall);
}

bool FaultInjector::DrawShardReset() {
  if (Draw(FaultSite::kShardReset) == FaultKind::kNone) {
    return false;
  }
  faults_injected_ += 1;
  return true;
}

}  // namespace ghostdb::device
