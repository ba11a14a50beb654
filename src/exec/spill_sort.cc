#include "exec/spill_sort.h"

#include <algorithm>
#include <numeric>

namespace ghostdb::exec {

ExternalRowSorter::ExternalRowSorter(ExecContext* ctx, uint32_t row_width,
                                     RowComparator cmp, uint64_t budget_rows,
                                     bool drop_key_duplicates,
                                     std::string tag)
    : ctx_(ctx),
      row_width_(row_width),
      cmp_(std::move(cmp)),
      budget_rows_(std::max<uint64_t>(1, budget_rows)),
      dedup_(drop_key_duplicates),
      tag_(std::move(tag)) {}

ExternalRowSorter::~ExternalRowSorter() {
  // Abandoned stream (LIMIT above, error unwind): free flash best-effort —
  // the executor's page-leak check runs after the tree is destroyed.
  if (!closed_) {
    GHOSTDB_IGNORE_STATUS(Close(),
                          "nothing useful to do with a late free failure");
  }
}

Status ExternalRowSorter::Add(const uint8_t* row) {
  if (finished_) return Status::Internal("Add() after Finish()");
  if (gen_rows_ >= budget_rows_) GHOSTDB_RETURN_NOT_OK(SpillGeneration());
  arena_.insert(arena_.end(), row, row + row_width_);
  gen_rows_ += 1;
  return Status::OK();
}

void ExternalRowSorter::SortGeneration() {
  perm_.resize(gen_rows_);
  std::iota(perm_.begin(), perm_.end(), 0);
  auto less = [&](uint32_t a, uint32_t b) {
    return cmp_.Compare(GenRow(a), GenRow(b)) < 0;
  };
  // The trailing arrival sequence makes the order total, so the sorted
  // permutation is the unique one.
  std::sort(perm_.begin(), perm_.end(), less);
}

Status ExternalRowSorter::SpillGeneration() {
  if (gen_rows_ == 0) return Status::OK();
  GHOSTDB_RETURN_NOT_OK(ctx_->RequireDevice("spill run"));
  SortGeneration();
  auto scope = ctx_->clock().Enter(kSpillClockCategory);
  GHOSTDB_ASSIGN_OR_RETURN(device::RamGuard buf,
                           device::RamGuard::AcquireOne(&ctx_->ram(), tag_));
  storage::RunWriter writer(&ctx_->flash(), ctx_->allocator, buf.data(),
                            tag_);
  const uint8_t* prev = nullptr;
  // Run-write partial fold: hold one pending row; key-equal successors
  // fold into it (the permutation is total-ordered, so the pending row is
  // the group's earliest arrival and keeps the group's smallest sequence).
  std::vector<uint8_t> pending;
  bool have_pending = false;
  for (uint32_t index : perm_) {
    const uint8_t* row = GenRow(index);
    if (fold_ != nullptr) {
      if (have_pending && cmp_.CompareKeys(row, pending.data()) == 0) {
        GHOSTDB_RETURN_NOT_OK(fold_(pending.data(), row));
        continue;
      }
      if (have_pending) {
        GHOSTDB_RETURN_NOT_OK(writer.Append(pending.data(), row_width_));
      }
      pending.assign(row, row + row_width_);
      have_pending = true;
      continue;
    }
    // The permutation is total-ordered (ties by arrival), so the first of
    // a duplicate group is its earliest arrival.
    if (dedup_ && prev != nullptr && cmp_.CompareKeys(row, prev) == 0) {
      continue;
    }
    GHOSTDB_RETURN_NOT_OK(writer.Append(row, row_width_));
    prev = row;
  }
  if (have_pending) {
    GHOSTDB_RETURN_NOT_OK(writer.Append(pending.data(), row_width_));
  }
  GHOSTDB_ASSIGN_OR_RETURN(storage::RunRef run, writer.Finish());
  stats_.runs_written += 1;
  stats_.pages_written += run.page_count();
  runs_.push_back(std::move(run));
  arena_.clear();
  perm_.clear();
  gen_rows_ = 0;
  return Status::OK();
}

Status ExternalRowSorter::PadSpillRuns() {
  const ExecConfig& cfg = *ctx_->config;
  if (!cfg.pad_spill_runs || cfg.volume_padding == VolumePadding::kOff) {
    return Status::OK();
  }
  uint64_t real = stats_.runs_written;
  uint64_t target = real;
  if (cfg.volume_padding == VolumePadding::kQuantize) {
    target = real == 0 ? 0 : NextPowerOfTwo(real);
  } else {
    // Worst case: every sorter this operator instantiated writes the run
    // count an input of padding_row_bound rows would have spilled
    // (generation runs of budget_rows each). Both inputs are visible.
    uint64_t bound = ctx_->padding_row_bound;
    uint64_t worst =
        bound == 0 ? 0 : (bound + budget_rows_ - 1) / budget_rows_;
    target = std::max(real, worst);
  }
  // Dummy runs cost one real flash page each; cap the defense's write
  // amplification at something sane rather than letting a tiny budget
  // against a huge table erase the key.
  constexpr uint64_t kMaxDummyRuns = 256;
  uint64_t dummies = std::min(target - real, kMaxDummyRuns);
  if (dummies == 0) return Status::OK();
  GHOSTDB_RETURN_NOT_OK(ctx_->RequireDevice("spill-run padding"));
  auto scope = ctx_->clock().Enter(kSpillClockCategory);
  std::vector<uint8_t> zero_row(row_width_, 0);
  GHOSTDB_ASSIGN_OR_RETURN(device::RamGuard buf,
                           device::RamGuard::AcquireOne(&ctx_->ram(), tag_ + "-pad"));
  for (uint64_t i = 0; i < dummies; ++i) {
    storage::RunWriter writer(&ctx_->flash(), ctx_->allocator, buf.data(),
                              tag_);
    GHOSTDB_RETURN_NOT_OK(writer.Append(zero_row.data(), row_width_));
    GHOSTDB_ASSIGN_OR_RETURN(storage::RunRef run, writer.Finish());
    stats_.padding_runs_written += 1;
    stats_.padding_pages_written += run.page_count();
    dummy_runs_.push_back(std::move(run));
  }
  return Status::OK();
}

Status ExternalRowSorter::Finish() {
  if (finished_) return Status::Internal("Finish() called twice");
  finished_ = true;
  if (runs_.empty()) {
    SortGeneration();  // pure in-memory sort, emitted from the arena
    return PadSpillRuns();
  }
  GHOSTDB_RETURN_NOT_OK(SpillGeneration());
  auto scope = ctx_->clock().Enter(kSpillClockCategory);
  // The final merge streams every run at once. The fan-in is cost-derived
  // from the partition's buffer pool rather than fixed: the reserve is
  // exactly what the stream's consumer needs while the reader set stays
  // pinned — one generation-spill buffer (HashGroupOp's arrival-order
  // phase keeps absorbing this stream and may itself spill) plus one
  // run-writer buffer for its merge or padding writes. Everything else
  // becomes merge width. All inputs (budget, stride, buffer counts) are
  // visible; the run page counts the overflow rule below reads live on
  // this device's flash and never reach the channel.
  auto& ram = ctx_->ram();
  uint32_t free = ram.free_buffers();
  constexpr uint32_t kConsumerReserveBuffers = 2;
  size_t fan_in = std::max<size_t>(
      1, free > kConsumerReserveBuffers ? free - kConsumerReserveBuffers : 1);
  // When the runs outnumber the fan-in, the Merge-alternative rule (§3.4)
  // weighs merging the smallest runs down (MergeRowRunsBy) against
  // reading them through sub-buffer windows.
  MergeAlternative plan = ChooseMergeAlternative(
      ctx_->flash().config(), fan_in,
      [&](size_t cap) { return ModelMergeDown(cap, free); });
  if (runs_.size() > plan.stream_cap) {
    GHOSTDB_RETURN_NOT_OK(MergeRowRunsBy(&ctx_->flash(), &ram,
                                         ctx_->allocator, &runs_, row_width_,
                                         plan.stream_cap, tag_, cmp_, dedup_,
                                         &stats_));
  }
  // Pad after any merge-down so the target covers merge-written runs too,
  // and before the reader buffers pin the remaining RAM.
  GHOSTDB_RETURN_NOT_OK(PadSpillRuns());
  uint32_t window = plan.window_bytes;  // 0 = one full buffer per run
  size_t slice = window == 0 ? ram.buffer_size() : window;
  size_t buffers = window == 0 ? runs_.size() : fan_in;
  GHOSTDB_ASSIGN_OR_RETURN(
      reader_bufs_,
      device::RamGuard::Acquire(&ram, static_cast<uint32_t>(buffers), tag_));
  merger_.emplace(&cmp_);
  for (size_t i = 0; i < runs_.size(); ++i) {
    GHOSTDB_RETURN_NOT_OK(merger_->Add(std::make_unique<RowRunReader>(
        &ctx_->flash(), runs_[i], row_width_,
        reader_bufs_.data() + i * slice, window)));
  }
  current_.resize(row_width_);
  return Status::OK();
}

MergeReduction ExternalRowSorter::ModelMergeDown(size_t stream_cap,
                                                 uint32_t free_buffers) const {
  // MergeRowRunsBy's rounds, replayed on run sizes: each merges the runs
  // PickMergeDownRuns names into one run of their summed bytes.
  uint64_t page = ctx_->flash().config().page_size;
  auto pages_of = [&](uint64_t bytes) { return (bytes + page - 1) / page; };
  std::vector<uint64_t> bytes;
  for (const storage::RunRef& run : runs_) bytes.push_back(run.bytes);
  MergeReduction model;
  while (bytes.size() > stream_cap) {
    if (free_buffers < 3) {
      model.feasible = false;
      break;
    }
    std::vector<uint64_t> pages;
    for (uint64_t b : bytes) pages.push_back(pages_of(b));
    std::vector<size_t> picked =
        PickMergeDownRuns(pages, stream_cap, free_buffers);
    uint64_t merged = 0;
    for (size_t i = picked.size(); i-- > 0;) {
      merged += bytes[picked[i]];
      bytes.erase(bytes.begin() + static_cast<long>(picked[i]));
    }
    model.pages_written += pages_of(merged);
    bytes.push_back(merged);
  }
  for (uint64_t b : bytes) model.streams.push_back({0, b});
  return model;
}

Result<const uint8_t*> ExternalRowSorter::Next() {
  if (!finished_) return Status::Internal("Next() before Finish()");
  if (runs_.empty()) {
    while (emit_pos_ < perm_.size()) {
      const uint8_t* row = GenRow(perm_[emit_pos_]);
      emit_pos_ += 1;
      if (dedup_ && have_last_ &&
          cmp_.CompareKeys(row, last_emitted_.data()) == 0) {
        continue;
      }
      if (dedup_) {
        last_emitted_.assign(row, row + row_width_);
        have_last_ = true;
      }
      return row;
    }
    return static_cast<const uint8_t*>(nullptr);
  }
  auto scope = ctx_->clock().Enter(kSpillClockCategory);
  while (!merger_->done()) {
    std::copy(merger_->top(), merger_->top() + row_width_, current_.begin());
    GHOSTDB_RETURN_NOT_OK(merger_->Pop());
    if (dedup_ && have_last_ &&
        cmp_.CompareKeys(current_.data(), last_emitted_.data()) == 0) {
      continue;
    }
    if (dedup_) {
      last_emitted_ = current_;
      have_last_ = true;
    }
    return current_.data();
  }
  return static_cast<const uint8_t*>(nullptr);
}

Status ExternalRowSorter::Close() {
  if (closed_) return Status::OK();
  closed_ = true;
  merger_.reset();
  reader_bufs_.Release();
  Status status = Status::OK();
  for (const storage::RunRef& run : runs_) {
    Status freed = storage::FreeRun(ctx_->allocator, run, tag_);
    if (status.ok()) status = freed;
  }
  runs_.clear();
  for (const storage::RunRef& run : dummy_runs_) {
    Status freed = storage::FreeRun(ctx_->allocator, run, tag_);
    if (status.ok()) status = freed;
  }
  dummy_runs_.clear();
  return status;
}

Status ExternalRowSorter::PadUnfinished() {
  if (finished_) return Status::Internal("PadUnfinished() after Finish()");
  finished_ = true;
  return PadSpillRuns();
}

namespace {

void FoldSpillStats(const SpillStats& stats, QueryMetrics* metrics) {
  metrics->sort_spill_runs += stats.runs_written;
  metrics->sort_spill_pages += stats.pages_written;
  metrics->sort_merge_pages += stats.merge_pages_written;
  metrics->padding_spill_runs += stats.padding_runs_written;
}

/// The padded-mode dummy-run signature of a sorter that never
/// materialized, folded into ctx->metrics.
Status PadUnspilledSorter(ExecContext* ctx, uint32_t stride,
                          const std::string& tag) {
  uint64_t budget_rows = std::max<uint64_t>(
      1, ctx->sort_budget_bytes / std::max<uint32_t>(1, stride));
  // A zero-row sorter: Finish() writes only the padding mode's dummy-run
  // signature (kWorstCase; kQuantize of 0 real runs stays 0 — its bucket
  // function cannot hide emptiness, a documented resolution limit).
  ExternalRowSorter sorter(ctx, stride,
                           RowComparator::ByKeys({}, stride - kSpillSeqWidth),
                           budget_rows, /*drop_key_duplicates=*/false, tag);
  GHOSTDB_RETURN_NOT_OK(sorter.Finish());
  FoldSpillStats(sorter.stats(), ctx->metrics);
  return sorter.Close();
}

}  // namespace

Status CloseSorterPhase(ExecContext* ctx, ExternalRowSorter* sorter,
                        bool may_pad, uint32_t stride,
                        const std::string& tag) {
  Status status;
  if (may_pad && ctx->config->pad_spill_runs) {
    if (sorter == nullptr) {
      status = PadUnspilledSorter(ctx, stride, tag);
    } else if (!sorter->finished()) {
      status = sorter->PadUnfinished();
    }
  }
  if (sorter == nullptr) return status;
  FoldSpillStats(sorter->stats(), ctx->metrics);
  Status closed = sorter->Close();
  return status.ok() ? closed : status;
}

}  // namespace ghostdb::exec
