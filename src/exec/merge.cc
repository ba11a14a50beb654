#include "exec/merge.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/coding.h"

namespace ghostdb::exec {

using catalog::RowId;

namespace {

/// Loads reading `span` through `window`-byte windows takes:
/// ceil(segment / window) per page segment (a full-page window loads each
/// segment once).
uint64_t WindowLoads(const StreamSpan& span, uint64_t window, uint64_t page) {
  if (span.bytes == 0) return 0;
  auto loads = [&](uint64_t segment) {
    return (segment + window - 1) / window;
  };
  uint64_t first = std::min(span.bytes, page - span.offset % page);
  uint64_t rest = span.bytes - first;
  uint64_t total = loads(first) + rest / page * loads(page);
  if (rest % page != 0) total += loads(rest % page);
  return total;
}

/// Page loads reading every span once through a full page.
uint64_t PageLoads(const std::vector<StreamSpan>& spans, uint64_t page) {
  uint64_t loads = 0;
  for (const StreamSpan& span : spans) loads += WindowLoads(span, page, page);
  return loads;
}

/// \brief Min-heap union over ascending id sources: head() is the smallest
/// head among them, and the Skip calls advance exactly the sources whose
/// head lies below their bound.
class IdUnion {
 public:
  /// Primes every source and heaps the non-empty ones.
  Status Init(std::vector<std::unique_ptr<IdSource>> sources) {
    sources_ = std::move(sources);
    for (uint32_t i = 0; i < sources_.size(); ++i) {
      GHOSTDB_RETURN_NOT_OK(sources_[i]->Prime());
      if (sources_[i]->valid()) heap_.push_back(i);
    }
    std::make_heap(heap_.begin(), heap_.end(), Order());
    return Status::OK();
  }

  bool valid() const { return !heap_.empty(); }
  RowId head() const { return sources_[heap_.front()]->head(); }

  /// Advances every source whose head is below `bound`.
  Status SkipTo(RowId bound) {
    while (valid() && head() < bound) GHOSTDB_RETURN_NOT_OK(AdvanceTop());
    return Status::OK();
  }

  /// Advances every source whose head is at most `id`.
  Status SkipPast(RowId id) {
    while (valid() && head() <= id) GHOSTDB_RETURN_NOT_OK(AdvanceTop());
    return Status::OK();
  }

 private:
  /// Heap order: std's max-heap algorithms over "greater head" keep the
  /// smallest head on top.
  struct HeadGreater {
    const IdUnion* self;
    bool operator()(uint32_t a, uint32_t b) const {
      return self->sources_[a]->head() > self->sources_[b]->head();
    }
  };
  HeadGreater Order() const { return {this}; }

  Status AdvanceTop() {
    std::pop_heap(heap_.begin(), heap_.end(), Order());
    IdSource* top = sources_[heap_.back()].get();
    GHOSTDB_RETURN_NOT_OK(top->Advance());
    if (top->valid()) {
      std::push_heap(heap_.begin(), heap_.end(), Order());
    } else {
      heap_.pop_back();
    }
    return Status::OK();
  }

  std::vector<std::unique_ptr<IdSource>> sources_;
  std::vector<uint32_t> heap_;  ///< indices of sources with a head
};

/// The reduction's fattest-group allowance loop: while the groups' flash
/// streams exceed `stream_cap`, reduce the fattest group to the cap minus
/// every other group's streams (at least 1). Shared by the dry run and
/// the real reduction so both shrink the same groups to the same sizes.
Status ReduceFattestGroups(
    size_t group_count, size_t stream_cap,
    const std::function<size_t(size_t)>& streams,
    const std::function<Status(size_t, size_t)>& reduce) {
  while (true) {
    size_t total = 0;
    size_t fattest = 0;
    for (size_t gi = 0; gi < group_count; ++gi) {
      total += streams(gi);
      if (streams(gi) > streams(fattest)) fattest = gi;
    }
    if (total <= stream_cap) return Status::OK();
    size_t others = total - streams(fattest);
    size_t allowance = stream_cap > others + 1 ? stream_cap - others : 1;
    if (streams(fattest) <= allowance) {
      return Status::Internal("merge reduction made no progress");
    }
    GHOSTDB_RETURN_NOT_OK(reduce(fattest, allowance));
  }
}

/// The byte spans of a group's flash streams.
std::vector<StreamSpan> FlashSpans(const MergeGroup& group) {
  std::vector<StreamSpan> spans;
  for (const auto& [area, range] : group.sublists) {
    spans.push_back({uint64_t{range.start} * 4, uint64_t{range.count} * 4});
  }
  for (const auto& run : group.runs) spans.push_back({0, run.bytes});
  return spans;
}

/// Ids [begin, end) of one postings area.
struct AreaRange {
  const storage::RunRef* area;
  uint64_t begin;
  uint64_t end;
};

/// A group's sublists as plan C reads them: per postings area (in order of
/// first appearance), sorted by offset, with adjacent or overlapping ranges
/// coalesced, so a page segment several sublists share loads once.
std::vector<AreaRange> CoalescedSublists(const MergeGroup& group) {
  std::vector<const storage::RunRef*> areas;
  std::vector<std::pair<size_t, AreaRange>> ranges;
  for (const auto& [area, range] : group.sublists) {
    if (range.count == 0) continue;
    size_t rank = std::find(areas.begin(), areas.end(), area) - areas.begin();
    if (rank == areas.size()) areas.push_back(area);
    ranges.push_back({rank, {area, range.start,
                             uint64_t{range.start} + range.count}});
  }
  std::sort(ranges.begin(), ranges.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first < b.first
                              : a.second.begin < b.second.begin;
  });
  std::vector<AreaRange> out;
  for (const auto& [rank, r] : ranges) {
    if (!out.empty() && out.back().area == r.area &&
        r.begin <= out.back().end) {
      out.back().end = std::max(out.back().end, r.end);
    } else {
      out.push_back(r);
    }
  }
  return out;
}

/// The byte spans plan C reads for a group: its coalesced sublists and its
/// runs.
std::vector<StreamSpan> BitmapSpans(const MergeGroup& group) {
  std::vector<StreamSpan> spans;
  for (const AreaRange& r : CoalescedSublists(group)) {
    spans.push_back({r.begin * 4, (r.end - r.begin) * 4});
  }
  for (const auto& run : group.runs) spans.push_back({0, run.bytes});
  return spans;
}

}  // namespace

void MergeStats::Add(const MergeStats& other) {
  reduction_rounds += other.reduction_rounds;
  reduction_ids_written += other.reduction_ids_written;
  ids_emitted += other.ids_emitted;
  peak_streams = std::max(peak_streams, other.peak_streams);
  window_bytes = std::max(window_bytes, other.window_bytes);
  bitmap_groups += other.bitmap_groups;
}

MergeAlternative ChooseMergeAlternative(
    const flash::FlashConfig& flash, size_t buffers,
    const std::function<MergeReduction(size_t)>& reduce) {
  uint64_t page = flash.page_size;
  SimNanos rewrite = flash.read_page_latency + flash.write_page_latency +
                     2 * page * flash.byte_transfer_latency;
  MergeReduction full_plan = reduce(buffers);
  MergeAlternative full{buffers, 0,
                        full_plan.feasible
                            ? full_plan.pages_written * rewrite
                            : std::numeric_limits<SimNanos>::max()};
  if (full.cost == 0) return full;
  size_t window_cap = buffers * page / kMinSpillWindowBytes;
  MergeReduction window_plan = reduce(window_cap);
  // At or under one stream per buffer the windows are whole pages: plan B
  // is plan A.
  if (!window_plan.feasible || window_plan.streams.size() <= buffers) {
    return full;
  }
  uint64_t window =
      (buffers * page / window_plan.streams.size()) & ~uint64_t{3};
  uint64_t loads = 0;
  for (const StreamSpan& span : window_plan.streams) {
    loads += WindowLoads(span, window, page) - WindowLoads(span, page, page);
  }
  SimNanos window_cost = window_plan.pages_written * rewrite +
                         loads * flash.read_page_latency;
  if (window_cost < full.cost) {
    return {window_cap, static_cast<uint32_t>(window), window_cost};
  }
  return full;
}

Status MergeExec::ReduceGroup(MergeGroup* group, size_t target_streams) {
  stats_.reduction_rounds += 1;
  // Reduction runs created this round. Declared outside the body scope so
  // the error path below can hand survivors back to the group for
  // reclamation — a faulted reduction must not strand merge-tmp extents.
  std::vector<storage::RunRef> new_runs;
  Status status = [&]() -> Status {
  // Workspace: every free buffer minus one reader and one writer.
  uint32_t free = ram_->free_buffers();
  if (free < 3) {
    return Status::ResourceExhausted(
        "merge reduction needs at least 3 free buffers");
  }
  GHOSTDB_ASSIGN_OR_RETURN(device::RamGuard read_buf,
                           device::RamGuard::AcquireOne(ram_, "merge-reduce-read"));
  GHOSTDB_ASSIGN_OR_RETURN(device::RamGuard write_buf,
                           device::RamGuard::AcquireOne(ram_, "merge-reduce-write"));
  GHOSTDB_ASSIGN_OR_RETURN(
      device::RamGuard sort_area,
      device::RamGuard::Acquire(ram_, ram_->free_buffers(), "merge-reduce-sort"));
  size_t capacity_ids = sort_area.size() / 4;

  // Pass 1: stream every sublist and run of the group, chunk-sort-write.
  // (Ids are staged in the sort area, modeled host-side; the I/O below is
  // what the device would pay.)
  std::vector<RowId> staging;
  staging.reserve(capacity_ids);

  auto flush_staging = [&]() -> Status {
    if (staging.empty()) return Status::OK();
    std::sort(staging.begin(), staging.end());
    storage::RunWriter writer(device_, allocator_, write_buf.data(),
                              "merge-tmp");
    for (RowId id : staging) {
      GHOSTDB_RETURN_NOT_OK(writer.AppendU32(id));
    }
    GHOSTDB_ASSIGN_OR_RETURN(storage::RunRef run, writer.Finish());
    stats_.reduction_ids_written += staging.size();
    new_runs.push_back(std::move(run));
    staging.clear();
    return Status::OK();
  };

  auto drain_source = [&](IdSource* src) -> Status {
    GHOSTDB_RETURN_NOT_OK(src->Prime());
    while (src->valid()) {
      staging.push_back(src->head());
      if (staging.size() == capacity_ids) {
        GHOSTDB_RETURN_NOT_OK(flush_staging());
      }
      GHOSTDB_RETURN_NOT_OK(src->Advance());
    }
    return Status::OK();
  };

  for (const auto& [area, range] : group->sublists) {
    PostingIdSource src(device_, area, range, read_buf.data());
    GHOSTDB_RETURN_NOT_OK(drain_source(&src));
  }
  for (auto& run : group->runs) {
    RunIdSource src(device_, run, read_buf.data());
    GHOSTDB_RETURN_NOT_OK(drain_source(&src));
    GHOSTDB_RETURN_NOT_OK(storage::FreeRun(allocator_, run, "merge-tmp"));
    run = storage::RunRef{};  // freed: the error-path sweep must skip it
  }
  GHOSTDB_RETURN_NOT_OK(flush_staging());
  group->sublists.clear();
  group->runs.clear();

  // Pass 2+: k-way merge runs until few enough remain.
  uint32_t fan_in = ram_->free_buffers() + sort_area.buffer_count() - 1;
  sort_area.Release();  // reuse as per-run stream buffers below
  while (new_runs.size() > target_streams) {
    size_t take = std::min<size_t>(fan_in, new_runs.size());
    if (take < 2) {
      return Status::ResourceExhausted("merge reduction cannot make progress");
    }
    GHOSTDB_ASSIGN_OR_RETURN(
        device::RamGuard stream_bufs,
        device::RamGuard::Acquire(ram_, static_cast<uint32_t>(take), "merge-reduce-fanin"));
    std::vector<std::unique_ptr<IdSource>> sources;
    for (size_t i = 0; i < take; ++i) {
      sources.push_back(std::make_unique<RunIdSource>(
          device_, new_runs[i],
          stream_bufs.data() + i * ram_->buffer_size()));
    }
    IdUnion merged_ids;
    GHOSTDB_RETURN_NOT_OK(merged_ids.Init(std::move(sources)));
    storage::RunWriter writer(device_, allocator_, write_buf.data(),
                              "merge-tmp");
    while (merged_ids.valid()) {
      // Union-merge: emit the global min once.
      RowId min_id = merged_ids.head();
      GHOSTDB_RETURN_NOT_OK(writer.AppendU32(min_id));
      stats_.reduction_ids_written += 1;
      GHOSTDB_RETURN_NOT_OK(merged_ids.SkipPast(min_id));
    }
    GHOSTDB_ASSIGN_OR_RETURN(storage::RunRef merged, writer.Finish());
    new_runs.push_back(std::move(merged));  // owned before inputs are freed
    for (size_t i = 0; i < take; ++i) {
      GHOSTDB_RETURN_NOT_OK(
          storage::FreeRun(allocator_, new_runs[i], "merge-tmp"));
      new_runs[i] = storage::RunRef{};
    }
    new_runs.erase(new_runs.begin(),
                   new_runs.begin() + static_cast<long>(take));
  }
  group->runs = std::move(new_runs);
  return Status::OK();
  }();
  if (!status.ok()) {
    // Hand surviving reduction runs back to the group: Run()'s cleanup
    // sweep reclaims whatever is still attached there.
    for (auto& run : new_runs) {
      if (!run.extents.empty()) group->runs.push_back(std::move(run));
    }
  }
  return status;
}

MergeReduction MergeExec::ModelReduction(
    std::vector<std::vector<StreamSpan>> spans, size_t stream_cap) const {
  // ReduceGroup's I/O, replayed on stream sizes: pass 1 writes every id of
  // the group in sort-area chunks ((free - 2) buffers each); pass 2 merges
  // the first `fan_in` runs into one until the target is met.
  MergeReduction model;
  uint64_t page = device_->config().page_size;
  uint32_t free = ram_->free_buffers();
  auto reduce = [&](size_t gi, size_t target) -> Status {
    if (free < 3) return Status::ResourceExhausted("too few buffers");
    uint64_t bytes = 0;
    for (const StreamSpan& span : spans[gi]) bytes += span.bytes;
    uint64_t chunk = uint64_t{free - 2} * ram_->buffer_size() / 4 * 4;
    std::vector<uint64_t> runs;
    for (uint64_t done = 0; done < bytes; done += chunk) {
      runs.push_back(std::min(chunk, bytes - done));
    }
    auto write = [&](uint64_t run_bytes) {
      model.pages_written += (run_bytes + page - 1) / page;
    };
    for (uint64_t run : runs) write(run);
    size_t fan_in = free - 3;
    while (runs.size() > target) {
      size_t take = std::min(fan_in, runs.size());
      if (take < 2) return Status::ResourceExhausted("no progress");
      uint64_t merged = 0;
      for (size_t i = 0; i < take; ++i) merged += runs[i];
      write(merged);
      runs.erase(runs.begin(), runs.begin() + static_cast<long>(take));
      runs.push_back(merged);
    }
    spans[gi].clear();
    for (uint64_t run : runs) spans[gi].push_back({0, run});
    return Status::OK();
  };
  model.feasible =
      ReduceFattestGroups(
          spans.size(), stream_cap,
          [&](size_t gi) { return spans[gi].size(); }, reduce)
          .ok();
  for (const auto& group_spans : spans) {
    model.streams.insert(model.streams.end(), group_spans.begin(),
                         group_spans.end());
  }
  return model;
}

Status MergeExec::BuildBitmap(MergeGroup* group, uint64_t universe,
                              uint8_t* map, uint8_t* read_buf) {
  auto set = [&](RowId id) -> Status {
    if (id >= universe) {
      return Status::Internal("merge: an id lies outside its table's rows");
    }
    uint8_t* at = map + uint64_t{id} / 64 * 8;
    uint64_t word;
    std::memcpy(&word, at, 8);
    word |= uint64_t{1} << (id % 64);
    std::memcpy(at, &word, 8);
    return Status::OK();
  };
  // Each page segment of the coalesced sublists loads once; like
  // storage::PostingCursor, only the bytes in range are transferred.
  uint64_t ids_per_page = device_->config().page_size / 4;
  for (const AreaRange& r : CoalescedSublists(*group)) {
    for (uint64_t elem = r.begin; elem < r.end;) {
      uint64_t in_page = elem % ids_per_page;
      uint64_t count = std::min(r.end - elem, ids_per_page - in_page);
      GHOSTDB_RETURN_NOT_OK(device_->ReadPage(
          r.area->PageAt(static_cast<uint32_t>(elem / ids_per_page)),
          read_buf, static_cast<uint32_t>(in_page * 4),
          static_cast<uint32_t>(count * 4)));
      for (uint64_t i = 0; i < count; ++i) {
        GHOSTDB_RETURN_NOT_OK(set(DecodeFixed32(read_buf + i * 4)));
      }
      elem += count;
    }
  }
  group->sublists.clear();
  for (auto& run : group->runs) {
    RunIdSource src(device_, run, read_buf);
    GHOSTDB_RETURN_NOT_OK(src.Prime());
    while (src.valid()) {
      GHOSTDB_RETURN_NOT_OK(set(src.head()));
      GHOSTDB_RETURN_NOT_OK(src.Advance());
    }
    GHOSTDB_RETURN_NOT_OK(storage::FreeRun(allocator_, run, "merge-tmp"));
    run = storage::RunRef{};  // freed: Run()'s sweep must skip it
  }
  group->runs.clear();
  stats_.bitmap_groups += 1;
  return Status::OK();
}

Status MergeExec::StreamingMerge(
    std::vector<MergeGroup>& groups,
    std::vector<std::unique_ptr<IdSource>> maps,
    const std::function<Status(RowId)>& sink, uint32_t usable_buffers,
    uint32_t window_bytes) {
  size_t total_streams = 0;
  for (auto& g : groups) total_streams += g.FlashStreams();
  stats_.peak_streams =
      std::max<uint32_t>(stats_.peak_streams,
                         static_cast<uint32_t>(total_streams));
  stats_.window_bytes = window_bytes;

  // One full buffer per stream, or the usable buffers cut into windows.
  device::RamGuard stream_bufs;
  size_t slice = window_bytes == 0 ? ram_->buffer_size() : window_bytes;
  if (total_streams > 0) {
    uint32_t buffers = window_bytes == 0
                           ? static_cast<uint32_t>(total_streams)
                           : usable_buffers;
    GHOSTDB_ASSIGN_OR_RETURN(
        stream_bufs, device::RamGuard::Acquire(ram_, buffers, "merge-streams"));
  }
  size_t cursor = 0;
  auto next_window = [&]() {
    uint8_t* p = stream_bufs.data() + cursor;
    cursor += slice;
    return p;
  };
  std::vector<IdUnion> unions(groups.size());
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    auto& g = groups[gi];
    std::vector<std::unique_ptr<IdSource>> sources;
    if (maps[gi] != nullptr) sources.push_back(std::move(maps[gi]));
    for (const auto& [area, range] : g.sublists) {
      sources.push_back(std::make_unique<PostingIdSource>(
          device_, area, range, next_window(), window_bytes));
    }
    for (const auto& run : g.runs) {
      sources.push_back(std::make_unique<RunIdSource>(
          device_, run, next_window(), window_bytes));
    }
    if (g.has_ram_ids) {
      sources.push_back(
          std::make_unique<VectorIdSource>(std::move(g.ram_ids)));
    }
    if (g.has_iota) {
      sources.push_back(std::make_unique<IotaIdSource>(g.iota_n));
    }
    GHOSTDB_RETURN_NOT_OK(unions[gi].Init(std::move(sources)));
  }

  // Intersection of unions, streaming.
  while (true) {
    // Candidate: max over group minima; if any group is exhausted, done.
    RowId candidate = 0;
    for (const IdUnion& u : unions) {
      if (!u.valid()) return Status::OK();
      candidate = std::max(candidate, u.head());
    }
    // Advance every group to >= candidate; restart if any overshoots.
    bool aligned = true;
    for (size_t gi = 0; gi < unions.size() && aligned; ++gi) {
      GHOSTDB_RETURN_NOT_OK(unions[gi].SkipTo(candidate));
      if (!unions[gi].valid()) return Status::OK();
      if (unions[gi].head() > candidate) aligned = false;
    }
    if (!aligned) continue;
    GHOSTDB_RETURN_NOT_OK(sink(candidate));
    stats_.ids_emitted += 1;
    for (IdUnion& u : unions) GHOSTDB_RETURN_NOT_OK(u.SkipPast(candidate));
  }
}

Status MergeExec::Run(std::vector<MergeGroup> groups, uint64_t universe,
                      const std::function<Status(RowId)>& sink,
                      uint32_t reserve_buffers) {
  if (groups.empty()) return Status::OK();
  Status status = [&]() -> Status {
  if (ram_->free_buffers() <= reserve_buffers) {
    return Status::ResourceExhausted("merge has no usable RAM buffers");
  }
  uint32_t usable = ram_->free_buffers() - reserve_buffers;
  const flash::FlashConfig& flash = device_->config();

  // Plan C candidates: groups of two or more flash streams, fattest first.
  // Bitmapping the first k costs their coalesced page loads; the other
  // groups' streams take plan A or B on the buffers the maps leave, and
  // cost their own page loads plus that plan's rewrites and extra loads.
  std::vector<size_t> fattest;
  std::vector<std::vector<StreamSpan>> spans;
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    if (groups[gi].FlashStreams() >= 2) fattest.push_back(gi);
    spans.push_back(FlashSpans(groups[gi]));
  }
  std::stable_sort(fattest.begin(), fattest.end(), [&](size_t a, size_t b) {
    return groups[a].FlashStreams() > groups[b].FlashStreams();
  });
  uint64_t map_words = (universe + 63) / 64;
  uint64_t map_buffers =
      (map_words * 8 + ram_->buffer_size() - 1) / ram_->buffer_size();
  auto price = [&](size_t k, MergeAlternative* rest) {
    std::vector<std::vector<StreamSpan>> left = spans;
    uint64_t loads = 0;
    for (size_t i = 0; i < k; ++i) {
      left[fattest[i]].clear();
      loads += PageLoads(BitmapSpans(groups[fattest[i]]), flash.page_size);
    }
    for (const auto& group_spans : left) {
      loads += PageLoads(group_spans, flash.page_size);
    }
    *rest = ChooseMergeAlternative(
        flash, usable - k * map_buffers,
        [&](size_t cap) { return ModelReduction(left, cap); });
    if (rest->cost == std::numeric_limits<SimNanos>::max()) return rest->cost;
    return rest->cost + loads * flash.read_page_latency;
  };
  MergeAlternative plan;
  SimNanos best = price(0, &plan);
  size_t bitmapped = 0;
  for (size_t k = 1; universe > 0 && k <= fattest.size() &&
                     k * map_buffers + 1 <= usable;
       ++k) {
    MergeAlternative rest;
    SimNanos cost = price(k, &rest);
    if (cost < best) {
      best = cost;
      plan = rest;
      bitmapped = k;
    }
  }
  std::vector<bool> to_map(groups.size(), false);
  for (size_t i = 0; i < bitmapped; ++i) to_map[fattest[i]] = true;

  // Reductions first, with the maps' RAM still free (as priced).
  GHOSTDB_RETURN_NOT_OK(ReduceFattestGroups(
      groups.size(), plan.stream_cap,
      [&](size_t gi) { return to_map[gi] ? 0 : groups[gi].FlashStreams(); },
      [&](size_t gi, size_t allowance) {
        return ReduceGroup(&groups[gi], allowance);
      }));
  device::RamGuard map_ram;  // outlives the BitmapIdSources over it
  std::vector<std::unique_ptr<IdSource>> maps(groups.size());
  if (bitmapped > 0) {
    // The maps first, the read buffer after them: releasing it leaves the
    // free buffers contiguous for the streams.
    GHOSTDB_ASSIGN_OR_RETURN(
        map_ram, device::RamGuard::Acquire(
                     ram_, static_cast<uint32_t>(bitmapped * map_buffers),
                     "merge-bitmap"));
    GHOSTDB_ASSIGN_OR_RETURN(
        device::RamGuard read_buf,
        device::RamGuard::AcquireOne(ram_, "merge-bitmap-read"));
    std::memset(map_ram.data(), 0, map_ram.size());
    uint8_t* map = map_ram.data();
    for (size_t gi = 0; gi < groups.size(); ++gi) {
      if (!to_map[gi]) continue;
      GHOSTDB_RETURN_NOT_OK(
          BuildBitmap(&groups[gi], universe, map, read_buf.data()));
      maps[gi] = std::make_unique<BitmapIdSource>(map, map_words);
      map += map_buffers * ram_->buffer_size();
    }
  }
  return StreamingMerge(
      groups, std::move(maps), sink,
      usable - static_cast<uint32_t>(bitmapped * map_buffers),
      plan.window_bytes);
  }();

  // Consume input runs — reached on error paths too, so a faulted merge
  // reclaims every merge-tmp extent (reduction already freed and zeroed
  // what it replaced). The first error wins; the sweep always finishes.
  for (auto& g : groups) {
    for (auto& run : g.runs) {
      if (run.extents.empty()) continue;
      Status freed = storage::FreeRun(allocator_, run, "merge-tmp");
      if (status.ok() && !freed.ok()) status = std::move(freed);
    }
    g.runs.clear();
  }
  return status;
}

}  // namespace ghostdb::exec
