#include "exec/row_run.h"

#include <algorithm>
#include <memory>
#include <numeric>

namespace ghostdb::exec {

RowComparator RowComparator::LeadingU32() {
  RowComparator cmp;
  cmp.leading_u32_ = true;
  return cmp;
}

RowComparator RowComparator::ByKeys(std::vector<Key> keys,
                                    uint32_t seq_offset) {
  RowComparator cmp;
  cmp.keys_ = std::move(keys);
  cmp.seq_offset_ = seq_offset;
  return cmp;
}

int RowComparator::CompareKeys(const uint8_t* a, const uint8_t* b) const {
  if (leading_u32_) {
    uint32_t ka = DecodeFixed32(a), kb = DecodeFixed32(b);
    return ka < kb ? -1 : ka > kb ? 1 : 0;
  }
  for (const Key& key : keys_) {
    int cmp = catalog::CompareEncoded(key.type, key.width, a + key.offset,
                                      b + key.offset);
    if (cmp != 0) return key.descending ? -cmp : cmp;
  }
  return 0;
}

int RowComparator::Compare(const uint8_t* a, const uint8_t* b) const {
  int cmp = CompareKeys(a, b);
  if (cmp != 0 || seq_offset_ == kNoSeq) return cmp;
  uint32_t sa = DecodeFixed32(a + seq_offset_);
  uint32_t sb = DecodeFixed32(b + seq_offset_);
  return sa < sb ? -1 : sa > sb ? 1 : 0;
}

Status RowRunMerger::Add(std::unique_ptr<RowRunReader> reader) {
  GHOSTDB_RETURN_NOT_OK(reader->Prime());
  auto index = static_cast<uint32_t>(readers_.size());
  bool valid = reader->valid();
  readers_.push_back(std::move(reader));
  if (!valid) return Status::OK();
  // Sift the new input up.
  size_t pos = heap_.size();
  heap_.push_back(index);
  while (pos > 0) {
    size_t parent = (pos - 1) / 2;
    if (!Less(heap_[pos], heap_[parent])) break;
    std::swap(heap_[pos], heap_[parent]);
    pos = parent;
  }
  return Status::OK();
}

Status RowRunMerger::Pop() {
  RowRunReader* reader = readers_[heap_.front()].get();
  GHOSTDB_RETURN_NOT_OK(reader->Advance());
  if (!reader->valid()) {
    heap_.front() = heap_.back();
    heap_.pop_back();
  }
  SiftDown(0);
  return Status::OK();
}

bool RowRunMerger::Less(uint32_t a, uint32_t b) const {
  int cmp = cmp_->Compare(readers_[a]->row(), readers_[b]->row());
  return cmp != 0 ? cmp < 0 : a < b;
}

void RowRunMerger::SiftDown(size_t pos) {
  size_t n = heap_.size();
  while (true) {
    size_t least = 2 * pos + 1;
    if (least >= n) return;
    if (least + 1 < n && Less(heap_[least + 1], heap_[least])) least += 1;
    if (!Less(heap_[least], heap_[pos])) return;
    std::swap(heap_[pos], heap_[least]);
    pos = least;
  }
}

std::vector<size_t> PickMergeDownRuns(const std::vector<uint64_t>& pages,
                                      size_t target_count,
                                      uint32_t free_buffers) {
  // Cost-chosen merge width: one round merging `take` runs into one
  // shrinks the count by take - 1, so merging more than (excess + 1)
  // runs rewrites pages that could have streamed straight into the final
  // fan-in merge. Take exactly what reaching target_count needs (capped
  // by the reader buffers available), and take the *smallest* runs so
  // the rewritten page count per round is minimal. The selection depends
  // only on run page counts already on this device's flash — never on
  // row values — so the merge structure stays deterministic and off the
  // channel.
  size_t excess = pages.size() - target_count;
  size_t take = std::min<size_t>(free_buffers - 1, excess + 1);
  std::vector<size_t> order(pages.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return pages[a] < pages[b]; });
  std::vector<size_t> picked(order.begin(),
                             order.begin() + static_cast<long>(take));
  std::sort(picked.begin(), picked.end());
  return picked;
}

Status MergeRowRunsBy(flash::FlashDevice* device, device::RamManager* ram,
                      storage::PageAllocator* allocator,
                      std::vector<storage::RunRef>* runs, uint32_t width,
                      size_t target_count, const std::string& tag,
                      const RowComparator& cmp, bool drop_key_duplicates,
                      SpillStats* stats) {
  std::vector<uint8_t> last_emitted;
  while (runs->size() > target_count) {
    uint32_t free = ram->free_buffers();
    if (free < 3) {
      return Status::ResourceExhausted("row-run merge needs 3 buffers");
    }
    std::vector<uint64_t> pages;
    for (const storage::RunRef& run : *runs) pages.push_back(run.page_count());
    std::vector<size_t> picked = PickMergeDownRuns(pages, target_count, free);
    size_t take = picked.size();
    GHOSTDB_ASSIGN_OR_RETURN(
        device::RamGuard bufs,
        device::RamGuard::Acquire(ram, static_cast<uint32_t>(take) + 1, "rowrun-merge"));
    RowRunMerger merger(&cmp);
    for (size_t i = 0; i < take; ++i) {
      GHOSTDB_RETURN_NOT_OK(merger.Add(std::make_unique<RowRunReader>(
          device, (*runs)[picked[i]], width,
          bufs.data() + i * ram->buffer_size())));
    }
    storage::RunWriter writer(device, allocator,
                              bufs.data() + take * ram->buffer_size(), tag);
    bool emitted_any = false;
    last_emitted.clear();
    while (!merger.done()) {
      const uint8_t* row = merger.top();
      // Under total order the earliest-arrived of a duplicate group pops
      // first, so dropping later key-equal rows keeps the first occurrence.
      bool duplicate = drop_key_duplicates && emitted_any &&
                       cmp.CompareKeys(row, last_emitted.data()) == 0;
      if (!duplicate) {
        GHOSTDB_RETURN_NOT_OK(writer.Append(row, width));
        if (drop_key_duplicates) {
          last_emitted.assign(row, row + width);
          emitted_any = true;
        }
      }
      GHOSTDB_RETURN_NOT_OK(merger.Pop());
    }
    GHOSTDB_ASSIGN_OR_RETURN(storage::RunRef merged, writer.Finish());
    if (stats != nullptr) {
      stats->runs_written += 1;
      stats->pages_written += merged.page_count();
      stats->merge_pages_written += merged.page_count();
    }
    for (size_t i = take; i-- > 0;) {
      GHOSTDB_RETURN_NOT_OK(storage::FreeRun(allocator, (*runs)[picked[i]],
                                             tag));
      runs->erase(runs->begin() + static_cast<long>(picked[i]));
    }
    runs->push_back(std::move(merged));
  }
  return Status::OK();
}

}  // namespace ghostdb::exec
