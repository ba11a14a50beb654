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
  uint64_t sa = DecodeFixed64(a + seq_offset_);
  uint64_t sb = DecodeFixed64(b + seq_offset_);
  return sa < sb ? -1 : sa > sb ? 1 : 0;
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
    // Cost-chosen merge width: one round merging `take` runs into one
    // shrinks the count by take - 1, so merging more than (excess + 1)
    // runs rewrites pages that could have streamed straight into the final
    // fan-in merge. Take exactly what reaching target_count needs (capped
    // by the reader buffers available), and take the *smallest* runs so
    // the rewritten page count per round is minimal. The selection depends
    // only on run page counts already on this device's flash — never on
    // row values — so the merge structure stays deterministic and off the
    // channel.
    size_t excess = runs->size() - target_count;
    size_t take = std::min<size_t>(free - 1, excess + 1);
    std::vector<size_t> order(runs->size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return (*runs)[a].page_count() < (*runs)[b].page_count();
    });
    std::vector<size_t> picked(order.begin(),
                               order.begin() + static_cast<long>(take));
    std::sort(picked.begin(), picked.end());
    GHOSTDB_ASSIGN_OR_RETURN(
        device::RamGuard bufs,
        device::RamGuard::Acquire(ram, static_cast<uint32_t>(take) + 1, "rowrun-merge"));
    std::vector<std::unique_ptr<RowRunReader>> readers;
    for (size_t i = 0; i < take; ++i) {
      readers.push_back(std::make_unique<RowRunReader>(
          device, (*runs)[picked[i]], width,
          bufs.data() + i * ram->buffer_size()));
      GHOSTDB_RETURN_NOT_OK(readers.back()->Prime());
    }
    storage::RunWriter writer(device, allocator,
                              bufs.data() + take * ram->buffer_size(), tag);
    bool emitted_any = false;
    last_emitted.clear();
    while (true) {
      RowRunReader* best = nullptr;
      for (auto& r : readers) {
        if (r->valid() &&
            (best == nullptr || cmp.Compare(r->row(), best->row()) < 0)) {
          best = r.get();
        }
      }
      if (best == nullptr) break;
      // Under total order the earliest-arrived of a duplicate group pops
      // first, so dropping later key-equal rows keeps the first occurrence.
      bool duplicate = drop_key_duplicates && emitted_any &&
                       cmp.CompareKeys(best->row(), last_emitted.data()) == 0;
      if (!duplicate) {
        GHOSTDB_RETURN_NOT_OK(writer.Append(best->row(), width));
        if (drop_key_duplicates) {
          last_emitted.assign(best->row(), best->row() + width);
          emitted_any = true;
        }
      }
      GHOSTDB_RETURN_NOT_OK(best->Advance());
    }
    GHOSTDB_ASSIGN_OR_RETURN(storage::RunRef merged, writer.Finish());
    if (stats != nullptr) {
      stats->runs_written += 1;
      stats->pages_written += merged.page_count();
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
