#include "storage/tail_segment.h"

namespace lstore {

LazyPageList::~LazyPageList() {
  Dir* d = dir_.load(std::memory_order_acquire);
  if (d != nullptr) {
    for (uint32_t i = 0; i < d->capacity; ++i) {
      delete d->pages[i].load(std::memory_order_relaxed);
    }
  }
  // Directories themselves are owned by live_keeper_/graveyard_.
}

Page* LazyPageList::GetPage(uint32_t idx) const {
  Dir* d = dir_.load(std::memory_order_acquire);
  if (d == nullptr || idx >= d->capacity) return nullptr;
  return d->pages[idx].load(std::memory_order_acquire);
}

Page* LazyPageList::EnsurePage(uint32_t idx, uint32_t slots, Value fill) {
  Page* p = GetPage(idx);
  if (p != nullptr) return p;

  SpinGuard g(grow_latch_);
  Dir* d = dir_.load(std::memory_order_acquire);
  if (d == nullptr || idx >= d->capacity) {
    uint32_t new_cap = d == nullptr ? 8 : d->capacity;
    while (new_cap <= idx) new_cap *= 2;
    auto nd = std::make_unique<Dir>(new_cap);
    if (d != nullptr) {
      for (uint32_t i = 0; i < d->capacity; ++i) {
        nd->pages[i].store(d->pages[i].load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
      }
      // Old directory stays readable for concurrent readers; retire it
      // to the graveyard (freed with the segment).
      for (auto it = live_keeper_.begin(); it != live_keeper_.end(); ++it) {
        if (it->get() == d) {
          graveyard_.push_back(std::move(*it));
          live_keeper_.erase(it);
          break;
        }
      }
    }
    d = nd.get();
    live_keeper_.push_back(std::move(nd));
    dir_.store(d, std::memory_order_release);
  }
  p = d->pages[idx].load(std::memory_order_acquire);
  if (p == nullptr) {
    p = new Page(slots, fill);
    d->pages[idx].store(p, std::memory_order_release);
  }
  return p;
}

size_t LazyPageList::allocated_pages() const {
  Dir* d = dir_.load(std::memory_order_acquire);
  if (d == nullptr) return 0;
  size_t n = 0;
  for (uint32_t i = 0; i < d->capacity; ++i) {
    if (d->pages[i].load(std::memory_order_relaxed) != nullptr) ++n;
  }
  return n;
}

void LazyPageList::DropPagesBelow(uint32_t first_kept) {
  SpinGuard g(grow_latch_);
  Dir* d = dir_.load(std::memory_order_acquire);
  if (d == nullptr) return;
  uint32_t bound = first_kept < d->capacity ? first_kept : d->capacity;
  for (uint32_t i = 0; i < bound; ++i) {
    Page* p = d->pages[i].load(std::memory_order_relaxed);
    if (p != nullptr) {
      d->pages[i].store(nullptr, std::memory_order_release);
      delete p;
    }
  }
}

TailSegment::TailSegment(uint32_t num_data_columns, uint32_t page_slots)
    : num_data_columns_(num_data_columns),
      page_slots_(page_slots),
      columns_(kTailMetaColumns + num_data_columns) {}

void TailSegment::Write(uint32_t seq, uint32_t col, Value v) {
  EnsurePageOf(seq, col)->Set(SlotInPage(seq), v);
}

Value TailSegment::Read(uint32_t seq, uint32_t col) const {
  Page* p = PageOf(seq, col);
  if (p == nullptr) return kNull;
  return p->Get(SlotInPage(seq));
}

std::atomic<Value>* TailSegment::StartTimeSlot(uint32_t seq) {
  return &EnsurePageOf(seq, kTailStartTime)->AtomicSlot(SlotInPage(seq));
}

size_t TailSegment::allocated_pages() const {
  size_t n = 0;
  for (const auto& c : columns_) n += c.allocated_pages();
  return n;
}

void TailSegment::DropRecordsBelow(uint32_t first_kept_seq) {
  if (first_kept_seq <= 1) return;
  uint32_t first_kept_page = (first_kept_seq - 1) / page_slots_;
  for (auto& c : columns_) c.DropPagesBelow(first_kept_page);
}

}  // namespace lstore
