#include "storage/page.h"

#include <cstring>
#include <new>

namespace lstore {

namespace {

/// True when every byte of `v` is the same (0 and ∅ are).
bool UniformBytes(Value v) {
  return v == (v & 0xff) * 0x0101010101010101ull;
}

}  // namespace

Page::Page(uint32_t capacity, Value fill)
    : capacity_(capacity),
      slots_(static_cast<std::atomic<Value>*>(
          ::operator new(sizeof(std::atomic<Value>) * capacity))) {
  // One pass over fresh memory: a tail page is written once before use.
  if (UniformBytes(fill)) {
    std::memset(static_cast<void*>(slots_.get()), static_cast<int>(fill & 0xff),
                sizeof(std::atomic<Value>) * capacity);
  } else {
    for (uint32_t i = 0; i < capacity; ++i) {
      new (&slots_[i]) std::atomic<Value>(fill);
    }
  }
}

}  // namespace lstore
