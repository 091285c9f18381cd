// Per-call temporary array: inline storage for small batches, one heap
// allocation beyond. Batched operations size their temporary arrays
// by the batch, so single-row calls stay allocation-free.

#ifndef LSTORE_COMMON_INLINE_BUFFER_H_
#define LSTORE_COMMON_INLINE_BUFFER_H_

#include <cstddef>
#include <memory>

namespace lstore {

/// `n` uninitialized elements of trivially constructible `T`.
template <typename T, size_t kInline = 256>
class InlineBuffer {
 public:
  explicit InlineBuffer(size_t n)
      : heap_(n > kInline ? new T[n] : nullptr),
        data_(heap_ ? heap_.get() : inline_) {}
  InlineBuffer(const InlineBuffer&) = delete;
  InlineBuffer& operator=(const InlineBuffer&) = delete;

  T* data() { return data_; }
  T& operator[](size_t i) { return data_[i]; }

 private:
  T inline_[kInline];
  std::unique_ptr<T[]> heap_;
  T* data_;
};

}  // namespace lstore

#endif  // LSTORE_COMMON_INLINE_BUFFER_H_
