// 64-byte-aligned flat word buffer whose pages start zeroed WITHOUT an
// eager memset. Sketch arenas are large (hundreds of MB at bench scale) and
// two operations on them are hot:
//   - creating an empty clone of an existing sketch (every serving epoch
//     opens a fresh delta clone), and
//   - Clear() back to the empty-stream measurement.
// Backing large buffers with fresh anonymous mappings makes both lazy: the
// kernel hands out zero pages on first touch, so an untouched clone costs
// page-table entries instead of a full-arena write, and Clear() is an
// madvise instead of a memset. Copies are plain word copies (only tests
// and the testkit's peel-by-copy oracle copy an arena). Small buffers fall
// back to aligned_alloc + memset, which is cheaper than a syscall at that
// size.
#ifndef GMS_UTIL_ZEROED_BUFFER_H_
#define GMS_UTIL_ZEROED_BUFFER_H_

#include <cstddef>
#include <cstdint>

namespace gms {

class ZeroedBuffer {
 public:
  ZeroedBuffer() = default;
  /// A buffer of `words` uint64 cells, all zero (lazily for large sizes).
  explicit ZeroedBuffer(size_t words);
  ZeroedBuffer(const ZeroedBuffer& other);
  ZeroedBuffer(ZeroedBuffer&& other) noexcept;
  ZeroedBuffer& operator=(const ZeroedBuffer& other);
  ZeroedBuffer& operator=(ZeroedBuffer&& other) noexcept;
  ~ZeroedBuffer();

  uint64_t* data() { return data_; }
  const uint64_t* data() const { return data_; }
  size_t size() const { return words_; }
  bool empty() const { return words_ == 0; }

  /// Zero every word. On the mapped path this drops the physical pages
  /// (subsequent reads see kernel zero pages), so clearing an arena that
  /// was mostly untouched is O(1) in memory traffic.
  void Fill0() { Fill0(words_); }

  /// Zero the first `words` words (at most size()); the rest keep their
  /// contents. Whole pages of the prefix are dropped like Fill0(), the
  /// partial last page is overwritten -- so clearing a buffer written only
  /// at its front costs what was written, not what was mapped.
  void Fill0(size_t words);

  /// Word-wise content equality (sizes must match too).
  friend bool operator==(const ZeroedBuffer& a, const ZeroedBuffer& b);

 private:
  void Allocate(size_t words);
  void Release();

  uint64_t* data_ = nullptr;
  size_t words_ = 0;
  bool mapped_ = false;  // true: anonymous mmap; false: aligned_alloc
};

}  // namespace gms

#endif  // GMS_UTIL_ZEROED_BUFFER_H_
