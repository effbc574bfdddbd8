#include "util/zeroed_buffer.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#include "util/check.h"

namespace gms {

namespace {

// Below this size a syscall-backed mapping costs more than the memset it
// saves; above it, lazy zero pages win (and the region is large enough for
// transparent huge pages to matter).
constexpr size_t kMapThresholdBytes = size_t{1} << 20;

constexpr size_t kAlign = 64;  // one cache line

constexpr size_t kPageWords = 4096 / sizeof(uint64_t);

}  // namespace

void ZeroedBuffer::Allocate(size_t words) {
  words_ = words;
  if (words == 0) {
    data_ = nullptr;
    mapped_ = false;
    return;
  }
  const size_t bytes = words * sizeof(uint64_t);
#if defined(__linux__)
  if (bytes >= kMapThresholdBytes) {
    void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p != MAP_FAILED) {
      // Random-offset sketch updates pay a TLB walk per touch with 4 KiB
      // pages; 2 MiB pages keep the arena's translations resident.
#if defined(MADV_HUGEPAGE)
      madvise(p, bytes, MADV_HUGEPAGE);
#endif
      data_ = static_cast<uint64_t*>(p);
      mapped_ = true;
      return;
    }
    // mmap refused (e.g. overcommit limits): fall through to the heap.
  }
#endif
  const size_t padded = (bytes + kAlign - 1) & ~(kAlign - 1);
  void* p = std::aligned_alloc(kAlign, padded);
  GMS_CHECK_MSG(p != nullptr, "ZeroedBuffer: allocation failed");
  std::memset(p, 0, padded);
  data_ = static_cast<uint64_t*>(p);
  mapped_ = false;
}

void ZeroedBuffer::Release() {
  if (data_ == nullptr) return;
#if defined(__linux__)
  if (mapped_) {
    munmap(data_, words_ * sizeof(uint64_t));
  } else {
    std::free(data_);
  }
#else
  std::free(data_);
#endif
  data_ = nullptr;
  words_ = 0;
  mapped_ = false;
}

ZeroedBuffer::ZeroedBuffer(size_t words) { Allocate(words); }

ZeroedBuffer::ZeroedBuffer(const ZeroedBuffer& other) {
  Allocate(other.words_);
  if (words_ == 0) return;
  if (!mapped_) {
    std::memcpy(data_, other.data_, words_ * sizeof(uint64_t));
    return;
  }
  // A fresh mapping already reads as zero: copy only the source pages that
  // hold a nonzero word, so a copy of a mostly-untouched arena stays lazy
  // (no page of the copy is written, none enters the resident set).
  for (size_t page = 0; page < words_; page += kPageWords) {
    const size_t len = std::min(kPageWords, words_ - page);
    const uint64_t* src = other.data_ + page;
    if (std::any_of(src, src + len, [](uint64_t w) { return w != 0; })) {
      std::memcpy(data_ + page, src, len * sizeof(uint64_t));
    }
  }
}

ZeroedBuffer::ZeroedBuffer(ZeroedBuffer&& other) noexcept
    : data_(other.data_), words_(other.words_), mapped_(other.mapped_) {
  other.data_ = nullptr;
  other.words_ = 0;
  other.mapped_ = false;
}

ZeroedBuffer& ZeroedBuffer::operator=(const ZeroedBuffer& other) {
  if (this == &other) return *this;
  // A new allocation copies like the copy constructor (nonzero pages only
  // when mapped); a same-size buffer may hold stale words, so it is
  // overwritten in full.
  if (words_ != other.words_) return *this = ZeroedBuffer(other);
  if (words_ > 0) std::memcpy(data_, other.data_, words_ * sizeof(uint64_t));
  return *this;
}

ZeroedBuffer& ZeroedBuffer::operator=(ZeroedBuffer&& other) noexcept {
  if (this == &other) return *this;
  Release();
  data_ = other.data_;
  words_ = other.words_;
  mapped_ = other.mapped_;
  other.data_ = nullptr;
  other.words_ = 0;
  other.mapped_ = false;
  return *this;
}

ZeroedBuffer::~ZeroedBuffer() { Release(); }

void ZeroedBuffer::Fill0() {
  if (words_ == 0) return;
#if defined(__linux__) && defined(MADV_DONTNEED)
  if (mapped_) {
    // Dropping the pages of a private anonymous mapping re-zeros them
    // lazily; fall back to memset if the kernel refuses.
    if (madvise(data_, words_ * sizeof(uint64_t), MADV_DONTNEED) == 0) return;
  }
#endif
  std::memset(data_, 0, words_ * sizeof(uint64_t));
}

bool operator==(const ZeroedBuffer& a, const ZeroedBuffer& b) {
  if (a.words_ != b.words_) return false;
  if (a.words_ == 0) return true;
  return std::memcmp(a.data_, b.data_, a.words_ * sizeof(uint64_t)) == 0;
}

}  // namespace gms
