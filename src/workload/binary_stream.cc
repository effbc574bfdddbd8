#include "workload/binary_stream.h"

#include <cstdio>
#include <cstring>
#include <limits>

#include "util/check.h"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define GMS_WORKLOAD_HAS_MMAP 1
#endif

namespace gms {
namespace workload {

namespace {

uint32_t LoadU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

uint64_t LoadU64(const uint8_t* p) {
  return static_cast<uint64_t>(LoadU32(p)) |
         static_cast<uint64_t>(LoadU32(p + 4)) << 32;
}

void StoreU16(uint16_t v, std::vector<uint8_t>* out) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
}

void StoreU32(uint32_t v, std::vector<uint8_t>* out) {
  StoreU16(static_cast<uint16_t>(v), out);
  StoreU16(static_cast<uint16_t>(v >> 16), out);
}

void StoreU64(uint64_t v, std::vector<uint8_t>* out) {
  StoreU32(static_cast<uint32_t>(v), out);
  StoreU32(static_cast<uint32_t>(v >> 32), out);
}

Status Invalid(const char* what) {
  return Status::InvalidArgument(std::string("binary stream: ") + what);
}

}  // namespace

uint64_t BinaryStreamChecksum(std::span<const uint8_t> bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

Result<BinaryStreamHeader> ParseBinaryStreamHeader(
    std::span<const uint8_t> bytes, bool verify_checksum) {
  if (bytes.size() < kBinaryStreamHeaderBytes) {
    return Invalid("truncated header");
  }
  const uint8_t* p = bytes.data();
  if (LoadU32(p) != kBinaryStreamMagic) return Invalid("bad magic");
  const uint16_t version =
      static_cast<uint16_t>(p[4] | static_cast<uint16_t>(p[5]) << 8);
  if (version != kBinaryStreamVersion) return Invalid("unknown version");
  const uint16_t reserved =
      static_cast<uint16_t>(p[6] | static_cast<uint16_t>(p[7]) << 8);
  if (reserved != 0) return Invalid("nonzero reserved field");
  BinaryStreamHeader h;
  h.n = LoadU64(p + 8);
  h.max_rank = LoadU32(p + 16);
  h.record_bytes = LoadU32(p + 20);
  h.num_updates = LoadU64(p + 24);
  h.checksum = LoadU64(p + 32);
  if (h.max_rank < 2 || h.max_rank > kBinaryStreamMaxRank) {
    return Invalid("max_rank outside [2, 64]");
  }
  if (h.n < 2 || h.n > std::numeric_limits<VertexId>::max()) {
    return Invalid("vertex domain outside [2, 2^32)");
  }
  if (h.record_bytes != 1 + 4 * h.max_rank) {
    return Invalid("record_bytes inconsistent with max_rank");
  }
  // Overflow-safe size check: bound num_updates by the bytes actually
  // present before multiplying.
  const uint64_t body = bytes.size() - kBinaryStreamHeaderBytes;
  if (h.num_updates > body / h.record_bytes ||
      h.num_updates * h.record_bytes != body) {
    return Invalid("file size does not match num_updates");
  }
  if (verify_checksum &&
      BinaryStreamChecksum(bytes.subspan(kBinaryStreamHeaderBytes)) !=
          h.checksum) {
    return Invalid("record checksum mismatch");
  }
  return h;
}

Status DecodeBinaryStreamRecord(std::span<const uint8_t> record,
                                const BinaryStreamHeader& header,
                                StreamUpdate* out) {
  if (record.size() != header.record_bytes) {
    return Invalid("record truncated");
  }
  const uint8_t op = record[0];
  const size_t rank = op >> 1;
  if (rank < 2 || rank > header.max_rank) {
    return Invalid("record cardinality outside [2, max_rank]");
  }
  std::vector<VertexId> vs(rank);
  for (size_t i = 0; i < rank; ++i) {
    const uint32_t v = LoadU32(record.data() + 1 + 4 * i);
    if (v >= header.n) return Invalid("record vertex id >= n");
    if (i > 0 && v <= vs[i - 1]) {
      return Invalid("record ids not strictly increasing");
    }
    vs[i] = v;
  }
  for (size_t i = rank; i < header.max_rank; ++i) {
    if (LoadU32(record.data() + 1 + 4 * i) != 0) {
      return Invalid("nonzero padding slot");
    }
  }
  out->edge = Hyperedge(std::move(vs));
  out->delta = (op & 1) ? +1 : -1;
  return Status::OK();
}

std::vector<uint8_t> EncodeBinaryStream(
    size_t n, size_t max_rank, std::span<const StreamUpdate> updates) {
  GMS_CHECK_MSG(n >= 2 && n <= std::numeric_limits<VertexId>::max(),
                "EncodeBinaryStream: n outside [2, 2^32)");
  GMS_CHECK_MSG(max_rank >= 2 && max_rank <= kBinaryStreamMaxRank,
                "EncodeBinaryStream: max_rank outside [2, 64]");
  const uint32_t record_bytes = static_cast<uint32_t>(1 + 4 * max_rank);
  std::vector<uint8_t> out;
  out.reserve(kBinaryStreamHeaderBytes + updates.size() * record_bytes);
  StoreU32(kBinaryStreamMagic, &out);
  StoreU16(kBinaryStreamVersion, &out);
  StoreU16(0, &out);
  StoreU64(n, &out);
  StoreU32(static_cast<uint32_t>(max_rank), &out);
  StoreU32(record_bytes, &out);
  StoreU64(updates.size(), &out);
  StoreU64(0, &out);  // checksum, patched below
  for (const StreamUpdate& u : updates) {
    const size_t rank = u.edge.size();
    GMS_CHECK_MSG(rank >= 2 && rank <= max_rank,
                  "EncodeBinaryStream: edge cardinality exceeds max_rank");
    GMS_CHECK_MSG(u.delta == 1 || u.delta == -1,
                  "EncodeBinaryStream: delta must be +1 or -1");
    out.push_back(static_cast<uint8_t>((rank << 1) | (u.delta > 0 ? 1 : 0)));
    for (size_t i = 0; i < rank; ++i) {
      GMS_CHECK_MSG(u.edge[i] < n, "EncodeBinaryStream: vertex id >= n");
      StoreU32(u.edge[i], &out);
    }
    for (size_t i = rank; i < max_rank; ++i) StoreU32(0, &out);
  }
  const uint64_t checksum = BinaryStreamChecksum(
      std::span<const uint8_t>(out).subspan(kBinaryStreamHeaderBytes));
  for (size_t i = 0; i < 8; ++i) {
    out[32 + i] = static_cast<uint8_t>(checksum >> (8 * i));
  }
  return out;
}

Result<DynamicStream> DecodeBinaryStream(std::span<const uint8_t> bytes,
                                         BinaryStreamHeader* header) {
  auto h = ParseBinaryStreamHeader(bytes);
  if (!h.ok()) return h.status();
  std::vector<StreamUpdate> updates;
  updates.reserve(h->num_updates);
  const std::span<const uint8_t> body =
      bytes.subspan(kBinaryStreamHeaderBytes);
  for (uint64_t j = 0; j < h->num_updates; ++j) {
    StreamUpdate u;
    if (Status s = DecodeBinaryStreamRecord(
            body.subspan(j * h->record_bytes, h->record_bytes), *h, &u);
        !s.ok()) {
      return s;
    }
    updates.push_back(std::move(u));
  }
  if (header != nullptr) *header = *h;
  return DynamicStream(std::move(updates));
}

Status WriteBinaryStreamFile(const std::string& path, size_t n,
                             size_t max_rank,
                             std::span<const StreamUpdate> updates) {
  const std::vector<uint8_t> bytes = EncodeBinaryStream(n, max_rank, updates);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal("binary stream: cannot open '" + path +
                            "' for writing");
  }
  const size_t wrote = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (wrote != bytes.size() || !closed) {
    return Status::Internal("binary stream: short write to '" + path + "'");
  }
  return Status::OK();
}

Status WriteBinaryStreamFile(const std::string& path, size_t n,
                             size_t max_rank, const DynamicStream& stream) {
  return WriteBinaryStreamFile(
      path, n, max_rank, std::span<const StreamUpdate>(stream.updates()));
}

Result<BinaryFileStream> BinaryFileStream::Open(const std::string& path,
                                                bool verify_checksum) {
  BinaryFileStream out;
#ifdef GMS_WORKLOAD_HAS_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    struct stat st;
    if (::fstat(fd, &st) == 0 && st.st_size >= 0) {
      const size_t size = static_cast<size_t>(st.st_size);
      if (size == 0) {
        ::close(fd);
        return Status::InvalidArgument("binary stream: empty file '" + path +
                                       "'");
      }
      void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
      ::close(fd);
      if (map != MAP_FAILED) {
        out.data_ = static_cast<const uint8_t*>(map);
        out.size_ = size;
        out.mapped_ = true;
      }
    } else {
      ::close(fd);
    }
  }
#endif
  if (out.data_ == nullptr) {
    // Portable fallback (and the path mmap-less platforms always take):
    // read the file into heap memory. Same validation, same API.
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
      return Status::InvalidArgument("binary stream: cannot open '" + path +
                                     "'");
    }
    std::vector<uint8_t> buf;
    uint8_t chunk[1 << 16];
    size_t got;
    while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
      buf.insert(buf.end(), chunk, chunk + got);
    }
    std::fclose(f);
    uint8_t* owned = new uint8_t[buf.size()];
    std::memcpy(owned, buf.data(), buf.size());
    out.data_ = owned;
    out.size_ = buf.size();
    out.mapped_ = false;
  }
  auto header = ParseBinaryStreamHeader(
      std::span<const uint8_t>(out.data_, out.size_), verify_checksum);
  if (!header.ok()) return header.status();
  // Validate every record once up front so ReadRecord can decode without
  // a Status on the ingest hot path.
  const std::span<const uint8_t> body =
      std::span<const uint8_t>(out.data_, out.size_)
          .subspan(kBinaryStreamHeaderBytes);
  StreamUpdate scratch;
  for (uint64_t j = 0; j < header->num_updates; ++j) {
    if (Status s = DecodeBinaryStreamRecord(
            body.subspan(j * header->record_bytes, header->record_bytes),
            *header, &scratch);
        !s.ok()) {
      return s;
    }
  }
  out.header_ = *header;
  return out;
}

void BinaryFileStream::ReadRecord(uint64_t j, StreamUpdate* out) const {
  GMS_CHECK_MSG(j < header_.num_updates,
                "BinaryFileStream::ReadRecord: index out of range");
  const std::span<const uint8_t> record =
      records().subspan(j * header_.record_bytes, header_.record_bytes);
  // The whole record region was validated at Open; decode cannot fail.
  const Status s = DecodeBinaryStreamRecord(record, header_, out);
  GMS_CHECK_MSG(s.ok(), "BinaryFileStream: validated record failed to decode");
}

DynamicStream BinaryFileStream::ReadAll() const {
  std::vector<StreamUpdate> updates;
  updates.reserve(header_.num_updates);
  for (uint64_t j = 0; j < header_.num_updates; ++j) {
    StreamUpdate u;
    ReadRecord(j, &u);
    updates.push_back(std::move(u));
  }
  return DynamicStream(std::move(updates));
}

void BinaryFileStream::Steal(BinaryFileStream& other) {
  header_ = other.header_;
  data_ = other.data_;
  size_ = other.size_;
  mapped_ = other.mapped_;
  other.data_ = nullptr;
  other.size_ = 0;
  other.mapped_ = false;
}

void BinaryFileStream::Unmap() {
  if (data_ == nullptr) return;
#ifdef GMS_WORKLOAD_HAS_MMAP
  if (mapped_) {
    ::munmap(const_cast<uint8_t*>(data_), size_);
    data_ = nullptr;
    size_ = 0;
    return;
  }
#endif
  delete[] data_;
  data_ = nullptr;
  size_ = 0;
}

}  // namespace workload
}  // namespace gms
