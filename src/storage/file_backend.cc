// O_DIRECT is a GNU extension; request it before the first system header.
#ifndef _GNU_SOURCE
#define _GNU_SOURCE
#endif

#include "storage/file_backend.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/crc32c.h"
#include "util/check.h"

namespace dsf {
namespace {

constexpr int64_t kAlign = 4096;
constexpr int64_t kSlotHeaderBytes = 16;   // {count u64, crc u32, reserved u32}
constexpr int64_t kRecordBytes = 16;       // {key u64, value u64}
static_assert(static_cast<int64_t>(sizeof(Record)) == kRecordBytes &&
                  offsetof(Record, key) == 0 && offsetof(Record, value) == 8 &&
                  std::is_trivially_copyable_v<Record>,
              "slot bodies are copied to and from Record arrays as bytes");
constexpr int64_t kSuperblockBytes = 4096;
constexpr char kMagic[8] = {'D', 'S', 'F', 'S', 'U', 'P', 'E', 'R'};

int64_t AlignUp(int64_t n, int64_t a) { return (n + a - 1) / a * a; }

std::string IdxPath(const std::string& dir) { return dir + "/dsf.idx"; }
std::string DatPath(const std::string& dir) { return dir + "/dsf.dat"; }

Status ErrnoError(const std::string& op, const std::string& path) {
  return Status::IoError(op + " " + path + ": " + std::strerror(errno));
}

// Superblock field offsets inside the 4096-byte block. Fixed-width
// little-fuss layout: values are memcpy'd host-endian (the file pair is
// not a portable interchange format; it is reopened by the process
// family that wrote it).
constexpr size_t kOffMagic = 0;
constexpr size_t kOffVersion = 8;
constexpr size_t kOffFlags = 12;
constexpr size_t kOffNumPages = 16;
constexpr size_t kOffPageCapacity = 24;
constexpr size_t kOffSlotBytes = 32;
constexpr size_t kOffRecordBytes = 40;
constexpr size_t kOffCrc = 44;
constexpr size_t kSuperblockCovered = kOffCrc;  // CRC covers [0, kOffCrc)

void PutU32(unsigned char* b, size_t off, uint32_t v) {
  std::memcpy(b + off, &v, sizeof(v));
}
void PutU64(unsigned char* b, size_t off, uint64_t v) {
  std::memcpy(b + off, &v, sizeof(v));
}
uint32_t GetU32(const unsigned char* b, size_t off) {
  uint32_t v;
  std::memcpy(&v, b + off, sizeof(v));
  return v;
}
uint64_t GetU64(const unsigned char* b, size_t off) {
  uint64_t v;
  std::memcpy(&v, b + off, sizeof(v));
  return v;
}

void FillSuperblock(unsigned char* block, uint32_t version, int64_t num_pages,
                    int64_t page_capacity, int64_t slot_bytes) {
  std::memset(block, 0, kSuperblockBytes);
  std::memcpy(block + kOffMagic, kMagic, sizeof(kMagic));
  PutU32(block, kOffVersion, version);
  PutU32(block, kOffFlags, 0);
  PutU64(block, kOffNumPages, static_cast<uint64_t>(num_pages));
  PutU64(block, kOffPageCapacity, static_cast<uint64_t>(page_capacity));
  PutU64(block, kOffSlotBytes, static_cast<uint64_t>(slot_bytes));
  PutU32(block, kOffRecordBytes, static_cast<uint32_t>(kRecordBytes));
  PutU32(block, kOffCrc, Crc32c(block, kSuperblockCovered));
}

// Full-length positioned read/write; retries short transfers and EINTR
// (regular files only short-transfer at EOF, but be strict).
Status PreadFully(int fd, unsigned char* buf, int64_t n, int64_t offset,
                  const std::string& path) {
  int64_t done = 0;
  while (done < n) {
    ssize_t r = ::pread(fd, buf + done, static_cast<size_t>(n - done),
                        static_cast<off_t>(offset + done));
    if (r < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("pread", path);
    }
    if (r == 0) {
      return Status::IoError("pread " + path + ": short read (" +
                             std::to_string(done) + "/" + std::to_string(n) +
                             " bytes at offset " + std::to_string(offset) +
                             ")");
    }
    done += r;
  }
  return Status::OK();
}

Status PwriteFully(int fd, const unsigned char* buf, int64_t n, int64_t offset,
                   const std::string& path) {
  int64_t done = 0;
  while (done < n) {
    ssize_t r = ::pwrite(fd, buf + done, static_cast<size_t>(n - done),
                         static_cast<off_t>(offset + done));
    if (r < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("pwrite", path);
    }
    done += r;
  }
  return Status::OK();
}

unsigned char* AllocAligned(int64_t n) {
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<size_t>(kAlign),
                     static_cast<size_t>(n)) != 0) {
    return nullptr;
  }
  return static_cast<unsigned char*>(p);
}

// Per-thread read scratch, sized on demand and freed at thread exit.
// ReadPage runs concurrently under shared-lock readers; a thread_local
// keeps it allocation-free on the steady path without a lock.
unsigned char* ThreadReadBuf(int64_t n) {
  struct Buffer {
    unsigned char* data = nullptr;
    int64_t capacity = 0;
    ~Buffer() { std::free(data); }
  };
  thread_local Buffer buf;
  if (buf.capacity < n) {
    std::free(buf.data);
    buf.data = AllocAligned(n);
    buf.capacity = buf.data != nullptr ? n : 0;
  }
  return buf.data;
}

// Per-thread record buffer that DeserializeSlot decodes a slot body into
// before validating it and handing it to the page.
std::vector<Record>& ThreadDecodeBuf() {
  thread_local std::vector<Record> records;
  return records;
}

// Opens the data file, attempting O_DIRECT when asked and falling back
// to buffered I/O where the filesystem refuses it (tmpfs: EINVAL).
StatusOr<std::pair<int, bool>> OpenDataFd(const std::string& path,
                                          bool want_direct, bool create) {
  int base_flags = O_RDWR | O_CLOEXEC | (create ? O_CREAT | O_TRUNC : 0);
#ifdef O_DIRECT
  if (want_direct) {
    int fd = ::open(path.c_str(), base_flags | O_DIRECT, 0644);
    if (fd >= 0) return std::make_pair(fd, true);
    if (errno != EINVAL && errno != EOPNOTSUPP) {
      return ErrnoError("open", path);
    }
  }
#else
  (void)want_direct;  // platform without O_DIRECT: always buffered
#endif
  int fd = ::open(path.c_str(), base_flags, 0644);
  if (fd < 0) return ErrnoError("open", path);
  return std::make_pair(fd, false);
}

}  // namespace

void FileBackend::AlignedDeleter::operator()(unsigned char* p) const {
  std::free(p);
}

FileBackend::FileBackend(Options options, int64_t num_pages,
                         int64_t page_capacity, int64_t slot_bytes,
                         int data_fd, bool direct_active)
    : options_(std::move(options)),
      num_pages_(num_pages),
      page_capacity_(page_capacity),
      slot_bytes_(slot_bytes),
      data_fd_(data_fd),
      direct_active_(direct_active),
      write_buf_(AllocAligned(slot_bytes)) {
  DSF_CHECK(write_buf_ != nullptr) << "slot buffer allocation failed";
}

FileBackend::~FileBackend() {
  if (data_fd_ >= 0) ::close(data_fd_);
}

StatusOr<std::unique_ptr<FileBackend>> FileBackend::Create(
    const Options& options, int64_t num_pages, int64_t page_capacity) {
  if (num_pages < 1 || page_capacity < 1) {
    return Status::InvalidArgument("FileBackend geometry must be positive");
  }
  const int64_t slot_bytes =
      AlignUp(kSlotHeaderBytes + page_capacity * kRecordBytes, kAlign);

  // Index file: superblock, written and fsynced before any data page so
  // a crash between the two leaves an openable (empty) pair.
  const std::string idx = IdxPath(options.directory);
  int idx_fd = ::open(idx.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC,
                      0644);
  if (idx_fd < 0) return ErrnoError("open", idx);
  {
    unsigned char block[kSuperblockBytes];
    FillSuperblock(block, kFormatVersion, num_pages, page_capacity,
                   slot_bytes);
    Status s = PwriteFully(idx_fd, block, kSuperblockBytes, 0, idx);
    if (s.ok() && ::fdatasync(idx_fd) != 0) s = ErrnoError("fdatasync", idx);
    ::close(idx_fd);
    DSF_RETURN_IF_ERROR(s);
  }

  const std::string dat = DatPath(options.directory);
  auto fd_or = OpenDataFd(dat, options.direct_io, /*create=*/true);
  DSF_RETURN_IF_ERROR(fd_or.status());
  auto [fd, direct] = fd_or.value();
  // Size the file up front; the hole reads back as zeros, which the
  // slot format defines as the valid empty page.
  if (::ftruncate(fd, static_cast<off_t>(num_pages * slot_bytes)) != 0) {
    Status s = ErrnoError("ftruncate", dat);
    ::close(fd);
    return s;
  }
  return std::unique_ptr<FileBackend>(new FileBackend(
      options, num_pages, page_capacity, slot_bytes, fd, direct));
}

StatusOr<std::unique_ptr<FileBackend>> FileBackend::Open(
    const Options& options) {
  const std::string idx = IdxPath(options.directory);
  int idx_fd = ::open(idx.c_str(), O_RDONLY | O_CLOEXEC);
  if (idx_fd < 0) return ErrnoError("open", idx);
  unsigned char block[kSuperblockBytes];
  Status s = PreadFully(idx_fd, block, kSuperblockBytes, 0, idx);
  ::close(idx_fd);
  DSF_RETURN_IF_ERROR(s);

  if (std::memcmp(block + kOffMagic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(idx + ": not a dsf index file (bad magic)");
  }
  const uint32_t stored_crc = GetU32(block, kOffCrc);
  const uint32_t actual_crc = Crc32c(block, kSuperblockCovered);
  if (stored_crc != actual_crc) {
    return Status::IoError(idx + ": superblock checksum mismatch");
  }
  const uint32_t version = GetU32(block, kOffVersion);
  if (version != kFormatVersion) {
    return Status::FailedPrecondition(
        idx + ": format version " + std::to_string(version) +
        " (this build reads version " + std::to_string(kFormatVersion) + ")");
  }
  const int64_t num_pages = static_cast<int64_t>(GetU64(block, kOffNumPages));
  const int64_t page_capacity =
      static_cast<int64_t>(GetU64(block, kOffPageCapacity));
  const int64_t slot_bytes = static_cast<int64_t>(GetU64(block, kOffSlotBytes));
  const int64_t record_bytes =
      static_cast<int64_t>(GetU32(block, kOffRecordBytes));
  if (num_pages < 1 || page_capacity < 1 || record_bytes != kRecordBytes ||
      slot_bytes !=
          AlignUp(kSlotHeaderBytes + page_capacity * kRecordBytes, kAlign)) {
    return Status::IoError(idx + ": superblock geometry is inconsistent");
  }

  const std::string dat = DatPath(options.directory);
  auto fd_or = OpenDataFd(dat, options.direct_io, /*create=*/false);
  DSF_RETURN_IF_ERROR(fd_or.status());
  auto [fd, direct] = fd_or.value();
  // A crash can leave the file short of its ftruncate'd size only if
  // creation itself died; re-extend so slot reads never hit EOF.
  if (::ftruncate(fd, static_cast<off_t>(num_pages * slot_bytes)) != 0) {
    Status st = ErrnoError("ftruncate", dat);
    ::close(fd);
    return st;
  }
  return std::unique_ptr<FileBackend>(new FileBackend(
      options, num_pages, page_capacity, slot_bytes, fd, direct));
}

void FileBackend::SerializeSlot(const Page& page, unsigned char* slot) const {
  const std::vector<Record>& records = page.records();
  const size_t body_bytes = records.size() * kRecordBytes;
  unsigned char* body = slot + kSlotHeaderBytes;
  PutU64(slot, 0, static_cast<uint64_t>(records.size()));
  PutU32(slot, 12, 0);  // reserved
  // A record's slot bytes are {key u64, value u64} host-endian: exactly
  // the in-memory layout of Record, so the body is one copy.
  if (body_bytes > 0) std::memcpy(body, records.data(), body_bytes);
  std::memset(body + body_bytes, 0,
              static_cast<size_t>(slot_bytes_ - kSlotHeaderBytes) -
                  body_bytes);
  // CRC over the count and the record bytes (the crc field itself and
  // the zero fill are excluded; a fully zero slot stays CRC-free so
  // ftruncate holes read as valid empty pages).
  uint32_t crc = Crc32cExtend(0, slot, 8);
  crc = Crc32cExtend(crc, body, body_bytes);
  PutU32(slot, 8, crc);
}

Status FileBackend::DeserializeSlot(Address address,
                                    const unsigned char* slot,
                                    Page* out) const {
  out->Clear();
  const uint64_t count = GetU64(slot, 0);
  const uint32_t stored_crc = GetU32(slot, 8);
  if (count == 0 && stored_crc == 0) return Status::OK();  // hole / empty
  if (count > static_cast<uint64_t>(page_capacity_)) {
    crc_failures_.fetch_add(1, std::memory_order_relaxed);
    return Status::IoError("page " + std::to_string(address) +
                           ": slot record count " + std::to_string(count) +
                           " exceeds capacity " +
                           std::to_string(page_capacity_));
  }
  const unsigned char* body = slot + kSlotHeaderBytes;
  const size_t body_bytes = static_cast<size_t>(count) * kRecordBytes;
  uint32_t crc = Crc32cExtend(0, slot, 8);
  crc = Crc32cExtend(crc, body, body_bytes);
  if (crc != stored_crc) {
    crc_failures_.fetch_add(1, std::memory_order_relaxed);
    return Status::IoError("page " + std::to_string(address) +
                           ": slot checksum mismatch (torn or corrupt write)");
  }
  std::vector<Record>& records = ThreadDecodeBuf();
  records.resize(static_cast<size_t>(count));
  if (body_bytes > 0) std::memcpy(records.data(), body, body_bytes);
  for (size_t i = 1; i < records.size(); ++i) {
    // The CRC matched, so a key-order violation means the slot was
    // written malformed, not torn — still kIoError, the page is unusable.
    if (records[i].key <= records[i - 1].key) {
      crc_failures_.fetch_add(1, std::memory_order_relaxed);
      return Status::IoError("page " + std::to_string(address) +
                             ": slot records are not strictly ascending");
    }
  }
  out->AppendHigh(records.data(), records.data() + records.size());
  return Status::OK();
}

Status FileBackend::WritePage(Address address, const Page& page) {
  if (address < 1 || address > num_pages_) {
    return Status::OutOfRange("backend write address " +
                              std::to_string(address) + " outside [1," +
                              std::to_string(num_pages_) + "]");
  }
  if (options_.kill_after_writes >= 0 &&
      pwrites_.load(std::memory_order_relaxed) >= options_.kill_after_writes) {
    // Kill-test trigger: the first kill_after_writes pwrites completed;
    // this one must never start. SIGKILL cannot be caught, so the
    // process dies exactly between two physical writes.
    ::kill(::getpid(), SIGKILL);
    ::pause();  // not reached; SIGKILL is immediate
  }
  SerializeSlot(page, write_buf_.get());
  DSF_RETURN_IF_ERROR(PwriteFully(data_fd_, write_buf_.get(), slot_bytes_,
                                  SlotOffset(address),
                                  DatPath(options_.directory)));
  pwrites_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status FileBackend::ReadPage(Address address, Page* out) {
  if (address < 1 || address > num_pages_) {
    return Status::OutOfRange("backend read address " +
                              std::to_string(address) + " outside [1," +
                              std::to_string(num_pages_) + "]");
  }
  unsigned char* buf = ThreadReadBuf(slot_bytes_);
  if (buf == nullptr) return Status::IoError("slot buffer allocation failed");
  DSF_RETURN_IF_ERROR(PreadFully(data_fd_, buf, slot_bytes_,
                                 SlotOffset(address),
                                 DatPath(options_.directory)));
  preads_.fetch_add(1, std::memory_order_relaxed);
  return DeserializeSlot(address, buf, out);
}

Status FileBackend::SyncBarrier() {
  if (::fdatasync(data_fd_) != 0) {
    return ErrnoError("fdatasync", DatPath(options_.directory));
  }
  syncs_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

FileBackend::Stats FileBackend::stats() const {
  Stats s;
  s.preads = preads_.load(std::memory_order_relaxed);
  s.pwrites = pwrites_.load(std::memory_order_relaxed);
  s.syncs = syncs_.load(std::memory_order_relaxed);
  s.crc_failures = crc_failures_.load(std::memory_order_relaxed);
  s.direct_active = direct_active_;
  return s;
}

FileBackend::Factory FileBackend::CreateFactory(Options options) {
  return [options](int64_t num_pages, int64_t page_capacity)
             -> StatusOr<std::unique_ptr<StorageBackend>> {
    auto backend_or = Create(options, num_pages, page_capacity);
    DSF_RETURN_IF_ERROR(backend_or.status());
    return std::unique_ptr<StorageBackend>(std::move(backend_or).value());
  };
}

FileBackend::Factory FileBackend::OpenFactory(Options options) {
  return [options](int64_t num_pages, int64_t page_capacity)
             -> StatusOr<std::unique_ptr<StorageBackend>> {
    auto backend_or = Open(options);
    DSF_RETURN_IF_ERROR(backend_or.status());
    std::unique_ptr<FileBackend> backend = std::move(backend_or).value();
    if (backend->num_pages() != num_pages ||
        backend->page_capacity() != page_capacity) {
      return Status::FailedPrecondition(
          IdxPath(options.directory) + ": on-disk geometry (" +
          std::to_string(backend->num_pages()) + " pages, capacity " +
          std::to_string(backend->page_capacity()) +
          ") does not match the requested (" + std::to_string(num_pages) +
          ", " + std::to_string(page_capacity) + ")");
    }
    return std::unique_ptr<StorageBackend>(std::move(backend));
  };
}

Status FileBackend::CorruptPageForTesting(Address address) {
  if (address < 1 || address > num_pages_) {
    return Status::OutOfRange("corrupt address out of range");
  }
  unsigned char* buf = ThreadReadBuf(slot_bytes_);
  if (buf == nullptr) return Status::IoError("slot buffer allocation failed");
  const std::string dat = DatPath(options_.directory);
  DSF_RETURN_IF_ERROR(
      PreadFully(data_fd_, buf, slot_bytes_, SlotOffset(address), dat));
  // Flip a record byte; bump the count too if the slot is empty so the
  // result is not the valid all-zero page.
  buf[kSlotHeaderBytes] ^= 0xA5u;
  if (GetU64(buf, 0) == 0) PutU64(buf, 0, 1);
  return PwriteFully(data_fd_, buf, slot_bytes_, SlotOffset(address), dat);
}

Status FileBackend::OverwriteSuperblockVersionForTesting(
    const std::string& directory, uint32_t version) {
  const std::string idx = IdxPath(directory);
  int fd = ::open(idx.c_str(), O_RDWR | O_CLOEXEC);
  if (fd < 0) return ErrnoError("open", idx);
  unsigned char block[kSuperblockBytes];
  Status s = PreadFully(fd, block, kSuperblockBytes, 0, idx);
  if (s.ok()) {
    PutU32(block, kOffVersion, version);
    PutU32(block, kOffCrc, Crc32c(block, kSuperblockCovered));
    s = PwriteFully(fd, block, kSuperblockBytes, 0, idx);
  }
  ::close(fd);
  return s;
}

}  // namespace dsf
