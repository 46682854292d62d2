#include "storage/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/bytes.h"
#include "common/fault.h"
#include "obs/metrics.h"
#include "storage/checksum.h"

namespace opinedb::storage {

namespace {

constexpr char kWalMagic[8] = {'O', 'P', 'D', 'B', 'W', 'A', 'L', '1'};
constexpr size_t kHeaderSize = kWalHeaderSize;
constexpr size_t kRecordHeader = kWalRecordHeaderSize;
/// Plausibility cap on untrusted record lengths, checked before
/// allocation on top of the remaining-bytes bound.
constexpr uint32_t kMaxRecordLen = 1u << 30;

std::string EncodeHeader(uint64_t base_generation) {
  std::string out;
  out.reserve(kHeaderSize);
  out.append(kWalMagic, sizeof(kWalMagic));
  AppendU64(base_generation, &out);
  AppendU32(MaskCrc(Crc32c(out.data(), out.size())), &out);
  return out;
}

/// Verifies the 20-byte header; returns false on any violation.
bool DecodeHeader(std::string_view bytes, uint64_t* base_generation) {
  if (bytes.size() < kHeaderSize) return false;
  if (std::memcmp(bytes.data(), kWalMagic, sizeof(kWalMagic)) != 0) {
    return false;
  }
  size_t pos = sizeof(kWalMagic);
  uint64_t base = 0;
  uint32_t stored_crc = 0;
  if (!ReadU64(bytes, &pos, &base) || !ReadU32(bytes, &pos, &stored_crc)) {
    return false;
  }
  if (UnmaskCrc(stored_crc) != Crc32c(bytes.data(), 16)) return false;
  *base_generation = base;
  return true;
}

bool WriteAll(int fd, const char* data, size_t n) {
  while (n > 0) {
    const ssize_t written = ::write(fd, data, n);
    if (written < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += written;
    n -= static_cast<size_t>(written);
  }
  return true;
}

void SyncDirOf(const std::string& path) {
  const std::string dir = std::filesystem::path(path).parent_path().string();
  const int fd =
      ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

Result<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::Internal("read failed: " + path);
  return std::move(buffer).str();
}

}  // namespace

std::string WalFileName(uint64_t base_generation) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "wal-%013llu.log",
                static_cast<unsigned long long>(base_generation));
  return buffer;
}

bool ParseWalFileName(const std::string& name, uint64_t* base_generation) {
  constexpr std::string_view kPrefix = "wal-";
  constexpr std::string_view kSuffix = ".log";
  if (name.size() <= kPrefix.size() + kSuffix.size()) return false;
  if (name.compare(0, kPrefix.size(), kPrefix) != 0) return false;
  if (name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) !=
      0) {
    return false;
  }
  uint64_t value = 0;
  const size_t digits_end = name.size() - kSuffix.size();
  if (digits_end == kPrefix.size()) return false;
  for (size_t i = kPrefix.size(); i < digits_end; ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(name[i] - '0');
    if (value > UINT64_MAX / 10 ||
        (value == UINT64_MAX / 10 && digit > UINT64_MAX % 10)) {
      return false;  // Overflow.
    }
    value = value * 10 + digit;
  }
  *base_generation = value;
  return true;
}

Result<WalContents> ReadWal(const std::string& path) {
  auto bytes_or = ReadFileBytes(path);
  if (!bytes_or.ok()) return bytes_or.status();
  const std::string& bytes = *bytes_or;

  WalContents contents;
  uint64_t base = 0;
  if (!DecodeHeader(bytes, &base)) {
    // A segment whose header does not verify contributes nothing; the
    // whole file is the invalid tail.
    contents.truncated = !bytes.empty();
    return contents;
  }
  contents.base_generation = base;
  const size_t consumed = DecodeWalRecords(
      std::string_view(bytes).substr(kHeaderSize), &contents.records);
  contents.valid_bytes = kHeaderSize + consumed;
  contents.truncated = contents.valid_bytes < bytes.size();
  return contents;
}

size_t DecodeWalRecords(std::string_view bytes,
                        std::vector<std::string>* records) {
  size_t pos = 0;
  while (pos < bytes.size()) {
    size_t cursor = pos;
    uint32_t len = 0, stored_crc = 0;
    if (!ReadU32(bytes, &cursor, &len) ||
        !ReadU32(bytes, &cursor, &stored_crc)) {
      break;  // Torn record header.
    }
    if (len > kMaxRecordLen || len > bytes.size() - cursor) break;
    std::string_view payload(bytes.data() + cursor, len);
    if (UnmaskCrc(stored_crc) != Crc32c(payload.data(), payload.size())) {
      break;  // Bit flip or torn payload.
    }
    records->emplace_back(payload);
    pos = cursor + len;
  }
  return pos;
}

void AppendWalRecordFrame(std::string_view payload, std::string* out) {
  AppendU32(static_cast<uint32_t>(payload.size()), out);
  AppendU32(MaskCrc(Crc32c(payload.data(), payload.size())), out);
  out->append(payload);
}

Status TruncateWal(const std::string& path, uint64_t valid_bytes) {
  if (::truncate(path.c_str(), static_cast<off_t>(valid_bytes)) != 0) {
    return Status::Internal("cannot truncate " + path + ": " +
                            std::strerror(errno));
  }
  const int fd = ::open(path.c_str(), O_WRONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
  OPINEDB_METRIC_COUNT("storage.wal.truncations", 1);
  return Status::OK();
}

WalWriter::~WalWriter() { Close(); }

WalWriter::WalWriter(WalWriter&& other) noexcept
    : fd_(other.fd_), size_(other.size_), path_(std::move(other.path_)) {
  other.fd_ = -1;
  other.size_ = 0;
}

WalWriter& WalWriter::operator=(WalWriter&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    size_ = other.size_;
    path_ = std::move(other.path_);
    other.fd_ = -1;
    other.size_ = 0;
  }
  return *this;
}

void WalWriter::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void WalWriter::MarkBroken() {
  Close();
  OPINEDB_METRIC_COUNT("storage.wal.append_failures", 1);
  OPINEDB_METRIC_GAUGE_SET("storage.wal.broken", 1);
}

Result<WalWriter> WalWriter::Open(const std::string& path,
                                  uint64_t base_generation) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    return Status::Internal("cannot open " + path + ": " +
                            std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::Internal("cannot stat " + path + ": " +
                            std::strerror(errno));
  }

  WalWriter writer;
  writer.fd_ = fd;
  writer.path_ = path;
  if (st.st_size == 0) {
    const std::string header = EncodeHeader(base_generation);
    if (!WriteAll(fd, header.data(), header.size()) || ::fsync(fd) != 0) {
      const std::string err = std::strerror(errno);
      writer.Close();
      return Status::Internal("cannot initialize " + path + ": " + err);
    }
    SyncDirOf(path);
    writer.size_ = header.size();
  } else {
    // Callers truncate to the verified prefix before opening; trust but
    // verify the header so a mismatched or foreign file is rejected
    // rather than appended to.
    auto bytes = ReadFileBytes(path);
    uint64_t base = 0;
    if (!bytes.ok() || !DecodeHeader(*bytes, &base) ||
        base != base_generation) {
      writer.Close();
      return Status::FailedPrecondition(
          path + " is not a valid WAL segment for generation " +
          std::to_string(base_generation) +
          " (run recovery/truncation before opening)");
    }
    writer.size_ = static_cast<uint64_t>(st.st_size);
  }
  OPINEDB_METRIC_GAUGE_SET("storage.wal.broken", 0);
  return writer;
}

Status WalWriter::Append(std::string_view payload) {
  if (fd_ < 0) {
    return Status::FailedPrecondition(
        "wal writer is broken (a previous append failed) or closed");
  }
  if (payload.size() > kMaxRecordLen) {
    return Status::InvalidArgument("wal record too large");
  }
  std::string frame;
  frame.reserve(kRecordHeader + payload.size());
  AppendWalRecordFrame(payload, &frame);

  // Torn-record site: persist half the frame, then stop — the state a
  // power cut mid-append leaves. The writer is broken from here on.
  if (OPINEDB_FAULT_HIT("storage.wal_short_write")) {
    WriteAll(fd_, frame.data(), frame.size() / 2);
    ::fsync(fd_);
    MarkBroken();
    return Status::Internal("injected fault at storage.wal_short_write");
  }
  if (!WriteAll(fd_, frame.data(), frame.size())) {
    const std::string err = std::strerror(errno);
    MarkBroken();
    return Status::Internal("wal write failed: " + path_ + ": " + err);
  }
  // fsync-failure site: the bytes reached the page cache but durability
  // is unknowable. Fail safe: roll the file back to the acknowledged
  // prefix so the durable state never contains unacknowledged records,
  // then break the writer (the PostgreSQL fsync-gate lesson).
  if (OPINEDB_FAULT_HIT("storage.wal_fsync")) {
    ::ftruncate(fd_, static_cast<off_t>(size_));
    MarkBroken();
    return Status::Internal("injected fault at storage.wal_fsync");
  }
  if (::fsync(fd_) != 0) {
    const std::string err = std::strerror(errno);
    ::ftruncate(fd_, static_cast<off_t>(size_));
    MarkBroken();
    return Status::Internal("wal fsync failed: " + path_ + ": " + err);
  }
  size_ += frame.size();
  OPINEDB_METRIC_COUNT("storage.wal.appends", 1);
  OPINEDB_METRIC_COUNT("storage.wal.bytes_written", frame.size());
  return Status::OK();
}

}  // namespace opinedb::storage
