#include "storage/snapshot_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/bytes.h"
#include "common/fault.h"
#include "obs/metrics.h"
#include "storage/checksum.h"
#include "storage/wal.h"

namespace opinedb::storage {

namespace {

namespace fs = std::filesystem;

/// Container framing constants. The magic doubles as an endianness and
/// file-type check; all integers are little-endian and encoded byte by
/// byte (no pointer-punning loads — frame decoding runs under ubsan).
constexpr char kMagic[8] = {'O', 'P', 'D', 'B', 'S', 'N', 'P', '1'};
constexpr uint32_t kFormatVersion = 1;
constexpr uint32_t kFooterSentinel = 0xffffffffu;
/// Plausibility caps on untrusted lengths (checked before allocation,
/// on top of the remaining-bytes bound).
constexpr size_t kMaxSectionName = 1u << 10;
constexpr size_t kMaxSections = 1u << 16;

constexpr char kManifestName[] = "MANIFEST";
constexpr char kManifestSection[] = "manifest";
constexpr char kTmpSuffix[] = ".tmp";

Status Corrupt(const std::string& what) {
  return Status::ParseError("corrupt snapshot container: " + what);
}

/// Full file contents, or an error. Reads via ifstream (no exceptions
/// enabled) so a vanished or unreadable file is a clean status.
Result<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::Internal("read failed: " + path);
  return std::move(buffer).str();
}

/// POSIX full write (loops over short writes / EINTR).
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

/// fsync of a directory, so a rename inside it is durable. Best effort
/// on filesystems that reject directory fds.
void SyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

/// Simulated media fault for the "storage.bitflip" site: flips one bit
/// in the middle of the (fully written, fsynced) file. The commit then
/// proceeds normally — the corruption is only discovered by recovery's
/// checksum verification, exactly like real bit rot.
void FlipOneBit(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) return;
  struct stat st;
  if (::fstat(fd, &st) == 0 && st.st_size > 0) {
    const off_t offset = st.st_size / 2;
    unsigned char byte = 0;
    if (::pread(fd, &byte, 1, offset) == 1) {
      byte ^= 0x10;
      ::pwrite(fd, &byte, 1, offset);
      ::fsync(fd);
    }
  }
  ::close(fd);
}

}  // namespace

const std::string* LoadedSnapshot::Find(const std::string& name) const {
  for (const auto& section : sections) {
    if (section.name == name) return &section.payload;
  }
  return nullptr;
}

SnapshotStore::SnapshotStore(std::string dir) : dir_(std::move(dir)) {}

std::string SnapshotStore::PathTo(const std::string& name) const {
  return dir_ + "/" + name;
}

std::string SnapshotStore::GenerationFileName(uint64_t generation) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "gen-%013llu.snap",
                static_cast<unsigned long long>(generation));
  return buffer;
}

bool SnapshotStore::ParseGenerationFileName(const std::string& name,
                                            uint64_t* generation) {
  constexpr std::string_view kPrefix = "gen-";
  constexpr std::string_view kSuffix = ".snap";
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
    if (value > (UINT64_MAX - 9) / 10) return false;  // Overflow.
    value = value * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  *generation = value;
  return true;
}

std::string SnapshotStore::EncodeContainer(
    const std::vector<SnapshotSection>& sections) {
  std::string out;
  size_t total = 16;
  for (const auto& section : sections) {
    total += 4 + section.name.size() + 8 + section.payload.size() + 4;
  }
  out.reserve(total + 12);
  // Header: magic, version, header CRC.
  out.append(kMagic, sizeof(kMagic));
  AppendU32(kFormatVersion, &out);
  AppendU32(MaskCrc(Crc32c(out.data(), out.size())), &out);
  // Sections: framed, each with its own CRC over name || payload.
  for (const auto& section : sections) {
    AppendU32(static_cast<uint32_t>(section.name.size()), &out);
    out.append(section.name);
    AppendU64(section.payload.size(), &out);
    out.append(section.payload);
    uint32_t crc = Crc32c(section.name.data(), section.name.size());
    crc = Crc32cExtend(crc, section.payload.data(), section.payload.size());
    AppendU32(MaskCrc(crc), &out);
  }
  // Footer: sentinel, section count, whole-file CRC (all bytes so far).
  AppendU32(kFooterSentinel, &out);
  AppendU32(static_cast<uint32_t>(sections.size()), &out);
  AppendU32(MaskCrc(Crc32c(out.data(), out.size())), &out);
  return out;
}

Result<std::vector<SnapshotSection>> SnapshotStore::DecodeContainer(
    std::string_view bytes) {
  size_t pos = 0;
  if (bytes.size() < 16) return Corrupt("shorter than the header");
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Corrupt("bad magic");
  }
  pos = sizeof(kMagic);
  uint32_t version = 0, header_crc = 0;
  ReadU32(bytes, &pos, &version);
  ReadU32(bytes, &pos, &header_crc);
  if (UnmaskCrc(header_crc) != Crc32c(bytes.data(), 12)) {
    return Corrupt("header checksum mismatch");
  }
  // Version is checked after the header CRC: a flipped version byte is
  // corruption, not an honest future format.
  if (version != kFormatVersion) {
    return Status::NotSupported("snapshot container version " +
                                std::to_string(version));
  }

  std::vector<SnapshotSection> sections;
  for (;;) {
    uint32_t name_len = 0;
    if (!ReadU32(bytes, &pos, &name_len)) {
      return Corrupt("truncated before footer");
    }
    if (name_len == kFooterSentinel) break;  // Footer reached.
    if (name_len > kMaxSectionName) return Corrupt("implausible name length");
    if (sections.size() >= kMaxSections) return Corrupt("too many sections");
    if (bytes.size() - pos < name_len) return Corrupt("truncated name");
    SnapshotSection section;
    section.name.assign(bytes.data() + pos, name_len);
    pos += name_len;
    uint64_t payload_len = 0;
    if (!ReadU64(bytes, &pos, &payload_len)) {
      return Corrupt("truncated payload length");
    }
    // The remaining-bytes bound both rejects truncation and caps the
    // allocation: a flipped length byte cannot demand gigabytes.
    if (payload_len > bytes.size() - pos) return Corrupt("truncated payload");
    section.payload.assign(bytes.data() + pos,
                           static_cast<size_t>(payload_len));
    pos += static_cast<size_t>(payload_len);
    uint32_t stored_crc = 0;
    if (!ReadU32(bytes, &pos, &stored_crc)) {
      return Corrupt("truncated section checksum");
    }
    uint32_t crc = Crc32c(section.name.data(), section.name.size());
    crc = Crc32cExtend(crc, section.payload.data(), section.payload.size());
    if (UnmaskCrc(stored_crc) != crc) {
      return Corrupt("section \"" + section.name + "\" checksum mismatch");
    }
    sections.push_back(std::move(section));
  }

  const size_t footer_crc_offset = pos + 4;  // After the section count.
  uint32_t section_count = 0, file_crc = 0;
  if (!ReadU32(bytes, &pos, &section_count) ||
      !ReadU32(bytes, &pos, &file_crc)) {
    return Corrupt("truncated footer");
  }
  if (section_count != sections.size()) {
    return Corrupt("section count mismatch");
  }
  if (UnmaskCrc(file_crc) != Crc32c(bytes.data(), footer_crc_offset)) {
    return Corrupt("file checksum mismatch");
  }
  if (pos != bytes.size()) return Corrupt("trailing bytes after footer");
  return sections;
}

std::vector<uint64_t> SnapshotStore::ListGenerations() const {
  std::vector<uint64_t> generations;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    uint64_t generation = 0;
    if (ParseGenerationFileName(entry.path().filename().string(),
                                &generation)) {
      generations.push_back(generation);
    }
  }
  std::sort(generations.begin(), generations.end());
  return generations;
}

Status SnapshotStore::WriteFileAtomic(const std::string& final_name,
                                      const std::string& bytes,
                                      bool is_manifest) {
  const std::string final_path = PathTo(final_name);
  const std::string tmp_path = final_path + kTmpSuffix;
  const int fd =
      ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Internal("cannot create " + tmp_path + ": " +
                            std::strerror(errno));
  }
  // Torn-write site: persist only a prefix, then stop mid-protocol —
  // exactly the state a power cut during write() leaves behind.
  if (!is_manifest && OPINEDB_FAULT_HIT("storage.short_write")) {
    WriteAll(fd, bytes.data(), bytes.size() / 2);
    ::close(fd);
    return Status::Internal("injected fault at storage.short_write");
  }
  if (!WriteAll(fd, bytes.data(), bytes.size())) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::Internal("write failed: " + tmp_path + ": " + err);
  }
  if (!is_manifest && OPINEDB_FAULT_HIT("storage.fsync")) {
    ::close(fd);
    return Status::Internal("injected fault at storage.fsync");
  }
  if (::fsync(fd) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::Internal("fsync failed: " + tmp_path + ": " + err);
  }
  ::close(fd);
  // Media-fault site: the file is durable but one bit rots before the
  // rename. The commit succeeds; only recovery's checksums notice.
  if (!is_manifest && OPINEDB_FAULT_HIT("storage.bitflip")) {
    FlipOneBit(tmp_path);
  }
  // Crash sites: stop before the rename that would make the write
  // visible. The tmp file remains; recovery ignores it.
  if (!is_manifest && OPINEDB_FAULT_HIT("storage.rename_data")) {
    return Status::Internal("injected fault at storage.rename_data");
  }
  if (is_manifest && OPINEDB_FAULT_HIT("storage.rename_manifest")) {
    return Status::Internal("injected fault at storage.rename_manifest");
  }
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    return Status::Internal("rename failed: " + tmp_path + " -> " +
                            final_path + ": " + std::strerror(errno));
  }
  // Make the rename itself durable before anything depends on it.
  SyncDir(dir_);
  return Status::OK();
}

Result<uint64_t> SnapshotStore::Commit(
    const std::vector<SnapshotSection>& sections) {
  for (const auto& section : sections) {
    if (section.name.empty() || section.name.size() > kMaxSectionName) {
      return Status::InvalidArgument("bad section name");
    }
  }
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    return Status::Internal("cannot create snapshot directory " + dir_ +
                            ": " + ec.message());
  }
  // Sweep droppings of crashed savers (best effort; recovery ignores
  // them anyway, this just keeps the directory tidy).
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (entry.path().extension() == kTmpSuffix) {
      std::error_code remove_ec;
      fs::remove(entry.path(), remove_ec);
    }
  }

  // Next generation: one past everything on disk, whether or not it is
  // valid — a corrupt gen-7 must not be overwritten by a new gen-7.
  uint64_t next = 1;
  const std::vector<uint64_t> existing = ListGenerations();
  if (!existing.empty()) next = existing.back() + 1;

  const std::string bytes = EncodeContainer(sections);
  Status data = WriteFileAtomic(GenerationFileName(next), bytes, false);
  if (!data.ok()) {
    OPINEDB_METRIC_COUNT("storage.snapshot.commit_failures", 1);
    return data;
  }

  std::vector<SnapshotSection> manifest(1);
  manifest[0].name = kManifestSection;
  manifest[0].payload = std::to_string(next);
  Status pointer =
      WriteFileAtomic(kManifestName, EncodeContainer(manifest), true);
  if (!pointer.ok()) {
    // The data generation is durable and self-validating; recovery will
    // serve it even though the manifest still names the predecessor.
    OPINEDB_METRIC_COUNT("storage.snapshot.commit_failures", 1);
    return pointer;
  }
  OPINEDB_METRIC_COUNT("storage.snapshot.commits", 1);
  OPINEDB_METRIC_COUNT("storage.snapshot.bytes_written", bytes.size());
  return next;
}

Result<LoadedSnapshot> SnapshotStore::Recover() const {
  std::vector<uint64_t> generations = ListGenerations();
  if (generations.empty()) {
    return Status::NotFound("no snapshot generations in " + dir_);
  }
  // The MANIFEST, when it verifies, is a hint for observability only —
  // the directory scan below is what decides. A valid generation newer
  // than the manifest (crash between data and manifest rename) is
  // served; a manifest pointing at a corrupt generation falls through.
  uint64_t manifest_generation = 0;
  {
    auto bytes = ReadFileBytes(PathTo(kManifestName));
    if (bytes.ok()) {
      auto sections = DecodeContainer(*bytes);
      if (sections.ok() && sections->size() == 1 &&
          (*sections)[0].name == kManifestSection) {
        manifest_generation = std::strtoull(
            (*sections)[0].payload.c_str(), nullptr, 10);
      }
    }
  }
  std::string newest_error;
  size_t skipped = 0;
  for (auto it = generations.rbegin(); it != generations.rend(); ++it) {
    const std::string path = PathTo(GenerationFileName(*it));
    auto bytes = ReadFileBytes(path);
    if (!bytes.ok()) {
      if (newest_error.empty()) newest_error = bytes.status().ToString();
      ++skipped;
      continue;
    }
    auto sections = DecodeContainer(*bytes);
    if (!sections.ok()) {
      if (newest_error.empty()) {
        newest_error = path + ": " + sections.status().ToString();
      }
      ++skipped;
      OPINEDB_METRIC_COUNT("storage.snapshot.generations_skipped", 1);
      continue;
    }
    LoadedSnapshot snapshot;
    snapshot.generation = *it;
    snapshot.sections = std::move(*sections);
    snapshot.skipped_generations = skipped;
    snapshot.manifest_generation = manifest_generation;
    if (skipped > 0) {
      OPINEDB_METRIC_COUNT("storage.snapshot.recovered_fallback", 1);
    }
    return snapshot;
  }
  return Status::DataLoss(
      "all " + std::to_string(generations.size()) +
      " snapshot generation(s) in " + dir_ +
      " failed verification; newest failure: " + newest_error);
}

Status SnapshotStore::GarbageCollect(size_t keep) {
  return GarbageCollect(keep, nullptr);
}

Status SnapshotStore::GarbageCollect(size_t keep,
                                     const GenerationPins* pins) {
  std::vector<uint64_t> generations = ListGenerations();
  if (generations.size() <= keep) return Status::OK();
  // Never delete the newest generation that actually verifies — it is
  // what Recover() would serve. Without this, GarbageCollect(0) deleted
  // every generation including the served one, and a small `keep` could
  // retain only corrupt newer files while deleting the last good one.
  uint64_t served = 0;
  bool have_served = false;
  for (auto it = generations.rbegin(); it != generations.rend(); ++it) {
    auto bytes = ReadFileBytes(PathTo(GenerationFileName(*it)));
    if (bytes.ok() && DecodeContainer(*bytes).ok()) {
      served = *it;
      have_served = true;
      break;
    }
  }
  // A WAL segment named wal-N.log means "gen-N plus these records" is a
  // recoverable state (crash recovery and a catching-up follower both
  // rebuild from it); deleting gen-N would orphan the segment.
  std::vector<uint64_t> wal_bases;
  {
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir_, ec)) {
      uint64_t base = 0;
      if (ParseWalFileName(entry.path().filename().string(), &base)) {
        wal_bases.push_back(base);
      }
    }
  }
  const auto retained = [&](uint64_t generation) {
    if (have_served && generation == served) return true;
    if (pins != nullptr && pins->IsPinned(generation)) return true;
    return std::find(wal_bases.begin(), wal_bases.end(), generation) !=
           wal_bases.end();
  };
  const size_t remove = generations.size() - keep;
  for (size_t i = 0; i < remove; ++i) {
    if (retained(generations[i])) continue;
    std::error_code ec;
    fs::remove(PathTo(GenerationFileName(generations[i])), ec);
    if (ec) {
      return Status::Internal("cannot remove generation " +
                              std::to_string(generations[i]) + ": " +
                              ec.message());
    }
  }
  SyncDir(dir_);
  return Status::OK();
}

Status SnapshotStore::AdoptSnapshot(uint64_t generation,
                                    const std::string& bytes) {
  // Verify BEFORE writing: a partitioned or buggy primary must not be
  // able to plant an unverifiable file that recovery then has to skip.
  auto sections = DecodeContainer(bytes);
  if (!sections.ok()) {
    return Status::DataLoss("adopted snapshot for generation " +
                            std::to_string(generation) +
                            " failed verification: " +
                            sections.status().ToString());
  }
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    return Status::Internal("cannot create snapshot directory " + dir_ +
                            ": " + ec.message());
  }
  const std::string name = GenerationFileName(generation);
  auto existing = ReadFileBytes(PathTo(name));
  const bool already_good =
      existing.ok() && DecodeContainer(*existing).ok();
  if (!already_good) {
    Status data = WriteFileAtomic(name, bytes, false);
    if (!data.ok()) return data;
  }
  std::vector<SnapshotSection> manifest(1);
  manifest[0].name = kManifestSection;
  manifest[0].payload = std::to_string(generation);
  Status pointer =
      WriteFileAtomic(kManifestName, EncodeContainer(manifest), true);
  if (!pointer.ok()) return pointer;
  OPINEDB_METRIC_COUNT("storage.snapshot.adoptions", 1);
  return Status::OK();
}

}  // namespace opinedb::storage
