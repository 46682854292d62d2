#ifndef OPINEDB_STORAGE_WAL_H_
#define OPINEDB_STORAGE_WAL_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace opinedb::storage {

/// Write-ahead log for incremental ingest (see docs/PERSISTENCE.md §WAL).
///
/// Layout: one segment per base snapshot generation,
///
///   <dir>/wal-%013llu.log
///
/// where the number is the generation the segment's records apply ON TOP
/// OF. The segment is a header followed by a flat sequence of records:
///
///   header:  "OPDBWAL1" magic (8) | u64 base generation | u32 masked
///            CRC32C over the first 16 bytes
///   record:  u32 payload length | u32 masked CRC32C(payload) | payload
///
/// All integers are little-endian, byte-encoded (no punning; decode runs
/// under ubsan). Payloads are opaque bytes — the engine encodes review
/// batches into them; the WAL checksums and orders them, nothing more.
///
/// Durability contract: WalWriter::Append returns OK only after the
/// record bytes are written AND fsynced (append → fsync → acknowledge).
/// A failed append leaves the writer broken (every later Append fails)
/// because the durable suffix is no longer known — exactly the state a
/// crashed process would leave; recovery re-establishes the invariant by
/// truncating at the first corrupt record.
///
/// Thread safety: one writer at a time (the engine serializes appends,
/// checkpoints and rotation under its writer mutex). is_open() and
/// size() may be read concurrently with an Append: the engine's
/// wal_acknowledged_bytes() and the replication source read them while
/// a batch is being journaled.

/// Size of the segment header: magic (8) | u64 base generation | u32
/// masked CRC. Replication offsets count bytes past this header, so the
/// constant is part of the wire protocol (src/repl/protocol.h).
inline constexpr size_t kWalHeaderSize = 8 + 8 + 4;
/// Size of one record's frame header: u32 length | u32 masked CRC.
inline constexpr size_t kWalRecordHeaderSize = 4 + 4;

/// The decoded valid prefix of a WAL segment.
struct WalContents {
  /// Base generation from the header (0 when the header itself failed
  /// verification — then `records` is empty and `valid_bytes` is 0).
  uint64_t base_generation = 0;
  std::vector<std::string> records;
  /// True when the file held bytes past the valid prefix (torn tail,
  /// bit flip, garbage). Replay should physically truncate to
  /// `valid_bytes` before appending again.
  bool truncated = false;
  /// Length of the verified prefix (header + whole valid records).
  uint64_t valid_bytes = 0;
};

/// "wal-%013llu.log" — zero-padded so lexicographic order equals numeric
/// order, mirroring SnapshotStore::GenerationFileName.
std::string WalFileName(uint64_t base_generation);

/// Parses a WAL segment file name; returns false for anything else.
bool ParseWalFileName(const std::string& name, uint64_t* base_generation);

/// Reads and verifies a segment, returning its valid prefix. Never
/// fails on corruption — corruption just shortens the prefix (the
/// crash-recovery contract). Returns NotFound only when the file cannot
/// be opened, Internal on a read error.
Result<WalContents> ReadWal(const std::string& path);

/// Decodes the verified prefix of a bare record region (frames only, no
/// segment header): appends every record payload whose length bound and
/// CRC verify, stopping at the first violation. Returns the number of
/// bytes consumed (always a whole number of frames). ReadWal uses this
/// on the bytes past the header; the replication client uses it to
/// re-verify shipped frames before applying them.
size_t DecodeWalRecords(std::string_view bytes,
                        std::vector<std::string>* records);

/// Appends the frame encoding of one record — u32 length | u32 masked
/// CRC32C(payload) | payload — to `*out`. Framing is deterministic, so
/// re-encoding a decoded payload reproduces the on-disk bytes exactly
/// (the replication source re-frames records it serves, and a follower
/// journaling a shipped batch writes a byte-identical segment prefix).
void AppendWalRecordFrame(std::string_view payload, std::string* out);

/// Physically truncates the segment to `valid_bytes` (recovery's
/// response to a torn tail). A no-op when the file is already exactly
/// that long.
Status TruncateWal(const std::string& path, uint64_t valid_bytes);

/// Appends checksummed records to one segment. Create via Open().
class WalWriter {
 public:
  WalWriter() = default;
  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;
  WalWriter(WalWriter&& other) noexcept;
  WalWriter& operator=(WalWriter&& other) noexcept;

  /// Opens `path` for appending. A missing or empty file is initialized
  /// with a fresh header (fsynced, directory fsynced). An existing file
  /// must already be a valid prefix — callers run ReadWal + TruncateWal
  /// first; Open verifies the header and the base generation match.
  static Result<WalWriter> Open(const std::string& path,
                                uint64_t base_generation);

  /// Appends one record and fsyncs. OK means durable. On failure the
  /// writer becomes broken (is_open() false) and the on-disk state is
  /// either the old prefix or the old prefix plus a torn record —
  /// recovery handles both.
  Status Append(std::string_view payload);

  bool is_open() const { return fd_.load() >= 0; }
  /// Durable segment length acknowledged so far. Advanced only after
  /// the fsync returns, so a concurrent reader never sees a length that
  /// covers unacknowledged bytes.
  uint64_t size() const { return size_.load(); }

  /// Closes the descriptor (also done by the destructor).
  void Close();

 private:
  /// Failure path shared by every Append breakage point: closes the
  /// descriptor (the permanent-breakage contract), counts the failure,
  /// and raises the storage.wal.broken gauge that /healthz surfaces.
  void MarkBroken();

  std::atomic<int> fd_{-1};
  std::atomic<uint64_t> size_{0};
  std::string path_;
};

}  // namespace opinedb::storage

#endif  // OPINEDB_STORAGE_WAL_H_
