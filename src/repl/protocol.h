#ifndef OPINEDB_REPL_PROTOCOL_H_
#define OPINEDB_REPL_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/bytes.h"
#include "storage/checksum.h"

namespace opinedb::repl {

/// Wire protocol of WAL-shipped replication (docs/REPLICATION.md).
///
/// The primary exposes two pull routes:
///
///   GET /repl/wal?base=<gen>&offset=<n>   ship WAL frames from byte
///                                         offset n past the segment
///                                         header of wal-<gen>.log
///   GET /repl/snapshot/<gen>              full snapshot container for
///                                         catch-up
///
/// Offsets count bytes past the 20-byte segment header
/// (storage::kWalHeaderSize) and always land on record-frame
/// boundaries — the follower advances its offset per applied record by
/// kWalRecordHeaderSize + payload size. The served byte range is
/// clamped to the primary's acknowledged durable size, so bytes whose
/// fsync never succeeded (possibly visible in the page cache) are
/// never shipped.
///
/// Response metadata travels in x-repl-* headers (values are decimal
/// ASCII); the body is the raw frame bytes. A follower whose base no
/// longer matches the primary's generation gets 409 plus the primary's
/// current generation and falls back to snapshot catch-up; an offset
/// beyond the acknowledged end (or off a record boundary) is 416.

inline constexpr char kWalRoute[] = "/repl/wal";
inline constexpr char kSnapshotRoutePrefix[] = "/repl/snapshot/";

/// Base generation the served frames apply on top of (echo of ?base=).
inline constexpr char kHeaderBase[] = "x-repl-base";
/// The primary's current snapshot generation — on 409 this is where
/// the follower must catch up to.
inline constexpr char kHeaderPrimaryGeneration[] =
    "x-repl-primary-generation";
/// Offset of the first byte after the shipped batch: the follower's
/// next ?offset= once the whole batch verifies and applies.
inline constexpr char kHeaderNextOffset[] = "x-repl-next-offset";
/// The primary's acknowledged durable end of the segment (bytes past
/// the header). next-offset == acked-end means the follower is caught
/// up to every acknowledged write.
inline constexpr char kHeaderAckedEnd[] = "x-repl-acked-end";
/// Chained CRC32C fingerprint (decimal u32) of every record payload
/// from the segment start through the end of this batch, seeded from
/// the base generation. The follower computes the same chain over what
/// it applied; a mismatch is divergence — typed DataLoss, nothing
/// applied.
inline constexpr char kHeaderFingerprint[] = "x-repl-fingerprint";
/// "1" when the primary has checkpointed past this segment: the
/// follower should finish the batch, then run ReplicaCheckpoint so
/// generations stay in lockstep.
inline constexpr char kHeaderSegmentComplete[] = "x-repl-segment-complete";

/// Fingerprint seed for a segment: CRC32C over the base generation's 8
/// little-endian bytes, so chains from different segments never
/// accidentally collide at offset 0.
inline uint32_t SeedFingerprint(uint64_t base_generation) {
  std::string bytes;
  AppendU64(base_generation, &bytes);
  return storage::Crc32c(bytes);
}

/// Extends a fingerprint over one record payload. Both sides chain in
/// record order; equal chains over equal prefixes is what makes the
/// per-batch checksum sound (apply is deterministic, so equal payload
/// sequences imply bit-identical state).
inline uint32_t ChainFingerprint(uint32_t fingerprint,
                                 std::string_view payload) {
  return storage::Crc32cExtend(fingerprint, payload.data(),
                               payload.size());
}

}  // namespace opinedb::repl

#endif  // OPINEDB_REPL_PROTOCOL_H_
