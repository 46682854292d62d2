#ifndef OPINEDB_COMMON_BYTES_H_
#define OPINEDB_COMMON_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>

#include "common/result.h"

namespace opinedb {

// The one byte codec behind every on-disk and on-the-wire format: WAL
// frames, snapshot containers, WAL batch payloads, replication
// fingerprints (fixed-width little-endian integers) and the text-stream
// schema, summaries and interpretation-cache payloads (netstrings).

/// Appends `v` as 4 little-endian bytes. Encoded byte by byte, never by
/// pointer punning, so the bytes do not depend on host endianness and
/// decoding stays clean under ubsan.
inline void AppendU32(uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

/// Appends `v` as 8 little-endian bytes.
inline void AppendU64(uint64_t v, std::string* out) {
  AppendU32(static_cast<uint32_t>(v & 0xffffffffu), out);
  AppendU32(static_cast<uint32_t>(v >> 32), out);
}

/// Reads a little-endian u32 at `*pos` and advances `*pos` past it.
/// Returns false, leaving `*pos` and `*out` untouched, when fewer than
/// 4 bytes remain.
inline bool ReadU32(std::string_view bytes, size_t* pos, uint32_t* out) {
  if (*pos > bytes.size() || bytes.size() - *pos < 4) return false;
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(bytes[*pos + i]))
         << (8 * i);
  }
  *pos += 4;
  *out = v;
  return true;
}

/// Reads a little-endian u64; same contract as ReadU32 with 8 bytes.
inline bool ReadU64(std::string_view bytes, size_t* pos, uint64_t* out) {
  if (*pos > bytes.size() || bytes.size() - *pos < 8) return false;
  uint32_t lo = 0, hi = 0;
  ReadU32(bytes, pos, &lo);
  ReadU32(bytes, pos, &hi);
  *out = static_cast<uint64_t>(lo) | (static_cast<uint64_t>(hi) << 32);
  return true;
}

/// Netstring-style string encoding, "<decimal length>:<bytes>": robust
/// to spaces and any other bytes inside the string.
inline void WriteString(std::string_view s, std::ostream* out) {
  *out << s.size() << ':' << s;
}

/// Reads one WriteString record. The length comes from untrusted bytes,
/// so anything above `max_length` is a ParseError before any
/// allocation.
inline Result<std::string> ReadString(std::istream* in, size_t max_length) {
  size_t length = 0;
  char colon = 0;
  if (!(*in >> length) || !in->get(colon) || colon != ':') {
    return Status::ParseError("bad string header");
  }
  if (length > max_length) {
    return Status::ParseError("implausible string length " +
                              std::to_string(length));
  }
  std::string s(length, '\0');
  if (!in->read(s.data(), static_cast<std::streamsize>(length))) {
    return Status::ParseError("truncated string");
  }
  return s;
}

}  // namespace opinedb

#endif  // OPINEDB_COMMON_BYTES_H_
