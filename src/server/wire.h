// Wire protocol of the network service layer (src/server/): a
// length-prefixed binary codec reusing the framed-log discipline.
//
// Every message travels as one frame:
//
//   [payload_len u32 LE][payload][crc32c(payload) u32 LE]
//
// — the same [len][payload][checksum] shape as the durability logs
// (log/framed_log.h), with the same torn/short-frame discipline: a
// short read, an oversized length, or a checksum mismatch never
// yields a partially-decoded message; the reader reports a clean
// error and the connection is closed or answered with an error
// response. The stream framing itself stays intact across a frame
// whose *payload* fails to decode (the frame boundary was still
// valid), so one malformed request does not poison the session.
//
// Payloads:
//   request  = [request_id u32][op u8][trace_id u64, iff op & 0x80]
//              [op-specific body]
//   response = [request_id u32][status code u8][message string]
//              [op-specific body when OK]
//
// The trace id is an optional header field signalled by the high bit
// of the op byte (kTracedOpFlag): a client stamping a request sends
// `op | 0x80` followed by the 64-bit id, and the server tags every
// stage the request touches with it (src/obs/span.h). Frames without
// the flag — i.e. every frame an older client sends — decode exactly
// as before; opcode values stay below 0x80 so the flag can never
// collide with an op.
//
// The request_id is chosen by the client and echoed verbatim, so a
// pipelining client can match responses that arrive out of request
// order (admission-control Busy rejections are written by the reader
// thread and can overtake in-flight responses of the same session).
//
// Scalars are fixed-width little-endian; strings and value vectors
// are u32-count-prefixed. Every decode is bounds-checked against the
// remaining payload — a hostile count cannot force an allocation
// larger than the (already length-capped) frame it arrived in.

#ifndef LSTORE_SERVER_WIRE_H_
#define LSTORE_SERVER_WIRE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace lstore {
namespace wire {

/// Default cap on one frame's payload (requests and responses). A
/// frame announcing more than the cap is rejected before any
/// allocation — the standard defense against a hostile length header.
inline constexpr uint32_t kDefaultMaxFrameBytes = 8u << 20;

/// Bytes a frame adds around its payload (length + checksum).
inline constexpr size_t kFrameOverhead = 8;

/// Request opcodes. Stable wire values: append, never renumber.
enum class Op : uint8_t {
  kPing = 1,
  kCreateTable = 2,   ///< name, column names
  kListTables = 3,
  kSchema = 4,        ///< table -> column names
  kBegin = 5,         ///< isolation level
  kCommit = 6,
  kAbort = 7,
  kInsert = 8,        ///< table, row
  kRead = 9,          ///< table, key, mask -> row
  kUpdate = 10,       ///< table, key, mask, row
  kDelete = 11,       ///< table, key
  kMultiRead = 12,    ///< table, mask, keys -> rows + per-key codes
  kInsertBatch = 13,  ///< table, rows
  kUpdateBatch = 14,  ///< table, mask, keys, rows
  kDeleteBatch = 15,  ///< table, keys
  kQuery = 16,        ///< table, kind, col, range, as_of, filters
  kMetrics = 17,      ///< -> Prometheus text exposition
  kTrace = 18,        ///< -> flight recorder as Chrome trace-event JSON
  kHealth = 19,       ///< -> actor health verdicts + recent events
};

/// High bit of the request op byte: a u64 trace id follows the op.
/// Ops must stay below this value (enforced where ops are decoded).
inline constexpr uint8_t kTracedOpFlag = 0x80;

/// Aggregation / terminal kind of a kQuery request.
enum class QueryKind : uint8_t {
  kSum = 0,
  kCount = 1,
  kMin = 2,
  kMax = 3,
  kKeys = 4,
};

// --- encoding --------------------------------------------------------------

inline void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

inline void PutU32(std::string* out, uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out->append(b, 4);
}

inline void PutU64(std::string* out, uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out->append(b, 8);
}

inline void PutString(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

inline void PutValues(std::string* out, const std::vector<Value>& vs) {
  PutU32(out, static_cast<uint32_t>(vs.size()));
  for (Value v : vs) PutU64(out, v);
}

/// Vector-of-rows: u32 row count, then each row as PutValues.
inline void PutRows(std::string* out,
                    const std::vector<std::vector<Value>>& rows) {
  PutU32(out, static_cast<uint32_t>(rows.size()));
  for (const auto& r : rows) PutValues(out, r);
}

// --- decoding --------------------------------------------------------------

/// Bounds-checked cursor over one payload. Every accessor returns
/// false (and poisons the reader) on truncation; check ok() once at
/// the end of a fixed-shape decode, or each call when branching.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool U8(uint8_t* v) {
    if (!Need(1)) return false;
    *v = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }

  bool U32(uint32_t* v) {
    if (!Need(4)) return false;
    uint32_t r = 0;
    for (int i = 0; i < 4; ++i) {
      r |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    *v = r;
    return true;
  }

  bool U64(uint64_t* v) {
    if (!Need(8)) return false;
    uint64_t r = 0;
    for (int i = 0; i < 8; ++i) {
      r |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    *v = r;
    return true;
  }

  bool String(std::string* s) {
    uint32_t n;
    if (!U32(&n) || !Need(n)) return false;
    s->assign(data_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  bool Values(std::vector<Value>* vs) {
    uint32_t n;
    // The count must be coverable by the remaining bytes BEFORE the
    // reserve — a hostile count cannot allocate past the frame cap.
    if (!U32(&n) || !Need(static_cast<size_t>(n) * 8)) return false;
    vs->clear();
    vs->reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      uint64_t v = 0;
      U64(&v);
      vs->push_back(v);
    }
    return true;
  }

  bool Rows(std::vector<std::vector<Value>>* rows) {
    uint32_t n;
    // Each row costs at least its 4-byte count.
    if (!U32(&n) || !Need(static_cast<size_t>(n) * 4)) return false;
    rows->clear();
    rows->reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      rows->emplace_back();
      if (!Values(&rows->back())) return false;
    }
    return true;
  }

  /// All accessors so far succeeded.
  bool ok() const { return ok_; }
  /// Whole payload consumed (strict decoders reject trailing bytes).
  bool done() const { return ok_ && pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }
  std::string_view rest() const { return data_.substr(pos_); }

 private:
  bool Need(size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// --- frame I/O over a blocking socket --------------------------------------

/// Write one frame. Partial sends are retried; returns IOError when
/// the peer is gone (EPIPE/reset — never a signal, writes use
/// MSG_NOSIGNAL).
Status WriteFrame(int fd, std::string_view payload);

/// Read one frame into *payload.
///   NotFound   — clean EOF at a frame boundary (peer closed).
///   IOError    — socket error or EOF mid-frame (torn frame).
///   InvalidArgument — announced length exceeds max_frame_bytes; the
///                 stream cannot be resynchronized after this.
///   Corruption — checksum mismatch (bit flip in transit/memory).
Status ReadFrame(int fd, uint32_t max_frame_bytes, std::string* payload);

}  // namespace wire
}  // namespace lstore

#endif  // LSTORE_SERVER_WIRE_H_
