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
// Bodies: every layout lives in this header, once. Each op's request
// and response is a type whose LSTORE_WIRE_FIELDS list names its
// fields in wire order, and one generic Encode/Decode walks that list
// for the client and the server alike. Scalars are fixed-width
// little-endian, enums and bools one byte, strings and vectors
// u32-count-prefixed. The op table (LSTORE_WIRE_OPS) maps each Op to
// its request type, its response type and its static name. Every
// decode is bounds-checked against the remaining payload — a hostile
// count cannot force an allocation larger than the (already
// length-capped) frame it arrived in.

#ifndef LSTORE_SERVER_WIRE_H_
#define LSTORE_SERVER_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "obs/health.h"
#include "txn/transaction.h"

namespace lstore {
namespace wire {

/// Default cap on one frame's payload (requests and responses). A
/// frame announcing more than the cap is rejected before any
/// allocation — the standard defense against a hostile length header.
inline constexpr uint32_t kDefaultMaxFrameBytes = 8u << 20;

/// Bytes a frame adds around its payload (length + checksum).
inline constexpr size_t kFrameOverhead = 8;

/// High bit of the request op byte: a u64 trace id follows the op.
/// Ops must stay below this value.
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

/// Append `v` little-endian, in sizeof(T) bytes.
template <typename T>
void PutInt(std::string* out, T v) {
  char b[sizeof(T)];
  for (size_t i = 0; i < sizeof(T); ++i) {
    b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
  out->append(b, sizeof(T));
}

inline void PutU8(std::string* out, uint8_t v) { PutInt(out, v); }
inline void PutU32(std::string* out, uint32_t v) { PutInt(out, v); }
inline void PutU64(std::string* out, uint64_t v) { PutInt(out, v); }

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

  /// Read sizeof(T) little-endian bytes.
  template <typename T>
  bool Int(T* v) {
    if (!Need(sizeof(T))) return false;
    T r = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      r |= static_cast<T>(static_cast<T>(static_cast<uint8_t>(data_[pos_ + i]))
                          << (8 * i));
    }
    pos_ += sizeof(T);
    *v = r;
    return true;
  }

  bool U8(uint8_t* v) { return Int(v); }
  bool U32(uint32_t* v) { return Int(v); }
  bool U64(uint64_t* v) { return Int(v); }

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

// --- layouts ---------------------------------------------------------------

/// Declares a message's wire fields, in wire order: the one field list
/// Encode and Decode walk.
#define LSTORE_WIRE_FIELDS(...)                      \
  auto Tie() { return std::tie(__VA_ARGS__); }       \
  auto Tie() const { return std::tie(__VA_ARGS__); }

using Row = std::vector<Value>;
using Rows = std::vector<std::vector<Value>>;
using Strings = std::vector<std::string>;
/// No fields: the body of every ack-only reply and argument-less request.
using Empty = std::tuple<>;

struct CreateTableRequest {
  std::string table;
  Strings columns;
  LSTORE_WIRE_FIELDS(table, columns)
};

struct InsertRequest {
  std::string table;
  Row row;
  LSTORE_WIRE_FIELDS(table, row)
};

struct ReadRequest {
  std::string table;
  Value key = 0;
  ColumnMask mask = 0;
  LSTORE_WIRE_FIELDS(table, key, mask)
};

struct UpdateRequest {
  std::string table;
  Value key = 0;
  ColumnMask mask = 0;
  Row row;
  LSTORE_WIRE_FIELDS(table, key, mask, row)
};

struct DeleteRequest {
  std::string table;
  Value key = 0;
  LSTORE_WIRE_FIELDS(table, key)
};

struct MultiReadRequest {
  std::string table;
  ColumnMask mask = 0;
  Row keys;
  LSTORE_WIRE_FIELDS(table, mask, keys)
};

/// rows[i] holds keys[i]'s columns (empty when missing); codes[i] is
/// that key's own outcome.
struct MultiReadResponse {
  Rows rows;
  std::vector<Status::Code> codes;
  LSTORE_WIRE_FIELDS(rows, codes)
};

struct InsertBatchRequest {
  std::string table;
  Rows rows;
  LSTORE_WIRE_FIELDS(table, rows)
};

struct UpdateBatchRequest {
  std::string table;
  ColumnMask mask = 0;
  Row keys;
  Rows rows;
  LSTORE_WIRE_FIELDS(table, mask, keys, rows)
};

struct DeleteBatchRequest {
  std::string table;
  Row keys;
  LSTORE_WIRE_FIELDS(table, keys)
};

/// Wire form of the Query builder: row range, equality filters, time
/// travel. (Predicate filters cannot cross the wire.)
struct QuerySpec {
  uint64_t first_row = 0;
  uint64_t row_count = ~0ull;
  uint64_t as_of = 0;  ///< 0 = server-side Now()
  std::vector<std::pair<ColumnId, Value>> where;  ///< equality filters
  LSTORE_WIRE_FIELDS(first_row, row_count, as_of, where)
};

struct QueryRequest {
  std::string table;
  QueryKind kind = QueryKind::kSum;
  ColumnId column = 0;
  QuerySpec spec;
  LSTORE_WIRE_FIELDS(table, kind, column, spec)
};

struct Aggregate {
  uint64_t value = 0;
  uint64_t rows = 0;  ///< visible rows the aggregate covered
  LSTORE_WIRE_FIELDS(value, rows)
};

/// A kQuery reply has one of two shapes, picked by the request's kind:
/// kKeys answers a Row, every other kind an Aggregate. The shape is
/// not tagged on the wire: Encode writes the alternative the variant
/// holds, and Decode reads into the one it holds.
using QueryResponse = std::variant<Aggregate, Row>;

/// Largest valid value of each enum that travels (one byte); Decode
/// rejects anything above it.
constexpr auto LastOf(IsolationLevel) { return IsolationLevel::kSerializable; }
constexpr auto LastOf(QueryKind) { return QueryKind::kKeys; }
constexpr auto LastOf(Status::Code) { return Status::Code::kBusy; }
constexpr auto LastOf(HealthVerdict) { return HealthVerdict::kStalled; }
constexpr auto LastOf(EventSeverity) { return EventSeverity::kError; }

// --- the op table ----------------------------------------------------------

// One row per op: enumerator, stable wire value (append, never
// renumber), static name (slow-op log lines and error messages),
// request layout, response layout.
#define LSTORE_WIRE_OPS(X)                                                \
  X(kPing, 1, "ping", Empty, Empty)                                       \
  X(kCreateTable, 2, "create_table", CreateTableRequest, Empty)           \
  X(kListTables, 3, "list_tables", Empty, Strings)                        \
  X(kSchema, 4, "schema", std::string /* table */, Strings)               \
  X(kBegin, 5, "begin", IsolationLevel, Empty)                            \
  X(kCommit, 6, "commit", Empty, Empty)                                   \
  X(kAbort, 7, "abort", Empty, Empty)                                     \
  X(kInsert, 8, "insert", InsertRequest, Empty)                           \
  X(kRead, 9, "read", ReadRequest, Row)                                   \
  X(kUpdate, 10, "update", UpdateRequest, Empty)                          \
  X(kDelete, 11, "delete", DeleteRequest, Empty)                          \
  X(kMultiRead, 12, "multiread", MultiReadRequest, MultiReadResponse)     \
  X(kInsertBatch, 13, "insert_batch", InsertBatchRequest, Empty)          \
  X(kUpdateBatch, 14, "update_batch", UpdateBatchRequest, Empty)          \
  X(kDeleteBatch, 15, "delete_batch", DeleteBatchRequest, Empty)          \
  X(kQuery, 16, "query", QueryRequest, QueryResponse)                     \
  X(kMetrics, 17, "metrics", Empty, std::string /* Prometheus text */)    \
  X(kTrace, 18, "trace", Empty, std::string /* Chrome trace JSON */)      \
  X(kHealth, 19, "health", Empty, HealthReport)

enum class Op : uint8_t {
#define LSTORE_WIRE_OP_ENUM(op, value, name, Req, Resp) op = value,
  LSTORE_WIRE_OPS(LSTORE_WIRE_OP_ENUM)
#undef LSTORE_WIRE_OP_ENUM
};

template <Op> struct OpSpec;
#define LSTORE_WIRE_OP_SPEC(op, value, name, Req, Resp) \
  template <> struct OpSpec<Op::op> {                   \
    using Request = Req;                                \
    using Response = Resp;                              \
  };
LSTORE_WIRE_OPS(LSTORE_WIRE_OP_SPEC)
#undef LSTORE_WIRE_OP_SPEC

template <Op op> using RequestOf = typename OpSpec<op>::Request;
template <Op op> using ResponseOf = typename OpSpec<op>::Response;

/// Static name of an op; "unknown" for a value outside the table. A
/// string literal, so slow-op dumps and spans may keep the pointer.
constexpr const char* OpName(Op op) {
  switch (op) {
#define LSTORE_WIRE_OP_NAME(op, value, name, Req, Resp) \
  case Op::op:                                          \
    return name;
    LSTORE_WIRE_OPS(LSTORE_WIRE_OP_NAME)
#undef LSTORE_WIRE_OP_NAME
  }
  return "unknown";
}

// --- the generic codec -----------------------------------------------------

template <typename T> inline constexpr bool kIsVector = false;
template <typename T> inline constexpr bool kIsVector<std::vector<T>> = true;
template <typename T> inline constexpr bool kIsVariant = false;
template <typename... T>
inline constexpr bool kIsVariant<std::variant<T...>> = true;

/// fn(fields...) over a layout's field list: its LSTORE_WIRE_FIELDS,
/// a pair's two members, or, for the health report types the engine
/// declares, the lists below.
template <typename T, typename Fn>
auto ApplyFields(T& v, Fn&& fn) {
  using U = std::remove_const_t<T>;
  if constexpr (requires { v.Tie(); }) {
    return std::apply(fn, v.Tie());
  } else if constexpr (requires { std::tuple_size<U>{}; }) {
    return std::apply(fn, v);
  } else if constexpr (std::is_same_v<U, ActorHealth>) {
    return std::apply(fn, std::tie(v.name, v.verdict, v.busy, v.since_beat_ms,
                                   v.beats, v.slow_ms, v.stall_ms));
  } else if constexpr (std::is_same_v<U, Event>) {
    return std::apply(fn,
                      std::tie(v.ts_ms, v.severity, v.actor, v.kind, v.fields));
  } else {
    // The verdict counts do not travel: the client recounts them.
    static_assert(std::is_same_v<U, HealthReport>);
    return std::apply(fn, std::tie(v.actors, v.recent_events));
  }
}

/// Append `v`'s wire form to *out.
template <typename T>
void Encode(std::string* out, const T& v) {
  if constexpr (std::is_enum_v<T> || std::is_same_v<T, bool>) {
    PutU8(out, static_cast<uint8_t>(v));
  } else if constexpr (std::is_unsigned_v<T>) {
    PutInt(out, v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    PutString(out, v);
  } else if constexpr (std::is_same_v<T, Row>) {
    PutValues(out, v);
  } else if constexpr (std::is_same_v<T, Rows>) {
    PutRows(out, v);
  } else if constexpr (kIsVector<T>) {
    PutU32(out, static_cast<uint32_t>(v.size()));
    for (const auto& e : v) Encode(out, e);
  } else if constexpr (kIsVariant<T>) {
    std::visit([&](const auto& alt) { Encode(out, alt); }, v);
  } else {
    ApplyFields(v, [&](const auto&... f) { (Encode(out, f), ...); });
  }
}

/// Read one `T` at the cursor; false on truncation or an out-of-range
/// enum.
template <typename T>
bool Decode(Reader* in, T* v) {
  if constexpr (std::is_same_v<T, bool>) {
    uint8_t b = 0;
    if (!in->U8(&b)) return false;
    *v = b != 0;
    return true;
  } else if constexpr (std::is_enum_v<T>) {
    uint8_t b = 0;
    if (!in->U8(&b) || b > static_cast<uint8_t>(LastOf(T{}))) {
      return false;
    }
    *v = static_cast<T>(b);
    return true;
  } else if constexpr (std::is_unsigned_v<T>) {
    return in->Int(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return in->String(v);
  } else if constexpr (std::is_same_v<T, Row>) {
    return in->Values(v);
  } else if constexpr (std::is_same_v<T, Rows>) {
    return in->Rows(v);
  } else if constexpr (kIsVector<T>) {
    // Every element takes at least one byte, so a count the rest of
    // the payload cannot cover is rejected before anything grows.
    uint32_t n = 0;
    if (!in->U32(&n) || n > in->remaining()) return false;
    v->clear();
    for (uint32_t i = 0; i < n; ++i) {
      if (!Decode(in, &v->emplace_back())) return false;
    }
    return true;
  } else if constexpr (kIsVariant<T>) {
    return std::visit([&](auto& alt) { return Decode(in, &alt); }, *v);
  } else {
    return ApplyFields(*v, [&](auto&... f) { return (Decode(in, &f) && ...); });
  }
}

/// Decode `data` as exactly one `T`; trailing bytes are malformed too.
template <typename T>
bool Decode(std::string_view data, T* v) {
  Reader in(data);
  return Decode(&in, v) && in.done();
}

// --- headers and frames ----------------------------------------------------

struct RequestHeader {
  uint32_t id = 0;
  Op op = Op::kPing;
  uint64_t trace_id = 0;  ///< 0 = untraced (no trace field on the wire)
};

struct ResponseHeader {
  uint32_t id = 0;
  Status::Code code = Status::Code::kOk;
  std::string message;
  LSTORE_WIRE_FIELDS(id, code, message)
};

/// Append [id][op | flag][trace_id iff nonzero].
void PutRequestHeader(std::string* out, const RequestHeader& h);

/// Parse the header off the front of *payload, leaving the body there.
/// False on a short header (a request's h->id holds the id when it was
/// complete).
bool ParseRequestHeader(std::string* payload, RequestHeader* h);
bool ParseResponseHeader(std::string* payload, ResponseHeader* h);

/// Fill in the length prefix of a frame built after 4 placeholder bytes
/// and append its checksum.
std::string SealFrame(std::string frame);

/// One request frame, body encoded straight into it.
template <typename Req>
std::string RequestFrame(const RequestHeader& h, const Req& req) {
  std::string frame(4, '\0');
  PutRequestHeader(&frame, h);
  Encode(&frame, req);
  return SealFrame(std::move(frame));
}

/// One response frame; the body travels only with an OK status.
template <typename Resp = Empty>
std::string ResponseFrame(uint32_t id, const Status& s, const Resp& resp = {}) {
  std::string frame(4, '\0');
  Encode(&frame, ResponseHeader{id, s.code(), s.message()});
  if (s.ok()) Encode(&frame, resp);
  return SealFrame(std::move(frame));
}

// --- frame I/O over a blocking socket --------------------------------------

/// Write one sealed frame. Partial sends are retried; returns IOError
/// when the peer is gone (EPIPE/reset — never a signal, writes use
/// MSG_NOSIGNAL).
Status SendFrame(int fd, std::string_view frame);

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
