// Length-prefixed binary wire protocol for the session server.
//
// Request frame:   [u32 len][u8 op][op-specific payload]
// Response frame:  [u32 len][u8 status_code][payload]
// All integers little-endian; `len` counts everything after itself.
// Strings are [u16 len][bytes] (keys/names) or [u32 len][bytes]
// (values). The status_code is the engine's Code enum verbatim
// (kWouldBlock never crosses the wire — the server parks the session
// and answers only when the operation completes). On failure the
// response payload is the error message; on success it is the
// op-specific result:
//   kCreateTable/kOpenTable -> [u32 table_id]   (kCreateTable also
//     returns the id with kAlreadyExists — open-or-create in one round
//     trip)
//   kGet                    -> the raw value bytes (the frame length
//     already delimits them)
//   kScan                   -> [u32 n] n x ([u16 klen][k][u32 vlen][v])
//   kCount                  -> [u64 n]
//   everything else         -> empty
//
// Responses are delivered strictly in request order per connection
// (ops execute sequentially from the session's queue), so pipelining
// needs no request ids: a client may write a whole flight of frames at
// once and match the responses by position (net::WireTxn does).
//
// The op byte's high bit (kAbortOnError) marks a pipelined statement:
// if it fails, the server aborts the session's transaction, so every
// later statement of the flight, its Commit included, fails with "no
// open transaction" instead of committing a partial write set
// (PostgreSQL's pipeline-mode rule). The bit means nothing outside a
// transaction; one-at-a-time RPCs leave it clear.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "db/config.h"
#include "util/status.h"
#include "util/types.h"

namespace pgssi::net {

enum class Op : uint8_t {
  kPing = 0,
  kCreateTable = 1,
  kOpenTable = 2,
  kBegin = 3,
  kGet = 4,
  kPut = 5,
  kInsert = 6,
  kDelete = 7,
  kScan = 8,
  kCount = 9,
  kCommit = 10,
  kAbort = 11,
};

// kBegin flag bits (alongside a u8 IsolationLevel).
inline constexpr uint8_t kBeginReadOnly = 0x01;
inline constexpr uint8_t kBeginDeferrable = 0x02;

// Op-byte flag of a pipelined statement (see the header comment).
inline constexpr uint8_t kAbortOnError = 0x80;

// A frame larger than this is a protocol violation; the connection is
// dropped (bounds per-connection parser memory).
inline constexpr uint32_t kMaxFrameBytes = 16u << 20;

struct Request {
  Op op = Op::kPing;
  std::string name;       // kCreateTable / kOpenTable
  uint8_t isolation = 0;  // kBegin: IsolationLevel as u8
  uint8_t flags = 0;      // kBegin: kBeginReadOnly | kBeginDeferrable
  TableId table = 0;
  std::string key;    // also scan lo
  std::string value;  // also scan hi
  bool abort_on_error = false;  // kAbortOnError
};

// ----- encoding primitives -----

inline void PutU8(std::string* s, uint8_t v) {
  s->push_back(static_cast<char>(v));
}
inline void PutU16(std::string* s, uint16_t v) {
  for (int i = 0; i < 2; i++) s->push_back(static_cast<char>(v >> (8 * i)));
}
inline void PutU32(std::string* s, uint32_t v) {
  for (int i = 0; i < 4; i++) s->push_back(static_cast<char>(v >> (8 * i)));
}
inline void PutU64(std::string* s, uint64_t v) {
  for (int i = 0; i < 8; i++) s->push_back(static_cast<char>(v >> (8 * i)));
}
inline void PutStr16(std::string* s, std::string_view v) {
  PutU16(s, static_cast<uint16_t>(v.size()));
  s->append(v.data(), v.size());
}
inline void PutStr32(std::string* s, std::string_view v) {
  PutU32(s, static_cast<uint32_t>(v.size()));
  s->append(v.data(), v.size());
}

// Bounds-checked sequential reader over one frame body.
struct Reader {
  const char* p;
  size_t n;
  bool ok = true;
  explicit Reader(std::string_view s) : p(s.data()), n(s.size()) {}
  bool Take(void* out, size_t k) {
    if (!ok || n < k) return ok = false;
    std::memcpy(out, p, k);
    p += k;
    n -= k;
    return true;
  }
  uint8_t U8() {
    uint8_t v = 0;
    Take(&v, 1);
    return v;
  }
  uint16_t U16() {
    uint8_t b[2] = {};
    Take(b, 2);
    return static_cast<uint16_t>(b[0] | (b[1] << 8));
  }
  uint32_t U32() {
    uint8_t b[4] = {};
    Take(b, 4);
    return static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
           (static_cast<uint32_t>(b[2]) << 16) |
           (static_cast<uint32_t>(b[3]) << 24);
  }
  uint64_t U64() {
    uint64_t v = 0;
    for (int i = 0; i < 8; i++) v |= static_cast<uint64_t>(U8()) << (8 * i);
    return v;
  }
  std::string Str16() {
    const uint16_t k = U16();
    if (!ok || n < k) {
      ok = false;
      return {};
    }
    std::string s(p, k);
    p += k;
    n -= k;
    return s;
  }
  std::string Str32() {
    const uint32_t k = U32();
    if (!ok || n < k) {
      ok = false;
      return {};
    }
    std::string s(p, k);
    p += k;
    n -= k;
    return s;
  }
};

// ----- request framing -----

inline uint8_t OpByte(Op op, bool abort_on_error) {
  return static_cast<uint8_t>(static_cast<uint8_t>(op) |
                              (abort_on_error ? kAbortOnError : 0));
}

// Fields of the table statements (kGet..kCount); other ops have none.
inline void PutStatementFields(std::string* b, Op op, TableId table,
                               std::string_view key, std::string_view value) {
  switch (op) {
    case Op::kGet:
    case Op::kDelete:
      PutU32(b, table);
      PutStr16(b, key);
      break;
    case Op::kPut:
    case Op::kInsert:
      PutU32(b, table);
      PutStr16(b, key);
      PutStr32(b, value);
      break;
    case Op::kScan:
    case Op::kCount:
      PutU32(b, table);
      PutStr16(b, key);    // lo
      PutStr16(b, value);  // hi
      break;
    default:
      break;
  }
}

/// Appends one frame to `out`: a u32 length prefix, then whatever
/// `body` appends; the length is patched in once the body is written.
template <typename Body>
inline void AppendFrame(std::string* out, Body&& body) {
  const size_t at = out->size();
  PutU32(out, 0);  // length, patched below
  body();
  const uint32_t len = static_cast<uint32_t>(out->size() - at - 4);
  for (int i = 0; i < 4; i++) (*out)[at + i] = static_cast<char>(len >> (8 * i));
}

/// Appends one whole statement frame (kGet..kCount, kCommit, kAbort,
/// kPing) to a pipeline's outbound buffer, copying key and value once.
inline void AppendStatement(std::string* out, Op op, bool abort_on_error,
                            TableId table, std::string_view key,
                            std::string_view value) {
  AppendFrame(out, [&] {
    PutU8(out, OpByte(op, abort_on_error));
    PutStatementFields(out, op, table, key, value);
  });
}

inline std::string EncodeRequest(const Request& r) {
  std::string f;
  AppendFrame(&f, [&] {
    PutU8(&f, OpByte(r.op, r.abort_on_error));
    switch (r.op) {
      case Op::kCreateTable:
      case Op::kOpenTable:
        PutStr16(&f, r.name);
        break;
      case Op::kBegin:
        PutU8(&f, r.isolation);
        PutU8(&f, r.flags);
        break;
      default:
        PutStatementFields(&f, r.op, r.table, r.key, r.value);
        break;
    }
  });
  return f;
}

/// Parses one frame body. False on malformed input (unknown op,
/// truncated field, trailing bytes) — the server drops the connection.
inline bool DecodeRequestBody(std::string_view body, Request* r) {
  Reader rd(body);
  const uint8_t byte = rd.U8();
  const uint8_t op = byte & static_cast<uint8_t>(~kAbortOnError);
  if (!rd.ok || op > static_cast<uint8_t>(Op::kAbort)) return false;
  r->op = static_cast<Op>(op);
  r->abort_on_error = (byte & kAbortOnError) != 0;
  switch (r->op) {
    case Op::kPing:
    case Op::kCommit:
    case Op::kAbort:
      break;
    case Op::kCreateTable:
    case Op::kOpenTable:
      r->name = rd.Str16();
      break;
    case Op::kBegin:
      r->isolation = rd.U8();
      r->flags = rd.U8();
      break;
    case Op::kGet:
    case Op::kDelete:
      r->table = rd.U32();
      r->key = rd.Str16();
      break;
    case Op::kPut:
    case Op::kInsert:
      r->table = rd.U32();
      r->key = rd.Str16();
      r->value = rd.Str32();
      break;
    case Op::kScan:
    case Op::kCount:
      r->table = rd.U32();
      r->key = rd.Str16();
      r->value = rd.Str16();
      break;
  }
  return rd.ok && rd.n == 0;
}

// ----- response framing -----

inline std::string EncodeResponse(Code code, std::string_view payload) {
  std::string f;
  f.reserve(5 + payload.size());
  AppendFrame(&f, [&] {
    PutU8(&f, static_cast<uint8_t>(code));
    f.append(payload.data(), payload.size());
  });
  return f;
}

inline Status StatusFromWire(uint8_t code, std::string msg) {
  if (code > static_cast<uint8_t>(Code::kWouldBlock)) {
    return Status::Internal("bad status code on wire");
  }
  return Status(static_cast<Code>(code), std::move(msg));
}

// A kOverloaded response (admission refusal at accept time) carries
// [u32 retry_after_ms] instead of an error message: how long the
// server suggests waiting before reconnecting.
inline uint32_t RetryAfterMsFromOverloaded(std::string_view payload) {
  if (payload.size() < 4) return 0;
  Reader rd(payload);
  return rd.U32();
}

inline TxnOptions TxnOptionsFromBegin(const Request& r) {
  TxnOptions o;
  o.isolation = r.isolation == 0 ? IsolationLevel::kRepeatableRead
                                 : IsolationLevel::kSerializable;
  o.read_only = (r.flags & kBeginReadOnly) != 0;
  o.deferrable = (r.flags & kBeginDeferrable) != 0;
  return o;
}

inline Request BeginRequest(const TxnOptions& o) {
  Request r;
  r.op = Op::kBegin;
  r.isolation = o.isolation == IsolationLevel::kSerializable ? 1 : 0;
  r.flags = static_cast<uint8_t>((o.read_only ? kBeginReadOnly : 0) |
                                 (o.deferrable ? kBeginDeferrable : 0));
  return r;
}

}  // namespace pgssi::net
