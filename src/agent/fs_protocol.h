// Wire protocol between the file agent and the file service (paper §3).
//
// "The semantics of the messages exchanged among the file agent,
// transaction agent, file service, and naming service constitute idempotent
// operations." The protocol is built to honour that: data operations are
// positional (pread/pwrite), which are naturally idempotent — replaying a
// lost-reply retransmission re-produces the same state and the same answer.
// The few operations that are not naturally idempotent (create, delete,
// resize) carry a client-generated token; the server remembers recent
// tokens and replays the original reply instead of re-executing.
// A close rides the write batch that carries the file's dirty blocks, as
// its finish. A replayed batch re-applies its positional extents, and a
// `sync` finish forces the same bytes again. A `close` batch carries a
// token too: its retransmission replays the first reply and runs no second
// close, so it never releases another holder's pin.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/serializer.h"
#include "common/types.h"
#include "file/file_types.h"

namespace rhodos::agent {

enum class FsOp : std::uint32_t {
  kCreate = 1,
  kDelete = 2,
  kOpen = 3,
  // 4 was close and 9 was flush; both are now the finish of a kPwriteVec.
  kPread = 5,
  // 6 was a single-extent pwrite; a write-through pwrite is now a one-extent
  // kPwriteVec. The numbers stay reserved so no other opcode moves.
  kGetAttr = 7,
  kResize = 8,
  kPwriteVec = 10,
  // Callback/lease coherence (cache callbacks, NOT the disk-substrate
  // DiskLease): kCallbackBreak is the one server->agent message in the
  // protocol — the service revoking a callback promise before a mutation's
  // reply; kCallbackRenew lets an agent re-arm an expired callback (and
  // revalidate its version token) in one exchange without a full open.
  kCallbackBreak = 11,
  kCallbackRenew = 12,
  // O(1) point-in-time images (E23). Both carry an idempotency token: a
  // replayed capture must return the SAME image id, not mint a second one.
  kSnapshot = 13,
  kClone = 14,
  // Cache-tier read fan-out (E24): agent->agent block fetch. A reader that
  // a hot file's server redirected asks a callback-holding peer for clean
  // cached blocks. The peer answers ONLY if its promise is unbroken and its
  // version token equals the redirect's expected token — anything else
  // (broken promise, stale token, blocks evicted) is an error and the
  // reader falls back to the origin. Naturally idempotent:
  // it reads immutable version-stamped bytes and mutates nothing.
  kPeerRead = 15,
};

// Kind byte of a pread reply: the server either returns the bytes itself or
// redirects the reader to callback-holding peer agents (cache-tier read
// fan-out on a hot file).
inline constexpr std::uint8_t kPreadReplyData = 0;
inline constexpr std::uint8_t kPreadReplyRedirect = 1;

// Every reply starts with a status frame.
void EncodeStatus(Serializer& out, const Status& status);
void EncodeError(Serializer& out, const Error& error);
Status DecodeStatus(Deserializer& in);

void EncodeAttributes(Serializer& out, const file::FileAttributes& attrs);
file::FileAttributes DecodeAttributes(Deserializer& in);

// Request bodies. Each struct has Encode/Decode mirrors used by both sides.
// Requests carry an optional callback address `cb` (the bus service the
// agent registered to receive kCallbackBreak notifications; empty = agent
// does not participate in callback coherence). On read-path ops it asks the
// server for a callback grant; on mutating ops it identifies the writer so
// the server excludes it from the break fan-out. The field is appended at
// the end of each struct so positional aggregate initialisation of the
// pre-callback fields keeps working.
struct CreateRequest {
  std::uint64_t token = 0;  // idempotency token
  file::ServiceType type = file::ServiceType::kBasic;
  std::uint64_t size_hint = 0;
  std::string cb;

  std::vector<std::uint8_t> Encode() const;
  static Result<CreateRequest> Decode(std::span<const std::uint8_t> data);
};

struct FileRequest {  // delete/open/getattr/callback-renew/snapshot/clone
  std::uint64_t token = 0;
  FileId file{};
  std::string cb;

  std::vector<std::uint8_t> Encode() const;
  static Result<FileRequest> Decode(std::span<const std::uint8_t> data);
};

struct PreadRequest {
  FileId file{};
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  std::string cb;
  // True when the reader already chased (or refuses) a cache-tier redirect
  // for this read: the server must answer with bytes, never another
  // redirect. This is what bounds a miss at "one extra exchange".
  bool no_redirect = false;

  std::vector<std::uint8_t> Encode() const;
  static Result<PreadRequest> Decode(std::span<const std::uint8_t> data);
};

// Body of a kPeerRead request (agent -> agent): the redirected reader asks a
// callback-holding peer for `length` bytes at `offset`, valid only at
// exactly `expected_version` (the token the origin stamped on the redirect).
struct PeerReadRequest {
  FileId file{};
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  std::uint64_t expected_version = 0;

  std::vector<std::uint8_t> Encode() const;
  static Result<PeerReadRequest> Decode(std::span<const std::uint8_t> data);
};

struct ResizeRequest {
  std::uint64_t token = 0;
  FileId file{};
  std::uint64_t size = 0;
  std::string cb;

  std::vector<std::uint8_t> Encode() const;
  static Result<ResizeRequest> Decode(std::span<const std::uint8_t> data);
};

// One contiguous run of bytes to write. Extents in a PwriteVecRequest may
// target several files, so a whole cache's worth of delayed writes (flush-all,
// eviction pressure) still costs a single exchange.
struct PwriteExtent {
  FileId file{};
  std::uint64_t offset = 0;
  std::vector<std::uint8_t> data;
};

// What a write batch does to one file once every extent applied: nothing,
// close it (FileService::Close: the service's delayed writes and hard
// table changes reach the disks, and the open pin goes), or sync it
// without closing (FileService::Sync, for a handle the server never
// pinned).
enum class PwriteFinish : std::uint8_t { kNone = 0, kClose = 1, kSync = 2 };

// The one write request and the one close: many (file, offset, run)
// extents per message — a batched write-behind flush, a single
// write-through pwrite as a batch of one, or a close carrying its file's
// dirty blocks (possibly none). Every extent is positional and therefore
// idempotent — replaying the whole batch re-produces the same file state.
// A close is not: a batch that closes carries an idempotency token, and a
// retransmission of it gets the remembered reply instead of dropping a
// second pin. The finish runs on `finish_file` only if every extent
// applied. The reply carries the bytes applied and the per-file version
// tokens after all extents applied, then the finish's status (OK for
// kNone).
struct PwriteVecRequest {
  std::vector<PwriteExtent> extents;
  std::string cb;
  PwriteFinish finish = PwriteFinish::kNone;
  FileId finish_file{};
  std::uint64_t token = 0;  // idempotency token of a kClose batch

  std::vector<std::uint8_t> Encode() const;
  static Result<PwriteVecRequest> Decode(std::span<const std::uint8_t> bytes);
};

// Body of a kCallbackBreak notification (server -> agent): the file whose
// callback promise is being revoked and the post-mutation version token.
// Sent before the mutation's reply, so a holder that acknowledges the break
// can never observe the new version while still serving stale cached data.
struct CallbackBreak {
  FileId file{};
  std::uint64_t version = 0;

  std::vector<std::uint8_t> Encode() const;
  static Result<CallbackBreak> Decode(std::span<const std::uint8_t> data);
};

}  // namespace rhodos::agent
