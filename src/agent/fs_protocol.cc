#include "agent/fs_protocol.h"

#include <algorithm>

namespace rhodos::agent {

void EncodeStatus(Serializer& out, const Status& status) {
  if (status.ok()) {
    out.U16(static_cast<std::uint16_t>(ErrorCode::kOk));
    out.String("");
  } else {
    EncodeError(out, status.error());
  }
}

void EncodeError(Serializer& out, const Error& error) {
  out.U16(static_cast<std::uint16_t>(error.code));
  out.String(error.message);
}

Status DecodeStatus(Deserializer& in) {
  const auto code = static_cast<ErrorCode>(in.U16());
  std::string message = in.String();
  if (!in.ok()) {
    return {ErrorCode::kInternal, "malformed reply status"};
  }
  if (code == ErrorCode::kOk) return OkStatus();
  return {code, std::move(message)};
}

void EncodeAttributes(Serializer& out, const file::FileAttributes& a) {
  out.U64(a.size);
  out.I64(a.created_time);
  out.I64(a.last_read_time);
  out.U32(a.ref_count);
  out.U64(a.access_count);
  out.U8(static_cast<std::uint8_t>(a.service_type));
  out.U8(static_cast<std::uint8_t>(a.locking_level));
  out.U32(a.extra_space);
  out.U8(a.image_flags);
  out.U64(a.origin);
}

file::FileAttributes DecodeAttributes(Deserializer& in) {
  file::FileAttributes a;
  a.size = in.U64();
  a.created_time = in.I64();
  a.last_read_time = in.I64();
  a.ref_count = in.U32();
  a.access_count = in.U64();
  a.service_type = static_cast<file::ServiceType>(in.U8());
  a.locking_level = static_cast<file::LockLevel>(in.U8());
  a.extra_space = in.U32();
  a.image_flags = in.U8();
  a.origin = in.U64();
  return a;
}

std::vector<std::uint8_t> CreateRequest::Encode() const {
  Serializer out;
  out.U64(token);
  out.U8(static_cast<std::uint8_t>(type));
  out.U64(size_hint);
  out.String(cb);
  return std::move(out).Take();
}

Result<CreateRequest> CreateRequest::Decode(
    std::span<const std::uint8_t> data) {
  Deserializer in{data};
  CreateRequest r;
  r.token = in.U64();
  r.type = static_cast<file::ServiceType>(in.U8());
  r.size_hint = in.U64();
  r.cb = in.String();
  if (!in.ok()) return Error{ErrorCode::kInvalidArgument, "bad create req"};
  return r;
}

std::vector<std::uint8_t> FileRequest::Encode() const {
  Serializer out;
  out.U64(token);
  out.U64(file.value);
  out.String(cb);
  return std::move(out).Take();
}

Result<FileRequest> FileRequest::Decode(std::span<const std::uint8_t> data) {
  Deserializer in{data};
  FileRequest r;
  r.token = in.U64();
  r.file = FileId{in.U64()};
  r.cb = in.String();
  if (!in.ok()) return Error{ErrorCode::kInvalidArgument, "bad file req"};
  return r;
}

std::vector<std::uint8_t> PreadRequest::Encode() const {
  Serializer out;
  out.U64(file.value);
  out.U64(offset);
  out.U64(length);
  out.String(cb);
  out.U8(no_redirect ? 1 : 0);
  return std::move(out).Take();
}

Result<PreadRequest> PreadRequest::Decode(
    std::span<const std::uint8_t> data) {
  Deserializer in{data};
  PreadRequest r;
  r.file = FileId{in.U64()};
  r.offset = in.U64();
  r.length = in.U64();
  r.cb = in.String();
  r.no_redirect = in.U8() != 0;
  if (!in.ok() || !RangeFits(r.offset, r.length)) {
    return Error{ErrorCode::kInvalidArgument, "bad pread req"};
  }
  return r;
}

std::vector<std::uint8_t> PeerReadRequest::Encode() const {
  Serializer out;
  out.U64(file.value);
  out.U64(offset);
  out.U64(length);
  out.U64(expected_version);
  return std::move(out).Take();
}

Result<PeerReadRequest> PeerReadRequest::Decode(
    std::span<const std::uint8_t> data) {
  Deserializer in{data};
  PeerReadRequest r;
  r.file = FileId{in.U64()};
  r.offset = in.U64();
  r.length = in.U64();
  r.expected_version = in.U64();
  if (!in.ok() || !RangeFits(r.offset, r.length)) {
    return Error{ErrorCode::kInvalidArgument, "bad peer read"};
  }
  return r;
}

std::vector<std::uint8_t> ResizeRequest::Encode() const {
  Serializer out;
  out.U64(token);
  out.U64(file.value);
  out.U64(size);
  out.String(cb);
  return std::move(out).Take();
}

Result<ResizeRequest> ResizeRequest::Decode(
    std::span<const std::uint8_t> data) {
  Deserializer in{data};
  ResizeRequest r;
  r.token = in.U64();
  r.file = FileId{in.U64()};
  r.size = in.U64();
  r.cb = in.String();
  if (!in.ok()) return Error{ErrorCode::kInvalidArgument, "bad resize req"};
  return r;
}

std::vector<std::uint8_t> PwriteVecRequest::Encode() const {
  Serializer out;
  out.U32(static_cast<std::uint32_t>(extents.size()));
  for (const PwriteExtent& e : extents) {
    out.U64(e.file.value);
    out.U64(e.offset);
    out.Bytes(e.data);
  }
  out.String(cb);
  out.U8(static_cast<std::uint8_t>(finish));
  out.U64(finish_file.value);
  out.U64(token);
  return std::move(out).Take();
}

Result<PwriteVecRequest> PwriteVecRequest::Decode(
    std::span<const std::uint8_t> bytes) {
  Deserializer in{bytes};
  PwriteVecRequest r;
  const std::uint32_t count = in.U32();
  for (std::uint32_t i = 0; i < count && in.ok(); ++i) {
    PwriteExtent e;
    e.file = FileId{in.U64()};
    e.offset = in.U64();
    e.data = in.Bytes();
    r.extents.push_back(std::move(e));
  }
  r.cb = in.String();
  const std::uint8_t finish = in.U8();
  r.finish = static_cast<PwriteFinish>(finish);
  r.finish_file = FileId{in.U64()};
  r.token = in.U64();
  const bool fits = std::all_of(
      r.extents.begin(), r.extents.end(),
      [](const PwriteExtent& e) { return RangeFits(e.offset, e.data.size()); });
  if (!in.ok() || r.extents.size() != count || !fits ||
      finish > static_cast<std::uint8_t>(PwriteFinish::kSync)) {
    return Error{ErrorCode::kInvalidArgument, "bad pwritevec req"};
  }
  return r;
}

std::vector<std::uint8_t> CallbackBreak::Encode() const {
  Serializer out;
  out.U64(file.value);
  out.U64(version);
  return std::move(out).Take();
}

Result<CallbackBreak> CallbackBreak::Decode(
    std::span<const std::uint8_t> data) {
  Deserializer in{data};
  CallbackBreak r;
  r.file = FileId{in.U64()};
  r.version = in.U64();
  if (!in.ok()) return Error{ErrorCode::kInvalidArgument, "bad break"};
  return r;
}

}  // namespace rhodos::agent
