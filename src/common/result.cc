#include "common/result.h"

namespace rhodos {

std::string_view ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk: return "OK";
    case ErrorCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case ErrorCode::kNotFound: return "NOT_FOUND";
    case ErrorCode::kAlreadyExists: return "ALREADY_EXISTS";
    case ErrorCode::kPermissionDenied: return "PERMISSION_DENIED";
    case ErrorCode::kUnavailable: return "UNAVAILABLE";
    case ErrorCode::kInternal: return "INTERNAL";
    case ErrorCode::kNotSupported: return "NOT_SUPPORTED";
    case ErrorCode::kNoSpace: return "NO_SPACE";
    case ErrorCode::kBadAddress: return "BAD_ADDRESS";
    case ErrorCode::kMediaError: return "MEDIA_ERROR";
    case ErrorCode::kDiskCrashed: return "DISK_CRASHED";
    case ErrorCode::kBadDescriptor: return "BAD_DESCRIPTOR";
    case ErrorCode::kFileTooLarge: return "FILE_TOO_LARGE";
    case ErrorCode::kWrongServiceType: return "WRONG_SERVICE_TYPE";
    case ErrorCode::kStaleHandle: return "STALE_HANDLE";
    case ErrorCode::kLockTimeout: return "LOCK_TIMEOUT";
    case ErrorCode::kTxnAborted: return "TXN_ABORTED";
    case ErrorCode::kTxnNotActive: return "TXN_NOT_ACTIVE";
    case ErrorCode::kLockConflict: return "LOCK_CONFLICT";
    case ErrorCode::kDeadlockSuspected: return "DEADLOCK_SUSPECTED";
    case ErrorCode::kNotLocked: return "NOT_LOCKED";
    case ErrorCode::kNameNotResolved: return "NAME_NOT_RESOLVED";
    case ErrorCode::kAmbiguousName: return "AMBIGUOUS_NAME";
    case ErrorCode::kMessageDropped: return "MESSAGE_DROPPED";
    case ErrorCode::kNotConnected: return "NOT_CONNECTED";
    case ErrorCode::kTimeout: return "TIMEOUT";
  }
  return "UNKNOWN";
}

}  // namespace rhodos
