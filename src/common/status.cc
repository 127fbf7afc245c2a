#include "common/status.h"

namespace unistore {

std::string_view StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kUnavailable:
      return "Unavailable";
    case StatusCode::kTimeout:
      return "Timeout";
    case StatusCode::kParseError:
      return "ParseError";
    case StatusCode::kCorruption:
      return "Corruption";
    case StatusCode::kUnimplemented:
      return "Unimplemented";
    case StatusCode::kCancelled:
      return "Cancelled";
    case StatusCode::kInternal:
      return "Internal";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out(StatusCodeToString(code()));
  if (!message().empty()) {
    out += ": ";
    out += message();
  }
  return out;
}

std::ostream& operator<<(std::ostream& os, const Status& status) {
  return os << status.ToString();
}

}  // namespace unistore
