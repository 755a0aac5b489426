#include "critique/common/status.h"

#include <cstdio>
#include <cstdlib>

namespace critique {

std::string_view StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
    case StatusCode::kWouldBlock:
      return "WouldBlock";
    case StatusCode::kDeadlock:
      return "Deadlock";
    case StatusCode::kSerializationFailure:
      return "SerializationFailure";
    case StatusCode::kTransactionAborted:
      return "TransactionAborted";
    case StatusCode::kInternal:
      return "Internal";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out(StatusCodeName(code_));
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

void CheckOrDie(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "critique contract violation: %s\n", what);
    std::abort();
  }
}

}  // namespace critique
