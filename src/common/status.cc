#include "src/common/status.h"

namespace mercurial {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kAlreadyExists:
      return "ALREADY_EXISTS";
    case StatusCode::kFailedPrecondition:
      return "FAILED_PRECONDITION";
    case StatusCode::kResourceExhausted:
      return "RESOURCE_EXHAUSTED";
    case StatusCode::kDataLoss:
      return "DATA_LOSS";
    case StatusCode::kAborted:
      return "ABORTED";
    case StatusCode::kInternal:
      return "INTERNAL";
  }
  return "UNKNOWN";
}

Status CheckProbability(double p, const char* name) {
  if (!(p >= 0.0 && p <= 1.0)) {  // negated so NaN is rejected too
    return InvalidArgumentError(std::string(name) + " must be in [0, 1]");
  }
  return Status::Ok();
}

}  // namespace mercurial
