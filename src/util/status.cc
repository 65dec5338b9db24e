#include "util/status.h"

#include <new>

namespace dynex
{

const char *
statusCodeName(StatusCode code)
{
    switch (code) {
      case StatusCode::Ok:
        return "ok";
      case StatusCode::CorruptInput:
        return "corrupt-input";
      case StatusCode::IoError:
        return "io-error";
      case StatusCode::ResourceLimit:
        return "resource-limit";
      case StatusCode::Internal:
        return "internal";
      case StatusCode::DeadlineExceeded:
        return "deadline-exceeded";
      case StatusCode::Busy:
        return "busy";
      case StatusCode::InvalidArgument:
        return "invalid-argument";
    }
    return "unknown";
}

bool
isRetryableCode(StatusCode code)
{
    return code == StatusCode::Busy || code == StatusCode::IoError;
}

Status
Status::corruptInput(std::string message)
{
    return Status(StatusCode::CorruptInput, std::move(message));
}

Status
Status::ioError(std::string message)
{
    return Status(StatusCode::IoError, std::move(message));
}

Status
Status::resourceLimit(std::string message)
{
    return Status(StatusCode::ResourceLimit, std::move(message));
}

Status
Status::internal(std::string message)
{
    return Status(StatusCode::Internal, std::move(message));
}

Status
Status::deadlineExceeded(std::string message)
{
    return Status(StatusCode::DeadlineExceeded, std::move(message));
}

Status
Status::busy(std::string message, std::uint32_t retry_after_ms)
{
    Status status(StatusCode::Busy, std::move(message));
    status.retryAfterHintMs = retry_after_ms;
    return status;
}

Status
Status::invalidArgument(std::string message)
{
    return Status(StatusCode::InvalidArgument, std::move(message));
}

std::string
Status::toString() const
{
    if (ok())
        return "ok";
    std::string out = statusCodeName(statusCode);
    if (!text.empty()) {
        out += ": ";
        out += text;
    }
    return out;
}

Status
Status::withContext(const std::string &context) const
{
    if (ok())
        return *this;
    Status status(statusCode, context + ": " + text);
    status.retryAfterHintMs = retryAfterHintMs;
    return status;
}

Status
statusFromException(std::exception_ptr error)
{
    if (!error)
        return Status();
    try {
        std::rethrow_exception(error);
    } catch (const StatusError &e) {
        return e.status();
    } catch (const std::bad_alloc &) {
        return Status::resourceLimit("allocation failed");
    } catch (const std::exception &e) {
        return Status::internal(e.what());
    } catch (...) {
        return Status::internal("unknown exception");
    }
}

} // namespace dynex
