/**
 * @file
 * Structured error reporting: Status (a code plus a message) and
 * Result<T> (a value or a Status), replacing the bool + std::string*
 * idiom across trace I/O and the sweep entry points.
 *
 * Categories are deliberately coarse so callers can branch on intent:
 *   CorruptInput     the bytes/text being parsed are malformed
 *   IoError          the OS failed us (open/read/write); message
 *                    carries the errno text
 *   ResourceLimit    the input is structurally valid but implausibly
 *                    or dangerously large (e.g. a record count
 *                    exceeding the stream)
 *   Internal         an unexpected failure inside the library
 *   DeadlineExceeded a request's deadline expired before the work ran
 *   Busy             the peer shed the request under load; retryable,
 *                    optionally with a retry-after hint
 */

#ifndef DYNEX_UTIL_STATUS_H
#define DYNEX_UTIL_STATUS_H

#include <exception>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

namespace dynex
{

/** Error category of a Status. */
enum class StatusCode : std::uint8_t
{
    Ok = 0,
    CorruptInput,
    IoError,
    ResourceLimit,
    Internal,
    DeadlineExceeded,
    Busy,
    /** A request no configuration of this build can serve (e.g. a
     * cache geometry outside the kernel's 32-bit set indices). */
    InvalidArgument,
};

/** @return "ok", "corrupt-input", "io-error", ... */
const char *statusCodeName(StatusCode code);

/** @return true when retrying the same operation later can succeed
 * without changing the request (overload or transient transport). */
bool isRetryableCode(StatusCode code);

/**
 * An error code plus a human-readable message. Default-constructed
 * Status is Ok; errors are built via the named factories.
 */
class [[nodiscard]] Status
{
  public:
    /** Ok. */
    Status() = default;

    static Status corruptInput(std::string message);
    static Status ioError(std::string message);
    static Status resourceLimit(std::string message);
    static Status internal(std::string message);
    static Status deadlineExceeded(std::string message);
    /** Overload shedding; @p retry_after_ms of 0 means "no hint". */
    static Status busy(std::string message,
                       std::uint32_t retry_after_ms = 0);
    static Status invalidArgument(std::string message);

    bool ok() const { return statusCode == StatusCode::Ok; }
    StatusCode code() const { return statusCode; }
    const std::string &message() const { return text; }

    /** Advisory retry delay carried by Busy statuses (0 = none). */
    std::uint32_t retryAfterMs() const { return retryAfterHintMs; }

    /** "corrupt-input: bad magic", or "ok". */
    std::string toString() const;

    /** A copy with "@p context: " prepended to the message. */
    Status withContext(const std::string &context) const;

  private:
    Status(StatusCode code, std::string message)
        : statusCode(code), text(std::move(message))
    {}

    StatusCode statusCode = StatusCode::Ok;
    std::string text;
    std::uint32_t retryAfterHintMs = 0;
};

/**
 * Either a T or the Status explaining why there is none. Implicitly
 * constructible from both so `return trace;` and `return
 * Status::corruptInput(...)` both work.
 */
template <typename T>
class [[nodiscard]] Result
{
  public:
    Result(T value) : contents(std::move(value)) {}

    /** @p status must not be Ok; an Ok status is recorded as an
     * Internal error rather than silently inventing a value. */
    Result(Status status)
        : contents(status.ok()
                       ? Status::internal("Result built from Ok status")
                       : std::move(status))
    {}

    bool ok() const { return std::holds_alternative<T>(contents); }
    explicit operator bool() const { return ok(); }

    /** The error, or an Ok status when a value is present. */
    const Status &
    status() const
    {
        return ok() ? okStatus : std::get<Status>(contents);
    }

    T &value() & { return std::get<T>(contents); }
    const T &value() const & { return std::get<T>(contents); }
    T &&value() && { return std::get<T>(std::move(contents)); }

    T &operator*() & { return value(); }
    const T &operator*() const & { return value(); }
    T *operator->() { return &value(); }
    const T *operator->() const { return &value(); }

  private:
    /** Constant-initialized, so reading it needs no guard. */
    static constinit inline const Status okStatus{};
    std::variant<Status, T> contents;
};

/** A Status carried as an exception, for code that must throw (e.g.
 * bodies running under ThreadPool::parallelFor). */
class StatusError : public std::runtime_error
{
  public:
    explicit StatusError(Status status)
        : std::runtime_error(status.toString()),
          statusValue(std::move(status))
    {}

    const Status &status() const { return statusValue; }

  private:
    Status statusValue;
};

/**
 * Map a captured exception to a Status: StatusError passes its status
 * through, std::bad_alloc becomes ResourceLimit, any other
 * std::exception becomes Internal with its what() text.
 */
Status statusFromException(std::exception_ptr error);

} // namespace dynex

#endif // DYNEX_UTIL_STATUS_H
