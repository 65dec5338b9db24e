/** @file Unit tests of Status, Result<T>, and exception mapping. */

#include <gtest/gtest.h>

#include <new>
#include <stdexcept>
#include <string>

#include "util/status.h"

namespace dynex
{
namespace
{

TEST(Status, DefaultIsOk)
{
    const Status status;
    EXPECT_TRUE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::Ok);
    EXPECT_EQ(status.message(), "");
    EXPECT_EQ(status.toString(), "ok");
}

TEST(Status, FactoriesCarryCodeAndMessage)
{
    struct Case
    {
        Status status;
        StatusCode code;
        const char *name;
    };
    const Case cases[] = {
        {Status::corruptInput("m"), StatusCode::CorruptInput,
         "corrupt-input"},
        {Status::ioError("m"), StatusCode::IoError, "io-error"},
        {Status::resourceLimit("m"), StatusCode::ResourceLimit,
         "resource-limit"},
        {Status::internal("m"), StatusCode::Internal, "internal"},
        {Status::deadlineExceeded("m"), StatusCode::DeadlineExceeded,
         "deadline-exceeded"},
        {Status::busy("m"), StatusCode::Busy, "busy"},
        {Status::invalidArgument("m"), StatusCode::InvalidArgument,
         "invalid-argument"},
    };
    for (const auto &c : cases) {
        EXPECT_FALSE(c.status.ok());
        EXPECT_EQ(c.status.code(), c.code);
        EXPECT_EQ(c.status.message(), "m");
        EXPECT_EQ(c.status.toString(), std::string(c.name) + ": m");
        EXPECT_STREQ(statusCodeName(c.code), c.name);
    }
}

TEST(Status, WithContextPrepends)
{
    const Status status =
        Status::ioError("read failed").withContext("trace.dxt");
    EXPECT_EQ(status.code(), StatusCode::IoError);
    EXPECT_EQ(status.message(), "trace.dxt: read failed");
}

TEST(Status, BusyCarriesRetryAfterHint)
{
    const Status plain = Status::busy("shed");
    EXPECT_EQ(plain.retryAfterMs(), 0u);

    const Status hinted = Status::busy("shed", 250);
    EXPECT_EQ(hinted.code(), StatusCode::Busy);
    EXPECT_EQ(hinted.retryAfterMs(), 250u);
    EXPECT_EQ(hinted.withContext("call").retryAfterMs(), 250u);
}

TEST(Status, RetryableCodes)
{
    EXPECT_TRUE(isRetryableCode(StatusCode::Busy));
    EXPECT_TRUE(isRetryableCode(StatusCode::IoError));
    EXPECT_FALSE(isRetryableCode(StatusCode::CorruptInput));
    EXPECT_FALSE(isRetryableCode(StatusCode::ResourceLimit));
    EXPECT_FALSE(isRetryableCode(StatusCode::DeadlineExceeded));
    EXPECT_FALSE(isRetryableCode(StatusCode::Internal));
    EXPECT_FALSE(isRetryableCode(StatusCode::InvalidArgument));
    EXPECT_FALSE(isRetryableCode(StatusCode::Ok));
}

TEST(Result, HoldsAValue)
{
    Result<int> result(42);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(static_cast<bool>(result));
    EXPECT_EQ(result.value(), 42);
    EXPECT_EQ(*result, 42);
    EXPECT_TRUE(result.status().ok());
}

TEST(Result, HoldsAStatus)
{
    const Result<int> result(Status::corruptInput("bad"));
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::CorruptInput);
    EXPECT_EQ(result.status().message(), "bad");
}

TEST(Result, ArrowReachesMembers)
{
    Result<std::string> result(std::string("hello"));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->size(), 5u);
}

TEST(Result, OkStatusBecomesInternalError)
{
    const Result<int> result((Status()));
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::Internal);
}

TEST(Result, MoveOutOfRvalue)
{
    auto make = [] { return Result<std::string>(std::string("moved")); };
    const std::string out = std::move(make()).value();
    EXPECT_EQ(out, "moved");
}

TEST(StatusError, CarriesStatusAndWhat)
{
    const StatusError error(Status::resourceLimit("too big"));
    EXPECT_EQ(error.status().code(), StatusCode::ResourceLimit);
    EXPECT_EQ(std::string(error.what()), "resource-limit: too big");
}

std::exception_ptr
capture(auto thrower)
{
    try {
        thrower();
    } catch (...) {
        return std::current_exception();
    }
    return nullptr;
}

TEST(StatusFromException, StatusErrorPassesThrough)
{
    const auto ptr = capture(
        [] { throw StatusError(Status::ioError("disk gone")); });
    const Status status = statusFromException(ptr);
    EXPECT_EQ(status.code(), StatusCode::IoError);
    EXPECT_EQ(status.message(), "disk gone");
}

TEST(StatusFromException, BadAllocIsAResourceLimit)
{
    const auto ptr = capture([] { throw std::bad_alloc(); });
    EXPECT_EQ(statusFromException(ptr).code(),
              StatusCode::ResourceLimit);
}

TEST(StatusFromException, OtherExceptionsAreInternal)
{
    const auto ptr =
        capture([] { throw std::logic_error("off by one"); });
    const Status status = statusFromException(ptr);
    EXPECT_EQ(status.code(), StatusCode::Internal);
    EXPECT_NE(status.message().find("off by one"), std::string::npos);
}

} // namespace
} // namespace dynex
