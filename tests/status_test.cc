#include "util/status.h"

#include <gtest/gtest.h>

#include "util/statusor.h"

namespace dmc {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status s = InvalidArgumentError("bad threshold");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad threshold");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad threshold");
}

TEST(StatusTest, FactoryCodes) {
  EXPECT_EQ(NotFoundError("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(ResourceExhaustedError("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(FailedPreconditionError("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
  EXPECT_EQ(CancelledError("x").code(), StatusCode::kCancelled);
  EXPECT_EQ(DataLossError("x").code(), StatusCode::kDataLoss);
}

TEST(StatusTest, DataLossToString) {
  EXPECT_EQ(DataLossError("bad checksum").ToString(),
            "DataLoss: bad checksum");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(IOError("a"), IOError("a"));
  EXPECT_FALSE(IOError("a") == IOError("b"));
  EXPECT_FALSE(IOError("a") == InternalError("a"));
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto fails = []() -> Status { return IOError("disk"); };
  auto wrapper = [&]() -> Status {
    DMC_RETURN_IF_ERROR(fails());
    return InternalError("unreachable");
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kIOError);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value(), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = NotFoundError("missing");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> v = std::make_unique<int>(7);
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> owned = std::move(v).value();
  EXPECT_EQ(*owned, 7);
}

TEST(StatusOrTest, AssignOrReturnMacro) {
  auto source = []() -> StatusOr<int> { return 10; };
  auto consumer = [&]() -> Status {
    DMC_ASSIGN_OR_RETURN(const int x, source());
    EXPECT_EQ(x, 10);
    return Status::OK();
  };
  EXPECT_TRUE(consumer().ok());

  auto bad_source = []() -> StatusOr<int> { return IOError("nope"); };
  auto bad_consumer = [&]() -> Status {
    DMC_ASSIGN_OR_RETURN(const int x, bad_source());
    (void)x;
    return Status::OK();
  };
  EXPECT_EQ(bad_consumer().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace dmc
