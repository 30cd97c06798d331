// Tests for util/table and util/logging.
#include <gtest/gtest.h>

#include <sstream>

#include "util/assert.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

namespace creditflow::util {
namespace {

TEST(ConsoleTable, RendersAlignedColumns) {
  ConsoleTable t("demo");
  t.set_header({"name", "value"});
  t.add_row({std::string("alpha"), 1.5});
  t.add_row({std::string("b"), std::int64_t{42}});
  std::ostringstream oss;
  t.print(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("1.5000"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
}

TEST(ConsoleTable, RowSizeMismatchThrows) {
  ConsoleTable t;
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({1.0}), PreconditionError);
}

TEST(ConsoleTable, CsvEscapesSpecials) {
  ConsoleTable t;
  t.set_header({"text", "n"});
  t.add_row({std::string("hello, \"world\""), std::int64_t{1}});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"hello, \"\"world\"\"\""), std::string::npos);
}

TEST(ConsoleTable, CsvHasHeaderAndRows) {
  ConsoleTable t;
  t.set_header({"a", "b"});
  t.add_row({1.0, 2.0});
  const std::string csv = t.to_csv();
  EXPECT_EQ(csv.substr(0, 4), "a,b\n");
  EXPECT_NE(csv.find("1.0000,2.0000"), std::string::npos);
}

TEST(Logging, ParseLevels) {
  EXPECT_EQ(parse_log_level("trace"), LogLevel::kTrace);
  EXPECT_EQ(parse_log_level("error"), LogLevel::kError);
  EXPECT_EQ(parse_log_level("bogus"), LogLevel::kWarn);
}

}  // namespace
}  // namespace creditflow::util
