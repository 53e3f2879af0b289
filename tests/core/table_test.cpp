#include "core/table.hpp"
#include "temp_path.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace adapt::core {
namespace {

TEST(TextTable, PrintsAlignedColumns) {
  TextTable t({"stage", "ms"});
  t.add_row({"recon", "36.9"});
  t.add_row({"localization setup", "35.4"});
  std::ostringstream os;
  t.print(os, "Timing");
  const std::string out = os.str();
  EXPECT_NE(out.find("Timing"), std::string::npos);
  EXPECT_NE(out.find("recon"), std::string::npos);
  EXPECT_NE(out.find("localization setup"), std::string::npos);
  // Header separator lines present.
  EXPECT_NE(out.find("+--"), std::string::npos);
}

TEST(TextTable, RowWidthMustMatchHeader) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), std::invalid_argument);
}

TEST(TextTable, EmptyHeaderRejected) {
  EXPECT_THROW(TextTable({}), std::invalid_argument);
}

TEST(TextTable, NumberFormatting) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(3.0, 1), "3.0");
  EXPECT_EQ(TextTable::integer(42), "42");
  EXPECT_EQ(TextTable::integer(-7), "-7");
}

TEST(TextTable, CsvRoundTrip) {
  TextTable t({"name", "value"});
  t.add_row({"plain", "1"});
  t.add_row({"with,comma", "2"});
  t.add_row({"with\"quote", "3"});
  const std::string path = test::temp_path("adaptml_table_test", ".csv");
  ASSERT_TRUE(t.write_csv(path));

  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "name,value");
  std::getline(f, line);
  EXPECT_EQ(line, "plain,1");
  std::getline(f, line);
  EXPECT_EQ(line, "\"with,comma\",2");
  std::getline(f, line);
  EXPECT_EQ(line, "\"with\"\"quote\",3");
  std::remove(path.c_str());
}

TEST(TextTable, CsvFailsOnBadPath) {
  TextTable t({"a"});
  EXPECT_FALSE(t.write_csv("/nonexistent_dir_xyz/file.csv"));
}

TEST(TextTable, RowsCounted) {
  TextTable t({"a"});
  EXPECT_EQ(t.rows(), 0u);
  t.add_row({"x"});
  EXPECT_EQ(t.rows(), 1u);
}

}  // namespace
}  // namespace adapt::core
