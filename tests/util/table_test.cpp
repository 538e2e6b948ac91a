#include "util/table.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "util/error.hpp"

namespace latol::util {
namespace {

TEST(Table, RequiresAtLeastOneColumn) {
  EXPECT_THROW(Table({}), InvalidArgument);
}

TEST(Table, RejectsRowWithWrongArity) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"1"}), InvalidArgument);
  EXPECT_THROW(t.add_row({"1", "2", "3"}), InvalidArgument);
}

TEST(Table, CountsRows) {
  Table t({"a"});
  EXPECT_EQ(t.rows(), 0u);
  t.add_row({"x"});
  t.add_row({"y"});
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, FormatsNumbersWithPrecision) {
  EXPECT_EQ(Table::num(1.23456, 2), "1.23");
  EXPECT_EQ(Table::num(1.0, 3), "1.000");
}

TEST(Table, PrintContainsHeadersAndCells) {
  Table t({"n_t", "U_p"});
  t.add_row({"8", "0.82"});
  std::ostringstream os;
  os << t;
  const std::string s = os.str();
  EXPECT_NE(s.find("n_t"), std::string::npos);
  EXPECT_NE(s.find("U_p"), std::string::npos);
  EXPECT_NE(s.find("0.82"), std::string::npos);
}

TEST(Table, PrintAlignsColumns) {
  Table t({"x", "long_header"});
  t.add_row({"very_long_cell", "1"});
  std::ostringstream os;
  t.print(os);
  // Each emitted line must have the same length (fixed column widths).
  std::istringstream in(os.str());
  std::string line;
  std::size_t len = 0;
  while (std::getline(in, line)) {
    if (len == 0) len = line.size();
    EXPECT_EQ(line.size(), len) << "line: " << line;
  }
}

TEST(Banner, MentionsTitle) {
  std::ostringstream os;
  print_banner(os, "Figure 4");
  EXPECT_NE(os.str().find("Figure 4"), std::string::npos);
}

}  // namespace
}  // namespace latol::util
