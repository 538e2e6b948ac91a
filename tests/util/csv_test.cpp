#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>

#include "util/error.hpp"

namespace latol::util {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("latol_csv_test_" +
              std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
              "_" + ::testing::UnitTest::GetInstance()
                        ->current_test_info()
                        ->name() +
              ".csv"))
                .string();
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string read_all() {
    std::ifstream in(path_);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  }

  std::string path_;
};

TEST_F(CsvTest, WritesHeaderAndRows) {
  {
    CsvWriter csv(path_, {"a", "b"});
    csv.add_row(std::vector<double>{1.5, 2.0});
    csv.add_row(std::vector<std::string>{"x", "y"});
  }
  EXPECT_EQ(read_all(), "a,b\n1.5,2\nx,y\n");
}

TEST_F(CsvTest, RejectsWrongArity) {
  CsvWriter csv(path_, {"a", "b"});
  EXPECT_THROW(csv.add_row(std::vector<double>{1.0}), InvalidArgument);
}

TEST_F(CsvTest, RejectsEmptyHeader) {
  EXPECT_THROW(CsvWriter(path_, {}), InvalidArgument);
}

TEST_F(CsvTest, ThrowsOnUnwritablePath) {
  EXPECT_THROW(CsvWriter("/nonexistent_dir_zz/x.csv", {"a"}), InvalidArgument);
}

TEST_F(CsvTest, RoundTripsDoublesAtFullPrecision) {
  const double value = 0.028846153846153848;
  {
    CsvWriter csv(path_, {"v"});
    csv.add_row(std::vector<double>{value});
  }
  std::ifstream in(path_);
  std::string header, cell;
  std::getline(in, header);
  std::getline(in, cell);
  EXPECT_DOUBLE_EQ(std::stod(cell), value);
}

// The oracle: csv_number must print exactly the bytes of printf's %.17g,
// which is what the ostream formatting it replaced printed.
std::string printf_17g(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

TEST(CsvNumber, MatchesPrintfOnSpecialValues) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double v :
       {0.0, -0.0, inf, -inf, nan, std::copysign(nan, -1.0),
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(), DBL_MIN, DBL_MAX,
        -DBL_MAX, 1.0, 0.1, 1e-5, 1e-4, 123456789012345678.0}) {
    EXPECT_EQ(csv_number(v), printf_17g(v)) << printf_17g(v);
  }
  EXPECT_EQ(csv_number(-0.0), "-0");
  EXPECT_EQ(csv_number(std::copysign(nan, -1.0)), "-nan");
}

TEST(CsvNumber, MatchesPrintfOnLargeIntegers) {
  // %.17g switches to exponent form at 1e17; integers around 2^53 stop
  // being exact.
  std::size_t mismatches = 0;
  for (const double v : {1e15, 1e16, 1e17, 9007199254740991.0,
                         9007199254740992.0, 9007199254740993.0,
                         99999999999999999.0, 72057594037927936.0}) {
    for (const double d :
         {v, std::nextafter(v, 0.0), std::nextafter(v, 1e18)}) {
      mismatches += csv_number(d) != printf_17g(d);
    }
  }
  std::mt19937_64 rng(17);
  std::uniform_int_distribution<std::int64_t> pick(1'000'000'000'000'000,
                                                   100'000'000'000'000'000);
  for (int n = 0; n < 100000; ++n) {
    const double v = static_cast<double>(pick(rng));
    mismatches += csv_number(v) != printf_17g(v);
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(CsvNumber, MatchesPrintfOnRandomBitPatternsAndUniformValues) {
  std::mt19937_64 rng(20261020);
  std::size_t mismatches = 0;
  std::string first;
  for (int n = 0; n < (1 << 20); ++n) {
    const double v = std::bit_cast<double>(rng());
    if (csv_number(v) != printf_17g(v)) {
      if (mismatches++ == 0) first = printf_17g(v);
    }
  }
  std::uniform_real_distribution<double> uniform(0.0, 100.0);
  for (int n = 0; n < 200000; ++n) {
    const double v = uniform(rng);
    if (csv_number(v) != printf_17g(v)) {
      if (mismatches++ == 0) first = printf_17g(v);
    }
  }
  EXPECT_EQ(mismatches, 0u) << "first mismatch: " << first;
}

}  // namespace
}  // namespace latol::util
