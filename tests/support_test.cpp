#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "support/check.h"
#include "support/flags.h"
#include "support/rng.h"
#include "support/table.h"

namespace gnnhls {
namespace {

TEST(RngTest, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform_int(0, 1 << 20) == b.uniform_int(0, 1 << 20)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int v = rng.uniform_int(3, 6);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 6);
    saw_lo |= v == 3;
    saw_hi |= v == 6;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, WeightedIndexRespectsZeros) {
  Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(rng.weighted_index({0.0, 1.0, 0.0}), 1);
  }
}

TEST(RngTest, EmptyRangeThrows) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_int(5, 4), std::invalid_argument);
}

TEST(CheckTest, ThrowsWithMessage) {
  try {
    GNNHLS_CHECK(false, "context message");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("context message"),
              std::string::npos);
  }
}

TEST(FlagsTest, ParsesEqualsAndSpaceForms) {
  const char* argv[] = {"prog", "--alpha=3", "--beta", "4.5", "--gamma"};
  Flags flags(5, argv);
  EXPECT_EQ(flags.get_int("alpha", 0), 3);
  EXPECT_DOUBLE_EQ(flags.get_double("beta", 0.0), 4.5);
  EXPECT_TRUE(flags.get_bool("gamma", false));
  EXPECT_EQ(flags.get_int("missing", 9), 9);
  flags.check_all_consumed();
}

TEST(FlagsTest, UnconsumedFlagDetected) {
  const char* argv[] = {"prog", "--typo=1"};
  Flags flags(2, argv);
  EXPECT_THROW(flags.check_all_consumed(), std::invalid_argument);
}

TEST(FlagsTest, RejectsNonFlagArgument) {
  const char* argv[] = {"prog", "positional"};
  EXPECT_THROW(Flags(2, argv), std::invalid_argument);
}

/// Expects `get` to throw std::invalid_argument whose message names `flag`.
template <typename Get>
void expect_rejects(Get get, const std::string& flag) {
  try {
    get();
    ADD_FAILURE() << "expected --" << flag << " to be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--" + flag), std::string::npos)
        << e.what();
  }
}

TEST(FlagsTest, BoolAcceptsExactlySixSpellings) {
  const char* argv[] = {"prog",      "--a=true", "--b=1", "--c=yes",
                        "--d=false", "--e=0",    "--f=no"};
  Flags flags(7, argv);
  EXPECT_TRUE(flags.get_bool("a", false));
  EXPECT_TRUE(flags.get_bool("b", false));
  EXPECT_TRUE(flags.get_bool("c", false));
  EXPECT_FALSE(flags.get_bool("d", true));
  EXPECT_FALSE(flags.get_bool("e", true));
  EXPECT_FALSE(flags.get_bool("f", true));
  EXPECT_TRUE(flags.get_bool("missing", true));
}

TEST(FlagsTest, BoolRejectsOtherSpellings) {
  const char* argv[] = {"prog", "--active=on", "--obs=True", "--x="};
  Flags flags(4, argv);
  expect_rejects([&] { flags.get_bool("active", false); }, "active");
  expect_rejects([&] { flags.get_bool("obs", false); }, "obs");
  expect_rejects([&] { flags.get_bool("x", false); }, "x");
}

TEST(FlagsTest, NumbersMustParseWhole) {
  const char* argv[] = {"prog",       "--epochs=12x", "--runs=abc",
                        "--seed=99999999999", "--lr=0.1.2", "--scale=",
                        "--hidden=-3", "--rate=2e3"};
  Flags flags(8, argv);
  expect_rejects([&] { flags.get_int("epochs", 0); }, "epochs");
  expect_rejects([&] { flags.get_int("runs", 0); }, "runs");
  expect_rejects([&] { flags.get_int("seed", 0); }, "seed");
  expect_rejects([&] { flags.get_double("lr", 0.0); }, "lr");
  expect_rejects([&] { flags.get_double("scale", 0.0); }, "scale");
  EXPECT_EQ(flags.get_int("hidden", 0), -3);
  EXPECT_DOUBLE_EQ(flags.get_double("rate", 0.0), 2000.0);
}

TEST(TableTest, RendersAlignedColumns) {
  TextTable t({"model", "MAPE"});
  t.add_row({"GCN", TextTable::pct(0.1631)});
  t.add_row({"RGCN", TextTable::pct(0.1327)});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("16.31%"), std::string::npos);
  EXPECT_NE(s.find("RGCN"), std::string::npos);
  EXPECT_NE(s.find("|"), std::string::npos);
}

TEST(TableTest, RowWidthMismatchThrows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), std::invalid_argument);
}

}  // namespace
}  // namespace gnnhls
