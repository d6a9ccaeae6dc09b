// The example binaries' shared flag parser (examples/cli_flags.h).

#include "examples/cli_flags.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace catapult::cli {
namespace {

// Flags over `args` as if they followed "catapult_cli mine".
Flags Parse(std::vector<std::string> args) {
  args.insert(args.begin(), {"catapult_cli", "mine"});
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return Flags(static_cast<int>(argv.size()), argv.data(), 2);
}

TEST(CliFlagsTest, BooleanFlagBeforeValuedFlagsKeepsTheirValues) {
  Flags flags = Parse({"--db", "D", "--out", "P", "--gamma", "8", "--seed",
                       "42", "--sampling", "--metrics-out", "M",
                       "--checkpoint-dir", "C"});
  EXPECT_TRUE(flags.GetBool("sampling"));
  EXPECT_EQ(flags.Get("sampling"), "true");
  EXPECT_EQ(flags.Get("metrics-out"), "M");
  EXPECT_EQ(flags.Get("checkpoint-dir"), "C");
  EXPECT_EQ(flags.Get("db"), "D");
  EXPECT_EQ(flags.Get("out"), "P");
  EXPECT_EQ(flags.GetInt("gamma", 12), 8);
  EXPECT_EQ(flags.GetInt("seed", 0), 42);
}

TEST(CliFlagsTest, BooleanFlagsAnywhere) {
  Flags flags = Parse({"--resume", "--print-stats", "--db", "D",
                       "--strict-parse", "--threads", "4", "--sampling"});
  EXPECT_TRUE(flags.GetBool("resume"));
  EXPECT_TRUE(flags.GetBool("print-stats"));
  EXPECT_TRUE(flags.GetBool("strict-parse"));
  EXPECT_TRUE(flags.GetBool("sampling"));
  EXPECT_EQ(flags.Get("db"), "D");
  EXPECT_EQ(flags.GetInt("threads", 1), 4);
  EXPECT_FALSE(flags.GetBool("checkpoint-dir"));
  EXPECT_EQ(flags.GetInt("gamma", 12), 12);
}

TEST(CliFlagsTest, ValuesMayLookLikeNegativeNumbers) {
  Flags flags = Parse({"--seed", "-3", "--deadline-ms", "0"});
  EXPECT_EQ(flags.GetInt("seed", 42), -3);
  EXPECT_EQ(flags.GetInt("deadline-ms", 7), 0);
}

TEST(CliFlagsTest, StrayPositionalTokensDoNotShiftThePairing) {
  Flags flags = Parse({"extra", "--db", "D", "--out", "P"});
  EXPECT_EQ(flags.Get("db"), "D");
  EXPECT_EQ(flags.Get("out"), "P");
  EXPECT_FALSE(flags.Get("extra").has_value());
}

}  // namespace
}  // namespace catapult::cli
