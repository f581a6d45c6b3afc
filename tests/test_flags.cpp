// util/flags: strict value parsing, prefix matching and argv stripping.
#include "util/flags.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace carbonedge::util {
namespace {

/// The message of the exception `parse` throws, or "" when it returns.
template <typename Parse>
std::string error_of(Parse parse) {
  try {
    (void)parse();
  } catch (const std::exception& error) {
    return error.what();
  }
  return "";
}

TEST(ParseFlagDouble, AcceptsWholeFiniteNumbers) {
  const std::vector<std::pair<std::string, double>> accepted = {
      {"0", 0.0}, {"15", 15.0}, {"-3.5", -3.5}, {"1e3", 1000.0}, {"0.25", 0.25}};
  for (const auto& [text, value] : accepted) {
    EXPECT_EQ(parse_flag_double(text), value) << text;
  }
}

TEST(ParseFlagDouble, RejectsSuffixedNonFiniteOverflowingAndEmpty) {
  for (const std::string text : {"12x", "15x", "abc", "nan", "inf", "-inf", "1e400", ""}) {
    EXPECT_THROW((void)parse_flag_double(text), std::invalid_argument) << text;
    EXPECT_EQ(error_of([&] { return parse_flag_double(text); }), "bad number in " + text);
  }
}

TEST(ParseFlagDouble, ErrorNamesTheWholeArgument) {
  EXPECT_EQ(error_of([] { return parse_flag_double("12x", "--band=12x"); }),
            "bad number in --band=12x");
  EXPECT_EQ(parse_flag_double("2.5", "--band=2.5"), 2.5);
}

TEST(ParseFlagUnsigned, AcceptsDigitsWithinRange) {
  EXPECT_EQ(parse_flag_unsigned<std::uint32_t>("0"), 0u);
  EXPECT_EQ(parse_flag_unsigned<std::uint32_t>("64"), 64u);
  EXPECT_EQ(parse_flag_unsigned<std::uint32_t>("4294967295"), 4294967295u);
  EXPECT_EQ(parse_flag_unsigned("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(ParseFlagUnsigned, RejectsSignsSuffixesNonDigitsAndEmpty) {
  for (const std::string text : {"12x", "-1", "+1", "nan", "1e400", " 5", "1.0", ""}) {
    EXPECT_THROW((void)parse_flag_unsigned<std::uint32_t>(text), std::invalid_argument) << text;
    EXPECT_EQ(error_of([&] { return parse_flag_unsigned<std::uint32_t>(text); }),
              "bad count in " + text);
  }
}

TEST(ParseFlagUnsigned, RejectsValuesBeyondTheTargetType) {
  EXPECT_THROW((void)parse_flag_unsigned<std::uint32_t>("4294967296"), std::out_of_range);
  EXPECT_EQ(error_of([] {
              return parse_flag_unsigned<std::uint32_t>("4294967296", "--epochs=4294967296");
            }),
            "count out of range in --epochs=4294967296");
  EXPECT_THROW((void)parse_flag_unsigned<std::uint32_t>("99999999999999999999"),
               std::out_of_range);
  // Beyond 64 bits a 64-bit count reads as its maximum.
  EXPECT_EQ(parse_flag_unsigned("99999999999999999999"),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(FlagValue, MatchesOnlyTheExactPrefix) {
  EXPECT_EQ(flag_value("--epochs=12", "--epochs="), std::optional<std::string_view>("12"));
  EXPECT_EQ(flag_value("--epochs=", "--epochs="), std::optional<std::string_view>(""));
  EXPECT_EQ(flag_value("--epochs", "--epochs="), std::nullopt);
  EXPECT_EQ(flag_value("--epochsX=12", "--epochs="), std::nullopt);
  EXPECT_EQ(flag_value("--window-epochs=12", "--epochs="), std::nullopt);
  EXPECT_EQ(flag_value("alpha=0.5", "alpha="), std::optional<std::string_view>("0.5"));
}

/// A mutable argv over `args`, with the trailing null main() gets.
struct Argv {
  explicit Argv(std::vector<std::string> args) : storage(std::move(args)) {
    for (std::string& arg : storage) pointers.push_back(arg.data());
    pointers.push_back(nullptr);
    argc = static_cast<int>(storage.size());
  }
  [[nodiscard]] std::vector<std::string> remaining() const {
    return std::vector<std::string>(pointers.begin(), pointers.begin() + argc);
  }
  std::vector<std::string> storage;
  std::vector<char*> pointers;
  int argc = 0;
};

TEST(TakeFlag, RemovesEverySpellingAndKeepsTheRestInOrder) {
  Argv argv({"bench", "a", "--store=one", "b", "--storeX", "--store=two", "c"});
  EXPECT_EQ(take_flag(argv.argc, argv.pointers.data(), "--store"), "two");
  EXPECT_EQ(argv.remaining(), (std::vector<std::string>{"bench", "a", "b", "--storeX", "c"}));
  EXPECT_EQ(argv.pointers[static_cast<std::size_t>(argv.argc)], nullptr);
}

TEST(TakeFlag, LastValueWinsAndABareFlagReadsEmpty) {
  Argv bare_last({"bench", "--store=dir", "--store"});
  EXPECT_EQ(take_flag(bare_last.argc, bare_last.pointers.data(), "--store"), "");
  EXPECT_EQ(bare_last.remaining(), std::vector<std::string>{"bench"});

  Argv bare_first({"bench", "--store", "x", "--store=dir"});
  EXPECT_EQ(take_flag(bare_first.argc, bare_first.pointers.data(), "--store"), "dir");
  EXPECT_EQ(bare_first.remaining(), (std::vector<std::string>{"bench", "x"}));
}

TEST(TakeFlag, NameEndingInEqualsLeavesTheBareFlag) {
  Argv argv({"cli", "--metrics", "serve", "--metrics=a.json", "--metrics-rows",
             "--metrics=b.json"});
  EXPECT_EQ(take_flag(argv.argc, argv.pointers.data(), "--metrics="), "b.json");
  EXPECT_EQ(argv.remaining(),
            (std::vector<std::string>{"cli", "--metrics", "serve", "--metrics-rows"}));
}

TEST(TakeFlag, AbsentFlagLeavesArgvAlone) {
  Argv argv({"bench", "--benchmark_min_time=1x"});
  EXPECT_EQ(take_flag(argv.argc, argv.pointers.data(), "--bench-json="), std::nullopt);
  EXPECT_EQ(argv.remaining(), (std::vector<std::string>{"bench", "--benchmark_min_time=1x"}));
  // argv[0] is the program, never a flag.
  Argv program_only({"--store"});
  EXPECT_EQ(take_flag(program_only.argc, program_only.pointers.data(), "--store"), std::nullopt);
  EXPECT_EQ(program_only.argc, 1);
}

}  // namespace
}  // namespace carbonedge::util
