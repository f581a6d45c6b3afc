// Command-line flag helpers shared by the CLI, the examples and the benches.
//
// Flags are spelled `--name=VALUE`. flag_value() matches one argument
// against a prefix; take_flag() strips a flag out of argv before the rest is
// handed on (to a subcommand parser or to google-benchmark). Values parse
// strictly: the whole text must be a finite number or a decimal count in
// range, and a bad value throws with the whole argument in the message,
// never truncates ("12x" as 12) or wraps ("-1" as 2^32 - 1).
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

namespace carbonedge::util {

/// The text after `prefix` when `arg` starts with it (`flag_value(arg,
/// "--epochs=")`), else nullopt.
[[nodiscard]] std::optional<std::string_view> flag_value(std::string_view arg,
                                                         std::string_view prefix) noexcept;

/// Removes every `name` and `name=VALUE` argument from argv[1..argc), keeps
/// the others in order, and returns the last one's value ("" for a bare
/// `name`); nullopt when there was none. A `name` that ends in '=' takes
/// only the `name` + VALUE spelling and leaves a bare flag in argv.
[[nodiscard]] std::optional<std::string> take_flag(int& argc, char** argv,
                                                   std::string_view name);

/// `value` as a finite double; all of it must parse. Throws
/// std::invalid_argument("bad number in <arg>") for "12x", "nan", "inf", an
/// out-of-range value like "1e400", or an empty value. `arg` is the whole
/// argument the value came from.
[[nodiscard]] double parse_flag_double(std::string_view value, std::string_view arg);
[[nodiscard]] inline double parse_flag_double(std::string_view arg) {
  return parse_flag_double(arg, arg);
}

/// `value` as a decimal count no larger than `max`: digits only. Throws
/// std::invalid_argument("bad count in <arg>") for "-1", "3x" or an empty
/// value, and std::out_of_range("count out of range in <arg>") above `max`.
/// A value beyond 64 bits reads as the 64-bit maximum.
[[nodiscard]] std::uint64_t parse_count(std::string_view value, std::string_view arg,
                                        std::uint64_t max);

/// parse_count() within T's range.
template <typename T = std::uint64_t>
[[nodiscard]] T parse_flag_unsigned(std::string_view value, std::string_view arg) {
  return static_cast<T>(parse_count(value, arg, std::numeric_limits<T>::max()));
}
template <typename T = std::uint64_t>
[[nodiscard]] T parse_flag_unsigned(std::string_view arg) {
  return parse_flag_unsigned<T>(arg, arg);
}

}  // namespace carbonedge::util
