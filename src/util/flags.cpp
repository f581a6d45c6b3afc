#include "util/flags.hpp"

#include <cmath>
#include <stdexcept>

namespace carbonedge::util {

std::optional<std::string_view> flag_value(std::string_view arg,
                                           std::string_view prefix) noexcept {
  if (!arg.starts_with(prefix)) return std::nullopt;
  return arg.substr(prefix.size());
}

std::optional<std::string> take_flag(int& argc, char** argv, std::string_view name) {
  const bool bare_ok = !name.ends_with('=');
  const std::string prefix = bare_ok ? std::string(name) + "=" : std::string(name);
  std::optional<std::string> taken;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (bare_ok && arg == name) {
      taken = "";
    } else if (const auto value = flag_value(arg, prefix)) {
      taken = std::string(*value);
    } else {
      argv[kept++] = argv[i];
    }
  }
  if (kept < argc) argv[kept] = nullptr;
  argc = kept;
  return taken;
}

double parse_flag_double(std::string_view value, std::string_view arg) {
  const std::string text(value);
  std::size_t used = 0;
  double parsed = 0.0;
  try {
    parsed = std::stod(text, &used);
  } catch (const std::logic_error&) {  // invalid_argument, out_of_range
    throw std::invalid_argument("bad number in " + std::string(arg));
  }
  if (used != text.size() || !std::isfinite(parsed)) {
    throw std::invalid_argument("bad number in " + std::string(arg));
  }
  return parsed;
}

std::uint64_t parse_count(std::string_view value, std::string_view arg, std::uint64_t max) {
  if (value.empty() || value.find_first_not_of("0123456789") != std::string_view::npos) {
    throw std::invalid_argument("bad count in " + std::string(arg));
  }
  unsigned long long parsed = 0;
  try {
    parsed = std::stoull(std::string(value));
  } catch (const std::out_of_range&) {
    parsed = std::numeric_limits<unsigned long long>::max();
  }
  if (parsed > max) throw std::out_of_range("count out of range in " + std::string(arg));
  return parsed;
}

}  // namespace carbonedge::util
