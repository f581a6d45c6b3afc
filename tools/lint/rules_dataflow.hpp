// Parallel-region dataflow rules. The lexer's token tree scopes each
// analysis to a structural region (a lambda body, a loop body) instead of a
// line window:
//
//   D3  RNG draws and shared-member (`name_`) mutation inside parallel
//       sections.
//   D6  structural verification of the sanctioned slot pattern: every write
//       inside a parallel section must target a subscripted lvalue whose
//       index derives from the lambda's item/index parameter or a by-value
//       capture (possibly through locals computed from them).
//   D7  order-sensitive accumulation: `x += ...` / `x = x + ...` into a
//       captured variable inside a parallel section, or into a loop-outer
//       variable inside a range-for over an unordered container.
//   D8  raw `.lock()` / `.unlock()` calls (RAII guards only).
#pragma once

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "lexer.hpp"
#include "lint.hpp"

namespace carbonedge::lint {

struct Region {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// One code region that executes on worker lanes: the body of a lambda
/// passed (directly, or via a named `auto body = [...]` variable) to
/// util::parallel_for, the one parallel loop, plus the names the
/// slot-index analysis treats as per-item seeds — the lambda's parameters
/// and its explicit by-value captures (each task gets its own copy, so
/// indexing by them is the disjoint-slot pattern).
struct ParallelRegion {
  Region body;
  std::vector<std::string> seeds;
};

[[nodiscard]] std::vector<ParallelRegion> parallel_regions_of(const FileScan& fs);

void rule_d3(const FileScan& fs, std::vector<Finding>& findings);
void rule_d6(const FileScan& fs, std::vector<Finding>& findings);
void rule_d7(const FileScan& fs, const std::set<std::string>& unordered_names,
             std::vector<Finding>& findings);
void rule_d8(const FileScan& fs, std::vector<Finding>& findings);

}  // namespace carbonedge::lint
