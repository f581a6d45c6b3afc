// carbonedge_lint — a determinism and architecture linter for the
// CarbonEdge tree.
//
// The repo's load-bearing guarantee is that sweep, sim, solver, and serve
// output is byte-identical across CARBONEDGE_THREADS. The TSan job and the
// determinism smoke gate enforce that dynamically, for the runs they happen
// to exercise; this linter rejects the known *sources* of nondeterminism —
// and the structural decay that precedes them — at the source level, always,
// on every file:
//
//   D1  banned nondeterminism primitives: std::rand/srand, random_device,
//       *_clock::now, time(nullptr), this_thread::get_id, and ordered
//       containers keyed on pointers (iteration order = allocation order).
//   D2  iteration over unordered_map/unordered_set in any form (range-for
//       or .begin() loops) must either be the serial-snapshot idiom or
//       carry a reasoned `unordered-iteration-ok` annotation — folding or
//       emitting in bucket order is how fp sums drift.
//   D3  inside parallel sections (lambdas passed to util::parallel_for,
//       directly or via a named lambda):
//       no RNG draws (coordinator-only RNG is the PR 5 contract) and no
//       mutation of shared member state (`name_` identifiers) except
//       disjoint-slot writes (`name_[index] = ...`).
//   D4  `float` is banned in the accounting/telemetry layers (src/sim,
//       src/core): the store codecs and the replay oracle are a bit-exact
//       double contract.
//   D5  std::getenv only inside the util::env shim, so every environment
//       input the process reads is auditable in one place.
//   D6  the sanctioned slot pattern, verified structurally: every write
//       inside a parallel section must target a subscripted lvalue whose
//       index derives from the lambda's item/index parameter (or a by-value
//       capture); writes through captured-by-reference locals that are not
//       slot buffers, and slot writes with an unrelated index, are findings.
//   D7  order-sensitive accumulation: `x += ...` / `x = x + ...` into a
//       captured variable inside a parallel section, or into any loop-outer
//       variable inside a range-for over an unordered container. The escape
//       hatch (`ordered-fold-ok`) is for folds proven insensitive to order.
//   D8  raw `.lock()` / `.unlock()` calls: mutexes are held through RAII
//       guards only, so no early return can leak a lock.
//   H1  header hygiene: `#pragma once` required, `using namespace` banned
//       in headers.
//
// and the architecture pass, checked tree-wide against the layer DAG
// declared in tools/lint/layers.txt:
//
//   A1  upward or undeclared cross-module dependency: module(includer) must
//       be allowed to depend on module(header) per the transitive closure
//       of layers.txt.
//   A2  include cycle among the tree's own headers (DFS, each cycle
//       reported once with its full deterministic path).
//   A3  src/* including from bench/, tests/, or examples/.
//   A4  IWYU-lite, unused include: a quoted include of one of our headers
//       none of whose exported names is referenced by the includer.
//   A5  IWYU-lite, transitive-only include: a file uses a symbol whose
//       unique exporting header is reachable only transitively — the
//       include chain is reported and `--fix-includes` emits the insertion.
//       Chains entering through the file's companion header (x.cpp ->
//       x.hpp -> ...) are exempt: the companion's includes are part of the
//       file's own declared interface.
//
// Findings are suppressible only with a reasoned in-source annotation
//
//   // lint: <token>(<reason>)
//
// on the finding's line or the line directly above it, or with an entry in
// the checked-in allowlist (`<rule> <path> <reason>` per line). The token
// for each rule is listed by `carbonedge_lint --list-rules` (see rules()).
// The tool validates its own escape hatches: a malformed annotation, an
// unknown token, an empty reason, or a suppression that matches no finding
// is itself an error (rule id LINT), so the suppression set can never rot.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace carbonedge::lint {

struct Finding {
  std::string file;
  std::size_t line = 0;  // 1-based
  std::string rule;      // "D1".."D8", "H1", "A1".."A5", or "LINT" (meta)
  std::string message;
};

/// "file:line: rule-id: message" — the one diagnostic shape everything emits.
[[nodiscard]] std::string format(const Finding& finding);

/// A file queued for linting. `path` is the repo-relative label used in
/// diagnostics, allowlist matching, include resolution, and the path gates.
struct SourceFile {
  std::string path;
  std::string content;
};

/// One `// lint: <token>(<reason>)` suppression extracted from a comment.
struct Annotation {
  std::size_t line = 0;  // line the comment ends on
  std::string token;
  std::string reason;
  bool malformed = false;
  std::string error;  // set when malformed
  bool used = false;
};

/// One `<rule> <path> <reason...>` line of the checked-in allowlist.
struct AllowlistEntry {
  std::size_t line = 0;
  std::string rule;
  std::string path;
  std::string reason;
  bool used = false;
};

/// One rule the engine knows: its id, its suppression token, and a one-line
/// summary (`--list-rules`).
struct RuleInfo {
  std::string id;
  std::string token;
  std::string summary;
};

/// Every rule, in report order (D1..D8, H1, A1..A5).
[[nodiscard]] const std::vector<RuleInfo>& rules();

/// Suppression token -> rule id, derived from rules(). An unknown token in
/// an annotation is itself a LINT error.
[[nodiscard]] const std::map<std::string, std::string>& token_rules();

/// One mechanical include fix derived from an A4/A5 finding, consumed by
/// `--fix-includes` (rendered as a unified diff by report.hpp).
struct IncludeEdit {
  std::string file;
  std::size_t line = 0;  // 1-based: line to remove, or to insert before
  bool remove = false;
  std::string rule;  // the finding that produced it ("A4" or "A5")
  std::string text;  // the inserted `#include "..."` line (insertions only)
};

struct LintConfig {
  /// Rule ids to run; empty means every rule. LINT meta findings always run.
  std::vector<std::string> rules;
  /// Contents of tools/lint/layers.txt. Empty disables A1 and the
  /// declared-module validation (A2–A5 need no layer declaration).
  std::string layers_text;
  /// Label used for LINT findings against the layers file itself.
  std::string layers_label = "layers.txt";
};

struct LintOutput {
  std::vector<Finding> findings;
  std::vector<IncludeEdit> edits;       // fixes for surviving A4/A5 findings
  std::string module_graph_dot;         // observed module graph (Graphviz)
};

/// Returns `source` with identical length and line structure, but with
/// comment bodies and string/char/raw-string literal contents blanked to
/// spaces — the view every rule scans, so nothing inside a comment or
/// literal can ever fire (or suppress) a rule.
[[nodiscard]] std::string strip_comments_and_literals(std::string_view source);

/// Extracts lint annotations from comment text only (an annotation spelled
/// inside a string literal is not an annotation). Malformed annotations are
/// returned with `malformed` set so the engine can report them.
[[nodiscard]] std::vector<Annotation> extract_annotations(std::string_view source);

/// Parses the allowlist; malformed lines become LINT findings against
/// `label`.
[[nodiscard]] std::vector<AllowlistEntry> parse_allowlist(std::string_view content,
                                                          std::string_view label,
                                                          std::vector<Finding>& errors);

/// Full engine: lexes every file, collects tree-wide state (unordered
/// container names, the include graph, header export sets), runs the
/// enabled rules, then applies and validates annotations and the allowlist.
/// Findings come back sorted by (file, line, rule, message); edits are the
/// mechanical fixes for the A4/A5 findings that survived suppression.
[[nodiscard]] LintOutput run_lint_full(const std::vector<SourceFile>& files,
                                       std::vector<AllowlistEntry>& allowlist,
                                       const LintConfig& config = {});

/// Compatibility wrapper: every rule, no layer DAG. Equivalent to
/// run_lint_full(files, allowlist, {}).findings.
[[nodiscard]] std::vector<Finding> run_lint(const std::vector<SourceFile>& files,
                                            std::vector<AllowlistEntry>& allowlist);

}  // namespace carbonedge::lint
