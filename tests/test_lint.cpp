// Golden-snippet tests for carbonedge_lint: every rule must both fire on
// its target construct and stay quiet on the determinism-safe spelling —
// including that matches inside comments, string literals, and raw strings
// never false-positive, and that the suppression machinery (annotations +
// allowlist) is itself validated (unused suppressions are errors).
#include "lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "report.hpp"

namespace carbonedge::lint {
namespace {

std::vector<Finding> lint_one(const std::string& path, const std::string& content) {
  std::vector<SourceFile> files{{path, content}};
  std::vector<AllowlistEntry> allowlist;
  return run_lint(files, allowlist);
}

std::vector<Finding> lint_many(std::vector<SourceFile> files) {
  std::vector<AllowlistEntry> allowlist;
  return run_lint(files, allowlist);
}

bool has_rule(const std::vector<Finding>& findings, const std::string& rule) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

std::size_t count_rule(const std::vector<Finding>& findings, const std::string& rule) {
  return static_cast<std::size_t>(std::count_if(
      findings.begin(), findings.end(), [&](const Finding& f) { return f.rule == rule; }));
}

// ----------------------------------------------------------------- lexer --

TEST(LintLexer, BlanksCommentsAndLiteralsButKeepsLineStructure) {
  const std::string src =
      "int a; // std::rand()\n"
      "/* std::rand()\n   spans lines */ int b;\n"
      "const char* s = \"std::rand()\";\n";
  const std::string stripped = strip_comments_and_literals(src);
  EXPECT_EQ(stripped.size(), src.size());
  EXPECT_EQ(std::count(stripped.begin(), stripped.end(), '\n'),
            std::count(src.begin(), src.end(), '\n'));
  EXPECT_EQ(stripped.find("rand"), std::string::npos);
  EXPECT_NE(stripped.find("int a;"), std::string::npos);
  EXPECT_NE(stripped.find("int b;"), std::string::npos);
}

TEST(LintLexer, RawStringsAreBlanked) {
  const std::string src = "auto s = R\"(std::rand() time(nullptr))\"; int ok;\n";
  const std::string stripped = strip_comments_and_literals(src);
  EXPECT_EQ(stripped.find("rand"), std::string::npos);
  EXPECT_NE(stripped.find("int ok;"), std::string::npos);
}

TEST(LintLexer, RawStringWithDelimiterAndEmbeddedQuote) {
  const std::string src =
      "auto s = R\"x(quote \" and )\" inside)x\"; srand(7);\n";
  const std::string stripped = strip_comments_and_literals(src);
  // The fake terminator )" inside the delimited raw string must not end it:
  // the srand after the real terminator survives stripping.
  EXPECT_NE(stripped.find("srand(7)"), std::string::npos);
  EXPECT_EQ(stripped.find("quote"), std::string::npos);
}

TEST(LintLexer, DigitSeparatorIsNotACharLiteral) {
  const std::string src = "const int n = 1'000'000; std::rand();\n";
  EXPECT_NE(strip_comments_and_literals(src).find("rand"), std::string::npos);
}

// ------------------------------------------------------------------- D1 --

TEST(LintD1, FiresOnEveryBannedPrimitive) {
  const char* bad[] = {
      "int f() { return std::rand(); }\n",
      "#include <random>\nstd::random_device dev;\n",
      "auto t = std::chrono::steady_clock::now();\n",
      "auto t = std::chrono::system_clock::now();\n",
      "auto t = std::filesystem::file_time_type::clock::now();\n",
      "auto t = time(nullptr);\n",
      "auto t = time(NULL);\n",
      "auto id = std::this_thread::get_id();\n",
      "#include <map>\nstd::map<const int*, double> by_ptr;\n",
      "#include <set>\nstd::set<Widget*> live;\n",
  };
  for (const char* snippet : bad) {
    const auto findings = lint_one("src/x.cpp", snippet);
    EXPECT_TRUE(has_rule(findings, "D1")) << snippet;
  }
}

TEST(LintD1, QuietOnDeterministicSpellings) {
  const std::string src =
      "#include <map>\n"
      "util::Rng rng(config.seed);\n"
      "std::map<std::pair<std::size_t, int>, double> by_id;\n"
      "auto d = std::chrono::minutes(10);\n"
      "double remaining_time(int epochs);\n"  // 'time' as a plain identifier
      "auto v = remaining_time(3);\n";
  EXPECT_FALSE(has_rule(lint_one("src/x.cpp", src), "D1"));
}

TEST(LintD1, NeverFiresInsideCommentsOrStrings) {
  const std::string src =
      "// std::rand() and time(nullptr) and steady_clock::now()\n"
      "/* std::random_device across\n   lines */\n"
      "const char* s = \"std::rand() time(nullptr)\";\n"
      "const char* r = R\"(this_thread::get_id())\";\n"
      "int clean;\n";
  EXPECT_TRUE(lint_one("src/x.cpp", src).empty());
}

TEST(LintD1, ClockFindingDirectsToTheObsShim) {
  // The fix-it half of the rule: a raw clock read's message must point at
  // the sanctioned replacement so the finding is actionable.
  const auto findings =
      lint_one("src/core/x.cpp", "auto t = std::chrono::steady_clock::now();\n");
  ASSERT_TRUE(has_rule(findings, "D1"));
  EXPECT_NE(findings[0].message.find("obs::now_ns"), std::string::npos);
}

TEST(LintD1, ObsClockShimSanctionIsScopedToExactlyOneFile) {
  const std::string shim_like =
      "std::uint64_t now_ns() {\n"
      "  return static_cast<std::uint64_t>(\n"
      "      std::chrono::steady_clock::now().time_since_epoch().count());\n"
      "}\n";
  // Without its allowlist entry the shim body fires like any other file —
  // the sanction lives in the allowlist, not in the rule.
  EXPECT_TRUE(has_rule(lint_one("src/obs/clock.cpp", shim_like), "D1"));

  // With the repo's entry, the shim is quiet and every other clock read
  // still fires: the one escape hatch cannot widen.
  std::vector<Finding> parse_errors;
  std::vector<AllowlistEntry> allowlist = parse_allowlist(
      "D1 src/obs/clock.cpp the one sanctioned monotonic-clock read\n", "allowlist",
      parse_errors);
  ASSERT_TRUE(parse_errors.empty());
  std::vector<SourceFile> files{
      {"src/obs/clock.cpp", shim_like},
      {"src/core/sneaky.cpp", "auto t = std::chrono::steady_clock::now();\n"},
  };
  const auto findings = run_lint(files, allowlist);
  ASSERT_EQ(count_rule(findings, "D1"), 1u);
  const auto fired = std::find_if(findings.begin(), findings.end(),
                                  [](const Finding& f) { return f.rule == "D1"; });
  EXPECT_EQ(fired->file, "src/core/sneaky.cpp");
  EXPECT_TRUE(allowlist[0].used);
}

TEST(LintD1, SuppressedOnSameLineAndFromLineAbove) {
  const std::string same_line =
      "auto t0 = std::chrono::steady_clock::now();  // lint: nondeterminism-ok(telemetry only)\n";
  EXPECT_TRUE(lint_one("src/x.cpp", same_line).empty());
  const std::string line_above =
      "// lint: nondeterminism-ok(telemetry only)\n"
      "auto t0 = std::chrono::steady_clock::now();\n";
  EXPECT_TRUE(lint_one("src/x.cpp", line_above).empty());
}

// ------------------------------------------------------------------- D2 --

TEST(LintD2, FiresOnRangeForAndBeginLoops) {
  const std::string range_for =
      "#include <unordered_map>\n"
      "std::unordered_map<int, double> acc_;\n"
      "double total() { double t = 0; for (const auto& [k, v] : acc_) t += v; return t; }\n";
  EXPECT_TRUE(has_rule(lint_one("src/x.cpp", range_for), "D2"));

  const std::string begin_loop =
      "#include <unordered_set>\n"
      "std::unordered_set<int> seen_;\n"
      "void f() { for (auto it = seen_.begin(); it != seen_.end(); ++it) {} }\n";
  EXPECT_TRUE(has_rule(lint_one("src/x.cpp", begin_loop), "D2"));
}

TEST(LintD2, SeesMembersDeclaredInTheHeaderIteratedInTheCpp) {
  std::vector<SourceFile> files{
      {"src/cache.hpp",
       "#pragma once\n#include <unordered_map>\n"
       "struct Cache { std::unordered_map<int, int> entries_; };\n"},
      {"src/cache.cpp", "void dump(Cache& c) { for (const auto& [k, v] : c.entries_) {} }\n"},
  };
  const auto findings = lint_many(std::move(files));
  ASSERT_TRUE(has_rule(findings, "D2"));
  EXPECT_EQ(findings.front().file, "src/cache.cpp");
}

TEST(LintD2, QuietOnLookupsSnapshotsAndAnnotatedIteration) {
  const std::string lookups =
      "#include <unordered_map>\n"
      "std::unordered_map<int, double> acc_;\n"
      "double g(int k) { return acc_.at(k); }\n"
      "bool h(int k) { return acc_.find(k) != acc_.end(); }\n";
  EXPECT_TRUE(lint_one("src/x.cpp", lookups).empty());

  const std::string snapshot_vector =
      "#include <vector>\n"
      "std::vector<int> snapshot_;\n"
      "void f() { for (int v : snapshot_) {} }\n";
  EXPECT_TRUE(lint_one("src/x.cpp", snapshot_vector).empty());

  const std::string annotated =
      "#include <unordered_map>\n"
      "std::unordered_map<int, double> acc_;\n"
      "// lint: unordered-iteration-ok(coordinator-only snapshot build)\n"
      "void f() { for (const auto& [k, v] : acc_) {} }\n";
  EXPECT_TRUE(lint_one("src/x.cpp", annotated).empty());
}

// ------------------------------------------------------------------- D3 --

TEST(LintD3, FiresOnRngDrawInInlineParallelLambda) {
  const std::string src =
      "void step() {\n"
      "  parallel_for(budget, n, [&](std::size_t k) {\n"
      "    slots_[k] = rng.bernoulli(0.5);\n"
      "  });\n"
      "}\n";
  EXPECT_TRUE(has_rule(lint_one("src/x.cpp", src), "D3"));
}

TEST(LintD3, FiresOnSharedMutationViaNamedLambda) {
  const std::string src =
      "void sweep() {\n"
      "  const auto body = [&](std::size_t i) {\n"
      "    total_ += weigh(i);\n"
      "    log_.push_back(i);\n"
      "  };\n"
      "  util::parallel_for(budget, n, body);\n"
      "}\n";
  const auto findings = lint_one("src/x.cpp", src);
  EXPECT_EQ(count_rule(findings, "D3"), 2u);  // += and push_back
}

TEST(LintD3, QuietOnDisjointSlotWritesAndOutsideParallelSections) {
  const std::string disjoint =
      "void step() {\n"
      "  parallel_for(budget, n, [&](std::size_t k) {\n"
      "    slots_[k] = compute(k);\n"
      "    local_sum[k] = slots_[k] * 2.0;\n"
      "  });\n"
      "}\n";
  EXPECT_TRUE(lint_one("src/x.cpp", disjoint).empty());

  const std::string serial =
      "void coordinator() {\n"
      "  total_ += rng.bernoulli(0.5);\n"  // fine: not a parallel section
      "  samples_.push_back(1);\n"
      "}\n";
  EXPECT_TRUE(lint_one("src/x.cpp", serial).empty());
}

TEST(LintD3, FiresInUnnamedItemLambdaAndHonorsAnnotation) {
  const std::string src =
      "void f() {\n"
      "  parallel_for(budget, n, [&](std::size_t) { counter_ += 1; });\n"
      "}\n";
  EXPECT_TRUE(has_rule(lint_one("src/x.cpp", src), "D3"));

  const std::string annotated =
      "void f() {\n"
      "  // lint: parallel-state-ok(counter_ is atomic; relaxed telemetry only)\n"
      "  parallel_for(budget, n, [&](std::size_t) { counter_ += 1; });\n"
      "}\n";
  EXPECT_TRUE(lint_one("src/x.cpp", annotated).empty());

  // parallel_for is the only parallel loop: a call that merely shares a
  // name with a deleted one (a task queue's submit) runs on this thread.
  const std::string serial =
      "void f() {\n"
      "  queue.submit([&] { counter_ += 1; });\n"
      "}\n";
  EXPECT_TRUE(lint_one("src/x.cpp", serial).empty());
}

// ------------------------------------------------------------------- D4 --

TEST(LintD4, FloatBannedOnlyInAccountingPaths) {
  const std::string src = "float share = 0.5f;\n";
  EXPECT_TRUE(has_rule(lint_one("src/sim/x.cpp", src), "D4"));
  EXPECT_TRUE(has_rule(lint_one("src/core/x.hpp", src), "D4"));
  EXPECT_FALSE(has_rule(lint_one("src/geo/x.cpp", src), "D4"));
  EXPECT_FALSE(has_rule(lint_one("bench/x.cpp", src), "D4"));
  // 'float' in comments/identifiers stays quiet.
  const std::string quiet =
      "// float-boundary drift\ndouble floating_share;\n";
  EXPECT_TRUE(lint_one("src/sim/x.cpp", quiet).empty());
}

// ------------------------------------------------------------------- D5 --

TEST(LintD5, GetenvFiresEverywhereIncludingStdQualified) {
  EXPECT_TRUE(has_rule(
      lint_one("src/x.cpp", "const char* v = std::getenv(\"HOME\");\n"), "D5"));
  EXPECT_TRUE(has_rule(lint_one("bench/x.cpp", "const char* v = getenv(\"HOME\");\n"), "D5"));
  // The shim's API is the clean spelling.
  EXPECT_TRUE(
      lint_one("src/x.cpp", "auto v = util::env::get_or(\"CARBONEDGE_THREADS\", \"\");\n")
          .empty());
}

// ------------------------------------------------------------------- H1 --

TEST(LintH1, HeaderHygiene) {
  EXPECT_TRUE(has_rule(lint_one("src/x.hpp", "int f();\n"), "H1"));  // no pragma once
  EXPECT_TRUE(has_rule(
      lint_one("src/x.hpp", "#pragma once\nusing namespace std;\n"), "H1"));
  EXPECT_TRUE(lint_one("src/x.hpp", "#pragma once\nint f();\n").empty());
  // .cpp files are exempt from both checks.
  EXPECT_TRUE(lint_one("src/x.cpp", "using namespace std;\nint f() { return 1; }\n").empty());
}

// ----------------------------------------------------- suppression audit --

TEST(LintSuppressions, UnusedAnnotationIsReported) {
  const std::string src =
      "// lint: nondeterminism-ok(stale reason, nothing here anymore)\n"
      "int clean;\n";
  const auto findings = lint_one("src/x.cpp", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "LINT");
  EXPECT_NE(findings[0].message.find("unused suppression"), std::string::npos);
}

TEST(LintSuppressions, MalformedAnnotationsAreReported) {
  for (const char* src : {
           "// lint: nondeterminism-ok\nint a = time(nullptr);\n",     // missing reason
           "// lint: nondeterminism-ok()\nint a = time(nullptr);\n",   // empty reason
           "// lint: no-such-token(reason)\nint a = time(nullptr);\n"  // unknown token
       }) {
    const auto findings = lint_one("src/x.cpp", src);
    EXPECT_TRUE(has_rule(findings, "LINT")) << src;
    EXPECT_TRUE(has_rule(findings, "D1")) << src;  // broken hatch suppresses nothing
  }
}

TEST(LintSuppressions, AnnotationInsideAStringLiteralIsNotAnAnnotation) {
  const std::string src =
      "const char* s = \"// lint: nondeterminism-ok(fake)\";\n"
      "auto t = time(nullptr);\n";
  const auto findings = lint_one("src/x.cpp", src);
  EXPECT_TRUE(has_rule(findings, "D1"));  // the fake annotation suppressed nothing
  EXPECT_FALSE(has_rule(findings, "LINT"));
}

TEST(LintSuppressions, WrongTokenDoesNotSuppressOtherRules) {
  const std::string src =
      "// lint: getenv-ok(wrong rule for a clock read)\n"
      "auto t = std::chrono::steady_clock::now();\n";
  const auto findings = lint_one("src/x.cpp", src);
  EXPECT_TRUE(has_rule(findings, "D1"));   // still fires
  EXPECT_TRUE(has_rule(findings, "LINT"));  // and the annotation is unused
}

// --------------------------------------------------------------- allowlist --

TEST(LintAllowlist, EntrySuppressesAndUnusedEntryIsAnError) {
  std::vector<SourceFile> files{
      {"src/x.cpp", "const char* v = std::getenv(\"HOME\");\n"}};
  std::vector<Finding> parse_errors;
  std::vector<AllowlistEntry> allowlist = parse_allowlist(
      "# comment line\n"
      "\n"
      "D5 src/x.cpp legacy read, migration tracked elsewhere\n"
      "D1 src/never.cpp stale entry that matches nothing\n",
      "allowlist", parse_errors);
  EXPECT_TRUE(parse_errors.empty());
  ASSERT_EQ(allowlist.size(), 2u);

  const auto findings = run_lint(files, allowlist);
  EXPECT_FALSE(has_rule(findings, "D5"));  // suppressed by the first entry
  EXPECT_TRUE(allowlist[0].used);
  EXPECT_FALSE(allowlist[1].used);
  ASSERT_EQ(count_rule(findings, "LINT"), 1u);  // the stale entry is reported
  EXPECT_NE(findings.back().message.find("unused allowlist entry"), std::string::npos);
}

TEST(LintAllowlist, MalformedEntriesAreParseErrors) {
  std::vector<Finding> errors;
  const auto entries = parse_allowlist(
      "D9 src/x.cpp unknown rule id\n"
      "D5\n"
      "D5 src/x.cpp\n",
      "allowlist", errors);
  EXPECT_TRUE(entries.empty());
  EXPECT_EQ(errors.size(), 3u);
}

// ------------------------------------------------------------ diagnostics --

TEST(LintOutput, FormatIsFileLineRuleMessage) {
  const auto findings = lint_one("src/sim/x.cpp", "float f;\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(format(findings[0]).rfind("src/sim/x.cpp:1: D4: ", 0), 0u);
}

TEST(LintOutput, FindingsAreSortedByFileThenLine) {
  std::vector<SourceFile> files{
      {"src/b.cpp", "auto t = time(nullptr);\nauto u = time(nullptr);\n"},
      {"src/a.cpp", "auto t = time(nullptr);\n"},
  };
  const auto findings = lint_many(std::move(files));
  ASSERT_EQ(findings.size(), 3u);
  EXPECT_EQ(findings[0].file, "src/a.cpp");
  EXPECT_EQ(findings[1].file, "src/b.cpp");
  EXPECT_EQ(findings[1].line, 1u);
  EXPECT_EQ(findings[2].line, 2u);
}

// ------------------------------------------------------------------- D6 --

TEST(LintD6, FiresOnCapturedWriteThatIsNotASlotWrite) {
  const std::string src =
      "void sweep() {\n"
      "  parallel_for(budget, n, [&](std::size_t k) {\n"
      "    best = evaluate(k);\n"
      "  });\n"
      "}\n";
  EXPECT_TRUE(has_rule(lint_one("src/x.cpp", src), "D6"));
}

TEST(LintD6, FiresWhenSlotIndexDoesNotDeriveFromTheItemParameter) {
  const std::string src =
      "void sweep() {\n"
      "  parallel_for(budget, n, [&](std::size_t k) {\n"
      "    out[cursor] = evaluate(k);\n"
      "  });\n"
      "}\n";
  EXPECT_TRUE(has_rule(lint_one("src/x.cpp", src), "D6"));
}

TEST(LintD6, QuietOnSanctionedSlotWritesIncludingDerivedLocals) {
  const std::string src =
      "void sweep() {\n"
      "  parallel_for(budget, n, [&](std::size_t k) {\n"
      "    const Scenario& cell = cells[k];\n"
      "    const std::size_t row = cell.index * stride + k;\n"
      "    out[row] = evaluate(cell);\n"
      "    double acc = 0.0;\n"
      "    acc += weigh(cell);\n"
      "    grid[k * 2 + 1] = acc;\n"
      "  });\n"
      "}\n";
  EXPECT_TRUE(lint_one("src/x.cpp", src).empty());
}

TEST(LintD6, ByValueCapturesAreSeedsAndAnnotationSuppresses) {
  const std::string by_value =
      "void sweep() {\n"
      "  parallel_for(budget, n, [&out, base](std::size_t k) { out[base + k] = 1.0; });\n"
      "}\n";
  EXPECT_TRUE(lint_one("src/x.cpp", by_value).empty());

  const std::string annotated =
      "void sweep() {\n"
      "  parallel_for(budget, n, [&](std::size_t k) {\n"
      "    // lint: slot-write-ok(guarded by the per-chunk mutex two lines up)\n"
      "    best = evaluate(k);\n"
      "  });\n"
      "}\n";
  EXPECT_TRUE(lint_one("src/x.cpp", annotated).empty());
}

// ------------------------------------------------------------------- D7 --

TEST(LintD7, FiresOnAccumulationIntoCapturedVariable) {
  const std::string src =
      "void sweep() {\n"
      "  double total = 0.0;\n"
      "  parallel_for(budget, n, [&](std::size_t k) {\n"
      "    total += evaluate(k);\n"
      "  });\n"
      "}\n";
  EXPECT_TRUE(has_rule(lint_one("src/x.cpp", src), "D7"));
}

TEST(LintD7, FiresOnSelfAssignmentFoldForm) {
  const std::string src =
      "void sweep() {\n"
      "  parallel_for(budget, n, [&](std::size_t i) {\n"
      "    acc = acc + weigh(i);\n"
      "  });\n"
      "}\n";
  EXPECT_TRUE(has_rule(lint_one("src/x.cpp", src), "D7"));
}

TEST(LintD7, FiresOnAccumulationOverUnorderedContainer) {
  const std::string src =
      "std::unordered_map<int, double> cells_;\n"
      "double total() {\n"
      "  double sum = 0.0;\n"
      "  for (const auto& [id, value] : cells_) sum += value;\n"
      "  return sum;\n"
      "}\n";
  // D2 flags the iteration itself; D7 flags the order-sensitive fold.
  EXPECT_TRUE(has_rule(lint_one("src/x.cpp", src), "D7"));
}

TEST(LintD7, QuietOnOrderedFoldAnnotationAndPerSlotWrites) {
  const std::string annotated =
      "void sweep() {\n"
      "  parallel_for(budget, n, [&](std::size_t k) {\n"
      "    // lint: ordered-fold-ok(integer event counter; addition commutes)\n"
      "    events += count(k);\n"
      "  });\n"
      "}\n";
  EXPECT_TRUE(lint_one("src/x.cpp", annotated).empty());

  const std::string slots =
      "void sweep() {\n"
      "  parallel_for(budget, n, [&](std::size_t k) { partial[k] = evaluate(k); });\n"
      "  double total = 0.0;\n"
      "  for (double p : partial) total += p;\n"  // serial fold: fine
      "}\n";
  EXPECT_TRUE(lint_one("src/x.cpp", slots).empty());
}

// ------------------------------------------------------------------- D8 --

TEST(LintD8, FiresOnRawLockAndUnlock) {
  const std::string src =
      "void f() {\n"
      "  mutex_.lock();\n"
      "  state_ = 1;\n"
      "  mutex_.unlock();\n"
      "}\n";
  EXPECT_EQ(count_rule(lint_one("src/x.cpp", src), "D8"), 2u);
}

TEST(LintD8, QuietOnRaiiGuardsAndTryLock) {
  const std::string src =
      "void f() {\n"
      "  std::lock_guard<std::mutex> guard(mutex_);\n"
      "  std::scoped_lock all(a_, b_);\n"
      "  if (mutex_.try_lock()) { mutex_.unlock(); }\n"
      "}\n";
  // try_lock is fine; the paired unlock still needs its reason.
  EXPECT_EQ(count_rule(lint_one("src/x.cpp", src), "D8"), 1u);
}

// ---------------------------------------------------------- architecture --

LintOutput lint_arch(std::vector<SourceFile> files, std::string layers = "") {
  std::vector<AllowlistEntry> allowlist;
  LintConfig config;
  config.layers_text = std::move(layers);
  return run_lint_full(files, allowlist, config);
}

constexpr const char* kLayers = "util:\nrunner: util\n";

TEST(LintA1, UpwardDependencyFiresAndDeclaredDependencyIsQuiet) {
  std::vector<SourceFile> files{
      {"src/util/u.hpp", "#pragma once\nint util_helper();\n"},
      {"src/runner/r.hpp",
       "#pragma once\n#include \"util/u.hpp\"\nint runner_uses() { return util_helper(); }\n"},
      {"src/util/bad.hpp",
       "#pragma once\n#include \"runner/r.hpp\"\nint up() { return runner_uses(); }\n"},
  };
  const LintOutput out = lint_arch(files, kLayers);
  ASSERT_EQ(count_rule(out.findings, "A1"), 1u);
  const auto found = std::find_if(out.findings.begin(), out.findings.end(),
                                  [](const Finding& f) { return f.rule == "A1"; });
  EXPECT_EQ(found->file, "src/util/bad.hpp");
  EXPECT_NE(found->message.find("src/runner/r.hpp"), std::string::npos);

  files.pop_back();  // drop the upward include: the declared edge is fine
  EXPECT_FALSE(has_rule(lint_arch(files, kLayers).findings, "A1"));
}

TEST(LintA1, UndeclaredModuleIsALintErrorAndNoLayersDisablesA1) {
  std::vector<SourceFile> files{
      {"src/store/s.hpp", "#pragma once\nint store_thing();\n"},
  };
  EXPECT_TRUE(has_rule(lint_arch(files, kLayers).findings, "LINT"));
  EXPECT_TRUE(lint_arch(files, "").findings.empty());  // unconfigured: no gate
}

TEST(LintA1, TransitiveClosureIsAdmitted) {
  const std::string layers = "util:\nsim: util\nrunner: sim\n";
  std::vector<SourceFile> files{
      {"src/util/u.hpp", "#pragma once\nint util_helper();\n"},
      {"src/sim/s.hpp", "#pragma once\n#include \"util/u.hpp\"\nint sim_u() { return util_helper(); }\n"},
      {"src/runner/r.hpp",
       "#pragma once\n#include \"util/u.hpp\"\nint r() { return util_helper(); }\n"},
  };
  // runner -> util is not a *direct* declaration, but reachable via sim.
  EXPECT_FALSE(has_rule(lint_arch(files, layers).findings, "A1"));
}

TEST(LintA2, IncludeCycleReportedOnceWithCanonicalPath) {
  std::vector<SourceFile> files{
      {"src/util/a.hpp", "#pragma once\n#include \"util/b.hpp\"\nint a_thing();\n"},
      {"src/util/b.hpp", "#pragma once\n#include \"util/a.hpp\"\nint b_thing();\n"},
  };
  const LintOutput out = lint_arch(files);
  ASSERT_EQ(count_rule(out.findings, "A2"), 1u);
  const auto found = std::find_if(out.findings.begin(), out.findings.end(),
                                  [](const Finding& f) { return f.rule == "A2"; });
  EXPECT_EQ(found->file, "src/util/a.hpp");  // lexicographically smallest
  EXPECT_NE(found->message.find("src/util/a.hpp -> src/util/b.hpp -> src/util/a.hpp"),
            std::string::npos);
}

TEST(LintA3, SrcMayNotIncludeFromHarnessTrees) {
  std::vector<SourceFile> files{
      {"src/util/x.cpp", "#include \"tests/helpers.hpp\"\nint x;\n"},
  };
  EXPECT_TRUE(has_rule(lint_arch(files).findings, "A3"));
}

TEST(LintA4, UnusedIncludeFiresWithRemovalEditAndUsedIncludeIsQuiet) {
  std::vector<SourceFile> files{
      {"src/util/leaf.hpp", "#pragma once\nstruct LeafThing { int v; };\n"},
      {"src/util/user.cpp", "#include \"util/leaf.hpp\"\nint unrelated() { return 3; }\n"},
  };
  const LintOutput unused = lint_arch(files);
  ASSERT_EQ(count_rule(unused.findings, "A4"), 1u);
  ASSERT_EQ(unused.edits.size(), 1u);
  EXPECT_TRUE(unused.edits[0].remove);
  EXPECT_EQ(unused.edits[0].file, "src/util/user.cpp");
  EXPECT_EQ(unused.edits[0].line, 1u);

  files[1].content = "#include \"util/leaf.hpp\"\nLeafThing make() { return {}; }\n";
  EXPECT_FALSE(has_rule(lint_arch(files).findings, "A4"));
}

TEST(LintA4, CompanionHeaderIsNeverAnUnusedInclude) {
  std::vector<SourceFile> files{
      {"src/util/thing.hpp", "#pragma once\nstruct OtherName { int v; };\n"},
      {"src/util/thing.cpp", "#include \"util/thing.hpp\"\nint impl() { return 1; }\n"},
  };
  EXPECT_FALSE(has_rule(lint_arch(files).findings, "A4"));
}

TEST(LintA5, TransitiveOnlyIncludeFiresWithChainAndInsertionEdit) {
  std::vector<SourceFile> files{
      {"src/util/leaf.hpp", "#pragma once\nstruct LeafThing { int v; };\n"},
      {"src/util/mid.hpp",
       "#pragma once\n#include \"util/leaf.hpp\"\nLeafThing wrap();\n"},
      {"src/util/top.cpp",
       "#include \"util/mid.hpp\"\nLeafThing direct_use() { return wrap(); }\n"},
  };
  const LintOutput out = lint_arch(files);
  ASSERT_EQ(count_rule(out.findings, "A5"), 1u);
  const auto found = std::find_if(out.findings.begin(), out.findings.end(),
                                  [](const Finding& f) { return f.rule == "A5"; });
  EXPECT_EQ(found->file, "src/util/top.cpp");
  EXPECT_NE(found->message.find("`LeafThing`"), std::string::npos);
  EXPECT_NE(found->message.find(
                "src/util/top.cpp -> src/util/mid.hpp -> src/util/leaf.hpp"),
            std::string::npos);
  ASSERT_EQ(out.edits.size(), 1u);
  EXPECT_FALSE(out.edits[0].remove);
  EXPECT_EQ(out.edits[0].text, "#include \"util/leaf.hpp\"");

  // Including the exporter directly resolves it.
  files[2].content =
      "#include \"util/leaf.hpp\"\n#include \"util/mid.hpp\"\n"
      "LeafThing direct_use() { return wrap(); }\n";
  EXPECT_FALSE(has_rule(lint_arch(files).findings, "A5"));
}

TEST(LintA5, CompanionHeaderChainIsExempt) {
  std::vector<SourceFile> files{
      {"src/util/leaf.hpp", "#pragma once\nstruct LeafThing { int v; };\n"},
      {"src/util/top.hpp",
       "#pragma once\n#include \"util/leaf.hpp\"\nLeafThing top_make();\n"},
      {"src/util/top.cpp",
       "#include \"util/top.hpp\"\nLeafThing top_make() { return {}; }\n"},
  };
  // top.cpp reaches LeafThing through its own companion header: that is the
  // declared interface, not a hidden transitive dependency.
  EXPECT_FALSE(has_rule(lint_arch(files).findings, "A5"));
}

TEST(LintArch, ModuleGraphDotListsObservedEdges) {
  std::vector<SourceFile> files{
      {"src/util/u.hpp", "#pragma once\nint util_helper();\n"},
      {"src/runner/r.hpp",
       "#pragma once\n#include \"util/u.hpp\"\nint r() { return util_helper(); }\n"},
  };
  const LintOutput out = lint_arch(files, kLayers);
  EXPECT_NE(out.module_graph_dot.find("\"runner\" -> \"util\""), std::string::npos);
}

TEST(LintLayers, MalformedUnknownDepAndCycleAreLintErrors) {
  std::vector<SourceFile> none;
  EXPECT_TRUE(has_rule(lint_arch(none, "not a layers line\n").findings, "LINT"));
  EXPECT_TRUE(has_rule(lint_arch(none, "util: ghost\n").findings, "LINT"));
  EXPECT_TRUE(
      has_rule(lint_arch(none, "a: b\nb: a\n").findings, "LINT"));  // declared cycle
  EXPECT_TRUE(lint_arch(none, "util:\nrunner: util\n").findings.empty());
}

// ------------------------------------------------------- engine options --

TEST(LintConfigTest, RuleFilterRunsOnlySelectedRules) {
  const std::string src = "auto t = time(nullptr);\nauto e = getenv(\"X\");\n";
  std::vector<SourceFile> files{{"src/x.cpp", src}};
  std::vector<AllowlistEntry> allowlist;
  LintConfig config;
  config.rules = {"D1"};
  const LintOutput out = run_lint_full(files, allowlist, config);
  EXPECT_TRUE(has_rule(out.findings, "D1"));
  EXPECT_FALSE(has_rule(out.findings, "D5"));
}

TEST(LintConfigTest, SuppressionForDisabledRuleIsNotCondemned) {
  const std::string src =
      "// lint: getenv-ok(read-only diagnostic toggle)\n"
      "auto e = getenv(\"X\");\n"
      "auto t = time(nullptr);\n";
  std::vector<SourceFile> files{{"src/x.cpp", src}};
  std::vector<AllowlistEntry> allowlist;
  LintConfig config;
  config.rules = {"D1"};
  const LintOutput out = run_lint_full(files, allowlist, config);
  // Only the D1 finding: the getenv-ok annotation is outside this run's
  // scope, neither used nor condemned as unused.
  ASSERT_EQ(out.findings.size(), 1u);
  EXPECT_EQ(out.findings[0].rule, "D1");
}

TEST(LintRules, CatalogCoversEveryRuleWithUniqueTokens) {
  std::set<std::string> ids;
  std::set<std::string> tokens;
  for (const RuleInfo& rule : rules()) {
    EXPECT_TRUE(ids.insert(rule.id).second) << rule.id;
    EXPECT_TRUE(tokens.insert(rule.token).second) << rule.token;
    EXPECT_FALSE(rule.summary.empty());
  }
  for (const char* id : {"D1", "D2", "D3", "D4", "D5", "D6", "D7", "D8", "H1", "A1",
                         "A2", "A3", "A4", "A5"}) {
    EXPECT_EQ(ids.count(id), 1u) << id;
  }
}

// ------------------------------------------------------------- reporting --

TEST(LintReport, JsonCarriesEveryFindingField) {
  const auto findings = lint_one("src/sim/x.cpp", "float f;\n");
  const std::string json = to_json(findings);
  EXPECT_NE(json.find("\"findings\": ["), std::string::npos);
  EXPECT_NE(json.find("\"file\": \"src/sim/x.cpp\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"rule\": \"D4\""), std::string::npos);
  EXPECT_EQ(to_json({}).find("{\"findings\": []}"), 0u);
}

TEST(LintReport, SarifHasSchemaRunsRulesAndResults) {
  const auto findings = lint_one("src/sim/x.cpp", "float f;\n");
  const std::string sarif = to_sarif(findings);
  EXPECT_NE(sarif.find("sarif-schema-2.1.0.json"), std::string::npos);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"carbonedge_lint\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"D4\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 1"), std::string::npos);
  EXPECT_NE(sarif.find("\"uri\": \"src/sim/x.cpp\""), std::string::npos);
  // The driver advertises its whole rule catalog even when nothing fires.
  EXPECT_NE(to_sarif({}).find("\"id\": \"A1\""), std::string::npos);
}

TEST(LintReport, BaselineFiltersKnownFindingsButKeepsNewOnes) {
  const auto old_findings = lint_one("src/sim/x.cpp", "float f;\n");
  const std::set<std::string> baseline = parse_baseline(write_baseline(old_findings));
  EXPECT_TRUE(filter_baseline(old_findings, baseline).empty());

  // Same rule, same message, different line: still baselined (line-free keys
  // survive unrelated edits shifting the file).
  const auto shifted = lint_one("src/sim/x.cpp", "\n\nfloat f;\n");
  EXPECT_TRUE(filter_baseline(shifted, baseline).empty());

  const auto new_findings = lint_one("src/sim/x.cpp", "float f;\nauto t = time(nullptr);\n");
  const auto fresh = filter_baseline(new_findings, baseline);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].rule, "D1");
}

TEST(LintReport, UnifiedDiffRendersRemovalsAndInsertions) {
  std::vector<SourceFile> files{
      {"src/util/user.cpp", "#include \"util/leaf.hpp\"\nint unrelated() { return 3; }\n"},
  };
  std::vector<IncludeEdit> edits{
      {"src/util/user.cpp", 1, true, "A4", ""},
      {"src/util/user.cpp", 2, false, "A5", "#include \"util/other.hpp\""},
  };
  const std::string diff = to_unified_diff(edits, files);
  EXPECT_NE(diff.find("--- src/util/user.cpp"), std::string::npos);
  EXPECT_NE(diff.find("-#include \"util/leaf.hpp\""), std::string::npos);
  EXPECT_NE(diff.find("+#include \"util/other.hpp\""), std::string::npos);
}

}  // namespace
}  // namespace carbonedge::lint
