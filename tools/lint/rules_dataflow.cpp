#include "rules_dataflow.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <map>
#include <optional>
#include <regex>
#include <tuple>
#include <utility>

namespace carbonedge::lint {

namespace {

// --------------------------------------------------------- lambda parsing --

struct LambdaParts {
  Region captures;          // inside [ ]
  Region params;            // inside ( ); begin==end when absent
  Region body;              // inside { }
};

/// Parses a lambda literal whose '[' is at `open`.
[[nodiscard]] std::optional<LambdaParts> parse_lambda(const std::string& s,
                                                      std::size_t open) {
  LambdaParts parts;
  std::size_t i = skip_balanced(s, open, '[', ']');
  if (i == std::string::npos) return std::nullopt;
  parts.captures = {open + 1, i - 1};
  i = skip_ws(s, i);
  if (i < s.size() && s[i] == '(') {
    const std::size_t close = skip_balanced(s, i, '(', ')');
    if (close == std::string::npos) return std::nullopt;
    parts.params = {i + 1, close - 1};
    i = close;
  }
  // Skip specifiers (mutable, noexcept, -> Type) up to the body.
  while (i < s.size() && s[i] != '{') {
    if (s[i] == ';' || s[i] == ',' || s[i] == ')') return std::nullopt;  // not a lambda
    ++i;
  }
  if (i >= s.size()) return std::nullopt;
  const std::size_t close = skip_balanced(s, i, '{', '}');
  if (close == std::string::npos) return std::nullopt;
  parts.body = {i + 1, close - 1};
  return parts;
}

[[nodiscard]] std::string trim(std::string text) {
  const auto first = text.find_first_not_of(" \t\n\r");
  const auto last = text.find_last_not_of(" \t\n\r");
  return first == std::string::npos ? "" : text.substr(first, last - first + 1);
}

/// All identifier tokens of `text`, in order.
[[nodiscard]] std::vector<std::string> ident_tokens(std::string_view text) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  while (i < text.size()) {
    if ((std::isalpha(static_cast<unsigned char>(text[i])) != 0 || text[i] == '_')) {
      std::string token;
      while (i < text.size() && ident_char(text[i])) token.push_back(text[i++]);
      tokens.push_back(std::move(token));
    } else {
      // Skip whole numbers so `1e9` never yields a bogus `e9` token.
      if (std::isdigit(static_cast<unsigned char>(text[i])) != 0) {
        while (i < text.size() && ident_char(text[i])) ++i;
      } else {
        ++i;
      }
    }
  }
  return tokens;
}

[[nodiscard]] bool mentions_any(std::string_view text, const std::set<std::string>& names) {
  if (names.empty()) return false;
  for (const std::string& token : ident_tokens(text)) {
    if (names.count(token) != 0) return true;
  }
  return false;
}

/// Splits at commas outside (), [], <>.
[[nodiscard]] std::vector<std::string> split_arguments(std::string_view text) {
  std::vector<std::string> parts;
  std::string current;
  int paren = 0;
  int square = 0;
  int angle = 0;
  for (const char c : text) {
    if (c == '(') ++paren;
    if (c == ')') --paren;
    if (c == '[') ++square;
    if (c == ']') --square;
    if (c == '<') ++angle;
    if (c == '>' && angle > 0) --angle;
    if (c == ',' && paren == 0 && square == 0 && angle == 0) {
      parts.push_back(current);
      current.clear();
      continue;
    }
    current.push_back(c);
  }
  parts.push_back(current);
  return parts;
}

/// Bare type tokens that can end a parameter without naming it.
[[nodiscard]] bool type_keyword(const std::string& token) {
  static const std::set<std::string> kTypes = {
      "auto",     "const",   "int",      "double",  "float",    "bool",
      "char",     "void",    "unsigned", "signed",  "long",     "short",
      "std",      "size_t",  "ssize_t",  "uint8_t", "uint16_t", "uint32_t",
      "uint64_t", "int8_t",  "int16_t",  "int32_t", "int64_t",  "ptrdiff_t"};
  return kTypes.count(token) != 0;
}

/// The names the slot-index analysis treats as per-item seeds: the lambda's
/// parameter names plus its explicit by-value captures (each task holds its
/// own copy, so indexing by them is the disjoint-slot pattern). By-reference
/// captures are deliberately excluded — they are shared state.
[[nodiscard]] std::vector<std::string> seeds_of(const std::string& s,
                                               const LambdaParts& parts) {
  std::vector<std::string> seeds;
  const std::string captures =
      s.substr(parts.captures.begin, parts.captures.end - parts.captures.begin);
  for (const std::string& raw : split_arguments(captures)) {
    const std::string entry = trim(raw);
    if (entry.empty() || entry == "=" || entry == "this" || entry == "*this") continue;
    if (entry.front() == '&') continue;  // by-reference: shared, not a seed
    const std::vector<std::string> tokens = ident_tokens(entry);
    if (!tokens.empty()) seeds.push_back(tokens.front());  // `x` or `x = expr`
  }
  const std::string params =
      s.substr(parts.params.begin, parts.params.end - parts.params.begin);
  for (const std::string& raw : split_arguments(params)) {
    std::string entry = trim(raw);
    const std::size_t eq = entry.find('=');  // default argument
    if (eq != std::string::npos) entry = entry.substr(0, eq);
    const std::vector<std::string> tokens = ident_tokens(entry);
    if (tokens.empty()) continue;
    if (type_keyword(tokens.back())) continue;  // unnamed parameter
    seeds.push_back(tokens.back());
  }
  std::sort(seeds.begin(), seeds.end());
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
  return seeds;
}

// ------------------------------------------------------- region discovery --

[[nodiscard]] std::vector<ParallelRegion> discover_regions(const std::string& s) {
  // Named lambdas declared in this file.
  static const std::regex kNamedLambda(R"(\b([A-Za-z_][A-Za-z0-9_]*)\s*=\s*\[)");
  std::map<std::string, LambdaParts> named;
  for (auto it = std::sregex_iterator(s.begin(), s.end(), kNamedLambda);
       it != std::sregex_iterator(); ++it) {
    const std::size_t open =
        static_cast<std::size_t>(it->position()) + static_cast<std::size_t>(it->length()) - 1;
    if (const auto parts = parse_lambda(s, open)) named[(*it)[1].str()] = *parts;
  }

  static const std::regex kCall(R"(\bparallel_for\s*\()");
  std::vector<ParallelRegion> regions;
  const auto add = [&](const LambdaParts& parts) {
    regions.push_back({parts.body, seeds_of(s, parts)});
  };
  for (auto it = std::sregex_iterator(s.begin(), s.end(), kCall);
       it != std::sregex_iterator(); ++it) {
    const std::size_t open =
        static_cast<std::size_t>(it->position()) + static_cast<std::size_t>(it->length()) - 1;
    const std::size_t close = skip_balanced(s, open, '(', ')');
    if (close == std::string::npos) continue;
    // Inline lambda arguments.
    for (std::size_t i = open + 1; i + 1 < close; ++i) {
      if (s[i] != '[') continue;
      std::size_t p = i;
      while (p > open + 1 && std::isspace(static_cast<unsigned char>(s[p - 1])) != 0) --p;
      const char prev = s[p - 1];
      if (prev != '(' && prev != ',' && prev != '&' && prev != '=') continue;
      if (const auto parts = parse_lambda(s, i)) add(*parts);
    }
    // Named-lambda arguments.
    std::string token;
    for (std::size_t i = open + 1; i <= close && i < s.size(); ++i) {
      if (i < close && ident_char(s[i])) {
        token.push_back(s[i]);
        continue;
      }
      const auto found = named.find(token);
      if (found != named.end()) add(found->second);
      token.clear();
    }
  }
  std::sort(regions.begin(), regions.end(),
            [](const ParallelRegion& a, const ParallelRegion& b) {
              return std::tie(a.body.begin, a.body.end) < std::tie(b.body.begin, b.body.end);
            });
  regions.erase(std::unique(regions.begin(), regions.end(),
                            [](const ParallelRegion& a, const ParallelRegion& b) {
                              return a.body.begin == b.body.begin && a.body.end == b.body.end;
                            }),
                regions.end());
  return regions;
}

// ------------------------------------------------- D6/D7 statement walker --

struct RegionState {
  std::set<std::string> locals;
  std::set<std::string> derived;  // seeds + locals computed from them
};

void declare(RegionState& state, const std::string& name, bool derived) {
  state.locals.insert(name);
  if (derived) state.derived.insert(name);
}

[[nodiscard]] bool known(const RegionState& state, const std::string& name) {
  return state.locals.count(name) != 0 || state.derived.count(name) != 0;
}

/// Registers the declarations of a `for (...)` header: the range-for
/// variable (derived when the range expression mentions a derived name) or
/// the init-clause variable of a classic for.
void parse_for_header(const std::string& chunk, RegionState& state) {
  const std::size_t open = chunk.find('(');
  if (open == std::string::npos) return;
  const std::size_t close = skip_balanced(chunk, open, '(', ')');
  const std::string header =
      chunk.substr(open + 1, (close == std::string::npos ? chunk.size() : close - 1) -
                                 (open + 1));
  // Range-for: a ':' that is not part of '::'.
  int depth = 0;
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (header[i] == '(' || header[i] == '[') ++depth;
    if (header[i] == ')' || header[i] == ']') --depth;
    if (depth != 0 || header[i] != ':') continue;
    if ((i > 0 && header[i - 1] == ':') || (i + 1 < header.size() && header[i + 1] == ':')) {
      ++i;
      continue;
    }
    const std::string decl = header.substr(0, i);
    const std::string range = header.substr(i + 1);
    const bool derived = mentions_any(range, state.derived);
    const std::size_t bracket = decl.find('[');
    if (bracket != std::string::npos) {  // structured binding
      for (const std::string& name : ident_tokens(decl.substr(bracket))) {
        declare(state, name, derived);
      }
    } else {
      const std::vector<std::string> tokens = ident_tokens(decl);
      if (!tokens.empty()) declare(state, tokens.back(), derived);
    }
    return;
  }
  // Classic for: the init clause up to the first ';'.
  const std::size_t semi = header.find(';');
  const std::string init = semi == std::string::npos ? header : header.substr(0, semi);
  const std::size_t eq = init.find('=');
  if (eq == std::string::npos) return;
  const std::vector<std::string> tokens = ident_tokens(init.substr(0, eq));
  if (tokens.empty()) return;
  declare(state, tokens.back(), mentions_any(init.substr(eq + 1), state.derived));
}

struct AssignmentOp {
  std::size_t lhs_end = 0;  // offset in the chunk where the LHS text ends
  char compound = '\0';     // '+' for `+=`, '-' for `-=`, ...; '\0' for `=`
  std::size_t rhs_begin = 0;
};

/// First top-level assignment operator of a statement chunk (comparisons
/// excluded). Operators inside parentheses or subscripts belong to inner
/// expressions and are ignored.
[[nodiscard]] std::optional<AssignmentOp> find_assignment(const std::string& chunk) {
  int paren = 0;
  int square = 0;
  for (std::size_t i = 0; i < chunk.size(); ++i) {
    const char c = chunk[i];
    if (c == '(') ++paren;
    if (c == ')') --paren;
    if (c == '[') ++square;
    if (c == ']') --square;
    if (c != '=' || paren != 0 || square != 0) continue;
    if (i + 1 < chunk.size() && chunk[i + 1] == '=') {  // `==`
      ++i;
      continue;
    }
    const char prev = i > 0 ? chunk[i - 1] : '\0';
    if (prev == '=' || prev == '!' || prev == '<' || prev == '>') continue;
    static const std::string kCompound = "+-*/%&|^";
    if (kCompound.find(prev) != std::string::npos) {
      return AssignmentOp{i - 1, prev, i + 1};
    }
    return AssignmentOp{i, '\0', i + 1};
  }
  return std::nullopt;
}

/// Every top-level `[...]` group of the LHS, as raw text.
[[nodiscard]] std::vector<std::string> subscripts_of(const std::string& lhs) {
  std::vector<std::string> groups;
  for (std::size_t i = 0; i < lhs.size(); ++i) {
    if (lhs[i] != '[') continue;
    const std::size_t close = skip_balanced(lhs, i, '[', ']');
    if (close == std::string::npos) break;
    groups.push_back(lhs.substr(i + 1, close - 1 - (i + 1)));
    i = close - 1;
  }
  return groups;
}

struct WalkContext {
  const FileScan* fs = nullptr;
  std::size_t body_begin = 0;  // offset of the region body in the stripped text
  RegionState state;
  std::vector<Finding>* out = nullptr;
};

void emit(WalkContext& ctx, std::size_t offset_in_body, const std::string& rule,
          std::string message) {
  ctx.out->push_back({ctx.fs->file->path, line_of(*ctx.fs, ctx.body_begin + offset_in_body),
                      rule, std::move(message)});
}

void process_chunk(const std::string& chunk, std::size_t offset, WalkContext& ctx) {
  static const std::regex kStructured(R"(^\s*(?:const\s+)?auto\s*&{0,2}\s*\[)");
  const std::string text = trim(chunk);
  if (text.empty()) return;
  const std::vector<std::string> chunk_tokens = ident_tokens(text);
  if (chunk_tokens.empty()) return;
  const std::string& head = chunk_tokens.front();
  if (head == "for") {
    parse_for_header(chunk, ctx.state);
    return;
  }
  if (head == "return" || head == "throw" || head == "break" || head == "continue") return;

  const auto op = find_assignment(chunk);
  if (op.has_value()) {
    const std::string lhs = trim(chunk.substr(0, op->lhs_end));
    const std::string rhs = chunk.substr(op->rhs_begin);
    if (lhs.empty()) return;
    std::smatch m;
    if (std::regex_search(lhs, m, kStructured)) {  // auto [a, b] = ...
      const bool derived = mentions_any(rhs, ctx.state.derived);
      for (const std::string& name : ident_tokens(lhs.substr(lhs.find('[')))) {
        declare(ctx.state, name, derived);
      }
      return;
    }
    const std::vector<std::string> lhs_tokens = ident_tokens(lhs);
    if (lhs_tokens.empty()) return;
    // A call on the left of `=` (std::tie(...), setter chains) is beyond
    // this analysis — stay silent rather than guess.
    const std::size_t first_paren = lhs.find('(');
    if (first_paren != std::string::npos && first_paren > 0 &&
        lhs.find_first_not_of(" \t*&") < first_paren &&
        lhs[lhs.find_first_not_of(" \t")] != '(') {
      return;
    }
    // Declaration heuristic: the last identifier is preceded by type-ish
    // text (`double v`, `auto& slot`, `std::vector<int> xs`).
    const std::string& declared = lhs_tokens.back();
    const std::size_t name_at = lhs.rfind(declared);
    std::string prefix = lhs.substr(0, name_at);
    while (!prefix.empty() && (std::isspace(static_cast<unsigned char>(prefix.back())) != 0 ||
                               prefix.back() == '&' || prefix.back() == '*')) {
      prefix.pop_back();
    }
    if (!prefix.empty() && (ident_char(prefix.back()) || prefix.back() == '>')) {
      declare(ctx.state, declared, mentions_any(rhs, ctx.state.derived));
      return;
    }

    // A write. Root lvalue = the first identifier (`(*out)[i]` -> out).
    const std::string& root = lhs_tokens.front();
    if (known(ctx.state, root)) return;  // per-task storage
    const std::size_t root_at = offset + chunk.find(root);
    const std::vector<std::string> subs = subscripts_of(lhs);
    if (!subs.empty()) {
      for (const std::string& sub : subs) {
        if (mentions_any(sub, ctx.state.derived)) return;  // sanctioned slot write
      }
      emit(ctx, root_at, "D6",
           "write to `" + root +
               "[...]` inside a parallel section: the slot index does not derive "
               "from the lambda's item/index parameter — disjointness cannot be "
               "verified");
      return;
    }
    if (!root.empty() && root.back() == '_') return;  // shared members are D3's domain
    const bool accumulation =
        op->compound == '+' ||
        (op->compound == '\0' &&
         std::regex_search(rhs, std::regex("^\\s*" + root + "\\b\\s*\\+")));
    if (accumulation) {
      emit(ctx, root_at, "D7",
           "accumulation into captured `" + root +
               "` inside a parallel section: fold order depends on lane "
               "interleaving — write per-item slots and fold serially (or annotate "
               "ordered-fold-ok with why the fold is order-insensitive)");
    } else {
      emit(ctx, root_at, "D6",
           "write to captured `" + root +
               "` inside a parallel section is not a disjoint-slot write: workers "
               "may only write slots indexed by their item/index parameter");
    }
    return;
  }

  // Increment/decrement statements.
  static const std::regex kIncDec(
      R"((?:(?:\+\+|--)\s*([A-Za-z_][A-Za-z0-9_]*))|(?:\b([A-Za-z_][A-Za-z0-9_]*)\s*(?:\+\+|--)))");
  bool saw_inc_dec = false;
  for (auto it = std::sregex_iterator(text.begin(), text.end(), kIncDec);
       it != std::sregex_iterator(); ++it) {
    saw_inc_dec = true;
    const std::string name = (*it)[1].matched ? (*it)[1].str() : (*it)[2].str();
    if (known(ctx.state, name)) continue;
    if (!name.empty() && name.back() == '_') continue;  // D3's domain
    if (mentions_any(text, ctx.state.derived) && text.find('[') != std::string::npos) {
      continue;  // ++slots[k] style: a slot write with a derived index
    }
    emit(ctx, offset + chunk.find(name), "D6",
         "increment of captured `" + name +
             "` inside a parallel section is not a disjoint-slot write");
  }
  if (saw_inc_dec) return;

  // Bare declaration without initializer (`double x;`).
  if (chunk_tokens.size() >= 2 && text.find('(') == std::string::npos) {
    declare(ctx.state, chunk_tokens.back(), false);
  }
}

void walk_region(const FileScan& fs, const ParallelRegion& region,
                 std::vector<Finding>& out) {
  const std::string& s = fs.stripped;
  const std::string body =
      s.substr(region.body.begin, region.body.end - region.body.begin);
  WalkContext ctx;
  ctx.fs = &fs;
  ctx.body_begin = region.body.begin;
  ctx.out = &out;
  for (const std::string& seed : region.seeds) ctx.state.derived.insert(seed);
  // Nested lambda parameters are per-invocation storage of their own scope.
  static const std::regex kNestedLambda(R"(\[[^\[\]]*\]\s*\(([^()]*)\))");
  for (auto it = std::sregex_iterator(body.begin(), body.end(), kNestedLambda);
       it != std::sregex_iterator(); ++it) {
    for (const std::string& raw : split_arguments((*it)[1].str())) {
      const std::vector<std::string> tokens = ident_tokens(raw);
      if (!tokens.empty() && !type_keyword(tokens.back())) {
        ctx.state.locals.insert(tokens.back());
      }
    }
  }

  int paren = 0;
  std::size_t chunk_start = 0;
  for (std::size_t i = 0; i <= body.size(); ++i) {
    const char c = i < body.size() ? body[i] : ';';
    if (c == '(') ++paren;
    if (c == ')' && paren > 0) --paren;
    const bool delim =
        i == body.size() || ((c == ';' || c == '{' || c == '}') && paren == 0);
    if (!delim) continue;
    process_chunk(body.substr(chunk_start, i - chunk_start), chunk_start, ctx);
    chunk_start = i + 1;
  }
}

[[nodiscard]] std::vector<Finding> slot_findings(const FileScan& fs) {
  std::vector<Finding> raw;
  for (const ParallelRegion& region : parallel_regions_of(fs)) {
    walk_region(fs, region, raw);
  }
  std::sort(raw.begin(), raw.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.line, a.rule, a.message) < std::tie(b.line, b.rule, b.message);
  });
  raw.erase(std::unique(raw.begin(), raw.end(),
                        [](const Finding& a, const Finding& b) {
                          return a.line == b.line && a.rule == b.rule &&
                                 a.message == b.message;
                        }),
            raw.end());
  return raw;
}

}  // namespace

std::vector<ParallelRegion> parallel_regions_of(const FileScan& fs) {
  return discover_regions(fs.stripped);
}

void rule_d3(const FileScan& fs, std::vector<Finding>& findings) {
  static const std::regex kIdent(R"([A-Za-z_][A-Za-z0-9_]*)");
  static const std::array<std::pair<std::regex, const char*>, 4> kMutations = {{
      {std::regex(R"((?:\+\+|--)\s*([A-Za-z_][A-Za-z0-9_]*_)\b)"),
       "mutation of shared member `%` inside a parallel section"},
      {std::regex(R"(\b([A-Za-z_][A-Za-z0-9_]*_)\s*(?:\+\+|--))"),
       "mutation of shared member `%` inside a parallel section"},
      {std::regex(R"(\b([A-Za-z_][A-Za-z0-9_]*_)\s*(?:[-+*/|&^]=|=(?!=)))"),
       "assignment to shared member `%` inside a parallel section (workers may "
       "only write disjoint slots, e.g. `%[k] = ...`)"},
      {std::regex(
           R"(\b([A-Za-z_][A-Za-z0-9_]*_)\s*\.\s*(?:push_back|pop_back|emplace_back|emplace|insert|insert_or_assign|erase|clear|resize|assign|reserve)\s*\()"),
       "container mutation of shared member `%` inside a parallel section"},
  }};
  const std::string& s = fs.stripped;
  std::vector<Finding> raw;
  for (const ParallelRegion& region : parallel_regions_of(fs)) {
    const std::string body =
        s.substr(region.body.begin, region.body.end - region.body.begin);
    // RNG draws: any identifier naming an Rng (the repo convention always
    // spells it out: rng, failure_rng_, Rng, ...).
    for (auto it = std::sregex_iterator(body.begin(), body.end(), kIdent);
         it != std::sregex_iterator(); ++it) {
      std::string word = it->str();
      std::transform(word.begin(), word.end(), word.begin(),
                     [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
      if (word.find("rng") == std::string::npos) continue;
      raw.push_back(
          {fs.file->path,
           line_of(fs, region.body.begin + static_cast<std::size_t>(it->position())), "D3",
           "RNG use `" + it->str() +
               "` inside a parallel section: every draw belongs to the "
               "coordinating thread (pre-draw into per-item slots)"});
    }
    for (const auto& [re, message] : kMutations) {
      for (auto it = std::sregex_iterator(body.begin(), body.end(), re);
           it != std::sregex_iterator(); ++it) {
        std::string msg = message;
        std::size_t pos = 0;
        while ((pos = msg.find('%', pos)) != std::string::npos) {
          msg.replace(pos, 1, (*it)[1].str());
          pos += (*it)[1].str().size();
        }
        raw.push_back(
            {fs.file->path,
             line_of(fs, region.body.begin + static_cast<std::size_t>(it->position(1))),
             "D3", std::move(msg)});
      }
    }
  }
  // Nested/duplicated regions (a named lambda used twice) may double-report.
  std::sort(raw.begin(), raw.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.line, a.message) < std::tie(b.line, b.message);
  });
  raw.erase(std::unique(raw.begin(), raw.end(),
                        [](const Finding& a, const Finding& b) {
                          return a.line == b.line && a.message == b.message;
                        }),
            raw.end());
  findings.insert(findings.end(), raw.begin(), raw.end());
}

void rule_d6(const FileScan& fs, std::vector<Finding>& findings) {
  for (Finding& finding : slot_findings(fs)) {
    if (finding.rule == "D6") findings.push_back(std::move(finding));
  }
}

void rule_d7(const FileScan& fs, const std::set<std::string>& unordered_names,
             std::vector<Finding>& findings) {
  for (Finding& finding : slot_findings(fs)) {
    if (finding.rule == "D7") findings.push_back(std::move(finding));
  }
  // Accumulation while iterating an unordered container: the fold happens in
  // bucket order even on one thread.
  static const std::regex kRangeFor(
      R"(\bfor\s*\([^();]*[^();:]:\s*(?:[A-Za-z_][A-Za-z0-9_]*\s*(?:\.|->)\s*)*([A-Za-z_][A-Za-z0-9_]*)\s*\))");
  static const std::regex kAccumulate(
      R"(\b([A-Za-z_][A-Za-z0-9_]*)\s*(?:\+=|=\s*\1\s*\+))");
  const std::string& s = fs.stripped;
  for (auto it = std::sregex_iterator(s.begin(), s.end(), kRangeFor);
       it != std::sregex_iterator(); ++it) {
    const std::string name = (*it)[1].str();
    if (unordered_names.find(name) == unordered_names.end()) continue;
    std::size_t i = skip_ws(s, static_cast<std::size_t>(it->position() + it->length()));
    std::size_t body_begin = 0;
    std::size_t body_end = 0;
    if (i < s.size() && s[i] == '{') {
      const std::size_t close = fs.bracket_match[i];
      if (close == std::string::npos) continue;
      body_begin = i + 1;
      body_end = close;
    } else {
      body_begin = i;
      body_end = s.find(';', i);
      if (body_end == std::string::npos) continue;
    }
    const std::string body = s.substr(body_begin, body_end - body_begin);
    for (auto acc = std::sregex_iterator(body.begin(), body.end(), kAccumulate);
         acc != std::sregex_iterator(); ++acc) {
      findings.push_back(
          {fs.file->path,
           line_of(fs, body_begin + static_cast<std::size_t>(acc->position(1))), "D7",
           "accumulation into `" + (*acc)[1].str() + "` while iterating unordered "
               "container `" + name + "` folds in bucket order — snapshot into a "
               "sorted sequence first, or annotate ordered-fold-ok with why the "
               "fold is order-insensitive"});
    }
  }
}

void rule_d8(const FileScan& fs, std::vector<Finding>& findings) {
  static const std::regex kRawLock(R"((?:\.|->)\s*((?:un)?lock)\s*\()");
  const std::string& s = fs.stripped;
  for (auto it = std::sregex_iterator(s.begin(), s.end(), kRawLock);
       it != std::sregex_iterator(); ++it) {
    findings.push_back(
        {fs.file->path, line_of(fs, static_cast<std::size_t>(it->position(1))), "D8",
         "raw `" + (*it)[1].str() +
             "()` call: hold mutexes through RAII guards (std::lock_guard / "
             "std::scoped_lock) so no early exit can leak the lock"});
  }
}

}  // namespace carbonedge::lint
