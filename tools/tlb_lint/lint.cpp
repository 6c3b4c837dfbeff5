#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

namespace tlb::lint {

namespace {

[[nodiscard]] bool ident_char(char c) {
  return (std::isalnum(static_cast<unsigned char>(c)) != 0) || c == '_';
}

/// True when `path` starts with `prefix` (both repo-relative, '/').
[[nodiscard]] bool starts_with(std::string_view path,
                               std::string_view prefix) {
  return path.size() >= prefix.size() &&
         path.substr(0, prefix.size()) == prefix;
}

[[nodiscard]] bool ends_with(std::string_view path, std::string_view suffix) {
  return path.size() >= suffix.size() &&
         path.substr(path.size() - suffix.size()) == suffix;
}

[[nodiscard]] bool rule_applies(Rule const& rule, std::string_view path) {
  if (!rule.dirs.empty() &&
      std::none_of(rule.dirs.begin(), rule.dirs.end(),
                   [&](std::string const& d) { return starts_with(path, d); })) {
    return false;
  }
  return std::none_of(
      rule.allow_files.begin(), rule.allow_files.end(),
      [&](std::string const& f) { return ends_with(path, f); });
}

/// Tokens ending in '(' are call-shaped, tokens ending in '{' are
/// construction-shaped: the identifier part must be boundary-clean and
/// the closing punctuator may be separated by whitespace.
struct TokenShape {
  std::string_view ident; ///< the part requiring word boundaries
  char suffix = '\0';     ///< '(' or '{' that must follow (after opt. ws)
};

[[nodiscard]] TokenShape shape_of(std::string_view token) {
  if (!token.empty() && (token.back() == '(' || token.back() == '{')) {
    return {token.substr(0, token.size() - 1), token.back()};
  }
  return {token, '\0'};
}

/// Does `line` (already scrubbed of comments/strings) contain `token` as a
/// standalone identifier (or qualified-id) occurrence?
[[nodiscard]] bool line_matches(std::string_view line,
                                std::string_view token) {
  auto const [ident, suffix] = shape_of(token);
  std::size_t pos = 0;
  while ((pos = line.find(ident, pos)) != std::string_view::npos) {
    bool const pre_ok = pos == 0 || (!ident_char(line[pos - 1]) &&
                                     line[pos - 1] != ':' && // a::b::ident
                                     line[pos - 1] != '.' && // obj.ident
                                     line[pos - 1] != '>');  // ptr->ident
    // Qualified tokens ("std::mutex") pin their own prefix, so member /
    // namespace accesses of the *same spelling* still match; for a bare
    // identifier the '.'/'->'/':' rejection keeps e.g. buf.volatile_
    // lookalikes and foo::rand wrappers from false-firing.
    bool const qualified = ident.find("::") != std::string_view::npos;
    bool const pre = qualified
                         ? (pos == 0 || !ident_char(line[pos - 1]))
                         : pre_ok;
    std::size_t after = pos + ident.size();
    bool post = after >= line.size() || !ident_char(line[after]);
    if (post && suffix != '\0') {
      while (after < line.size() &&
             (line[after] == ' ' || line[after] == '\t')) {
        ++after;
      }
      post = after < line.size() && line[after] == suffix;
    }
    if (pre && post) {
      return true;
    }
    pos += ident.size();
  }
  return false;
}

/// Rules suppressed on this raw (unscrubbed) line via
/// `tlb-lint: allow(a, b)`. Returns ids as written.
[[nodiscard]] std::vector<std::string>
suppressed_rules(std::string_view raw_line) {
  std::vector<std::string> out;
  static constexpr std::string_view marker = "tlb-lint: allow(";
  std::size_t pos = 0;
  while ((pos = raw_line.find(marker, pos)) != std::string_view::npos) {
    std::size_t const open = pos + marker.size();
    std::size_t const close = raw_line.find(')', open);
    if (close == std::string_view::npos) {
      break;
    }
    std::string id;
    for (std::size_t i = open; i <= close; ++i) {
      char const c = i == close ? ',' : raw_line[i];
      if (c == ',') {
        if (!id.empty()) {
          out.push_back(id);
          id.clear();
        }
      } else if (c != ' ' && c != '\t') {
        id.push_back(c);
      }
    }
    pos = close + 1;
  }
  return out;
}

void split_lines(std::string_view text, std::vector<std::string_view>& out) {
  out.clear();
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) {
      end = text.size();
    }
    out.push_back(text.substr(start, end - start));
    start = end + 1;
  }
}

} // namespace

std::string scrub(std::string_view source) {
  std::string out{source};
  enum class State {
    code,
    line_comment,
    block_comment,
    string_lit,
    char_lit,
    raw_string,
  };
  State state = State::code;
  std::string raw_delim; // for raw strings: the )delim" terminator
  for (std::size_t i = 0; i < source.size(); ++i) {
    char const c = source[i];
    char const next = i + 1 < source.size() ? source[i + 1] : '\0';
    switch (state) {
    case State::code:
      if (c == '/' && next == '/') {
        state = State::line_comment;
        out[i] = ' ';
      } else if (c == '/' && next == '*') {
        state = State::block_comment;
        out[i] = ' ';
      } else if (c == 'R' && next == '"' &&
                 (i == 0 || !ident_char(source[i - 1]))) {
        // Raw string R"delim( ... )delim": find the delimiter.
        std::size_t const open = source.find('(', i + 2);
        if (open != std::string_view::npos) {
          raw_delim.clear();
          raw_delim.push_back(')');
          raw_delim.append(source.substr(i + 2, open - (i + 2)));
          raw_delim.push_back('"');
          state = State::raw_string;
          for (std::size_t j = i; j <= open && j < source.size(); ++j) {
            if (source[j] != '\n') {
              out[j] = ' ';
            }
          }
          i = open;
        }
      } else if (c == '"') {
        state = State::string_lit;
        out[i] = ' ';
      } else if (c == '\'' && (i == 0 || !ident_char(source[i - 1]))) {
        // Identifier guard keeps digit separators (1'000'000) in code.
        state = State::char_lit;
        out[i] = ' ';
      }
      break;
    case State::line_comment:
      if (c == '\n') {
        state = State::code;
      } else {
        out[i] = ' ';
      }
      break;
    case State::block_comment:
      if (c == '*' && next == '/') {
        out[i] = ' ';
        out[i + 1] = ' ';
        ++i;
        state = State::code;
      } else if (c != '\n') {
        out[i] = ' ';
      }
      break;
    case State::string_lit:
      if (c == '\\') {
        out[i] = ' ';
        if (next != '\0' && next != '\n') {
          out[i + 1] = ' ';
          ++i;
        }
      } else if (c == '"') {
        out[i] = ' ';
        state = State::code;
      } else if (c != '\n') {
        out[i] = ' ';
      }
      break;
    case State::char_lit:
      if (c == '\\') {
        out[i] = ' ';
        if (next != '\0' && next != '\n') {
          out[i + 1] = ' ';
          ++i;
        }
      } else if (c == '\'') {
        out[i] = ' ';
        state = State::code;
      } else if (c != '\n') {
        out[i] = ' ';
      }
      break;
    case State::raw_string:
      if (source.compare(i, raw_delim.size(), raw_delim) == 0) {
        for (std::size_t j = i; j < i + raw_delim.size(); ++j) {
          out[j] = ' ';
        }
        i += raw_delim.size() - 1;
        state = State::code;
      } else if (c != '\n') {
        out[i] = ' ';
      }
      break;
    }
  }
  return out;
}

std::vector<Rule> const& default_rules() {
  // The catalogue is ordered roughly by blast radius; DESIGN.md "Static
  // analysis" documents the rationale for each rule and its allowlist.
  static std::vector<Rule> const rules = {
      {
          "no-unseeded-rand",
          {"rand(", "srand(", "std::random_device"},
          {"src/"},
          {},
          "unseeded randomness breaks the root-seed contract: derive every "
          "stream from the run seed via support/rng.hpp (Rng::split / "
          "derive_seed)",
      },
      {
          "no-wall-clock",
          {"time(", "clock(", "gettimeofday(", "clock_gettime(",
           "steady_clock::now(", "system_clock::now(",
           "high_resolution_clock::now("},
          {"src/"},
          // Trace timestamps are presentation metadata, not protocol
          // state: replaying a run with different wall-clock readings
          // yields the identical schedule, so the tracer may keep them.
          {"src/obs/tracer.cpp"},
          "wall-clock reads break seeded determinism: use the poll-counter "
          "time base (Runtime::rank_polls) or a seed-derived value",
      },
      {
          "no-std-function",
          {"std::function"},
          {"src/runtime/"},
          {},
          "std::function heap-allocates captured state per message: runtime "
          "hot paths must use rt::InlineHandler (SBO, never allocates)",
      },
      {
          "no-raw-mutex",
          {"std::mutex", "std::recursive_mutex", "std::shared_mutex",
           "std::timed_mutex", "std::condition_variable", "std::lock_guard",
           "std::unique_lock", "std::scoped_lock"},
          {"src/"},
          {},
          "std:: locking primitives are invisible to the thread-safety "
          "analysis: use tlb::SpinLock + tlb::SpinLockGuard "
          "(support/spinlock.hpp) so -Werror=thread-safety can check the "
          "critical section",
      },
      {
          "no-volatile",
          {"volatile"},
          {"src/"},
          {},
          "volatile is not a concurrency primitive: use std::atomic with an "
          "explicit memory order",
      },
      {
          "invariant-not-assert",
          {"assert("},
          {"src/lb/", "src/runtime/"},
          {},
          "use TLB_INVARIANT (support/check.hpp) or TLB_ASSERT "
          "(support/assert.hpp) instead of assert(): contract checks must "
          "not vanish in release experiment builds",
      },
      {
          "no-envelope-outside-runtime",
          // Both construction shapes, bare and qualified: the bare tokens
          // reject a ':' prefix themselves, so the qualified spellings
          // need their own entries.
          {"Envelope{", "Envelope(", "rt::Envelope{", "rt::Envelope("},
          {"src/lb/", "src/lbaf/", "src/obs/", "src/fault/", "src/pic/",
           "src/policy/", "src/support/", "src/workload/"},
          {},
          "constructing rt::Envelope outside src/runtime bypasses causal "
          "stamping and fault-exemption accounting: send through "
          "RankContext::send / Runtime::post so the runtime owns envelope "
          "creation",
      },
      {
          "no-removed-gate",
          // The main build defines none of these, so `#if` on one silently
          // takes the off branch, while perfbench/CMakeLists.txt still
          // defines two of them as 1: a leftover gate would make tier-1 and
          // the benchmark compile different programs.
          {"TLB_TELEMETRY_ENABLED", "TLB_FAULT_ENABLED",
           "TLB_STRICT_SBO_ENABLED"},
          {"src/", "tests/", "bench/", "examples/"},
          {},
          "the telemetry, fault and strict-SBO compile gates are gone and "
          "nothing defines these macros in the main build: telemetry and "
          "the fault plane are always compiled in, so branch at run time "
          "on obs::enabled() or Runtime::fault_active() instead",
      },
  };
  return rules;
}

std::vector<Violation> lint_source(std::string_view path,
                                   std::string_view source,
                                   std::vector<Rule> const& rules) {
  std::vector<Violation> out;
  std::vector<Rule const*> active;
  for (Rule const& rule : rules) {
    if (rule_applies(rule, path)) {
      active.push_back(&rule);
    }
  }
  if (active.empty()) {
    return out;
  }
  std::string const scrubbed = scrub(source);
  std::vector<std::string_view> raw_lines;
  std::vector<std::string_view> code_lines;
  split_lines(source, raw_lines);
  split_lines(scrubbed, code_lines);
  for (std::size_t i = 0; i < code_lines.size(); ++i) {
    for (Rule const* rule : active) {
      auto const hit =
          std::find_if(rule->tokens.begin(), rule->tokens.end(),
                       [&](std::string const& token) {
                         return line_matches(code_lines[i], token);
                       });
      if (hit == rule->tokens.end()) {
        continue;
      }
      auto const allowed = suppressed_rules(raw_lines[i]);
      if (std::find(allowed.begin(), allowed.end(), rule->id) !=
          allowed.end()) {
        continue;
      }
      out.push_back(Violation{std::string{path}, i + 1, rule->id, *hit,
                              rule->message});
    }
  }
  return out;
}

bool lintable_file(std::string_view path) {
  for (std::string_view ext :
       {".hpp", ".cpp", ".h", ".cc", ".hh", ".cxx", ".ipp"}) {
    if (ends_with(path, ext)) {
      return true;
    }
  }
  return false;
}

std::vector<Violation> lint_file(std::filesystem::path const& root,
                                 std::string const& path,
                                 std::vector<Rule> const& rules) {
  std::ifstream in{root / path, std::ios::binary};
  if (!in.good()) {
    return {Violation{path, 0, "io-error", "", "cannot read file"}};
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return lint_source(path, buffer.str(), rules);
}

std::vector<Violation> lint_tree(std::filesystem::path const& root,
                                 std::vector<std::string> const& subdirs,
                                 std::vector<Rule> const& rules) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  for (std::string const& subdir : subdirs) {
    fs::path const base = root / subdir;
    if (!fs::exists(base)) {
      continue;
    }
    for (auto const& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) {
        continue;
      }
      std::string rel = fs::relative(entry.path(), root).generic_string();
      if (lintable_file(rel)) {
        files.push_back(std::move(rel));
      }
    }
  }
  std::sort(files.begin(), files.end());
  std::vector<Violation> out;
  for (std::string const& file : files) {
    auto violations = lint_file(root, file, rules);
    out.insert(out.end(), std::make_move_iterator(violations.begin()),
               std::make_move_iterator(violations.end()));
  }
  return out;
}

} // namespace tlb::lint
