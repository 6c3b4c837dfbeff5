#include "lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace tlb::lint {
namespace {

std::vector<Violation> lint(std::string_view path, std::string_view source) {
  return lint_source(path, source);
}

// ---------------------------------------------------------------------
// Scrubber
// ---------------------------------------------------------------------

TEST(Scrub, LineAndBlockCommentsBecomeSpaces) {
  auto const out = scrub("int x; // std::mutex\nint /* rand() */ y;");
  EXPECT_EQ(out.find("std::mutex"), std::string::npos);
  EXPECT_EQ(out.find("rand"), std::string::npos);
  EXPECT_NE(out.find("int x;"), std::string::npos);
  EXPECT_NE(out.find('y'), std::string::npos);
}

TEST(Scrub, PreservesLineStructure) {
  std::string const src = "a\n/* b\nc */\nd\n";
  auto const out = scrub(src);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'),
            std::count(src.begin(), src.end(), '\n'));
}

TEST(Scrub, StringAndCharLiteralsWithEscapes) {
  auto const out =
      scrub(R"(char const* s = "a \" std::mutex"; char c = '\'';)");
  EXPECT_EQ(out.find("std::mutex"), std::string::npos);
  // The declaration skeleton survives.
  EXPECT_NE(out.find("char const* s ="), std::string::npos);
}

TEST(Scrub, RawStringsScrubbedToTheirDelimiter) {
  auto const out = scrub("auto r = R\"x(rand() volatile)x\"; int after;");
  EXPECT_EQ(out.find("rand"), std::string::npos);
  EXPECT_EQ(out.find("volatile"), std::string::npos);
  EXPECT_NE(out.find("int after;"), std::string::npos);
}

TEST(Scrub, DigitSeparatorsAreNotCharLiterals) {
  auto const out = scrub("int n = 1'000'000; volatile int v;");
  // If 1'000' opened a char literal the volatile would be scrubbed away.
  EXPECT_NE(out.find("volatile"), std::string::npos);
}

// ---------------------------------------------------------------------
// Matching
// ---------------------------------------------------------------------

TEST(Match, CallShapedTokenNeedsIdentifierBoundaryAndParen) {
  EXPECT_EQ(lint("src/x.cpp", "int y = strand();").size(), 0u);
  EXPECT_EQ(lint("src/x.cpp", "int rand_width = 3;").size(), 0u);
  EXPECT_EQ(lint("src/x.cpp", "int y = operand(2);").size(), 0u);
  ASSERT_EQ(lint("src/x.cpp", "int y = rand();").size(), 1u);
  // Whitespace between identifier and paren still matches.
  ASSERT_EQ(lint("src/x.cpp", "int y = rand  ();").size(), 1u);
}

TEST(Match, BraceShapedTokenNeedsIdentifierBoundaryAndBrace) {
  // no-envelope-outside-runtime's brace-construction shape.
  ASSERT_EQ(lint("src/lb/x.cpp", "auto e = rt::Envelope{1, 2};").size(), 1u);
  ASSERT_EQ(lint("src/lb/x.cpp", "auto e = Envelope {1, 2};").size(), 1u);
  EXPECT_EQ(lint("src/lb/x.cpp", "EnvelopeView v{};").size(), 0u);
  EXPECT_EQ(lint("src/lb/x.cpp", "auto n = envelope_count(3);").size(), 0u);
  // Paren shape fires too; plain mentions do not.
  ASSERT_EQ(lint("src/lb/x.cpp", "auto e = rt::Envelope(a, b);").size(), 1u);
  EXPECT_EQ(lint("src/lb/x.cpp", "void take(rt::Envelope&& env);").size(),
            0u);
  // Outside the scoped dirs the rule is inert (runtime owns envelopes).
  EXPECT_EQ(lint("src/runtime/x.cpp", "auto e = Envelope{1, 2};").size(),
            0u);
}

TEST(Match, QualifiedTokenMatchesThroughLongerQualification) {
  auto const v =
      lint("src/x.cpp", "auto t = std::chrono::steady_clock::now();");
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].rule, "no-wall-clock");
  EXPECT_EQ(v[0].line, 1u);
}

TEST(Match, DirScopingRestrictsRules) {
  // no-std-function only applies under src/runtime/.
  EXPECT_EQ(lint("src/lb/x.cpp", "std::function<void()> f;").size(), 0u);
  EXPECT_EQ(lint("src/runtime/x.cpp", "std::function<void()> f;").size(),
            1u);
  // The src/-scoped rules are silent outside src/.
  EXPECT_EQ(lint("bench/x.cpp", "std::mutex m; rand();").size(), 0u);
  // no-removed-gate covers every compiled tree, but not tools/ (its own
  // rule table) or perfbench/ (which still defines two of the macros).
  for (std::string_view path :
       {"src/x.cpp", "tests/x.cpp", "bench/x.cpp", "examples/x.cpp"}) {
    EXPECT_EQ(lint(path, "#if TLB_TELEMETRY_ENABLED").size(), 1u) << path;
  }
  EXPECT_EQ(lint("tools/x.cpp", "#if TLB_TELEMETRY_ENABLED").size(), 0u);
  EXPECT_EQ(lint("perfbench/x.cpp", "#if TLB_TELEMETRY_ENABLED").size(), 0u);
}

TEST(Match, SuppressionExemptsOnlyTheNamedRuleOnThatLine) {
  std::string const both =
      "std::mutex m; volatile int v; // tlb-lint: allow(no-raw-mutex)\n";
  auto const v = lint("src/x.cpp", both);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].rule, "no-volatile");

  std::string const multi = "std::mutex m; volatile int v; "
                            "// tlb-lint: allow(no-raw-mutex, no-volatile)\n";
  EXPECT_EQ(lint("src/x.cpp", multi).size(), 0u);

  // The suppression is per-line, not per-file.
  std::string const next_line =
      "int a; // tlb-lint: allow(no-raw-mutex)\nstd::mutex m;\n";
  EXPECT_EQ(lint("src/x.cpp", next_line).size(), 1u);
}

TEST(Match, AllowlistExemptsSanctionedFiles) {
  std::string const clock_use = "auto t = std::chrono::steady_clock::now();";
  EXPECT_EQ(lint("src/obs/tracer.cpp", clock_use).size(), 0u);
  EXPECT_EQ(lint("src/obs/registry.cpp", clock_use).size(), 1u);
}

TEST(Match, AssertRuleIgnoresStaticAssertAndContractMacros) {
  std::string const src = "void f(int x) {\n"
                          "  static_assert(sizeof(int) >= 4);\n"
                          "  TLB_ASSERT(x > 0, \"m\");\n"
                          "  assert(x > 0);\n"
                          "}\n";
  auto const v = lint("src/lb/x.cpp", src);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].rule, "invariant-not-assert");
  EXPECT_EQ(v[0].line, 4u);
}

// ---------------------------------------------------------------------
// Fixture corpus: the expected violation set is pinned exactly, so a rule
// regression (stops firing) and a false-positive regression (extra hit)
// both fail this test. Update alongside tools/tlb_lint/fixtures/.
// ---------------------------------------------------------------------

TEST(Fixtures, CorpusProducesExactlyThePinnedViolations) {
  auto const got =
      lint_tree(std::string{TLB_SOURCE_DIR} + "/tools/tlb_lint/fixtures",
                {"src", "tests", "bench", "examples"});
  std::vector<std::string> keys;
  keys.reserve(got.size());
  for (auto const& v : got) {
    keys.push_back(v.file + ":" + std::to_string(v.line) + ":" + v.rule);
  }
  std::vector<std::string> const expected = {
      "bench/bad_gate.cpp:6:no-removed-gate",
      "src/lb/bad_assert.cpp:6:invariant-not-assert",
      "src/lb/bad_clock.cpp:7:no-wall-clock",
      "src/lb/bad_clock.cpp:8:no-wall-clock",
      "src/lb/bad_clock.cpp:9:no-wall-clock",
      "src/lb/bad_clock.cpp:10:no-wall-clock",
      "src/lb/bad_envelope.cpp:11:no-envelope-outside-runtime",
      "src/lb/bad_envelope.cpp:12:no-envelope-outside-runtime",
      "src/lb/bad_envelope.cpp:14:no-envelope-outside-runtime",
      "src/lb/bad_random.cpp:7:no-unseeded-rand",
      "src/lb/bad_random.cpp:8:no-unseeded-rand",
      "src/lb/bad_random.cpp:9:no-unseeded-rand",
      "src/runtime/bad_gate.cpp:4:no-removed-gate",
      "src/runtime/bad_gate.cpp:7:no-removed-gate",
      "src/runtime/bad_gate.cpp:8:no-removed-gate",
      "src/runtime/bad_gate.cpp:10:no-removed-gate",
      "src/runtime/bad_handler.cpp:7:no-std-function",
      "src/runtime/bad_sync.cpp:4:no-raw-mutex",
      "src/runtime/bad_sync.cpp:5:no-volatile",
      "src/runtime/bad_sync.cpp:8:no-raw-mutex",
  };
  EXPECT_EQ(keys, expected);
}

// ---------------------------------------------------------------------
// The real tree must be clean — the same check CI and scripts/lint.sh
// enforce, kept here so `ctest` alone catches a violation too. It walks
// every compiled tree, not only src/, for no-removed-gate's sake.
// ---------------------------------------------------------------------

TEST(RealTree, SrcHasZeroViolations) {
  auto const got =
      lint_tree(TLB_SOURCE_DIR, {"src", "tests", "bench", "examples"});
  for (auto const& v : got) {
    ADD_FAILURE() << v.file << ":" << v.line << ": [" << v.rule << "] "
                  << v.message;
  }
}

TEST(Rules, CatalogueIsWellFormed) {
  auto const& rules = default_rules();
  ASSERT_GE(rules.size(), 8u);
  std::vector<std::string> ids;
  for (auto const& rule : rules) {
    EXPECT_FALSE(rule.id.empty());
    EXPECT_FALSE(rule.tokens.empty());
    EXPECT_FALSE(rule.message.empty());
    for (auto const& dir : rule.dirs) {
      EXPECT_EQ(dir.back(), '/') << rule.id << ": dir prefixes end in '/'";
    }
    ids.push_back(rule.id);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end())
      << "duplicate rule id";
}

} // namespace
} // namespace tlb::lint
