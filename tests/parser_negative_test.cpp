//===- tests/parser_negative_test.cpp - Malformed-input behaviour ---------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
// The contract under test: no textual input — truncated, duplicated,
// ill-referenced, or plain garbage — may crash the parser. Every rejection
// carries a line-numbered diagnostic, and inputs that parse but violate
// the CFG contract are caught by the verifier with all errors reported.
//
//===----------------------------------------------------------------------===//

#include "ParseOrDie.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

using namespace depflow;

namespace {

struct NegativeCase {
  const char *Name;
  const char *Source;
  /// A substring the parse error must contain ("" = parse must succeed,
  /// and the verifier must reject instead).
  const char *ErrorContains;
  /// Expected ParseResult::ErrorLine (0 = don't care / verifier case).
  unsigned Line;
};

const NegativeCase Cases[] = {
    {"empty input", "", "expected 'func'", 1},
    {"garbage", "garbage", "expected 'func'", 1},
    {"no blocks", "func f() {\n}\n", "function has no blocks", 2},
    {"instruction before label", "func f() {\n  x = 1\nb:\n  ret\n}\n",
     "instruction before any label", 2},
    {"duplicate label", "func f() {\nb:\n  goto c\nc:\n  goto b\nb:\n  ret\n}\n",
     "duplicate label 'b'", 6},
    {"unknown goto target", "func f() {\nb:\n  goto nowhere\n}\n",
     "unknown label 'nowhere'", 3},
    {"unknown condbr target",
     "func f(p) {\nb:\n  if p goto b else missing\nc:\n  ret\n}\n",
     "unknown label 'missing'", 3},
    {"unknown phi label",
     "func f() {\nb:\n  goto c\nc:\n  x = phi(zzz: 1)\n  ret x\n}\n",
     "unknown label 'zzz' in phi", 5},
    {"truncated after label", "func f() {\nb:", "missing '}'", 2},
    {"truncated mid-instruction", "func f() {\nb:\n  x = ", "expected operand",
     3},
    {"truncated mid-branch", "func f(p) {\nb:\n  if p goto",
     "expected identifier", 3},
    {"missing else", "func f(p) {\nb:\n  if p goto b goto b\nc:\n  ret\n}\n",
     "expected 'else'", 3},
    {"bad character", "func f() {\nb:\n  x = $\n}\n",
     "unexpected character '$'", 3},
    {"oversized literal",
     "func f() {\nb:\n  x = 123456789012345678901234567890\n  ret\n}\n",
     "integer literal too large", 3},
    // Literals must fit an int64: INT64_MAX and INT64_MIN parse, one past
    // either end is rejected instead of wrapping.
    {"INT64_MAX + 1", "func f() {\nb:\n  x = 9223372036854775808\n  ret x\n}\n",
     "integer literal too large", 3},
    {"INT64_MAX + 2", "func f() {\nb:\n  x = 9223372036854775809\n  ret x\n}\n",
     "integer literal too large", 3},
    {"INT64_MIN - 1",
     "func f() {\nb:\n  x = -9223372036854775809\n  ret x\n}\n",
     "integer literal too large", 3},
    {"19 digits past INT64_MAX",
     "func f() {\nb:\n  x = 9300000000000000000\n  ret x\n}\n",
     "integer literal too large", 3},
    {"19 digits past INT64_MIN",
     "func f() {\nb:\n  x = -9300000000000000000\n  ret x\n}\n",
     "integer literal too large", 3},
    {"instruction after terminator",
     "func f() {\nb:\n  ret\n  x = 1\n}\n", "instruction after terminator", 4},
    // Parses fine; the *verifier* must reject these without crashing.
    {"missing terminator", "func f() {\nb:\n  x = 1\nc:\n  ret\n}\n", "", 0},
    {"no ret block", "func f() {\nb:\n  goto b\n}\n", "", 0},
    {"two ret blocks",
     "func f() {\nb:\n  ret\nc:\n  ret\n}\n", "", 0},
};

TEST(ParserNegative, TableNeverCrashesAndReportsLines) {
  for (const NegativeCase &C : Cases) {
    SCOPED_TRACE(C.Name);
    ParseResult R = parseFunction(C.Source);
    if (C.ErrorContains[0] != '\0') {
      ASSERT_FALSE(R.ok());
      EXPECT_NE(R.Error.find(C.ErrorContains), std::string::npos)
          << "actual error: " << R.Error;
      if (C.Line)
        EXPECT_EQ(R.ErrorLine, C.Line) << "actual error: " << R.Error;
      // Every parse diagnostic is line-numbered.
      EXPECT_NE(R.Error.find("line "), std::string::npos) << R.Error;
    } else {
      ASSERT_TRUE(R.ok()) << R.Error;
      EXPECT_FALSE(verifyFunction(*R.Fn).empty());
    }
  }
}

TEST(ParserNegative, IntegerLiteralLimitsParseExactly) {
  struct {
    const char *Literal;
    std::int64_t Value;
  } const Limits[] = {
      {"9223372036854775807", INT64_MAX},
      {"-9223372036854775807", -INT64_MAX},
      {"-9223372036854775808", INT64_MIN},
      // Leading zeros do not count against the magnitude.
      {"000000000000000000000042", 42},
  };
  for (const auto &L : Limits) {
    SCOPED_TRACE(L.Literal);
    ParseResult R = parseFunction(std::string("func f() {\nb:\n  x = ") +
                                  L.Literal + "\n  ret x\n}\n");
    ASSERT_TRUE(R.ok()) << R.Error;
    const auto *Copy = cast<CopyInst>(R.Fn->entry()->instructions()[0].get());
    EXPECT_EQ(Copy->src().imm(), L.Value);
    // The printer writes the value back in a form that parses to it.
    EXPECT_EQ(printOperand(*R.Fn, Copy->src()), std::to_string(L.Value));
  }
}

TEST(ParserNegative, VerifierReportsEveryError) {
  // Two independent problems: block 'c' is unreachable AND has no
  // terminator. A report that stops at the first error would hide one.
  const char *Src = "func f() {\nb:\n  ret\nc:\n  x = 1\n}\n";
  ParseResult R = parseFunction(Src);
  ASSERT_TRUE(R.ok()) << R.Error;
  std::vector<std::string> Errors = verifyFunction(*R.Fn);
  EXPECT_GE(Errors.size(), 2u);
}

TEST(ParserNegative, CommentEdgeCases) {
  // Comment with no trailing newline at EOF.
  EXPECT_TRUE(parseFunction("func f() {\nb:\n  ret\n}\n# trailing").ok());
  // Comment swallowing the rest of a line keeps line numbers right.
  ParseResult R = parseFunction("func f() { # comment\nb:\n  x = $\n}\n");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.ErrorLine, 3u);
  // A '#' inside a comment, and a comment-only file.
  EXPECT_FALSE(parseFunction("# only # a # comment\n").ok());
  // Comments between every token still parse.
  EXPECT_TRUE(
      parseFunction("func f() # c\n{ # c\nb: # c\n  ret # c\n}\n").ok());
}

TEST(ParserNegative, SourceExcerptMarksTheLine) {
  const char *Src = "func f() {\nb:\n  x = $\n}\n";
  ParseResult R = parseFunction(Src);
  ASSERT_FALSE(R.ok());
  ASSERT_EQ(R.ErrorLine, 3u);
  std::string Excerpt = sourceExcerpt(Src, R.ErrorLine);
  EXPECT_NE(Excerpt.find("x = $"), std::string::npos) << Excerpt;
  // The offending line is marked, context lines are not.
  EXPECT_NE(Excerpt.find(">"), std::string::npos) << Excerpt;
  EXPECT_NE(Excerpt.find("b:"), std::string::npos) << Excerpt;
}

TEST(ParserNegative, SourceExcerptToleratesMissingNewline) {
  std::string Excerpt = sourceExcerpt("func f() {", 1);
  EXPECT_NE(Excerpt.find("func f() {"), std::string::npos) << Excerpt;
  // Out-of-range lines yield an empty excerpt rather than a crash.
  EXPECT_TRUE(sourceExcerpt("one\ntwo\n", 99).empty());
}

TEST(ParserNegativeDeathTest, ParseFunctionOrDieShowsExcerpt) {
  EXPECT_DEATH(parseFunctionOrDie("func f() {\nb:\n  x = $\n}\n"),
               "unexpected character");
}

// --- Module-level negative cases -----------------------------------------

struct ModuleNegativeCase {
  const char *Name;
  const char *Source;
  const char *ErrorContains;
  unsigned Line;
};

const ModuleNegativeCase ModuleCases[] = {
    {"duplicate func name",
     "func f() {\nb:\n  ret\n}\nfunc g() {\nb:\n  ret\n}\nfunc f() {\nb:\n"
     "  ret\n}\n",
     "duplicate function 'f'", 9},
    {"EOF mid-second-function", "func f() {\nb:\n  ret\n}\nfunc g() {\nb:",
     "missing '}'", 6},
    {"EOF right after first function's 'func'",
     "func f() {\nb:\n  ret\n}\nfunc", "expected identifier", 5},
    {"trailing garbage after function",
     "func f() {\nb:\n  ret\n}\ngarbage\n", "expected 'func'", 5},
    {"second function bad body",
     "func f() {\nb:\n  ret\n}\nfunc g() {\nb:\n  x = $\n}\n",
     "unexpected character '$'", 7},
    {"empty module", "", "expected 'func'", 1},
    {"comment-only module", "# nothing here\n", "expected 'func'", 2},
    // Call resolution runs after the whole module parses; diagnostics
    // point at the call, not at end of input.
    {"unknown callee",
     "func f() {\nb:\n  x = call g()\n  ret x\n}\n",
     "unknown callee 'g'", 3},
    {"arity mismatch",
     "func f() {\nb:\n  x = call g(1, 2)\n  ret x\n}\n"
     "func g(p) {\nb:\n  ret p\n}\n",
     "arity mismatch in call to 'g'", 3},
    {"call missing callee name",
     "func f() {\nb:\n  x = call 5()\n  ret x\n}\n",
     "expected identifier", 3},
    {"call truncated argument list",
     "func f() {\nb:\n  x = call g(1,", "expected operand", 3},
};

TEST(ParserNegative, ModuleTableNeverCrashesAndReportsLines) {
  for (const ModuleNegativeCase &C : ModuleCases) {
    SCOPED_TRACE(C.Name);
    ParseModuleResult R = parseModule(C.Source);
    ASSERT_FALSE(R.ok());
    EXPECT_EQ(R.M, nullptr);
    EXPECT_NE(R.Error.find(C.ErrorContains), std::string::npos)
        << "actual error: " << R.Error;
    EXPECT_EQ(R.ErrorLine, C.Line) << "actual error: " << R.Error;
    EXPECT_NE(R.Error.find("line "), std::string::npos) << R.Error;
    // The reported line must be excerptable from the original source so
    // tools can show context for module-level errors too.
    if (C.Source[0] != '\0')
      EXPECT_FALSE(sourceExcerpt(C.Source, R.ErrorLine).empty());
  }
}

TEST(ParserNegative, ModuleExcerptPointsAtSecondDefinition) {
  const char *Src =
      "func f() {\nb:\n  ret\n}\nfunc f() {\nb:\n  ret\n}\n";
  ParseModuleResult R = parseModule(Src);
  ASSERT_FALSE(R.ok());
  ASSERT_EQ(R.ErrorLine, 5u);
  std::string Excerpt = sourceExcerpt(Src, R.ErrorLine);
  EXPECT_NE(Excerpt.find("func f() {"), std::string::npos) << Excerpt;
  EXPECT_NE(Excerpt.find(">"), std::string::npos) << Excerpt;
}

} // namespace
