//===- ir/Parser.cpp - Textual IR parser ----------------------------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "ir/Parser.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

using namespace depflow;

namespace {

/// Token kinds. Every punctuator has its own kind, so the parser matches
/// punctuation by comparing one byte.
enum class TokKind : std::uint8_t {
  Ident,
  Int,
  End,
  LParen,
  RParen,
  LBrace,
  RBrace,
  Colon,
  Comma,
  Assign,
  Plus,
  Minus,
  Star,
  Slash,
  Less,
  Greater,
  Bang,
  EqEq,
  NotEq,
  LessEq,
  GreaterEq,
  AndAnd,
  OrOr,
};

/// Source spelling of each punctuator, indexed from TokKind::LParen on.
constexpr const char *PunctSpellings[] = {
    "(", ")", "{", "}", ":", ",", "=", "+", "-", "*",
    "/", "<", ">", "!", "==", "!=", "<=", ">=", "&&", "||"};

const char *punctSpelling(TokKind K) {
  assert(K >= TokKind::LParen && "not a punctuator");
  return PunctSpellings[unsigned(K) - unsigned(TokKind::LParen)];
}

/// Keywords are contextual: a keyword token is still an identifier (a
/// variable or label may be called `read` or `phi`), tagged so the parser
/// can test for it without comparing text.
enum class Keyword : std::uint8_t {
  None,
  Func,
  Goto,
  If,
  Else,
  Ret,
  Read,
  Call,
  Phi,
};

Keyword classifyKeyword(std::string_view S) {
  switch (S.size()) {
  case 2:
    return S == "if" ? Keyword::If : Keyword::None;
  case 3:
    if (S == "ret")
      return Keyword::Ret;
    return S == "phi" ? Keyword::Phi : Keyword::None;
  case 4:
    switch (S[0]) {
    case 'f':
      return S == "func" ? Keyword::Func : Keyword::None;
    case 'g':
      return S == "goto" ? Keyword::Goto : Keyword::None;
    case 'e':
      return S == "else" ? Keyword::Else : Keyword::None;
    case 'r':
      return S == "read" ? Keyword::Read : Keyword::None;
    case 'c':
      return S == "call" ? Keyword::Call : Keyword::None;
    default:
      return Keyword::None;
    }
  default:
    return Keyword::None;
  }
}

/// A token. Identifier text is a view into the source, which outlives the
/// parse; only names the IR keeps are copied out of it.
struct Token {
  TokKind Kind;
  Keyword Kw = Keyword::None;
  unsigned Line = 0;
  std::string_view Text; // Ident only.
  std::int64_t IntValue = 0;
};

/// An on-demand tokenizer: next() lexes one token. At the end of the input,
/// and after a bad character or literal, it returns End tokens from then on;
/// failed() tells the two apart.
class Lexer {
  std::string_view Src;
  std::size_t Pos = 0;
  unsigned Line = 1;
  bool Done = false;
  std::string Error;
  unsigned ErrLine = 0;

public:
  explicit Lexer(std::string_view Src) : Src(Src) {}

  bool failed() const { return ErrLine != 0; }
  const std::string &error() const { return Error; }
  unsigned errorLine() const { return ErrLine; }

  Token next() {
    if (Done)
      return endToken();
    skipWhitespaceAndComments();
    if (Pos >= Src.size()) {
      Done = true;
      return endToken();
    }
    char C = Src[Pos];
    if (isIdentStart(C)) {
      std::size_t Begin = Pos;
      while (Pos < Src.size() && isIdentChar(Src[Pos]))
        ++Pos;
      std::string_view Text = Src.substr(Begin, Pos - Begin);
      return {TokKind::Ident, classifyKeyword(Text), Line, Text, 0};
    }
    if (C >= '0' && C <= '9')
      return lexInt(/*Negative=*/false);
    if (C == '-' && Pos + 1 < Src.size() && Src[Pos + 1] >= '0' &&
        Src[Pos + 1] <= '9') {
      ++Pos;
      return lexInt(/*Negative=*/true);
    }
    return lexPunct();
  }

  /// Lexes the rest of the input, so that a bad character anywhere in it
  /// is found (and wins over any parse error, as if the whole input had
  /// been tokenized first).
  void drain() {
    while (!Done)
      next();
  }

private:
  Token endToken() const { return {TokKind::End, Keyword::None, Line, {}, 0}; }

  static bool isIdentStart(char C) {
    return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') || C == '_' ||
           C == '.';
  }
  static bool isIdentChar(char C) {
    return isIdentStart(C) || (C >= '0' && C <= '9');
  }

  void skipWhitespaceAndComments() {
    while (Pos < Src.size()) {
      char C = Src[Pos];
      if (C == '\n') {
        ++Line;
        ++Pos;
      } else if (C == ' ' || C == '\t' || C == '\r') {
        ++Pos;
      } else if (C == '#') {
        while (Pos < Src.size() && Src[Pos] != '\n')
          ++Pos;
      } else {
        break;
      }
    }
  }

  Token fail(std::string_view Msg) {
    Error = "line " + std::to_string(Line) + ": ";
    Error += Msg;
    ErrLine = Line;
    Done = true;
    return endToken();
  }

  /// Lexes the digits at Pos. The magnitude must fit an int64: at most
  /// INT64_MAX, or 2^63 after a '-' (INT64_MIN).
  Token lexInt(bool Negative) {
    const std::uint64_t Limit =
        std::uint64_t(std::numeric_limits<std::int64_t>::max()) + Negative;
    std::uint64_t Value = 0;
    bool TooLarge = false;
    while (Pos < Src.size() && Src[Pos] >= '0' && Src[Pos] <= '9') {
      const unsigned Digit = unsigned(Src[Pos] - '0');
      if (Value > (Limit - Digit) / 10)
        TooLarge = true;
      else
        Value = Value * 10 + Digit;
      ++Pos;
    }
    if (TooLarge)
      return fail("integer literal too large");
    std::int64_t Signed =
        Negative ? std::int64_t(0 - Value) : std::int64_t(Value);
    return {TokKind::Int, Keyword::None, Line, {}, Signed};
  }

  Token lexPunct() {
    const char C = Src[Pos];
    const char Next = Pos + 1 < Src.size() ? Src[Pos + 1] : '\0';
    TokKind Kind;
    switch (C) {
    case '(':
      Kind = TokKind::LParen;
      break;
    case ')':
      Kind = TokKind::RParen;
      break;
    case '{':
      Kind = TokKind::LBrace;
      break;
    case '}':
      Kind = TokKind::RBrace;
      break;
    case ':':
      Kind = TokKind::Colon;
      break;
    case ',':
      Kind = TokKind::Comma;
      break;
    case '+':
      Kind = TokKind::Plus;
      break;
    case '-':
      Kind = TokKind::Minus;
      break;
    case '*':
      Kind = TokKind::Star;
      break;
    case '/':
      Kind = TokKind::Slash;
      break;
    case '=':
      Kind = Next == '=' ? TokKind::EqEq : TokKind::Assign;
      break;
    case '!':
      Kind = Next == '=' ? TokKind::NotEq : TokKind::Bang;
      break;
    case '<':
      Kind = Next == '=' ? TokKind::LessEq : TokKind::Less;
      break;
    case '>':
      Kind = Next == '=' ? TokKind::GreaterEq : TokKind::Greater;
      break;
    case '&':
      if (Next != '&')
        return fail("unexpected character '&'");
      Kind = TokKind::AndAnd;
      break;
    case '|':
      if (Next != '|')
        return fail("unexpected character '|'");
      Kind = TokKind::OrOr;
      break;
    default:
      return fail(std::string("unexpected character '") + C + "'");
    }
    Pos += std::strlen(punctSpelling(Kind));
    return {Kind, Keyword::None, Line, {}, 0};
  }
};

class Parser {
  Lexer Lex;
  /// Tokens of the function being parsed, lexed on demand; Toks[Pos] is the
  /// current one. Each function starts a fresh window, so the buffer stays
  /// the size of one function however long the input is.
  std::vector<Token> Toks;
  std::size_t Pos = 0;
  std::unique_ptr<Function> Fn;
  /// Label -> block of the function being parsed, keyed by views into the
  /// source: an open-addressing table over a power of two slots (empty
  /// slots hold a null block), sized per function from its label count.
  /// It and LabelToks are reused across functions, so a module parse
  /// allocates them only when a function has more labels than any before.
  /// LabelSeen marks, per block id, whether its label line has been parsed
  /// (a second one is a duplicate label).
  std::vector<std::pair<std::string_view, BasicBlock *>> BlockOf;
  std::vector<std::size_t> LabelToks; // token index of each label, in order
  std::vector<bool> LabelSeen;
  /// Call arguments or ret outputs of the instruction being parsed; the
  /// instruction copies them, so one buffer serves the whole input.
  std::vector<Operand> OperandBuf;
  std::string Error;
  unsigned ErrorLine = 0;
  unsigned FnNameLine = 0; // Line of the current function's name token.

public:
  explicit Parser(std::string_view Source) : Lex(Source) {}

  ParseResult run() {
    if (!parseFunctionBody())
      return failure<ParseResult>();
    // Tokens past the function are ignored, but must still lex.
    Lex.drain();
    if (Lex.failed())
      return failure<ParseResult>();
    Fn->recomputePreds();
    return {std::move(Fn), "", 0};
  }

  ParseModuleResult runModule() {
    auto M = std::make_unique<Module>();
    // An input with no functions at all is rejected the same way a
    // truncated one is — the empty module is never produced.
    do {
      // Per-function parser state: the block namespace is function-local.
      Fn.reset();
      Toks.erase(Toks.begin(), Toks.begin() + Pos);
      Pos = 0;
      if (!parseFunctionBody())
        return failure<ParseModuleResult>();
      Fn->recomputePreds();
      if (M->lookup(Fn->name())) {
        failAt(FnNameLine, "duplicate function '" + Fn->name() + "'");
        return failure<ParseModuleResult>();
      }
      M->addFunction(std::move(Fn));
    } while (cur().Kind != TokKind::End);
    if (Lex.failed() || !resolveCalls(*M))
      return failure<ParseModuleResult>();
    return {std::move(M), "", 0};
  }

private:
  /// Callee references are by name and function-local parsing cannot see
  /// the rest of the module, so resolution (callee exists, arity matches)
  /// runs once after every function has been parsed. Single-function
  /// parseFunction() intentionally skips this: a lone function with calls
  /// round-trips through print->parse without its module.
  bool resolveCalls(const Module &M) {
    for (unsigned FI = 0, FE = M.numFunctions(); FI != FE; ++FI) {
      const Function *F = M.function(FI);
      for (const auto &BB : F->blocks())
        for (const auto &I : BB->instructions()) {
          const auto *C = dyn_cast<CallInst>(I.get());
          if (!C)
            continue;
          const Function *Callee = M.lookup(C->callee());
          if (!Callee)
            return failAt(C->line(), "unknown callee '" + C->callee() +
                                         "' in call from '" + F->name() +
                                         "'");
          if (Callee->params().size() != C->numArgs())
            return failAt(C->line(),
                          "arity mismatch in call to '" + C->callee() +
                              "': " + std::to_string(C->numArgs()) +
                              " argument(s) passed, callee takes " +
                              std::to_string(Callee->params().size()));
        }
    }
    return true;
  }

  /// The parse failed (or the lexer did): a bad character anywhere in the
  /// input is reported in preference to any parse error.
  template <typename Result> Result failure() {
    Lex.drain();
    if (Lex.failed())
      return {nullptr, Lex.error(), Lex.errorLine()};
    return {nullptr, Error, ErrorLine};
  }

  /// Token \p I of the current window, lexing up to it on demand. Past
  /// the end of the input every token is End.
  const Token &tok(std::size_t I) {
    while (Toks.size() <= I) {
      if (!Toks.empty() && Toks.back().Kind == TokKind::End)
        return Toks.back();
      Toks.push_back(Lex.next());
    }
    return Toks[I];
  }
  const Token &cur() { return tok(Pos); }
  void advance() {
    if (cur().Kind != TokKind::End)
      ++Pos;
  }

  bool fail(const std::string &Msg) { return failAt(cur().Line, Msg); }

  /// For diagnostics about an already-consumed token (an unknown label),
  /// where cur() may sit on the next line already.
  bool failAt(unsigned Line, const std::string &Msg) {
    ErrorLine = Line;
    Error = "line " + std::to_string(Line) + ": " + Msg;
    return false;
  }

  bool is(TokKind K) { return cur().Kind == K; }
  bool isKeyword(Keyword K) {
    return cur().Kind == TokKind::Ident && cur().Kw == K;
  }
  /// True when the token after the current one is a ':' (a label line, or
  /// a phi's `label: value` pair).
  bool nextIsColon() {
    return cur().Kind != TokKind::End && tok(Pos + 1).Kind == TokKind::Colon;
  }

  bool expect(TokKind K) {
    if (!is(K))
      return fail(std::string("expected '") + punctSpelling(K) + "'");
    advance();
    return true;
  }

  bool expectIdent(std::string_view &Out) {
    if (cur().Kind != TokKind::Ident)
      return fail("expected identifier");
    Out = cur().Text;
    advance();
    return true;
  }

  /// Labels are declared as `IDENT ':'` at paren depth 0 inside the braces;
  /// pre-creating them in textual order makes the first textual block the
  /// entry regardless of forward references.
  void preScanLabels(std::size_t BodyBegin) {
    LabelToks.clear();
    int Depth = 0;
    for (std::size_t I = BodyBegin; tok(I).Kind != TokKind::End; ++I) {
      const TokKind NextKind = tok(I + 1).Kind; // May grow Toks: lex first.
      const Token &T = Toks[I];
      if (T.Kind == TokKind::LParen)
        ++Depth;
      else if (T.Kind == TokKind::RParen)
        --Depth;
      else if (T.Kind == TokKind::RBrace)
        break;
      if (Depth == 0 && T.Kind == TokKind::Ident &&
          NextKind == TokKind::Colon)
        LabelToks.push_back(I);
    }
    std::size_t Slots = 8;
    while (Slots < 2 * LabelToks.size())
      Slots *= 2;
    BlockOf.assign(Slots, {});
    Fn->reserveBlocks(unsigned(LabelToks.size()));
    for (std::size_t I : LabelToks) {
      auto &[Label, Block] = slotOf(Toks[I].Text);
      if (!Block) {
        Label = Toks[I].Text;
        Block = Fn->makeBlock(std::string(Label));
      }
    }
  }

  /// The slot holding \p Label, or the empty slot where it would go.
  std::pair<std::string_view, BasicBlock *> &slotOf(std::string_view Label) {
    const std::size_t Mask = BlockOf.size() - 1;
    std::size_t H = std::hash<std::string_view>()(Label) & Mask;
    while (BlockOf[H].second && BlockOf[H].first != Label)
      H = (H + 1) & Mask;
    return BlockOf[H];
  }

  BasicBlock *lookupBlock(std::string_view Label) {
    return slotOf(Label).second;
  }

  bool parseFunctionBody() {
    if (!isKeyword(Keyword::Func))
      return fail("expected 'func'");
    advance();
    FnNameLine = cur().Line;
    std::string_view Name;
    if (!expectIdent(Name))
      return false;
    Fn = std::make_unique<Function>(std::string(Name));
    if (!expect(TokKind::LParen))
      return false;
    if (!is(TokKind::RParen)) {
      while (true) {
        std::string_view Param;
        if (!expectIdent(Param))
          return false;
        Fn->addParam(Fn->makeVar(Param));
        if (is(TokKind::Comma)) {
          advance();
          continue;
        }
        break;
      }
    }
    if (!expect(TokKind::RParen) || !expect(TokKind::LBrace))
      return false;

    preScanLabels(Pos);
    if (!Fn->numBlocks())
      return fail("function has no blocks");

    BasicBlock *Current = nullptr;
    LabelSeen.assign(Fn->numBlocks(), false);
    while (!is(TokKind::RBrace)) {
      if (is(TokKind::End))
        return fail("unexpected end of input; missing '}'");
      // Label?
      if (is(TokKind::Ident) && nextIsColon()) {
        Current = lookupBlock(cur().Text);
        assert(Current && "label was pre-scanned");
        if (LabelSeen[Current->id()])
          return fail("duplicate label '" + std::string(cur().Text) + "'");
        LabelSeen[Current->id()] = true;
        advance();
        advance();
        continue;
      }
      if (!Current)
        return fail("instruction before any label");
      if (!parseInstruction(Current))
        return false;
    }
    advance(); // '}'
    return true;
  }

  bool parseOperand(Operand &Out) {
    if (cur().Kind == TokKind::Int) {
      Out = Operand::imm(cur().IntValue);
      advance();
      return true;
    }
    if (cur().Kind == TokKind::Ident) {
      Out = Operand::var(Fn->makeVar(cur().Text));
      advance();
      return true;
    }
    return fail("expected operand (integer or variable)");
  }

  /// Parses `operand (',' operand)*` into \p Out.
  bool parseOperandList(std::vector<Operand> &Out) {
    while (true) {
      Operand O;
      if (!parseOperand(O))
        return false;
      Out.push_back(O);
      if (!is(TokKind::Comma))
        return true;
      advance();
    }
  }

  std::optional<BinOp> currentBinOp() {
    switch (cur().Kind) {
    case TokKind::Plus:
      return BinOp::Add;
    case TokKind::Minus:
      return BinOp::Sub;
    case TokKind::Star:
      return BinOp::Mul;
    case TokKind::Slash:
      return BinOp::Div;
    case TokKind::EqEq:
      return BinOp::Eq;
    case TokKind::NotEq:
      return BinOp::Ne;
    case TokKind::Less:
      return BinOp::Lt;
    case TokKind::LessEq:
      return BinOp::Le;
    case TokKind::Greater:
      return BinOp::Gt;
    case TokKind::GreaterEq:
      return BinOp::Ge;
    case TokKind::AndAnd:
      return BinOp::And;
    case TokKind::OrOr:
      return BinOp::Or;
    default:
      return std::nullopt;
    }
  }

  /// Parses a label reference and resolves it to a block; \p Context is
  /// appended to the unknown-label diagnostic.
  bool parseLabelRef(BasicBlock *&Out, const char *Context = "") {
    std::string_view Label;
    unsigned LabelLine = cur().Line;
    if (!expectIdent(Label))
      return false;
    Out = lookupBlock(Label);
    if (!Out)
      return failAt(LabelLine, "unknown label '" + std::string(Label) + "'" +
                                   Context);
    return true;
  }

  bool parseInstruction(BasicBlock *BB) {
    if (BB->terminator())
      return fail("instruction after terminator in block '" + BB->label() +
                  "'");
    // Every instruction remembers the line its first token sits on;
    // `--slice func:line` criteria resolve against this.
    const unsigned InstLine = cur().Line;
    if (isKeyword(Keyword::Goto)) {
      advance();
      BasicBlock *Target;
      if (!parseLabelRef(Target))
        return false;
      BB->setJump(Target)->setLine(InstLine);
      return true;
    }
    if (isKeyword(Keyword::If)) {
      advance();
      Operand Cond;
      if (!parseOperand(Cond))
        return false;
      if (!isKeyword(Keyword::Goto))
        return fail("expected 'goto' in conditional branch");
      advance();
      std::string_view TrueLabel, FalseLabel;
      unsigned TrueLine = cur().Line;
      if (!expectIdent(TrueLabel))
        return false;
      if (!isKeyword(Keyword::Else))
        return fail("expected 'else' in conditional branch");
      advance();
      unsigned FalseLine = cur().Line;
      if (!expectIdent(FalseLabel))
        return false;
      BasicBlock *T = lookupBlock(TrueLabel);
      BasicBlock *E = lookupBlock(FalseLabel);
      if (!T)
        return failAt(TrueLine,
                      "unknown label '" + std::string(TrueLabel) + "'");
      if (!E)
        return failAt(FalseLine,
                      "unknown label '" + std::string(FalseLabel) + "'");
      BB->setCondBr(Cond, T, E)->setLine(InstLine);
      return true;
    }
    if (isKeyword(Keyword::Ret)) {
      advance();
      OperandBuf.clear();
      // Outputs are optional; they end at the next label/instr/'}'. Since
      // operands are single tokens, parse a comma-separated list greedily.
      if (is(TokKind::Int) || (is(TokKind::Ident) && !nextIsColon()))
        if (!parseOperandList(OperandBuf))
          return false;
      BB->setRet(OperandBuf)->setLine(InstLine);
      return true;
    }
    // Definition: IDENT '=' ...
    std::string_view DefName;
    if (!expectIdent(DefName))
      return false;
    if (!expect(TokKind::Assign))
      return false;
    VarId Def = Fn->makeVar(DefName);

    if (isKeyword(Keyword::Read)) {
      advance();
      if (!expect(TokKind::LParen) || !expect(TokKind::RParen))
        return false;
      BB->appendRead(Def)->setLine(InstLine);
      return true;
    }
    if (isKeyword(Keyword::Call)) {
      advance();
      std::string_view Callee;
      if (!expectIdent(Callee))
        return false;
      if (!expect(TokKind::LParen))
        return false;
      OperandBuf.clear();
      if (!is(TokKind::RParen) && !parseOperandList(OperandBuf))
        return false;
      if (!expect(TokKind::RParen))
        return false;
      BB->appendCall(Def, std::string(Callee), OperandBuf)->setLine(InstLine);
      return true;
    }
    if (isKeyword(Keyword::Phi)) {
      advance();
      if (!expect(TokKind::LParen))
        return false;
      PhiInst *Phi = BB->appendPhi(Def);
      Phi->setLine(InstLine);
      while (true) {
        BasicBlock *Pred;
        if (!parseLabelRef(Pred, " in phi"))
          return false;
        if (!expect(TokKind::Colon))
          return false;
        Operand Value;
        if (!parseOperand(Value))
          return false;
        Phi->addIncoming(Pred, Value);
        if (is(TokKind::Comma)) {
          advance();
          continue;
        }
        break;
      }
      return expect(TokKind::RParen);
    }
    if (is(TokKind::Minus) || is(TokKind::Bang)) {
      UnOp Op = is(TokKind::Minus) ? UnOp::Neg : UnOp::Not;
      advance();
      Operand Src;
      if (!parseOperand(Src))
        return false;
      BB->appendUnary(Def, Op, Src)->setLine(InstLine);
      return true;
    }
    Operand A;
    if (!parseOperand(A))
      return false;
    if (std::optional<BinOp> Op = currentBinOp()) {
      advance();
      Operand B;
      if (!parseOperand(B))
        return false;
      BB->appendBinary(Def, *Op, A, B)->setLine(InstLine);
      return true;
    }
    BB->appendCopy(Def, A)->setLine(InstLine);
    return true;
  }
};

} // namespace

ParseResult depflow::parseFunction(std::string_view Source) {
  return Parser(Source).run();
}

ParseModuleResult depflow::parseModule(std::string_view Source) {
  return Parser(Source).runModule();
}

std::string depflow::sourceExcerpt(std::string_view Source, unsigned Line,
                                   unsigned Context) {
  if (Line == 0)
    return "";
  // Split into lines (tolerating a missing final newline).
  std::vector<std::string_view> Lines;
  std::size_t Begin = 0;
  while (Begin <= Source.size()) {
    std::size_t End = Source.find('\n', Begin);
    if (End == std::string_view::npos) {
      Lines.push_back(Source.substr(Begin));
      break;
    }
    Lines.push_back(Source.substr(Begin, End - Begin));
    Begin = End + 1;
  }
  unsigned First = Line > Context ? Line - Context : 1;
  unsigned Last = std::min<std::size_t>(Line + Context, Lines.size());
  std::string Out;
  for (unsigned L = First; L <= Last; ++L) {
    std::string Num = std::to_string(L);
    Out += (L == Line ? "> " : "  ");
    Out += std::string(Num.size() < 4 ? 4 - Num.size() : 0, ' ') + Num +
           " | " + std::string(Lines[L - 1]) + "\n";
  }
  return Out;
}
