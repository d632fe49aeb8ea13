//===- ir/Printer.cpp - Textual IR printing -------------------------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "ir/Printer.h"

#include "support/GraphWriter.h"

#include <charconv>

using namespace depflow;

void depflow::appendOperand(const Function &F, const Operand &Op,
                            std::string &Out) {
  if (Op.isImm()) {
    char Buf[24];
    Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), Op.imm()).ptr);
  } else if (Op.isVar()) {
    Out += F.varName(Op.var());
  } else {
    Out += "<none>";
  }
}

/// Appends `Op, Op, ...`.
static void appendOperandList(const Function &F,
                              std::span<const Operand> Ops,
                              std::string &Out) {
  for (unsigned Idx = 0, E = unsigned(Ops.size()); Idx != E; ++Idx) {
    if (Idx)
      Out += ", ";
    appendOperand(F, Ops[Idx], Out);
  }
}

void depflow::appendInstruction(const Function &F, const Instruction &I,
                                std::string &Out) {
  if (const auto *D = dyn_cast<DefInst>(&I)) {
    Out += F.varName(D->def());
    Out += " = ";
  }
  switch (I.kind()) {
  case Instruction::Kind::Copy:
    appendOperand(F, cast<CopyInst>(&I)->src(), Out);
    return;
  case Instruction::Kind::Unary: {
    const auto &U = *cast<UnaryInst>(&I);
    Out += unOpName(U.op());
    Out += ' ';
    appendOperand(F, U.src(), Out);
    return;
  }
  case Instruction::Kind::Binary: {
    const auto &B = *cast<BinaryInst>(&I);
    appendOperand(F, B.lhs(), Out);
    Out += ' ';
    Out += binOpName(B.op());
    Out += ' ';
    appendOperand(F, B.rhs(), Out);
    return;
  }
  case Instruction::Kind::Read:
    Out += "read()";
    return;
  case Instruction::Kind::Call:
    Out += "call ";
    Out += cast<CallInst>(&I)->callee();
    Out += '(';
    appendOperandList(F, I.operands(), Out);
    Out += ')';
    return;
  case Instruction::Kind::Phi: {
    const auto &P = *cast<PhiInst>(&I);
    Out += "phi(";
    for (unsigned Idx = 0, E = P.numIncoming(); Idx != E; ++Idx) {
      if (Idx)
        Out += ", ";
      Out += P.incomingBlock(Idx)->label();
      Out += ": ";
      appendOperand(F, P.incomingValue(Idx), Out);
    }
    Out += ')';
    return;
  }
  case Instruction::Kind::Jump:
    Out += "goto ";
    Out += cast<JumpInst>(&I)->target()->label();
    return;
  case Instruction::Kind::CondBr: {
    const auto &C = *cast<CondBrInst>(&I);
    Out += "if ";
    appendOperand(F, C.cond(), Out);
    Out += " goto ";
    Out += C.trueTarget()->label();
    Out += " else ";
    Out += C.falseTarget()->label();
    return;
  }
  case Instruction::Kind::Ret:
    Out += "ret";
    if (!I.operands().empty()) {
      Out += ' ';
      appendOperandList(F, I.operands(), Out);
    }
    return;
  }
  depflow_unreachable("unknown instruction kind");
}

/// A little more than the printed size of \p F for typical code (about 19
/// bytes per instruction line), so printing into a fresh buffer reserves
/// once instead of doubling its way up.
static std::size_t printedSizeHint(const Function &F) {
  return 20 * std::size_t(F.numInstructions()) + 8 * F.numBlocks() + 32;
}

/// Appends the whole function, one instruction per line.
static void appendFunction(const Function &F, std::string &Out) {
  Out += "func ";
  Out += F.name();
  Out += '(';
  for (unsigned Idx = 0, E = unsigned(F.params().size()); Idx != E; ++Idx) {
    if (Idx)
      Out += ", ";
    Out += F.varName(F.params()[Idx]);
  }
  Out += ") {\n";
  for (const auto &BB : F.blocks()) {
    Out += BB->label();
    Out += ":\n";
    for (const auto &I : BB->instructions()) {
      Out += "  ";
      appendInstruction(F, *I, Out);
      Out += '\n';
    }
  }
  Out += "}\n";
}

std::string depflow::printOperand(const Function &F, const Operand &Op) {
  std::string S;
  appendOperand(F, Op, S);
  return S;
}

std::string depflow::printInstruction(const Function &F,
                                      const Instruction &I) {
  std::string S;
  appendInstruction(F, I, S);
  return S;
}

std::string depflow::printFunction(const Function &F) {
  std::string S;
  S.reserve(printedSizeHint(F));
  appendFunction(F, S);
  return S;
}

std::string depflow::printModule(const Module &M) {
  std::size_t Hint = 0;
  for (const auto &F : M.functions())
    Hint += printedSizeHint(*F) + 1;
  std::string S;
  S.reserve(Hint);
  for (unsigned I = 0, E = M.numFunctions(); I != E; ++I) {
    if (I)
      S += '\n';
    appendFunction(*M.function(I), S);
  }
  return S;
}

std::string depflow::printCFGDot(const Function &F) {
  GraphWriter GW("cfg");
  std::string Body;
  for (const auto &BB : F.blocks()) {
    Body = BB->label();
    Body += ':';
    for (const auto &I : BB->instructions()) {
      Body += '\n';
      appendInstruction(F, *I, Body);
    }
    GW.node(BB->label(), Body, "shape=box");
  }
  for (const auto &BB : F.blocks())
    for (BasicBlock *S : BB->successors())
      GW.edge(BB->label(), S->label());
  return GW.str();
}
