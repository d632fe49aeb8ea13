//===- support/Worklist.h - Deduplicating worklist ---------------*- C++ -*-===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A FIFO worklist over dense integer ids that never holds an id twice.
/// Both the CFG and DFG dataflow solvers (Sections 4 and 5 of the paper) are
/// worklist algorithms; deduplication keeps their complexity bounds honest.
///
//===----------------------------------------------------------------------===//

#ifndef DEPFLOW_SUPPORT_WORKLIST_H
#define DEPFLOW_SUPPORT_WORKLIST_H

#include "support/Arena.h"

#include <cassert>
#include <cstdint>

namespace depflow {

/// A fixed ring of `UniverseSize` slots plus one presence bit per id.
/// Deduplication keeps at most one pending entry per id, so the ring can
/// never overflow. The storage is either one owned, exactly sized block or,
/// for the per-solve engines, carved from the caller's `BumpArena` (which
/// must outlive the worklist).
class Worklist {
  ScratchBlock Owned; // Empty when the storage comes from an arena.
  std::uint32_t *Ring;
  std::uint64_t *InQueue;
  std::uint32_t Capacity;
  std::uint32_t Head = 0;
  std::uint32_t Pending = 0;

  static std::size_t bitWords(unsigned UniverseSize) {
    return (std::size_t(UniverseSize) + 63) / 64;
  }

public:
  explicit Worklist(unsigned UniverseSize)
      : Owned(ScratchBlock::bytesFor<std::uint32_t>(UniverseSize) +
              ScratchBlock::bytesFor<std::uint64_t>(bitWords(UniverseSize))),
        Ring(Owned.take<std::uint32_t>(UniverseSize)),
        InQueue(Owned.takeFilled<std::uint64_t>(bitWords(UniverseSize), 0)),
        Capacity(UniverseSize) {
    assert(Owned.remaining() == 0 && "worklist block sized exactly");
  }

  Worklist(BumpArena &Pool, unsigned UniverseSize)
      : Ring(Pool.allocateArray<std::uint32_t>(UniverseSize)),
        InQueue(Pool.allocateFilled<std::uint64_t>(bitWords(UniverseSize), 0)),
        Capacity(UniverseSize) {}

  bool empty() const { return Pending == 0; }
  std::size_t size() const { return Pending; }

  /// Enqueues \p Id unless it is already pending.
  void push(unsigned Id) {
    std::uint64_t &Word = InQueue[Id >> 6];
    std::uint64_t Mask = std::uint64_t(1) << (Id & 63);
    if (Word & Mask)
      return;
    Word |= Mask;
    std::uint32_t Tail = Head + Pending;
    Ring[Tail >= Capacity ? Tail - Capacity : Tail] = Id;
    ++Pending;
  }

  unsigned pop() {
    unsigned Id = Ring[Head];
    ++Head;
    if (Head == Capacity)
      Head = 0;
    --Pending;
    InQueue[Id >> 6] &= ~(std::uint64_t(1) << (Id & 63));
    return Id;
  }
};

} // namespace depflow

#endif // DEPFLOW_SUPPORT_WORKLIST_H
