//===- support/Arena.h - Bump-pointer arena allocation ----------*- C++ -*-===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A chunked bump-pointer arena for the hot kernels' flat tables. The DFG,
/// the cycle-equivalence solver, and the sparse dataflow engines allocate
/// many short-lived or co-lifetime arrays; an arena turns those into a
/// handful of chunk allocations with trivial (pointer-bump) dispensing.
///
/// Contract:
///
///   * `allocate()`/`allocateArray<T>()` hand out storage from the current
///     chunk, growing geometrically when a chunk fills. Storage is never
///     freed individually — the whole arena dies (or resets) at once.
///   * Only trivially-destructible payloads belong in an arena: nothing is
///     destroyed, only deallocated.
///   * Chunks live on the heap, so a *moved* arena keeps every pointer into
///     it valid — the relocatability property the cached analysis results
///     (DepFlowGraph and friends) rely on.
///   * `reset()` is cheap: the largest chunk is retained and rewound, the
///     rest are returned to the heap. Under AddressSanitizer the retained
///     chunk's storage is re-poisoned, so any dangling pointer into a reset
///     arena faults immediately instead of reading stale bytes.
///
/// Telemetry: every chunk allocation feeds the "arena" statistics group
/// (bytes requested, chunks, and the per-arena footprint high-water mark),
/// which the bench counter sweeps export as `ctr_arena_highwater`.
///
/// `ScratchBlock`, at the end of this file, is the fixed-size sibling: one
/// heap block, sized up front and carved, for a build's temporaries (the
/// PST's and the DFG builder's) and for storage its owner keeps (all of a
/// DFG's columns and lookup lists, a worklist's ring).
///
//===----------------------------------------------------------------------===//

#ifndef DEPFLOW_SUPPORT_ARENA_H
#define DEPFLOW_SUPPORT_ARENA_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#define DEPFLOW_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DEPFLOW_ASAN 1
#endif
#endif

#ifdef DEPFLOW_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace depflow {

namespace detail {
/// Statistic hooks implemented in Arena.cpp (DEPFLOW_STATISTIC objects are
/// file-local, so the header routes through these).
void arenaStatChunk(std::uint64_t ChunkBytes, std::uint64_t ArenaFootprint);
void arenaStatReset();

/// Manual ASan poisoning; no-ops without AddressSanitizer.
inline void poisonRegion(const void *P, std::size_t N) {
#ifdef DEPFLOW_ASAN
  __asan_poison_memory_region(P, N);
#else
  (void)P;
  (void)N;
#endif
}
inline void unpoisonRegion(const void *P, std::size_t N) {
#ifdef DEPFLOW_ASAN
  __asan_unpoison_memory_region(P, N);
#else
  (void)P;
  (void)N;
#endif
}

/// ScratchBlock's deleter: unpoisons the whole block before returning it
/// to the heap.
struct ScratchRelease {
  std::size_t Bytes = 0;
  void operator()(std::byte *P) const {
    unpoisonRegion(P, Bytes);
    delete[] P;
  }
};
} // namespace detail

class BumpArena {
  struct ChunkHeader {
    ChunkHeader *Next;
    std::size_t Bytes; // payload bytes following the header
  };

  ChunkHeader *Chunks = nullptr; // newest first
  char *Cur = nullptr;
  char *End = nullptr;
  std::size_t NextChunkBytes;
  std::uint64_t Allocated = 0; // bytes handed out (incl. alignment padding)
  std::uint64_t Reserved = 0;  // bytes held in chunks

  static char *payload(ChunkHeader *C) {
    return reinterpret_cast<char *>(C + 1);
  }

  static void poison(void *P, std::size_t N) { detail::poisonRegion(P, N); }
  static void unpoison(void *P, std::size_t N) {
    detail::unpoisonRegion(P, N);
  }

  /// Chunks double geometrically but the growth is capped: past the cap a
  /// chunk is either the cap or exactly what the oversized request needs.
  /// An uncapped doubling off a large precisely-sized first chunk would
  /// waste up to 2x the footprint on one overflow allocation.
  static constexpr std::size_t MaxChunkGrowth = 256 * 1024;

  void newChunk(std::size_t MinBytes) {
    std::size_t Bytes = NextChunkBytes;
    if (Bytes < MinBytes)
      Bytes = MinBytes;
    auto *C = static_cast<ChunkHeader *>(
        ::operator new(sizeof(ChunkHeader) + Bytes));
    C->Next = Chunks;
    C->Bytes = Bytes;
    Chunks = C;
    Cur = payload(C);
    End = Cur + Bytes;
    poison(Cur, Bytes);
    Reserved += Bytes;
    NextChunkBytes = Bytes * 2 < MaxChunkGrowth ? Bytes * 2 : MaxChunkGrowth;
    detail::arenaStatChunk(Bytes, Reserved);
  }

  void freeChunks(ChunkHeader *C) {
    while (C) {
      ChunkHeader *Next = C->Next;
      unpoison(payload(C), C->Bytes);
      ::operator delete(C);
      C = Next;
    }
  }

public:
  /// \p FirstChunkBytes sizes the first chunk; later chunks double. Callers
  /// that know their footprint pass it to get a single chunk.
  explicit BumpArena(std::size_t FirstChunkBytes = 4096)
      : NextChunkBytes(FirstChunkBytes < 64 ? 64 : FirstChunkBytes) {}

  ~BumpArena() { freeChunks(Chunks); }

  BumpArena(BumpArena &&O) noexcept
      : Chunks(O.Chunks), Cur(O.Cur), End(O.End),
        NextChunkBytes(O.NextChunkBytes), Allocated(O.Allocated),
        Reserved(O.Reserved) {
    O.Chunks = nullptr;
    O.Cur = O.End = nullptr;
    O.Allocated = O.Reserved = 0;
  }
  BumpArena &operator=(BumpArena &&O) noexcept {
    if (this != &O) {
      freeChunks(Chunks);
      Chunks = O.Chunks;
      Cur = O.Cur;
      End = O.End;
      NextChunkBytes = O.NextChunkBytes;
      Allocated = O.Allocated;
      Reserved = O.Reserved;
      O.Chunks = nullptr;
      O.Cur = O.End = nullptr;
      O.Allocated = O.Reserved = 0;
    }
    return *this;
  }
  BumpArena(const BumpArena &) = delete;
  BumpArena &operator=(const BumpArena &) = delete;

  void *allocate(std::size_t Bytes, std::size_t Align) {
    assert(Align && (Align & (Align - 1)) == 0 && "alignment must be 2^k");
    assert(Align <= alignof(std::max_align_t) &&
           "over-aligned arena payloads are not supported");
    auto Base = reinterpret_cast<std::uintptr_t>(Cur);
    std::size_t Pad = (Align - (Base & (Align - 1))) & (Align - 1);
    if (!Cur || std::size_t(End - Cur) < Pad + Bytes) {
      newChunk(Bytes + Align);
      Base = reinterpret_cast<std::uintptr_t>(Cur);
      Pad = (Align - (Base & (Align - 1))) & (Align - 1);
    }
    char *P = Cur + Pad;
    Cur = P + Bytes;
    unpoison(P, Bytes);
    Allocated += Pad + Bytes;
    return P;
  }

  /// Uninitialized storage for \p N objects of trivially-destructible T.
  template <typename T> T *allocateArray(std::size_t N) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arenas never run destructors");
    return static_cast<T *>(allocate(N * sizeof(T), alignof(T)));
  }

  /// \p N objects of trivially-copyable T, filled with \p Init.
  template <typename T> T *allocateFilled(std::size_t N, const T &Init) {
    T *P = allocateArray<T>(N);
    for (std::size_t I = 0; I != N; ++I)
      P[I] = Init;
    return P;
  }

  /// Rewinds the arena: the largest (newest) chunk survives, the rest go
  /// back to the heap, and the retained storage is poisoned again so stale
  /// pointers into the previous generation fault under ASan.
  void reset() {
    if (!Chunks) {
      Allocated = 0;
      return;
    }
    freeChunks(Chunks->Next);
    Chunks->Next = nullptr;
    Cur = payload(Chunks);
    End = Cur + Chunks->Bytes;
    poison(Cur, Chunks->Bytes);
    Reserved = Chunks->Bytes;
    Allocated = 0;
    detail::arenaStatReset();
  }

  /// Bytes handed out since construction/reset (alignment padding counts).
  std::uint64_t bytesAllocated() const { return Allocated; }
  /// Bytes currently held in chunks.
  std::uint64_t bytesReserved() const { return Reserved; }

  /// True when manual ASan poisoning is compiled in (the poison-after-reset
  /// test is meaningful only then).
  static constexpr bool poisoningActive() {
#ifdef DEPFLOW_ASAN
    return true;
#else
    return false;
#endif
  }

  /// Whether \p P currently sits in a poisoned region; always false without
  /// ASan.
  static bool addressIsPoisoned(const void *P) {
#ifdef DEPFLOW_ASAN
    return __asan_address_is_poisoned(P);
#else
    (void)P;
    return false;
#endif
  }
};

/// A single exactly sized heap block, carved front to back into arrays
/// whose total size is known before the first carve, so unlike BumpArena
/// it never grows. A build's temporaries die with the build; an owner that
/// keeps the block (a DFG's storage, a worklist) can move it, and the
/// carved pointers stay valid because the block stays where it is on the
/// heap. It stays out of the arena statistics, which follow the kernels'
/// table arenas. Each carve is rounded up to 8 bytes, so every array is
/// 8-byte aligned; size the block with `bytesFor`.
///
/// An owner that sizes its block exactly asserts `remaining() == 0` once
/// it has carved everything, so a sizing formula that reserves too much
/// fails in debug builds instead of wasting memory silently. Under
/// AddressSanitizer the block starts poisoned and each carve unpoisons
/// exactly its array, so reading an uncarved tail or a carve's rounding
/// padding faults.
class ScratchBlock {
  std::unique_ptr<std::byte[], detail::ScratchRelease> Storage;
  std::size_t Size = 0;
  std::size_t Used = 0;

public:
  /// Bytes that `take<T>(N)` consumes.
  template <typename T> static constexpr std::size_t bytesFor(std::size_t N) {
    return (N * sizeof(T) + 7) & ~std::size_t(7);
  }

  ScratchBlock() = default;
  explicit ScratchBlock(std::size_t Bytes)
      : Storage(new std::byte[Bytes], detail::ScratchRelease{Bytes}),
        Size(Bytes) {
    detail::poisonRegion(Storage.get(), Bytes);
  }

  /// Uninitialized storage for \p N objects of trivially-destructible T.
  template <typename T> T *take(std::size_t N) {
    static_assert(std::is_trivially_destructible_v<T> && alignof(T) <= 8,
                  "scratch holds 8-byte-aligned trivial payloads");
    const std::size_t Bytes = bytesFor<T>(N);
    assert(Used + Bytes <= Size && "scratch block sized too small");
    T *P = reinterpret_cast<T *>(Storage.get() + Used);
    detail::unpoisonRegion(P, N * sizeof(T));
    Used += Bytes;
    return P;
  }

  /// \p N objects of trivially-copyable T, filled with \p Init.
  template <typename T> T *takeFilled(std::size_t N, const T &Init) {
    T *P = take<T>(N);
    std::fill_n(P, N, Init);
    return P;
  }

  /// Bytes not yet carved.
  std::size_t remaining() const { return Size - Used; }
};

} // namespace depflow

#endif // DEPFLOW_SUPPORT_ARENA_H
