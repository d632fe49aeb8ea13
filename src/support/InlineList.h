//===- support/InlineList.h - A list with inline storage --------*- C++ -*-===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `InlineList<T, N>` keeps up to N elements inside the object and spills
/// a longer list to one heap array. The IR uses it where almost every list
/// is short: an instruction's operands and block references, and a block's
/// predecessors.
///
//===----------------------------------------------------------------------===//

#ifndef DEPFLOW_SUPPORT_INLINELIST_H
#define DEPFLOW_SUPPORT_INLINELIST_H

#include <algorithm>
#include <cstdint>
#include <span>

namespace depflow {

/// A list of up to \p N elements stored in place; a longer one spills to a
/// single heap array. The object points into itself, so it is neither
/// copied nor moved. T must be default-constructible and copyable.
template <typename T, unsigned N> class InlineList {
  T *Data = Inline;
  std::uint32_t Size = 0;
  std::uint32_t Cap = N;
  T Inline[N];

  void reserve(std::uint32_t Want) {
    if (Want <= Cap)
      return;
    std::uint32_t NewCap = Cap * 2 > Want ? Cap * 2 : Want;
    T *NewData = new T[NewCap];
    std::copy(Data, Data + Size, NewData);
    if (Data != Inline)
      delete[] Data;
    Data = NewData;
    Cap = NewCap;
  }

public:
  InlineList() = default;
  InlineList(const InlineList &) = delete;
  InlineList &operator=(const InlineList &) = delete;
  ~InlineList() {
    if (Data != Inline)
      delete[] Data;
  }

  std::uint32_t size() const { return Size; }
  T &operator[](std::uint32_t Idx) { return Data[Idx]; }
  const T &operator[](std::uint32_t Idx) const { return Data[Idx]; }
  std::span<T> span() { return {Data, Size}; }
  std::span<const T> span() const { return {Data, Size}; }
  /// Empties the list, keeping its storage.
  void clear() { Size = 0; }

  void push_back(T V) {
    if (Size == Cap)
      reserve(Size + 1);
    Data[Size++] = V;
  }
  void assign(std::span<const T> Vs) {
    reserve(std::uint32_t(Vs.size()));
    std::copy(Vs.begin(), Vs.end(), Data);
    Size = std::uint32_t(Vs.size());
  }
};

} // namespace depflow

#endif // DEPFLOW_SUPPORT_INLINELIST_H
