//===- support/StringInterner.h - String interning --------------*- C++ -*-===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Maps strings (variable names) to small dense integer ids and back.
/// Variable ids index the per-variable structures of the dependence flow
/// graph, so they must be dense and stable across a function.
///
//===----------------------------------------------------------------------===//

#ifndef DEPFLOW_SUPPORT_STRINGINTERNER_H
#define DEPFLOW_SUPPORT_STRINGINTERNER_H

#include <cassert>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace depflow {

/// Hash for string-keyed unordered maps that lets find() take a
/// std::string_view without building a std::string key.
struct StringViewHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view S) const {
    return std::hash<std::string_view>()(S);
  }
};

/// A string-keyed unordered map whose lookups accept std::string_view.
template <typename T>
using StringMap =
    std::unordered_map<std::string, T, StringViewHash, std::equal_to<>>;

/// Interned names are kept in `Names`, indexed by id; lookups go through
/// an open-addressing table of ids over them (linear probing, at most
/// half full), so a name costs one string and no map node.
class StringInterner {
  static constexpr std::uint32_t Empty = ~std::uint32_t(0);
  std::vector<std::string> Names;
  std::vector<std::uint32_t> Slots; // size a power of two, or 0

  static std::size_t hash(std::string_view Name) {
    return std::hash<std::string_view>()(Name);
  }
  /// The slot holding \p Name's id, or the empty slot where it would go.
  std::size_t findSlot(std::string_view Name) const {
    const std::size_t Mask = Slots.size() - 1;
    for (std::size_t S = hash(Name) & Mask;; S = (S + 1) & Mask)
      if (Slots[S] == Empty || Names[Slots[S]] == Name)
        return S;
  }
  void grow() {
    Slots.assign(Slots.empty() ? 16 : 2 * Slots.size(), Empty);
    const std::size_t Mask = Slots.size() - 1;
    for (std::uint32_t Id = 0; Id != Names.size(); ++Id) {
      std::size_t S = hash(Names[Id]) & Mask;
      while (Slots[S] != Empty)
        S = (S + 1) & Mask;
      Slots[S] = Id;
    }
  }

public:
  /// Interns \p Name, returning its dense id (allocating one if new).
  unsigned intern(std::string_view Name) {
    if (int Id = lookup(Name); Id >= 0)
      return unsigned(Id);
    if (2 * (Names.size() + 1) > Slots.size())
      grow();
    const std::size_t S = findSlot(Name);
    const unsigned Id = unsigned(Names.size());
    Names.emplace_back(Name);
    Slots[S] = Id;
    return Id;
  }

  /// Returns the id of \p Name, or -1 if it was never interned.
  int lookup(std::string_view Name) const {
    if (Slots.empty())
      return -1;
    const std::uint32_t Id = Slots[findSlot(Name)];
    return Id == Empty ? -1 : int(Id);
  }

  const std::string &name(unsigned Id) const {
    assert(Id < Names.size() && "unknown interned id");
    return Names[Id];
  }

  unsigned size() const { return unsigned(Names.size()); }
};

} // namespace depflow

#endif // DEPFLOW_SUPPORT_STRINGINTERNER_H
