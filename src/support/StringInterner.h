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

class StringInterner {
  StringMap<unsigned> IdOf;
  std::vector<std::string> Names;

public:
  /// Interns \p Name, returning its dense id (allocating one if new).
  unsigned intern(std::string_view Name) {
    auto It = IdOf.find(Name);
    if (It != IdOf.end())
      return It->second;
    unsigned Id = unsigned(Names.size());
    Names.emplace_back(Name);
    IdOf.emplace(Names.back(), Id);
    return Id;
  }

  /// Returns the id of \p Name, or -1 if it was never interned.
  int lookup(std::string_view Name) const {
    auto It = IdOf.find(Name);
    return It == IdOf.end() ? -1 : int(It->second);
  }

  const std::string &name(unsigned Id) const {
    assert(Id < Names.size() && "unknown interned id");
    return Names[Id];
  }

  unsigned size() const { return unsigned(Names.size()); }
};

} // namespace depflow

#endif // DEPFLOW_SUPPORT_STRINGINTERNER_H
