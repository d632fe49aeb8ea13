//===- obs/Json.h - Minimal JSON writer and reader --------------*- C++ -*-===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The JSON substrate of the observability layer. Two halves:
///
///   * `JsonWriter` — a streaming writer with automatic comma management,
///     used by the trace recorder (Chrome trace-event files), the
///     `--stats-json` report, and the `BENCH_*.json` emitters. Everything
///     depflow writes as JSON goes through this class, so escaping and
///     number formatting are decided in exactly one place.
///
///   * `parseJson` / `JsonValue` — a small recursive-descent reader. It
///     exists so the tests (and any in-tree tool) can load the files the
///     writer produced and assert on their structure; it is not a
///     general-purpose validator (no \uXXXX surrogate pairs, doubles via
///     strtod).
///
/// `writeArtifact` puts a rendered document on disk.
///
//===----------------------------------------------------------------------===//

#ifndef DEPFLOW_OBS_JSON_H
#define DEPFLOW_OBS_JSON_H

#include "support/Error.h"

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace depflow {
namespace obs {

/// Escapes \p S for inclusion inside a JSON string literal (quotes not
/// included).
std::string jsonEscape(std::string_view S);

/// Streaming JSON writer. Callers nest beginObject/beginArray and emit
/// key/value pairs; the writer inserts commas and validates nesting with
/// asserts (misuse is a depflow bug, never an input error).
class JsonWriter {
  std::string &Out;
  // One entry per open container: true until the first element is written.
  std::vector<bool> FirstStack;
  bool PendingKey = false;

  void comma() {
    if (!FirstStack.empty() && !PendingKey) {
      if (!FirstStack.back())
        Out += ',';
      FirstStack.back() = false;
    }
    PendingKey = false;
  }

public:
  explicit JsonWriter(std::string &Out) : Out(Out) {}

  void beginObject() {
    comma();
    Out += '{';
    FirstStack.push_back(true);
  }
  void endObject() {
    Out += '}';
    FirstStack.pop_back();
  }
  void beginArray() {
    comma();
    Out += '[';
    FirstStack.push_back(true);
  }
  void endArray() {
    Out += ']';
    FirstStack.pop_back();
  }

  void key(std::string_view K) {
    comma();
    Out += '"';
    Out += jsonEscape(K);
    Out += "\":";
    PendingKey = true;
  }

  void value(std::string_view S) {
    comma();
    Out += '"';
    Out += jsonEscape(S);
    Out += '"';
  }
  void value(const char *S) { value(std::string_view(S)); }
  void value(double D);
  void value(std::uint64_t N);
  void value(std::int64_t N);
  void value(unsigned N) { value(std::uint64_t(N)); }
  void value(int N) { value(std::int64_t(N)); }
  void value(bool B) {
    comma();
    Out += B ? "true" : "false";
  }

  template <typename T> void keyValue(std::string_view K, T V) {
    key(K);
    value(V);
  }
};

/// A parsed JSON document node. Object member order is preserved (the
/// writer's order), so tests can assert on it.
struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind K = Kind::Null;
  bool Bool = false;
  double Number = 0;
  std::string String;
  std::vector<JsonValue> Array;
  std::vector<std::pair<std::string, JsonValue>> Object;

  bool isObject() const { return K == Kind::Object; }
  bool isArray() const { return K == Kind::Array; }
  bool isString() const { return K == Kind::String; }
  bool isNumber() const { return K == Kind::Number; }

  /// Member lookup on an object; null when absent or not an object.
  const JsonValue *find(std::string_view Key) const {
    if (K != Kind::Object)
      return nullptr;
    for (const auto &[MemberKey, MemberValue] : Object)
      if (MemberKey == Key)
        return &MemberValue;
    return nullptr;
  }
};

/// Parses \p Src into \p Out. On failure returns false with \p Error set
/// to a message naming the byte offset. Trailing garbage is an error.
bool parseJson(std::string_view Src, JsonValue &Out, std::string &Error);

/// Writes \p Contents to the file \p Path, replacing it. The errors call
/// the file "<What> output file" ("cannot open trace output file 'x'").
/// The trace, journal, stats, counters and bench documents go through here.
Status writeArtifact(const std::string &Path, std::string_view Contents,
                     const char *What);

} // namespace obs
} // namespace depflow

#endif // DEPFLOW_OBS_JSON_H
