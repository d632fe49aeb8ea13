//===- obs/Json.cpp - Minimal JSON writer and reader ----------------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "obs/Json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace depflow;
using namespace depflow::obs;

std::string depflow::obs::jsonEscape(std::string_view S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

void JsonWriter::value(double D) {
  comma();
  if (!std::isfinite(D)) {
    // JSON has no Infinity/NaN; observability data degrades to null rather
    // than producing an unparseable file.
    Out += "null";
    return;
  }
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", D);
  Out += Buf;
}

void JsonWriter::value(std::uint64_t N) {
  comma();
  Out += std::to_string(N);
}

void JsonWriter::value(std::int64_t N) {
  comma();
  Out += std::to_string(N);
}

//===----------------------------------------------------------------------===//
// Reader
//===----------------------------------------------------------------------===//

namespace {

class JsonParser {
  std::string_view Src;
  std::size_t Pos = 0;
  std::string &Error;

public:
  JsonParser(std::string_view Src, std::string &Error)
      : Src(Src), Error(Error) {}

  bool run(JsonValue &Out) {
    if (!parseValue(Out))
      return false;
    skipWs();
    if (Pos != Src.size())
      return fail("trailing garbage after JSON value");
    return true;
  }

private:
  bool fail(const std::string &Msg) {
    Error = "json: offset " + std::to_string(Pos) + ": " + Msg;
    return false;
  }

  void skipWs() {
    while (Pos < Src.size() &&
           (Src[Pos] == ' ' || Src[Pos] == '\t' || Src[Pos] == '\n' ||
            Src[Pos] == '\r'))
      ++Pos;
  }

  bool consume(char C) {
    skipWs();
    if (Pos >= Src.size() || Src[Pos] != C)
      return fail(std::string("expected '") + C + "'");
    ++Pos;
    return true;
  }

  bool parseValue(JsonValue &Out) {
    skipWs();
    if (Pos >= Src.size())
      return fail("unexpected end of input");
    char C = Src[Pos];
    if (C == '{')
      return parseObject(Out);
    if (C == '[')
      return parseArray(Out);
    if (C == '"') {
      Out.K = JsonValue::Kind::String;
      return parseString(Out.String);
    }
    if (Src.substr(Pos, 4) == "true") {
      Out.K = JsonValue::Kind::Bool;
      Out.Bool = true;
      Pos += 4;
      return true;
    }
    if (Src.substr(Pos, 5) == "false") {
      Out.K = JsonValue::Kind::Bool;
      Out.Bool = false;
      Pos += 5;
      return true;
    }
    if (Src.substr(Pos, 4) == "null") {
      Out.K = JsonValue::Kind::Null;
      Pos += 4;
      return true;
    }
    return parseNumber(Out);
  }

  bool parseObject(JsonValue &Out) {
    Out.K = JsonValue::Kind::Object;
    ++Pos; // '{'
    skipWs();
    if (Pos < Src.size() && Src[Pos] == '}') {
      ++Pos;
      return true;
    }
    while (true) {
      skipWs();
      std::string Key;
      if (Pos >= Src.size() || Src[Pos] != '"')
        return fail("expected object key");
      if (!parseString(Key))
        return false;
      if (!consume(':'))
        return false;
      JsonValue Member;
      if (!parseValue(Member))
        return false;
      Out.Object.emplace_back(std::move(Key), std::move(Member));
      skipWs();
      if (Pos < Src.size() && Src[Pos] == ',') {
        ++Pos;
        continue;
      }
      return consume('}');
    }
  }

  bool parseArray(JsonValue &Out) {
    Out.K = JsonValue::Kind::Array;
    ++Pos; // '['
    skipWs();
    if (Pos < Src.size() && Src[Pos] == ']') {
      ++Pos;
      return true;
    }
    while (true) {
      JsonValue Element;
      if (!parseValue(Element))
        return false;
      Out.Array.push_back(std::move(Element));
      skipWs();
      if (Pos < Src.size() && Src[Pos] == ',') {
        ++Pos;
        continue;
      }
      return consume(']');
    }
  }

  bool parseString(std::string &Out) {
    ++Pos; // '"'
    Out.clear();
    while (Pos < Src.size()) {
      char C = Src[Pos];
      if (C == '"') {
        ++Pos;
        return true;
      }
      if (C == '\\') {
        if (Pos + 1 >= Src.size())
          return fail("truncated escape");
        char E = Src[Pos + 1];
        Pos += 2;
        switch (E) {
        case '"':
          Out += '"';
          break;
        case '\\':
          Out += '\\';
          break;
        case '/':
          Out += '/';
          break;
        case 'n':
          Out += '\n';
          break;
        case 'r':
          Out += '\r';
          break;
        case 't':
          Out += '\t';
          break;
        case 'b':
          Out += '\b';
          break;
        case 'f':
          Out += '\f';
          break;
        case 'u': {
          if (Pos + 4 > Src.size())
            return fail("truncated \\u escape");
          unsigned Code = 0;
          for (int I = 0; I != 4; ++I) {
            char H = Src[Pos + I];
            Code <<= 4;
            if (H >= '0' && H <= '9')
              Code |= unsigned(H - '0');
            else if (H >= 'a' && H <= 'f')
              Code |= unsigned(H - 'a' + 10);
            else if (H >= 'A' && H <= 'F')
              Code |= unsigned(H - 'A' + 10);
            else
              return fail("bad \\u escape digit");
          }
          Pos += 4;
          // The writer only emits \u00XX control escapes; decode the
          // single-byte range and replace anything wider.
          Out += Code < 0x100 ? char(Code) : '?';
          break;
        }
        default:
          return fail("unknown escape");
        }
        continue;
      }
      Out += C;
      ++Pos;
    }
    return fail("unterminated string");
  }

  bool parseNumber(JsonValue &Out) {
    const char *Begin = Src.data() + Pos;
    char *End = nullptr;
    double D = std::strtod(Begin, &End);
    if (End == Begin)
      return fail("expected a JSON value");
    Out.K = JsonValue::Kind::Number;
    Out.Number = D;
    Pos += std::size_t(End - Begin);
    return true;
  }
};

} // namespace

bool depflow::obs::parseJson(std::string_view Src, JsonValue &Out,
                             std::string &Error) {
  JsonParser P(Src, Error);
  return P.run(Out);
}

Status depflow::obs::writeArtifact(const std::string &Path,
                                   std::string_view Contents,
                                   const char *What) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return Status::error(std::string("cannot open ") + What +
                         " output file '" + Path + "'");
  std::size_t Written = std::fwrite(Contents.data(), 1, Contents.size(), F);
  bool CloseOk = std::fclose(F) == 0;
  if (Written != Contents.size() || !CloseOk)
    return Status::error(std::string("failed writing ") + What +
                         " output file '" + Path + "'");
  return Status::success();
}
