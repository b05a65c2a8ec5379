//===- support/Json.cpp - Minimal canonical JSON reader/writer ------------===//

#include "support/Json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace fpint;
using namespace fpint::json;

void Value::set(const std::string &Key, Value V) {
  for (auto &M : Members)
    if (M.first == Key) {
      M.second = std::move(V);
      return;
    }
  Members.emplace_back(Key, std::move(V));
}

const Value *Value::find(const std::string &Key) const {
  for (const auto &M : Members)
    if (M.first == Key)
      return &M.second;
  return nullptr;
}

double Value::numberOr(const std::string &Key, double Default) const {
  const Value *V = find(Key);
  return V && V->isNumber() ? V->number() : Default;
}

const std::string &Value::strOr(const std::string &Key,
                                const std::string &Default) const {
  const Value *V = find(Key);
  return V && V->isString() ? V->str() : Default;
}

std::string Value::formatDouble(double D) {
  if (std::isnan(D))
    return "null"; // JSON has no NaN/Inf; null is the least-bad spelling.
  if (std::isinf(D))
    return D > 0 ? "1e999" : "-1e999"; // Parses back to +-inf via strtod.
  char Buf[40];
  for (int Precision = 1; Precision <= 17; ++Precision) {
    std::snprintf(Buf, sizeof(Buf), "%.*g", Precision, D);
    if (std::strtod(Buf, nullptr) == D)
      break;
  }
  std::string S = Buf;
  // A double spelled without '.', 'e', or "inf"/"nan" would re-parse as
  // an integer; force the distinction so round-trips preserve the kind.
  if (S.find_first_of(".eE") == std::string::npos)
    S += ".0";
  return S;
}

static void escapeString(std::string &Out, const std::string &S) {
  Out += '"';
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
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
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
  Out += '"';
}

void Value::dumpTo(std::string &Out, unsigned Indent) const {
  const std::string Pad(2 * (Indent + 1), ' ');
  const std::string Close(2 * Indent, ' ');
  switch (K) {
  case Kind::Null:
    Out += "null";
    break;
  case Kind::Bool:
    Out += BoolV ? "true" : "false";
    break;
  case Kind::Int:
    Out += std::to_string(IntV);
    break;
  case Kind::Double:
    Out += formatDouble(DoubleV);
    break;
  case Kind::String:
    escapeString(Out, StringV);
    break;
  case Kind::Array:
    if (Items.empty()) {
      Out += "[]";
      break;
    }
    Out += "[\n";
    for (size_t I = 0; I < Items.size(); ++I) {
      Out += Pad;
      Items[I].dumpTo(Out, Indent + 1);
      Out += I + 1 < Items.size() ? ",\n" : "\n";
    }
    Out += Close + "]";
    break;
  case Kind::Object:
    if (Members.empty()) {
      Out += "{}";
      break;
    }
    Out += "{\n";
    for (size_t I = 0; I < Members.size(); ++I) {
      Out += Pad;
      escapeString(Out, Members[I].first);
      Out += ": ";
      Members[I].second.dumpTo(Out, Indent + 1);
      Out += I + 1 < Members.size() ? ",\n" : "\n";
    }
    Out += Close + "}";
    break;
  }
}

std::string Value::dump() const {
  std::string Out;
  dumpTo(Out, 0);
  return Out;
}

//===----------------------------------------------------------------------===//
// Parser (recursive descent, bounded by MaxNestingDepth).
//===----------------------------------------------------------------------===//

namespace {

struct Parser {
  const std::string &Text;
  size_t Pos = 0;
  unsigned Depth = 0; ///< Containers open around the current value.
  std::string Err;

  explicit Parser(const std::string &Text) : Text(Text) {}

  bool fail(const std::string &What) {
    Err = What + " at offset " + std::to_string(Pos);
    return false;
  }

  void skipWs() {
    while (Pos < Text.size() && std::isspace(
                                    static_cast<unsigned char>(Text[Pos])))
      ++Pos;
  }

  bool consume(char C) {
    skipWs();
    if (Pos >= Text.size() || Text[Pos] != C)
      return fail(std::string("expected '") + C + "'");
    ++Pos;
    return true;
  }

  bool parseString(std::string &Out) {
    if (!consume('"'))
      return false;
    Out.clear();
    while (Pos < Text.size()) {
      char C = Text[Pos++];
      if (C == '"')
        return true;
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos >= Text.size())
        break;
      char E = Text[Pos++];
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
      case 't':
        Out += '\t';
        break;
      case 'r':
        Out += '\r';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'u': {
        if (Pos + 4 > Text.size())
          return fail("truncated \\u escape");
        unsigned Code = std::strtoul(Text.substr(Pos, 4).c_str(), nullptr, 16);
        Pos += 4;
        // Control characters only (the writer never emits higher
        // escapes); anything else degrades to '?'.
        Out += Code < 0x80 ? static_cast<char>(Code) : '?';
        break;
      }
      default:
        return fail("bad escape");
      }
    }
    return fail("unterminated string");
  }

  bool parseObject(Value &Out) {
    ++Pos;
    Out = Value::object();
    skipWs();
    if (Pos < Text.size() && Text[Pos] == '}') {
      ++Pos;
      return true;
    }
    while (true) {
      std::string Key;
      if (!parseString(Key))
        return false;
      if (!consume(':'))
        return false;
      Value V;
      if (!parseValue(V))
        return false;
      Out.set(Key, std::move(V));
      skipWs();
      if (Pos < Text.size() && Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      return consume('}');
    }
  }

  bool parseArray(Value &Out) {
    ++Pos;
    Out = Value::array();
    skipWs();
    if (Pos < Text.size() && Text[Pos] == ']') {
      ++Pos;
      return true;
    }
    while (true) {
      Value V;
      if (!parseValue(V))
        return false;
      Out.push(std::move(V));
      skipWs();
      if (Pos < Text.size() && Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      return consume(']');
    }
  }

  bool parseValue(Value &Out) {
    skipWs();
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    char C = Text[Pos];
    if (C == '{' || C == '[') {
      if (Depth == MaxNestingDepth)
        return fail("nesting too deep");
      ++Depth;
      bool Ok = C == '{' ? parseObject(Out) : parseArray(Out);
      --Depth;
      return Ok;
    }
    if (C == '"') {
      std::string S;
      if (!parseString(S))
        return false;
      Out = Value(std::move(S));
      return true;
    }
    if (Text.compare(Pos, 4, "true") == 0) {
      Pos += 4;
      Out = Value(true);
      return true;
    }
    if (Text.compare(Pos, 5, "false") == 0) {
      Pos += 5;
      Out = Value(false);
      return true;
    }
    if (Text.compare(Pos, 4, "null") == 0) {
      Pos += 4;
      Out = Value();
      return true;
    }
    // Number: integer unless it needs '.', exponent, or overflows.
    size_t Start = Pos;
    if (Pos < Text.size() && (Text[Pos] == '-' || Text[Pos] == '+'))
      ++Pos;
    bool IsDouble = false;
    while (Pos < Text.size()) {
      char D = Text[Pos];
      if (std::isdigit(static_cast<unsigned char>(D))) {
        ++Pos;
      } else if (D == '.' || D == 'e' || D == 'E' || D == '+' || D == '-') {
        IsDouble = IsDouble || D == '.' || D == 'e' || D == 'E';
        ++Pos;
      } else {
        break;
      }
    }
    if (Pos == Start)
      return fail("unexpected character");
    std::string Num = Text.substr(Start, Pos - Start);
    errno = 0;
    if (!IsDouble) {
      char *End = nullptr;
      long long I = std::strtoll(Num.c_str(), &End, 10);
      if (errno == 0 && End && *End == '\0') {
        Out = Value(static_cast<int64_t>(I));
        return true;
      }
    }
    char *End = nullptr;
    double D = std::strtod(Num.c_str(), &End);
    if (!End || *End != '\0')
      return fail("malformed number");
    Out = Value(D);
    return true;
  }
};

} // namespace

bool Value::parse(const std::string &Text, Value &Out, std::string *Err) {
  Parser P(Text);
  if (!P.parseValue(Out)) {
    if (Err)
      *Err = P.Err;
    return false;
  }
  P.skipWs();
  if (P.Pos != Text.size()) {
    if (Err)
      *Err = "trailing content at offset " + std::to_string(P.Pos);
    return false;
  }
  return true;
}
