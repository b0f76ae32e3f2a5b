#include "sim/wire.h"

#include <bit>
#include <cstdio>
#include <limits>
#include <stdexcept>

namespace disco::sim::wire {
namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("wire: " + what);
}

// --- scanner ---------------------------------------------------------------

struct Scanner {
  std::string_view s;
  std::size_t pos = 0;

  void skip_ws() {
    while (pos < s.size() &&
           (s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\n' || s[pos] == '\r'))
      ++pos;
  }
  char peek() {
    if (pos >= s.size()) fail("unexpected end of input");
    return s[pos];
  }
  void expect(char c) {
    if (pos >= s.size() || s[pos] != c)
      fail(std::string("expected '") + c + "' at offset " + std::to_string(pos));
    ++pos;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos >= s.size()) fail("unterminated string");
      char c = s[pos++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos >= s.size()) fail("unterminated escape");
      const char e = s[pos++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos + 4 > s.size()) fail("truncated \\u escape");
          unsigned v = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s[pos++];
            v <<= 4;
            if (h >= '0' && h <= '9') v |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') v |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') v |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape digit");
          }
          // The encoder only ever emits \u00XX (control bytes); tolerate the
          // full BMP by truncating — nothing we wrote can hit that path.
          out.push_back(static_cast<char>(v & 0xFF));
          break;
        }
        default: fail(std::string("unknown escape \\") + e);
      }
    }
  }

  std::uint64_t parse_number() {
    if (pos >= s.size() || s[pos] < '0' || s[pos] > '9')
      fail("expected number at offset " + std::to_string(pos));
    std::uint64_t v = 0;
    while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9') {
      const std::uint64_t d = static_cast<std::uint64_t>(s[pos] - '0');
      // A bit-flipped payload can splice digits into a number that no
      // encoder ever produced; reject overflow instead of wrapping quietly.
      if (v > (UINT64_MAX - d) / 10)
        fail("number overflow at offset " + std::to_string(pos));
      v = v * 10 + d;
      ++pos;
    }
    return v;
  }

  Value parse_value(unsigned depth) {
    if (depth > 8) fail("nesting too deep");
    skip_ws();
    Value v;
    const char c = peek();
    if (c == '{') {
      v = parse_obj(depth);
    } else if (c == '"') {
      v.kind = Value::Kind::Str;
      v.str = parse_string();
    } else {
      v.kind = Value::Kind::Num;
      v.num = parse_number();
    }
    return v;
  }

  Value parse_obj(unsigned depth) {
    Value v;
    v.kind = Value::Kind::Obj;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      Value member = parse_value(depth + 1);
      v.obj.emplace_back(std::move(key), std::move(member));
      skip_ws();
      const char t = peek();
      if (t == ',') {
        ++pos;
        continue;
      }
      expect('}');
      return v;
    }
  }
};

// --- visitors ----------------------------------------------------------------

CellStatus status_from_name(const std::string& s) {
  for (const CellStatus c :
       {CellStatus::Ok, CellStatus::Failed, CellStatus::TimedOut,
        CellStatus::Skipped, CellStatus::Crashed, CellStatus::Interrupted}) {
    if (s == to_string(c)) return c;
  }
  fail("unknown cell status \"" + s + "\"");
}

/// The one field list of a cell outcome (the manifest line and the child's
/// pipe payload). Status comes before the result it gates.
template <class Ar, class O>
void visit_outcome(Ar& ar, O& o) {
  ar.u64("cell", o.index);
  ar.u64("group", o.group);
  ar.status("status", o.status);
  ar.u64("attempts", o.attempts);
  ar.u64("snap_saved_cycles", o.snap_saved_cycles);
  ar.str("error", o.error);
  if (o.ok()) ar.result("result", o.result);
}

/// Writes one flat object; a group's fields are keyed "<group>.<field>" and
/// a gated group also carries its flag as "<group>.enabled".
struct Encoder {
  std::string out;
  const char* group_name = nullptr;

  void key(FieldKey k) {
    out.push_back(out.empty() ? '{' : ',');
    out.push_back('"');
    if (group_name != nullptr) {
      out += group_name;
      out.push_back('.');
    }
    out += k.name;
    out += "\":";
  }
  void str(FieldKey k, const std::string& v) {
    key(k);
    append_json_string(out, v);
  }
  void u64(FieldKey k, std::uint64_t v) {
    key(k);
    out += std::to_string(v);
  }
  void dbl(FieldKey k, double v) {
    // Bit pattern, not decimal text: exact round trip by construction.
    u64(k, std::bit_cast<std::uint64_t>(v));
  }
  void derived(const char*, double) {}
  void scheme(FieldKey k, Scheme v) { u64(k, static_cast<std::uint64_t>(v)); }
  void status(FieldKey k, CellStatus v) { str(k, to_string(v)); }
  void result(FieldKey k, const CellResult& r) {
    key(k);
    out += encode_result(r);
  }
  template <class Body>
  void group(const char* name, Body&& body) {
    group_name = name;
    body();
    group_name = nullptr;
  }
  template <class Body>
  void group(const char* name, bool on, Body&& body) {
    group(name, [&] {
      u64("enabled", on);
      body();
    });
  }
};

struct Decoder {
  const Value& obj;
  const char* group_name = nullptr;

  const Value& get(FieldKey k, Value::Kind kind) const {
    const std::string name = group_name == nullptr
                                 ? std::string(k.name)
                                 : std::string(group_name) + "." + k.name;
    const Value* v = obj.find(name);
    if (v == nullptr) fail("missing field " + name);
    if (v->kind != kind) fail("wrong kind for field " + name);
    return *v;
  }
  void str(FieldKey k, std::string& v) const {
    v = get(k, Value::Kind::Str).str;
  }
  template <class T>
  void u64(FieldKey k, T& v) const {
    const std::uint64_t n = get(k, Value::Kind::Num).num;
    if (n > std::numeric_limits<T>::max())
      fail(std::string("value out of range for field ") + k.name);
    v = static_cast<T>(n);
  }
  void dbl(FieldKey k, double& v) const {
    v = std::bit_cast<double>(get(k, Value::Kind::Num).num);
  }
  void derived(const char*, double) const {}
  void scheme(FieldKey k, Scheme& v) const {
    const std::uint64_t n = get(k, Value::Kind::Num).num;
    if (n > static_cast<std::uint64_t>(Scheme::Ideal))
      fail("scheme value out of range");
    v = static_cast<Scheme>(n);
  }
  void status(FieldKey k, CellStatus& v) const {
    v = status_from_name(get(k, Value::Kind::Str).str);
  }
  void result(FieldKey k, CellResult& r) const {
    r = decode_result(get(k, Value::Kind::Obj));
  }
  template <class Body>
  void group(const char* name, Body&& body) {
    group_name = name;
    body();
    group_name = nullptr;
  }
  template <class Body>
  void group(const char* name, bool& on, Body&& body) {
    group(name, [&] {
      on = get("enabled", Value::Kind::Num).num != 0;
      body();
    });
  }
};

}  // namespace

const Value* Value::find(std::string_view key) const {
  if (kind != Kind::Obj) return nullptr;
  for (const auto& [k, v] : obj)
    if (k == key) return &v;
  return nullptr;
}

std::uint64_t Value::num_or(std::string_view key, std::uint64_t dflt) const {
  const Value* v = find(key);
  return v != nullptr && v->kind == Kind::Num ? v->num : dflt;
}

Value parse_object(std::string_view text) {
  Scanner sc{text};
  sc.skip_ws();
  Value v = sc.parse_obj(0);
  sc.skip_ws();
  if (sc.pos != text.size()) fail("trailing garbage after object");
  return v;
}

void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

std::string encode_result(const CellResult& r) {
  Encoder enc;
  visit_result(enc, r);
  enc.out.push_back('}');
  return enc.out;
}

CellResult decode_result(const Value& obj) {
  if (obj.kind != Value::Kind::Obj) fail("result is not an object");
  CellResult r;
  Decoder dec{obj};
  visit_result(dec, r);
  return r;
}

std::string encode_outcome(const SweepCellOutcome& out) {
  Encoder enc;
  visit_outcome(enc, out);
  enc.out.push_back('}');
  return enc.out;
}

SweepCellOutcome decode_outcome(const Value& obj) {
  if (obj.kind != Value::Kind::Obj) fail("outcome is not an object");
  SweepCellOutcome out;
  Decoder dec{obj};
  visit_outcome(dec, out);
  return out;
}

}  // namespace disco::sim::wire
