#include "sim/json_export.h"

#include <ostream>

#include "sim/wire.h"

namespace disco::sim {
namespace {

/// The JSON export as a visit_result visitor: groups become nested objects,
/// a gated group whose flag is off is skipped (so fault-free runs keep the
/// output of older builds), wire_only fields are left out, and doubles print
/// as the stream formats them.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}

  void str(FieldKey k, const std::string& v) {
    if (!key(k)) return;
    std::string quoted;
    wire::append_json_string(quoted, v);
    os_ << quoted;
  }
  void u64(FieldKey k, std::uint64_t v) {
    if (key(k)) os_ << v;
  }
  void dbl(FieldKey k, double v) {
    if (key(k)) os_ << v;
  }
  void derived(const char* name, double v) { dbl(name, v); }
  void scheme(FieldKey k, Scheme v) {
    if (key(k)) os_ << '"' << to_string(v) << '"';
  }
  template <class Body>
  void group(const char* name, Body&& body) {
    key(name);
    os_ << '{';
    first_ = true;
    body();
    os_ << '}';
    first_ = false;
  }
  template <class Body>
  void group(const char* name, bool on, Body&& body) {
    if (on) group(name, body);
  }

 private:
  bool key(FieldKey k) {
    if (!k.json) return false;
    if (!first_) os_ << ',';
    first_ = false;
    os_ << '"' << k.name << "\":";
    return true;
  }

  std::ostream& os_;
  bool first_ = true;
};

void write_object(std::ostream& os, const CellResult& r) {
  os << '{';
  JsonWriter w(os);
  visit_result(w, r);
  os << '}';
}

}  // namespace

void write_json(std::ostream& os, const CellResult& result) {
  write_object(os, result);
  os << "\n";
}

void write_json(std::ostream& os, const std::vector<CellResult>& results) {
  os << "[\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    os << "  ";
    write_object(os, results[i]);
    if (i + 1 < results.size()) os << ",";
    os << "\n";
  }
  os << "]\n";
}

}  // namespace disco::sim
