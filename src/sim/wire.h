// Lossless wire format for cell results. A forked worker sends its cell
// outcome back over a pipe as one JSON object, and the checkpoint manifest
// journals the very same object per finished cell, so a resumed sweep
// reconstructs bit-identical results (doubles travel as their IEEE-754 bit
// patterns, never as decimal text). The CellResult fields come from the
// shared visit_result walk (experiment.h). Includes the minimal JSON value
// parser the supervisor needs for pipe payloads and manifest lines — objects
// of unsigned numbers, strings and nested objects; nothing else is emitted.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/sweep.h"

namespace disco::sim::wire {

/// Parsed JSON value (only the subset the wire format uses).
struct Value {
  enum class Kind : std::uint8_t { Num, Str, Obj };
  Kind kind = Kind::Num;
  std::uint64_t num = 0;
  std::string str;
  std::vector<std::pair<std::string, Value>> obj;  ///< insertion order kept

  /// Member lookup; null when absent or not an object.
  const Value* find(std::string_view key) const;
  std::uint64_t num_or(std::string_view key, std::uint64_t dflt) const;
};

/// Parse one JSON object (as produced by this module). Throws
/// std::runtime_error on malformed input — truncated pipe payloads and torn
/// manifest lines surface as structured cell errors, never UB.
Value parse_object(std::string_view text);

/// Append `s` as a JSON string literal (quotes + escapes) to `out`.
void append_json_string(std::string& out, std::string_view s);

/// Encode a result as one JSON object. Exact: decode_result(parse_object(
/// encode_result(r))) reproduces every field bit-for-bit.
std::string encode_result(const CellResult& r);

/// Rebuild a result from its wire object. Throws std::runtime_error when a
/// required field is missing or of the wrong kind.
CellResult decode_result(const Value& obj);

/// Encode a cell outcome as one JSON object: the checkpoint-manifest line
/// and, byte for byte, the payload a forked child writes to its pipe. The
/// result rides along (as encode_result) only when the outcome is Ok;
/// wall_ms stays behind.
std::string encode_outcome(const SweepCellOutcome& out);

/// Rebuild an outcome from its object. Throws std::runtime_error on a
/// missing or ill-kinded field, an unknown status name, or an Ok outcome
/// without its result.
SweepCellOutcome decode_outcome(const Value& obj);

}  // namespace disco::sim::wire
