// Minimal streaming JSON writer used by the observability exporters.
//
// Hand-rolled on purpose: the export surface is small (flat objects,
// arrays of numbers, one level of nesting for the trace format) and the
// repo takes no third-party JSON dependency. The writer emits
// deterministic, pretty-printed output so golden tests can diff it.

#ifndef DMC_OBSERVE_JSON_WRITER_H_
#define DMC_OBSERVE_JSON_WRITER_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace dmc {

/// Escapes `s` for inclusion in a JSON string literal (quotes not
/// included). Control characters become \u00XX.
std::string JsonEscape(std::string_view s);

/// Renders a double the way the exporters need it: finite values via
/// shortest round-trip formatting, non-finite values as null (JSON has no
/// Inf/NaN).
std::string JsonNumber(double value);

/// Structured writer: Begin/End pairs manage indentation and commas.
/// Usage:
///   JsonWriter w(os);
///   w.BeginObject();
///   w.Key("rows"); w.Value(100);
///   w.EndObject();
class JsonWriter {
 public:
  /// `indent` spaces per nesting level; 0 emits compact single-line JSON.
  explicit JsonWriter(std::ostream& os, int indent = 2)
      : os_(os), indent_(indent) {}

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();

  /// Writes an object key; must be followed by exactly one Value or
  /// Begin* call.
  void Key(std::string_view name);

  void Value(std::string_view s);
  void Value(const char* s) { Value(std::string_view(s)); }
  void Value(bool b);
  void Value(double d);
  void Value(int v) { Value(static_cast<int64_t>(v)); }
  void Value(unsigned v) { Value(static_cast<uint64_t>(v)); }
  void Value(int64_t v);
  void Value(uint64_t v);  // also covers size_t on LP64
  void Null();

 private:
  void Prefix();  // comma/newline/indent bookkeeping before an element
  void NewlineIndent();

  std::ostream& os_;
  int indent_;
  // One frame per open container: whether it has any elements yet.
  std::vector<bool> has_elements_;
  bool pending_key_ = false;
};

}  // namespace dmc

#endif  // DMC_OBSERVE_JSON_WRITER_H_
