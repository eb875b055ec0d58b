#include "observe/json_writer.h"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace dmc {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  const auto res =
      std::to_chars(buf, buf + sizeof(buf), value);
  std::string out(buf, res.ptr);
  // Bare shortest-round-trip output like "3" is a valid JSON number but
  // loses the "this was a double" signal; keep integral doubles as-is
  // (golden files mask timing values anyway).
  return out;
}

void JsonWriter::NewlineIndent() {
  if (indent_ <= 0) return;
  os_ << '\n';
  for (size_t i = 0; i < has_elements_.size(); ++i) {
    for (int k = 0; k < indent_; ++k) os_ << ' ';
  }
}

void JsonWriter::Prefix() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // key already emitted the comma/indent
  }
  if (!has_elements_.empty()) {
    if (has_elements_.back()) os_ << ',';
    has_elements_.back() = true;
    NewlineIndent();
  }
}

void JsonWriter::BeginObject() {
  Prefix();
  os_ << '{';
  has_elements_.push_back(false);
}

void JsonWriter::EndObject() {
  const bool had = has_elements_.back();
  has_elements_.pop_back();
  if (had) NewlineIndent();
  os_ << '}';
}

void JsonWriter::BeginArray() {
  Prefix();
  os_ << '[';
  has_elements_.push_back(false);
}

void JsonWriter::EndArray() {
  const bool had = has_elements_.back();
  has_elements_.pop_back();
  if (had) NewlineIndent();
  os_ << ']';
}

void JsonWriter::Key(std::string_view name) {
  if (has_elements_.back()) os_ << ',';
  has_elements_.back() = true;
  NewlineIndent();
  os_ << '"' << JsonEscape(name) << "\":";
  if (indent_ > 0) os_ << ' ';
  pending_key_ = true;
}

void JsonWriter::Value(std::string_view s) {
  Prefix();
  os_ << '"' << JsonEscape(s) << '"';
}

void JsonWriter::Value(bool b) {
  Prefix();
  os_ << (b ? "true" : "false");
}

void JsonWriter::Value(double d) {
  Prefix();
  os_ << JsonNumber(d);
}

void JsonWriter::Value(int64_t v) {
  Prefix();
  os_ << v;
}

void JsonWriter::Value(uint64_t v) {
  Prefix();
  os_ << v;
}

void JsonWriter::Null() {
  Prefix();
  os_ << "null";
}

}  // namespace dmc
