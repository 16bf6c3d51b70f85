// Minimal JSON object writer for the benchmark's report lines.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

namespace perfbench {

/// JSON string literal for `text` (quotes, backslashes and control
/// characters escaped).
inline std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// A double with all its digits (%.17g), which JSON readers parse back
/// to the same value.
inline std::string json_number(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

/// Builds one JSON object, members in insertion order.
class JsonObject {
 public:
  JsonObject& add_raw(const std::string& key, const std::string& json) {
    body_ += body_.empty() ? "" : ", ";
    body_ += json_string(key) + ": " + json;
    return *this;
  }
  JsonObject& add(const std::string& key, const std::string& value) {
    return add_raw(key, json_string(value));
  }
  JsonObject& add(const std::string& key, const char* value) {
    return add_raw(key, json_string(value));
  }
  JsonObject& add(const std::string& key, bool value) {
    return add_raw(key, value ? "true" : "false");
  }
  JsonObject& add(const std::string& key, std::uint64_t value) {
    return add_raw(key, std::to_string(value));
  }
  JsonObject& add(const std::string& key, double value) {
    return add_raw(key, json_number(value));
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

}  // namespace perfbench
