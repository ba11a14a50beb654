// Minimal JSON text helpers for the benchmark's raw output files, and the
// answer form both the measured process and the oracle write: the total
// row count and the materialized rows rendered with
// catalog::Value::ToString, compared byte for byte by run.py.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "catalog/value.h"

namespace ghostbench {

inline void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (unsigned char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(static_cast<char>(c));
        }
    }
  }
  out->push_back('"');
}

struct Answer {
  uint64_t total = 0;
  std::vector<std::vector<std::string>> rows;

  bool operator==(const Answer& other) const {
    return total == other.total && rows == other.rows;
  }
};

inline Answer MakeAnswer(
    uint64_t total, const std::vector<std::vector<ghostdb::catalog::Value>>&
                        rows,
    size_t limit) {
  Answer a;
  a.total = total;
  for (size_t i = 0; i < rows.size() && i < limit; ++i) {
    std::vector<std::string> cells;
    cells.reserve(rows[i].size());
    for (const auto& v : rows[i]) cells.push_back(v.ToString());
    a.rows.push_back(std::move(cells));
  }
  return a;
}

/// `{"q": q, "total": n, "rows": [[...], ...]}` followed by a newline.
inline void AppendAnswerLine(std::string* out, uint32_t q, const Answer& a) {
  *out += "{\"q\": " + std::to_string(q) +
          ", \"total\": " + std::to_string(a.total) + ", \"rows\": [";
  for (size_t i = 0; i < a.rows.size(); ++i) {
    *out += i == 0 ? "[" : ", [";
    for (size_t j = 0; j < a.rows[i].size(); ++j) {
      if (j > 0) *out += ", ";
      AppendJsonString(out, a.rows[i][j]);
    }
    *out += "]";
  }
  *out += "]}\n";
}

inline bool WriteFile(const std::string& path, const std::string& text) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace ghostbench
