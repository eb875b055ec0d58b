#include "reference_miner.h"

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common.h"

namespace perfbench {

namespace {

using Rows = std::vector<std::vector<uint32_t>>;

bool ReadRows(const std::string& path, Rows* rows, uint32_t* num_columns) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return false;
  std::string text;
  char buffer[1 << 16];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    text.append(buffer, n);
  }
  const bool read_ok = std::ferror(file) == 0;
  std::fclose(file);
  if (!read_ok) return false;

  *num_columns = 0;
  std::vector<uint32_t> row;
  const char* p = text.c_str();
  while (*p != '\0') {
    if (*p == '#') {
      while (*p != '\0' && *p != '\n') ++p;
    } else if (*p == '\n') {
      rows->push_back(row);
      row.clear();
      ++p;
    } else if (*p >= '0' && *p <= '9') {
      char* end = nullptr;
      const uint32_t id = static_cast<uint32_t>(std::strtoul(p, &end, 10));
      row.push_back(id);
      if (id >= *num_columns) *num_columns = id + 1;
      p = end;
    } else {
      ++p;
    }
  }
  if (!row.empty()) rows->push_back(row);
  return true;
}

}  // namespace

ReferenceRun RunReferenceMiner(const std::string& path,
                               double min_confidence) {
  ReferenceRun run;
  const Clock::time_point start = Clock::now();
  Rows rows;
  uint32_t cols = 0;
  if (!ReadRows(path, &rows, &cols)) {
    run.failure = "reference miner cannot read " + path;
    return run;
  }
  std::vector<uint32_t> ones(cols, 0);
  for (const auto& row : rows) {
    for (const uint32_t c : row) ++ones[c];
  }
  std::vector<std::vector<uint32_t>> candidates(cols);
  std::vector<std::vector<uint32_t>> misses(cols);
  std::vector<uint8_t> started(cols, 0);
  std::vector<uint8_t> in_row(cols, 0);
  for (const auto& row : rows) {
    for (const uint32_t c : row) in_row[c] = 1;
    for (const uint32_t c : row) {
      if (!started[c]) {
        started[c] = 1;
        for (const uint32_t d : row) {
          if (d == c) continue;
          candidates[c].push_back(d);
          misses[c].push_back(0);
        }
        continue;
      }
      const auto budget =
          static_cast<uint32_t>((1.0 - min_confidence) * ones[c]);
      auto& cand = candidates[c];
      auto& miss = misses[c];
      for (size_t i = 0; i < cand.size();) {
        if (!in_row[cand[i]] && ++miss[i] > budget) {
          cand[i] = cand.back();
          cand.pop_back();
          miss[i] = miss.back();
          miss.pop_back();
        } else {
          ++i;
        }
      }
    }
    for (const uint32_t c : row) in_row[c] = 0;
  }
  for (const auto& cand : candidates) run.survivors += cand.size();
  run.wall_s = SecondsBetween(start, Clock::now());
  return run;
}

}  // namespace perfbench
