// Fixture: a std::unordered_map in a file whose path ends with
// core/streaming_pass.cc (a hot-path file) must fire banned-hot-path-map
// exactly once. The suppressed use and the unqualified mention stay
// legal. This is testdata, not the real scan pass.

#include <unordered_map>
#include <vector>

namespace fixture {

inline int CountDense(const std::vector<unsigned>& touched) {
  std::unordered_map<unsigned, int> hits;
  for (unsigned c : touched) ++hits[c];
  std::unordered_map<unsigned, int> allowed;  // dmc_lint: ignore
  int map = static_cast<int>(allowed.size());
  return static_cast<int>(hits.size()) + map;
}

}  // namespace fixture
