// Flag parsing shared by dmc_cli, dmc_serve and the benches.
//
// A command line is `<tool> <command> --name=value ... --switch ...`; a
// bench has no command word. Each command (or bench) names the flags it
// reads in a table of FlagSpec rows, and Flags::Check refuses, with a
// message naming the argument:
//   * an argument that is not --name or --name=value;
//   * a name no table of the command lists;
//   * a value on a switch, or a bare --name on a flag that needs a value;
//   * a value its row's kind does not parse.
// Every binary exits 2 on that message before any work starts, so a typo
// never runs with the option silently dropped. Numbers parse with
// std::from_chars over the whole value: no sign, no trailing text, no
// overflow.

#ifndef DMC_TOOLS_CLI_FLAGS_H_
#define DMC_TOOLS_CLI_FLAGS_H_

#include <charconv>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace dmc {
namespace cli {

/// Parses all of `text` as a decimal integer no larger than `max`; a
/// sign, trailing text or overflow fails.
inline bool ParseUint(std::string_view text, uint64_t max, uint64_t* out) {
  uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value > max) return false;
  *out = value;
  return true;
}

/// Parses all of `text` as a finite decimal number.
inline bool ParseDouble(std::string_view text, double* out) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value)) return false;
  *out = value;
  return true;
}

enum class FlagKind {
  kSwitch,    ///< bare --name only
  kText,      ///< any text
  kUint,      ///< an integer from 0 to FlagSpec::max
  kFraction,  ///< a number in (0, 1]: a confidence or similarity
  kSeconds,   ///< a positive, finite number of seconds
  kPositive,  ///< a positive, finite number: a bench's --scale
};

struct FlagSpec {
  const char* name;
  FlagKind kind;
  /// kUint: the largest value the flag's consumer holds.
  uint64_t max = 0;
  /// A valued flag that may also be given bare, reading as its default.
  bool bare_ok = false;
};

class Flags {
 public:
  /// Reads argv[first..]: argv[1] is a tool's command; a bench's flags
  /// start at argv[1].
  Flags(int argc, char** argv, int first = 2) {
    for (int i = first; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg.substr(0, 2) != "--") {
        strays_.emplace_back(arg);
        continue;
      }
      const size_t eq = arg.find('=');
      std::optional<std::string> value;
      if (eq != std::string_view::npos) value.emplace(arg.substr(eq + 1));
      values_[std::string(arg.substr(2, eq - 2))] = std::move(value);
    }
  }

  bool Has(const std::string& name) const { return values_.count(name) > 0; }

  /// The flag's value; `def` when it is absent or given bare.
  std::string Get(const std::string& name, const std::string& def = "") const {
    const auto it = values_.find(name);
    return it == values_.end() || !it->second ? def : *it->second;
  }
  /// Check() has validated the value against the flag's kUint row.
  uint64_t GetUint(const std::string& name, uint64_t def) const {
    uint64_t value = def;
    if (Has(name)) ParseUint(Get(name), UINT64_MAX, &value);
    return value;
  }
  /// Check() has validated the value against the flag's number row.
  double GetDouble(const std::string& name, double def) const {
    double value = def;
    if (Has(name)) ParseDouble(Get(name), &value);
    return value;
  }

  /// The first argument the command's `tables` do not admit, as a
  /// message naming it; empty when every argument is admitted. A flag
  /// no table lists is named with `unlisted`.
  std::string Check(std::initializer_list<std::span<const FlagSpec>> tables,
                    const std::string& unlisted = "unknown flag") const {
    if (!strays_.empty()) {
      return "unexpected argument '" + strays_.front() +
             "' (flags are --name or --name=value)";
    }
    for (const auto& [name, value] : values_) {
      const FlagSpec* spec = nullptr;
      for (const auto table : tables) {
        for (const FlagSpec& row : table) {
          if (name == row.name) spec = &row;
        }
      }
      const std::string arg = "--" + name + (value ? "=" + *value : "");
      if (spec == nullptr) return arg + ": " + unlisted;
      if (spec->kind == FlagKind::kSwitch) {
        if (value) return arg + ": takes no value";
        continue;
      }
      if (!value) {
        if (spec->bare_ok) continue;
        return arg + ": expected " + arg + "=VALUE";
      }
      uint64_t n = 0;
      double x = 0.0;
      switch (spec->kind) {
        case FlagKind::kUint:
          if (!ParseUint(*value, spec->max, &n)) {
            return arg + ": expected an integer from 0 to " +
                   std::to_string(spec->max);
          }
          break;
        case FlagKind::kFraction:
          if (!ParseDouble(*value, &x) || !(x > 0.0) || x > 1.0) {
            return arg + ": expected a number in (0, 1]";
          }
          break;
        case FlagKind::kSeconds:
        case FlagKind::kPositive:
          if (!ParseDouble(*value, &x) || !(x > 0.0)) {
            return arg + ": expected a positive number" +
                   (spec->kind == FlagKind::kSeconds ? " of seconds" : "");
          }
          break;
        case FlagKind::kSwitch:
        case FlagKind::kText:
          break;
      }
    }
    return "";
  }

 private:
  std::map<std::string, std::optional<std::string>> values_;
  /// Arguments that are not --name[=value].
  std::vector<std::string> strays_;
};

}  // namespace cli
}  // namespace dmc

#endif  // DMC_TOOLS_CLI_FLAGS_H_
