// Minimal command-line flag parsing for the anycastd tool.
//
// Supports "--name value", "--name=value", and bare positional arguments.
// No external dependencies; unknown flags and values that do not parse
// whole are reported as errors so typos fail loudly.
#pragma once

#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace anycast::tools {

/// One documented flag, for `print_flag_help` usage tables.
struct FlagHelp {
  std::string_view name;   // without the leading "--"
  std::string_view value;  // value hint, e.g. "N", "DIR"; empty = boolean
  std::string_view help;   // one-line description (may mention default)
};

/// Renders an aligned "--name VALUE  help" table to `out`.
void print_flag_help(std::FILE* out, std::span<const FlagHelp> flags);

class Flags {
 public:
  /// Parses argv[first..argc). Returns nullopt and prints a diagnostic on
  /// malformed input (e.g. trailing "--flag" without a value).
  static std::optional<Flags> parse(int argc, char** argv, int first = 1);

  /// Flags holding exactly `values` (name -> value string), as a census
  /// manifest records them.
  static Flags of(std::map<std::string, std::string> values);

  /// A copy of the values with nothing queried yet, so `effective()` on it
  /// reports exactly what one reader asked for.
  [[nodiscard]] Flags fresh() const { return of(values_); }

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  [[nodiscard]] std::optional<std::string> get(const std::string& name) const;
  [[nodiscard]] std::string get_or(const std::string& name,
                                   std::string fallback) const;
  /// Integer flag. The whole value must parse as a base-10 integer inside
  /// [min, max]; anything else is kept as `bad()` and reads as `fallback`.
  [[nodiscard]] std::int64_t get_int(
      const std::string& name, std::int64_t fallback,
      std::int64_t min = std::numeric_limits<std::int64_t>::min(),
      std::int64_t max = std::numeric_limits<std::int64_t>::max()) const;
  /// Floating flag: the whole value must parse as a finite number.
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  /// Boolean flag: present without a value (or "true"/"1"/"yes") -> true;
  /// "false"/"0"/"no" -> false; absent -> fallback. Other values are bad.
  [[nodiscard]] bool get_bool(const std::string& name,
                              bool fallback = false) const;
  [[nodiscard]] bool has(const std::string& name) const {
    return values_.contains(name);
  }

  /// Names that were provided but never queried — call after reading all
  /// known flags to reject typos.
  [[nodiscard]] std::vector<std::string> unknown() const;

  /// The first value a getter refused, as "--name value"; empty while
  /// every value parsed.
  [[nodiscard]] const std::string& bad() const { return bad_; }

  /// The queried flags with their effective values: the typed getters
  /// store the value they returned (the fallback included), formatted so
  /// the same getter parses it back; `get` stores a given string as is.
  [[nodiscard]] const std::map<std::string, std::string>& effective() const {
    return queried_;
  }

  /// Takes over the queries and the first bad value of `copy`, a
  /// `fresh()` copy of these flags.
  void adopt_queries(const Flags& copy) const;

 private:
  void refuse(const std::string& name, const std::string& value) const;

  std::map<std::string, std::string> values_;
  mutable std::map<std::string, std::string> queried_;
  mutable std::string bad_;
  std::vector<std::string> positional_;
};

}  // namespace anycast::tools
