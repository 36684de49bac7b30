#include "flags.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace anycast::tools {

std::optional<Flags> Flags::parse(int argc, char** argv, int first) {
  Flags flags;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      flags.positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags.values_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // "--name value" — also allow boolean "--name" at end / before another
    // flag.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags.values_[body] = argv[++i];
    } else {
      flags.values_[body] = "true";
    }
  }
  return flags;
}

Flags Flags::of(std::map<std::string, std::string> values) {
  Flags flags;
  flags.values_ = std::move(values);
  return flags;
}

std::optional<std::string> Flags::get(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  queried_[name] = it->second;
  return it->second;
}

std::string Flags::get_or(const std::string& name,
                          std::string fallback) const {
  if (const auto value = get(name)) return *value;
  queried_[name] = fallback;
  return fallback;
}

void Flags::refuse(const std::string& name, const std::string& value) const {
  if (bad_.empty()) bad_ = "--" + name + " " + value;
}

namespace {

/// Parses the whole of `text` into `out`; false on anything left over.
template <typename T>
bool parse_whole(const std::string& text, T& out) {
  const char* end = text.data() + text.size();
  const auto [at, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && at == end;
}

}  // namespace

std::int64_t Flags::get_int(const std::string& name, std::int64_t fallback,
                            std::int64_t min, std::int64_t max) const {
  std::int64_t parsed = fallback;
  const auto value = get(name);
  if (value && !(parse_whole(*value, parsed) && parsed >= min &&
                 parsed <= max)) {
    refuse(name, *value);
    parsed = fallback;
  }
  queried_[name] = std::to_string(parsed);
  return parsed;
}

double Flags::get_double(const std::string& name, double fallback) const {
  double parsed = fallback;
  const auto value = get(name);
  if (value && !(parse_whole(*value, parsed) && std::isfinite(parsed))) {
    refuse(name, *value);
    parsed = fallback;
  }
  char text[32];
  queried_[name].assign(text,
                        std::to_chars(text, text + sizeof text, parsed).ptr);
  return parsed;
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  bool parsed = fallback;
  if (const auto value = get(name)) {
    parsed = *value == "true" || *value == "1" || *value == "yes";
    if (!parsed && *value != "false" && *value != "0" && *value != "no") {
      refuse(name, *value);
      parsed = fallback;
    }
  }
  queried_[name] = parsed ? "true" : "false";
  return parsed;
}

void Flags::adopt_queries(const Flags& copy) const {
  queried_.insert(copy.queried_.begin(), copy.queried_.end());
  if (bad_.empty()) bad_ = copy.bad_;
}

void print_flag_help(std::FILE* out, std::span<const FlagHelp> flags) {
  std::size_t widest = 0;
  for (const FlagHelp& flag : flags) {
    widest = std::max(widest, flag.name.size() + 2 +
                                  (flag.value.empty()
                                       ? 0
                                       : flag.value.size() + 1));
  }
  for (const FlagHelp& flag : flags) {
    std::string left = "--" + std::string(flag.name);
    if (!flag.value.empty()) {
      left += ' ';
      left += flag.value;
    }
    std::fprintf(out, "    %-*s  %.*s\n", static_cast<int>(widest),
                 left.c_str(), static_cast<int>(flag.help.size()),
                 flag.help.data());
  }
}

std::vector<std::string> Flags::unknown() const {
  std::vector<std::string> out;
  for (const auto& [name, value] : values_) {
    if (!queried_.contains(name)) out.push_back(name);
  }
  return out;
}

}  // namespace anycast::tools
