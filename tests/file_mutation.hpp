// Seeded file mutants for the FileFormatMutation tests: every reader of a
// file the program writes must refuse a damaged copy or read it back
// intact, never crash or return something else.
#pragma once

#include <algorithm>
#include <cstddef>
#include <random>
#include <string>

namespace anycast {

/// One seeded mutant of `bytes`: a bit flip, a truncation, or a splice
/// that copies a random slice of the original over a random place.
inline std::string mutate(const std::string& bytes, std::mt19937& rng,
                          int& kind) {
  const auto pick = [&](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n)(rng);
  };
  std::string out = bytes;
  kind = static_cast<int>(pick(2));
  if (kind == 0) {
    out[pick(out.size() - 1)] ^= static_cast<char>(1u << pick(7));
  } else if (kind == 1) {
    out.resize(pick(out.size() - 1));
  } else {
    const std::size_t from = pick(bytes.size() - 1);
    const std::size_t length = pick(std::min<std::size_t>(
        24, bytes.size() - from));
    const std::size_t to = pick(out.size() - 1);
    out.erase(out.begin() + static_cast<std::ptrdiff_t>(to),
              out.begin() + static_cast<std::ptrdiff_t>(
                                std::min(out.size(), to + length)));
    out.insert(out.begin() + static_cast<std::ptrdiff_t>(to),
               bytes.begin() + static_cast<std::ptrdiff_t>(from),
               bytes.begin() + static_cast<std::ptrdiff_t>(from + length));
  }
  return out;
}

}  // namespace anycast
