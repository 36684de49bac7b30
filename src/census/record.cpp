#include "anycast/census/record.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>

#include "anycast/obs/journal.hpp"
#include "anycast/obs/metrics.hpp"

namespace anycast::census {
namespace {

constexpr std::uint32_t kMagic = 0x414E4331;  // "ANC1"

/// Record-codec instruments. kTiming: how many damaged records a run
/// sees depends on which checkpoints exist and what corrupted them, not
/// on the pipeline's semantics.
struct RecordInstruments {
  obs::Counter dropped_oversized = obs::metrics().counter(
      "record_dropped_oversized", obs::MetricClass::kTiming,
      "records dropped at encode: target index beyond the 24-bit format");
};

const RecordInstruments& record_instruments() {
  static const RecordInstruments instruments;
  return instruments;
}

std::int16_t encode_ticks(double rtt_ms) {
  const double ticks = std::round(rtt_ms * 50.0);
  if (ticks >= 32767.0) return 32767;
  if (ticks < 1.0) return 1;  // sub-20us RTT still counts as a reply
  return static_cast<std::int16_t>(ticks);
}

std::int16_t encode_delay(const Observation& obs) {
  switch (obs.kind) {
    case net::ReplyKind::kEchoReply:
      // 1/50 ms units: 0.02 ms quantisation with range up to ~655 ms,
      // comfortably above the analysis's max useful RTT (600 ms disks
      // already cover most of the planet).
      return encode_ticks(obs.rtt_ms);
    case net::ReplyKind::kTimeout:
      return -1;
    case net::ReplyKind::kNetProhibited:
      return -9;
    case net::ReplyKind::kHostProhibited:
      return -10;
    case net::ReplyKind::kAdminProhibited:
      return -13;
  }
  return -1;
}

void decode_delay(std::int16_t delay, Observation& obs) {
  if (delay > 0) {
    obs.kind = net::ReplyKind::kEchoReply;
    obs.rtt_ms = delay / 50.0;
    return;
  }
  obs.rtt_ms = 0.0;
  switch (delay) {
    case -9: obs.kind = net::ReplyKind::kNetProhibited; break;
    case -10: obs.kind = net::ReplyKind::kHostProhibited; break;
    case -13: obs.kind = net::ReplyKind::kAdminProhibited; break;
    default: obs.kind = net::ReplyKind::kTimeout; break;
  }
}

int reply_code(net::ReplyKind kind) {
  switch (kind) {
    case net::ReplyKind::kEchoReply: return 0;
    case net::ReplyKind::kTimeout: return -1;
    case net::ReplyKind::kNetProhibited: return 9;
    case net::ReplyKind::kHostProhibited: return 10;
    case net::ReplyKind::kAdminProhibited: return 13;
  }
  return -1;
}

net::ReplyKind kind_from_code(int code) {
  switch (code) {
    case 0: return net::ReplyKind::kEchoReply;
    case 9: return net::ReplyKind::kNetProhibited;
    case 10: return net::ReplyKind::kHostProhibited;
    case 13: return net::ReplyKind::kAdminProhibited;
    default: return net::ReplyKind::kTimeout;
  }
}

}  // namespace

std::string encode_textual(std::span<const Observation> observations) {
  std::string out;
  out.reserve(observations.size() * 40);
  char buffer[96];
  for (const Observation& obs : observations) {
    // Census 0's wasteful layout: full-precision floats plus a redundant
    // human-readable reply column (Tab. 1's 270 MB/host).
    const char* kind_name = "echo-reply";
    switch (obs.kind) {
      case net::ReplyKind::kTimeout: kind_name = "timeout"; break;
      case net::ReplyKind::kNetProhibited: kind_name = "net-prohibited"; break;
      case net::ReplyKind::kHostProhibited:
        kind_name = "host-prohibited";
        break;
      case net::ReplyKind::kAdminProhibited:
        kind_name = "admin-prohibited";
        break;
      default: break;
    }
    const int written = std::snprintf(
        buffer, sizeof buffer, "%.9f,%u,%.9f,%d,%s\n", obs.time_s,
        obs.target_index, obs.rtt_ms, reply_code(obs.kind), kind_name);
    out.append(buffer, static_cast<std::size_t>(written));
  }
  return out;
}

std::vector<Observation> decode_textual(const std::string& text) {
  std::vector<Observation> out;
  const char* cursor = text.data();
  const char* const end = text.data() + text.size();
  while (cursor < end) {
    Observation obs;
    char* next = nullptr;
    obs.time_s = std::strtod(cursor, &next);
    if (next == cursor || next >= end || *next != ',') break;
    cursor = next + 1;
    unsigned long target = std::strtoul(cursor, &next, 10);
    if (next == cursor || next >= end || *next != ',') break;
    obs.target_index = static_cast<std::uint32_t>(target);
    cursor = next + 1;
    obs.rtt_ms = std::strtod(cursor, &next);
    if (next == cursor || next >= end || *next != ',') break;
    cursor = next + 1;
    const long code = std::strtol(cursor, &next, 10);
    obs.kind = kind_from_code(static_cast<int>(code));
    out.push_back(obs);
    cursor = next;
    // Skip the redundant trailing columns up to end of line.
    while (cursor < end && *cursor != '\n') ++cursor;
    while (cursor < end && (*cursor == '\n' || *cursor == '\r')) ++cursor;
  }
  return out;
}

std::vector<std::uint8_t> encode_binary(
    std::span<const Observation> observations,
    std::size_t* dropped_oversized) {
  std::vector<std::uint8_t> out;
  append_binary(out, observations, dropped_oversized);
  return out;
}

void append_binary(std::vector<std::uint8_t>& out,
                   std::span<const Observation> observations,
                   std::size_t* dropped_oversized) {
  // A target index needing more than the format's 24 bits cannot come
  // from a real hitlist (~14.7M routed /24s < 2^24): drop the corrupted
  // record and account for it, rather than wrapping the index into some
  // unrelated target's row.
  std::size_t dropped = 0;
  for (const Observation& obs : observations) {
    if (obs.target_index > 0xFFFFFF) ++dropped;
  }
  if (dropped_oversized != nullptr) *dropped_oversized = dropped;
  const std::size_t kept = observations.size() - dropped;
  // Register the instrument on every encode; count and journal only on
  // actual drops, so a corrupted record is visible in the flight
  // recorder, not just in an out-param most callers ignore.
  const RecordInstruments& in = record_instruments();
  if (dropped != 0) {
    in.dropped_oversized.add(dropped);
    obs::journal().emit(obs::MetricClass::kTiming, obs::Severity::kWarn,
                        "record.dropped_oversized", 0,
                        {{"dropped", dropped}, {"kept", kept}});
  }

  out.reserve(out.size() + 8 + kept * binary_bytes_per_observation());
  const auto put32 = [&out](std::uint32_t value) {
    out.push_back(static_cast<std::uint8_t>(value));
    out.push_back(static_cast<std::uint8_t>(value >> 8));
    out.push_back(static_cast<std::uint8_t>(value >> 16));
    out.push_back(static_cast<std::uint8_t>(value >> 24));
  };
  put32(kMagic);
  put32(static_cast<std::uint32_t>(kept));
  for (const Observation& obs : observations) {
    if (obs.target_index > 0xFFFFFF) continue;
    const auto delay = static_cast<std::uint16_t>(encode_delay(obs));
    out.push_back(static_cast<std::uint8_t>(delay));
    out.push_back(static_cast<std::uint8_t>(delay >> 8));
    // 24-bit target index, 8-bit coarse time offset (in 64 s units,
    // saturating): enough to reconstruct probing order at census scale.
    const auto offset64 = static_cast<std::uint32_t>(
        std::min(255.0, std::max(0.0, obs.time_s / 64.0)));
    put32(obs.target_index | (offset64 << 24));
  }
}

namespace {

std::uint32_t load32_at(std::span<const std::uint8_t> bytes,
                        std::size_t at) {
  return static_cast<std::uint32_t>(bytes[at]) |
         (static_cast<std::uint32_t>(bytes[at + 1]) << 8) |
         (static_cast<std::uint32_t>(bytes[at + 2]) << 16) |
         (static_cast<std::uint32_t>(bytes[at + 3]) << 24);
}

std::vector<Observation> decode_records(std::span<const std::uint8_t> bytes,
                                        std::size_t count) {
  std::vector<Observation> out;
  out.reserve(count);
  std::size_t at = 8;
  for (std::size_t i = 0; i < count; ++i, at += 6) {
    Observation obs;
    const auto delay = static_cast<std::int16_t>(
        static_cast<std::uint16_t>(bytes[at]) |
        (static_cast<std::uint16_t>(bytes[at + 1]) << 8));
    decode_delay(delay, obs);
    const std::uint32_t packed = load32_at(bytes, at + 2);
    obs.target_index = packed & 0xFFFFFF;
    obs.time_s = (packed >> 24) * 64.0;
    out.push_back(obs);
  }
  return out;
}

}  // namespace

std::optional<std::vector<Observation>> decode_binary(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 8 || load32_at(bytes, 0) != kMagic) return std::nullopt;
  const std::uint32_t count = load32_at(bytes, 4);
  if (bytes.size() != 8 + static_cast<std::size_t>(count) *
                              binary_bytes_per_observation()) {
    return std::nullopt;
  }
  return decode_records(bytes, count);
}

std::optional<std::vector<Observation>> decode_binary_prefix(
    std::span<const std::uint8_t> bytes, std::size_t* declared_count) {
  if (bytes.size() < 8 || load32_at(bytes, 0) != kMagic) return std::nullopt;
  const std::uint32_t declared = load32_at(bytes, 4);
  if (declared_count != nullptr) *declared_count = declared;
  const std::size_t available =
      (bytes.size() - 8) / binary_bytes_per_observation();
  return decode_records(bytes,
                        std::min<std::size_t>(declared, available));
}

std::size_t textual_bytes(std::span<const Observation> observations) {
  return encode_textual(observations).size();
}

std::uint32_t quantised_rtt_us(double rtt_ms) {
  return static_cast<std::uint32_t>(encode_ticks(rtt_ms)) * 20;
}

}  // namespace anycast::census
