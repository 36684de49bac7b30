// Census record formats: textual CSV vs stripped-down binary.
//
// Tab. 1: the first census was logged as CSV (270 MB/node, 79 GB total,
// >3 days to analyse, partly due to disk fragmentation); later censuses use
// a binary format carrying only a timestamp offset, the delay, and an ICMP
// flag whose *sign* encodes the greylist return codes (9, 10, 13) — about
// 20 MB/node, 6 GB/census, 3 h analysis. Both formats are implemented so
// the bench can regenerate the table's size ratios from identical data.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "anycast/net/types.hpp"

namespace anycast::census {

/// One probe outcome as the prober emits it.
struct Observation {
  std::uint32_t target_index = 0;  // dense hitlist index
  double time_s = 0.0;             // seconds since census start
  net::ReplyKind kind = net::ReplyKind::kTimeout;
  double rtt_ms = 0.0;             // valid when kind == kEchoReply
};

/// CSV: "time_s,target_index,rtt_ms,code\n" with full floating precision —
/// the wasteful format of Census 0.
std::string encode_textual(std::span<const Observation> observations);
std::vector<Observation> decode_textual(const std::string& text);

/// Binary: 8-byte header (magic + count) then 6 bytes per observation:
///   int16  delay field — RTT in 1/100 ms when positive; when negative,
///          the ICMP code with flipped sign (-9/-10/-13), or -1 = timeout;
///   uint32 target index : 24 bits | time offset in ~seconds : 8 bits.
/// RTTs above int16 range saturate (anything that far is a useless disk).
///
/// The 24-bit target field caps the format at 2^24 (~16.8M) targets — the
/// whole routed IPv4 space holds ~14.7M /24s, so a valid hitlist index
/// always fits. An index >= 2^24 can therefore only be a corrupted
/// observation: it is DROPPED from the output (never silently wrapped
/// into some other target's row) and counted into `*dropped_oversized`
/// when that is non-null. The header count reflects the records actually
/// written.
std::vector<std::uint8_t> encode_binary(
    std::span<const Observation> observations,
    std::size_t* dropped_oversized = nullptr);

/// `encode_binary`, appended to `out` in place (the census file writer
/// encodes its payload straight into the file buffer).
void append_binary(std::vector<std::uint8_t>& out,
                   std::span<const Observation> observations,
                   std::size_t* dropped_oversized = nullptr);

/// Decodes a binary buffer. Returns nullopt on a malformed buffer
/// (bad magic, truncated payload).
std::optional<std::vector<Observation>> decode_binary(
    std::span<const std::uint8_t> bytes);

/// Salvage decoder: recovers as many complete records as the buffer
/// actually holds, capped by the declared count — the valid prefix of a
/// truncated upload instead of nothing. Returns nullopt only when even
/// the 8-byte payload header is missing or carries the wrong magic. When
/// non-null, `declared_count` receives the header's record count so
/// callers can tell how much was lost.
std::optional<std::vector<Observation>> decode_binary_prefix(
    std::span<const std::uint8_t> bytes,
    std::size_t* declared_count = nullptr);

/// Bytes per observation in each format (for the Tab. 1 size accounting).
std::size_t textual_bytes(std::span<const Observation> observations);
constexpr std::size_t binary_bytes_per_observation() { return 6; }

/// The RTT an echo observation carries after a round trip through the
/// binary codec, in whole microseconds (20 us ticks, clamped to
/// [1, 32767] ticks; the decoded `rtt_ms` is this / 1000). Metrics
/// recorded through this on a live stream match a checkpoint replay
/// exactly, so RTT histograms stay byte-identical across crash+resume.
std::uint32_t quantised_rtt_us(double rtt_ms);

}  // namespace anycast::census
