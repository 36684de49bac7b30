#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <string_view>
#include <thread>

#include "anycast/analysis/analyzer.hpp"
#include "anycast/census/census.hpp"
#include "anycast/census/sharded.hpp"
#include "anycast/census/storage.hpp"
#include "anycast/concurrency/thread_pool.hpp"
#include "anycast/serving/snapshot.hpp"
#include "anycast/geo/city_index.hpp"
#include "anycast/net/platform.hpp"
#include "anycast/obs/journal.hpp"
#include "anycast/obs/metrics.hpp"
#include "file_mutation.hpp"

namespace anycast::census {
namespace {

namespace fs = std::filesystem;

class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("anycast_storage_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

std::vector<Observation> sample_stream() {
  std::vector<Observation> out;
  for (std::uint32_t i = 0; i < 500; ++i) {
    Observation obs;
    obs.target_index = (i * 37) % 400;  // LFSR-ish scrambled order
    obs.time_s = i * 0.5;
    if (i % 11 == 0) {
      obs.kind = net::ReplyKind::kTimeout;
    } else if (i % 47 == 0) {
      obs.kind = net::ReplyKind::kAdminProhibited;
    } else {
      obs.kind = net::ReplyKind::kEchoReply;
      obs.rtt_ms = 5.0 + (i % 90) * 1.5;
    }
    out.push_back(obs);
  }
  return out;
}

TEST_F(StorageTest, WriteReadRoundTrip) {
  const auto stream = sample_stream();
  const fs::path path = dir_ / "vp7_census2.anc";
  write_census_file(path, {7, 2}, stream);
  const auto loaded = read_census_file(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->header.vp_id, 7u);
  EXPECT_EQ(loaded->header.census_id, 2u);
  ASSERT_EQ(loaded->observations.size(), stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(loaded->observations[i].target_index, stream[i].target_index);
    EXPECT_EQ(loaded->observations[i].kind, stream[i].kind);
  }
}

TEST_F(StorageTest, MissingFileYieldsNullopt) {
  EXPECT_FALSE(read_census_file(dir_ / "nope.anc").has_value());
}

TEST_F(StorageTest, TruncatedFileRejected) {
  const auto stream = sample_stream();
  const fs::path path = dir_ / "full.anc";
  write_census_file(path, {1, 1}, stream);
  // Chop the tail off.
  const auto size = fs::file_size(path);
  fs::resize_file(path, size - 5);
  EXPECT_FALSE(read_census_file(path).has_value());
}

TEST_F(StorageTest, CorruptedMagicRejected) {
  const fs::path path = dir_ / "bad.anc";
  std::ofstream out(path, std::ios::binary);
  out << "this is not a census file at all";
  out.close();
  EXPECT_FALSE(read_census_file(path).has_value());
}

TEST_F(StorageTest, CollationMatchesDirectCensus) {
  // Run a small census, persist each VP's stream, collate back from disk,
  // and check the analyzer sees identical data.
  net::WorldConfig world_config;
  world_config.seed = 81;
  world_config.unicast_alive_slash24 = 300;
  world_config.unicast_dead_slash24 = 100;
  const net::SimulatedInternet internet(world_config);
  const auto vps = net::make_planetlab({.node_count = 12, .seed = 82});
  const Hitlist hitlist = Hitlist::from_world(internet).without_dead();

  Greylist blacklist;
  Greylist greylist;
  CensusMatrixBuilder direct_builder(hitlist.size());
  std::vector<fs::path> paths;
  for (const net::VantagePoint& vp : vps) {
    FastPingConfig config;
    config.seed = 83;
    const FastPingResult run =
        run_fastping(internet, vp, hitlist, blacklist, greylist, config);
    const fs::path path =
        dir_ / ("vp" + std::to_string(vp.id) + ".anc");
    write_census_file(path, {vp.id, 1}, run.observations);
    paths.push_back(path);
    for (const Observation& obs : run.observations) {
      if (obs.kind == net::ReplyKind::kEchoReply) {
        direct_builder.add(obs.target_index,
                           static_cast<std::uint16_t>(vp.id),
                           static_cast<float>(obs.rtt_ms));
      }
    }
  }
  const CensusMatrix direct = direct_builder.build();

  CollateStats stats;
  const ShardedCensusMatrix collated = collate_census_files_sharded(
      paths, hitlist.size(), {}, &stats, /*salvage=*/false);
  EXPECT_EQ(stats.files_skipped, 0u);
  ASSERT_EQ(collated.target_count(), direct.target_count());
  for (std::uint32_t t = 0; t < direct.target_count(); ++t) {
    const auto a = direct.measurements(t);
    const auto b = collated.measurements(t);
    ASSERT_EQ(a.size(), b.size()) << "target " << t;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].vp, b[i].vp);
      // Binary storage quantises to 1/50 ms.
      EXPECT_NEAR(a[i].rtt_ms, b[i].rtt_ms, 0.011F);
    }
  }
}

TEST_F(StorageTest, CollationSkipsDamagedUploads) {
  const auto stream = sample_stream();
  const fs::path good = dir_ / "good.anc";
  const fs::path bad = dir_ / "bad.anc";
  write_census_file(good, {3, 1}, stream);
  write_census_file(bad, {4, 1}, stream);
  fs::resize_file(bad, fs::file_size(bad) / 2);

  const std::vector<fs::path> paths{good, bad, dir_ / "missing.anc"};
  CollateStats stats;
  const ShardedCensusMatrix data = collate_census_files_sharded(
      paths, 400, {}, &stats, /*salvage=*/false);
  EXPECT_EQ(stats.files_skipped, 2u);
  std::size_t total = 0;
  for (std::uint32_t t = 0; t < data.target_count(); ++t) {
    total += data.measurements(t).size();
  }
  EXPECT_GT(total, 0u);
}

TEST_F(StorageTest, Crc32KnownVector) {
  // The canonical IEEE 802.3 check value.
  const std::string check = "123456789";
  const std::uint32_t got = crc32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(check.data()), check.size()));
  EXPECT_EQ(got, 0xCBF43926u);
}

/// The bytewise table-driven CRC-32 the slicing-by-8 kernel replaced.
std::uint32_t bytewise_crc32(std::span<const std::uint8_t> bytes) {
  std::uint32_t table[256];
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[n] = c;
  }
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::uint8_t byte : bytes) {
    c = table[(c ^ byte) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

TEST_F(StorageTest, Crc32MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  std::vector<std::uint8_t> buffer(8 + 67);
  std::uint32_t x = 0x9E3779B9u;
  for (std::uint8_t& byte : buffer) {
    x = x * 1664525u + 1013904223u;
    byte = static_cast<std::uint8_t>(x >> 24);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 67; ++length) {
      const std::span<const std::uint8_t> bytes(buffer.data() + offset,
                                                length);
      ASSERT_EQ(crc32(bytes), bytewise_crc32(bytes))
          << "offset " << offset << " length " << length;
    }
  }
  // A whole checkpoint's worth of bytes, too.
  const std::vector<std::uint8_t> payload = encode_binary(sample_stream());
  EXPECT_EQ(crc32(payload), bytewise_crc32(payload));
}

TEST_F(StorageTest, AtomicWriteLeavesNoTmpFile) {
  const fs::path path = dir_ / "atomic.anc";
  write_census_file(path, {1, 1, kCensusFileComplete}, sample_stream());
  EXPECT_TRUE(fs::exists(path));
  EXPECT_FALSE(fs::exists(dir_ / "atomic.anc.tmp"));
}

TEST_F(StorageTest, FailedCloseThrowsAndLeavesNoFile) {
  // The tmp name points at a device that takes writes into its buffer
  // but fails them on flush, so only the close sees the error.
  const fs::path path = dir_ / "c1_vp1.anc";
  fs::path tmp = path;
  tmp += ".tmp";
  std::error_code ec;
  fs::create_symlink("/dev/full", tmp, ec);
  if (ec) GTEST_SKIP() << "cannot link /dev/full: " << ec.message();
  EXPECT_THROW(write_census_file(path, {1, 1, kCensusFileComplete},
                                 sample_stream()),
               std::runtime_error);
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(fs::is_symlink(tmp));
}

TEST_F(StorageTest, EncodedPayloadDecodesToTheWrittenStream) {
  const auto stream = sample_stream();
  const EncodedCensusFile file =
      encode_census_file({3, 2, kCensusFileComplete}, stream);
  EXPECT_EQ(std::vector<std::uint8_t>(file.payload().begin(),
                                      file.payload().end()),
            encode_binary(stream));
  const fs::path path = dir_ / "c2_vp3.anc";
  write_census_file(path, file);
  const auto back = read_census_file(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->header.vp_id, 3u);
  EXPECT_EQ(back->header.census_id, 2u);
  EXPECT_TRUE(back->header.complete());
  const auto decoded = decode_binary(file.payload());
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), back->observations.size());
  for (std::size_t i = 0; i < decoded->size(); ++i) {
    EXPECT_EQ((*decoded)[i].target_index, back->observations[i].target_index);
    EXPECT_EQ((*decoded)[i].kind, back->observations[i].kind);
    EXPECT_EQ((*decoded)[i].rtt_ms, back->observations[i].rtt_ms);
    EXPECT_EQ((*decoded)[i].time_s, back->observations[i].time_s);
  }
}

TEST_F(StorageTest, CompleteFlagRoundTrips) {
  const fs::path done = dir_ / "done.anc";
  const fs::path partial = dir_ / "partial.anc";
  write_census_file(done, {1, 1, kCensusFileComplete}, sample_stream());
  write_census_file(partial, {2, 1, 0}, sample_stream());
  ASSERT_TRUE(read_census_file(done).has_value());
  EXPECT_TRUE(read_census_file(done)->header.complete());
  ASSERT_TRUE(read_census_file(partial).has_value());
  EXPECT_FALSE(read_census_file(partial)->header.complete());
}

/// Flips one bit in the middle of `path`'s payload.
void flip_payload_bit(const fs::path& path) {
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  file.seekg(64);
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  file.seekp(64);
  file.write(&byte, 1);
}

TEST_F(StorageTest, BitFlipRejectedStrictlyButSalvaged) {
  const auto stream = sample_stream();
  const fs::path path = dir_ / "flipped.anc";
  write_census_file(path, {5, 1, kCensusFileComplete}, stream);

  flip_payload_bit(path);

  EXPECT_FALSE(read_census_file(path).has_value());
  const auto rescued = salvage_census_file(path);
  ASSERT_TRUE(rescued.has_value());
  EXPECT_TRUE(rescued->salvaged);
  // A salvaged file can never claim to be a complete walk.
  EXPECT_FALSE(rescued->header.complete());
  EXPECT_EQ(rescued->header.vp_id, 5u);
  EXPECT_EQ(rescued->observations.size(), stream.size());
}

TEST_F(StorageTest, TruncatedFileSalvagesValidPrefix) {
  const auto stream = sample_stream();
  const fs::path path = dir_ / "chopped.anc";
  write_census_file(path, {9, 3, kCensusFileComplete}, stream);

  // Keep the 16-byte file header, the 8-byte payload header, and exactly
  // 100 complete records plus half of the 101st.
  fs::resize_file(path, 16 + 8 + 100 * binary_bytes_per_observation() + 3);

  EXPECT_FALSE(read_census_file(path).has_value());
  const auto rescued = salvage_census_file(path);
  ASSERT_TRUE(rescued.has_value());
  EXPECT_TRUE(rescued->salvaged);
  EXPECT_EQ(rescued->header.vp_id, 9u);
  EXPECT_EQ(rescued->header.census_id, 3u);
  ASSERT_EQ(rescued->observations.size(), 100u);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(rescued->observations[i].target_index,
              stream[i].target_index);
    EXPECT_EQ(rescued->observations[i].kind, stream[i].kind);
  }
}

TEST_F(StorageTest, SalvageOfIntactFileIsNotMarkedSalvaged) {
  const fs::path path = dir_ / "intact.anc";
  write_census_file(path, {2, 2, kCensusFileComplete}, sample_stream());
  const auto loaded = salvage_census_file(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_FALSE(loaded->salvaged);
  EXPECT_TRUE(loaded->header.complete());
}

TEST_F(StorageTest, LegacyV1FormatRefused) {
  // Hand-build a v1 file: "ANCF" magic, vp, census — no flags word, no
  // CRC trailer — followed by the shared binary payload. Nothing writes
  // v1, and with no checksum it cannot be told from a damaged file: it is
  // refused, not read as a complete walk.
  const auto stream = sample_stream();
  std::vector<std::uint8_t> bytes;
  const auto append32 = [&bytes](std::uint32_t value) {
    for (int shift = 0; shift < 32; shift += 8) {
      bytes.push_back(static_cast<std::uint8_t>(value >> shift));
    }
  };
  append32(0x46434E41u);  // "ANCF"
  append32(11u);          // vp_id
  append32(4u);           // census_id
  const auto payload = encode_binary(stream);
  bytes.insert(bytes.end(), payload.begin(), payload.end());

  const fs::path path = dir_ / "legacy.anc";
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.close();

  EXPECT_FALSE(read_census_file(path).has_value());
  EXPECT_FALSE(salvage_census_file(path).has_value());
  EXPECT_FALSE(read_census_file_header(path).has_value());
}

TEST_F(StorageTest, HeaderReadsWithoutThePayload) {
  const fs::path path = dir_ / "header.anc";
  write_census_file(path, {7, 3, kCensusFileComplete}, sample_stream());
  fs::resize_file(path, 16);  // the header survives a lost payload
  const auto header = read_census_file_header(path);
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ(header->vp_id, 7u);
  EXPECT_EQ(header->census_id, 3u);
  fs::resize_file(path, 15);
  EXPECT_FALSE(read_census_file_header(path).has_value());
  EXPECT_FALSE(read_census_file_header(dir_ / "missing.anc").has_value());
}

CensusManifest sample_manifest() {
  return {{"census-id", "1"}, {"hitlist-size", "2292"}, {"rate", "1000"},
          {"seed", "2015"}, {"vps", "12"}};
}

TEST(CensusManifest, RoundTripsAndEndsInItsCrc) {
  const std::string text = encode_census_manifest(sample_manifest());
  EXPECT_TRUE(text.starts_with("anycast-census-manifest 1\ncensus-id=1\n"))
      << text;
  EXPECT_NE(text.find("\nvps=12\ncrc="), std::string::npos) << text;
  std::string error;
  const auto decoded = decode_census_manifest(text, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(*decoded, sample_manifest());
}

TEST(CensusManifest, StrictReaderRefusals) {
  const std::string good = encode_census_manifest(sample_manifest());
  // Re-signs a hand-edited body so only the edit is at fault.
  const auto signed_text = [](std::string body) {
    const std::uint32_t crc = crc32(std::span(
        reinterpret_cast<const std::uint8_t*>(body.data()), body.size()));
    char line[16];
    std::snprintf(line, sizeof line, "crc=%08x\n", crc);
    return body + line;
  };
  const std::string body = good.substr(0, good.rfind("crc="));
  std::string flipped = good;
  flipped[30] ^= 0x01;
  const struct {
    std::string text;
    std::string_view why;
  } cases[] = {
      {"", "not a census manifest"},
      {flipped, "crc mismatch"},
      {good.substr(0, good.size() - 1), "truncated manifest"},
      {body, "truncated manifest"},
      {good + "x=1\n", "crc mismatch"},
      {good + "crc=00000000\n", "crc mismatch"},
      {signed_text("anycast-census-manifest 2\n"), "unsupported manifest"},
      {signed_text(body + "vps=13\n"), "malformed or duplicate line"},
      {signed_text(body + "novalue\n"), "malformed or duplicate line"},
  };
  for (const auto& c : cases) {
    std::string error;
    EXPECT_FALSE(decode_census_manifest(c.text, &error).has_value()) << c.why;
    EXPECT_NE(error.find(c.why), std::string::npos)
        << "want '" << c.why << "', got '" << error << "'";
  }
}

TEST(FileFormatMutation, ManifestMutantsAreRefusedOrIntact) {
  const CensusManifest original = sample_manifest();
  const std::string valid = encode_census_manifest(original);
  std::mt19937 rng(2718);
  for (int i = 0; i < 3000; ++i) {
    int kind = 0;
    const std::string mutant = mutate(valid, rng, kind);
    std::string error;
    const auto decoded = decode_census_manifest(mutant, &error);
    if (decoded.has_value()) {
      EXPECT_EQ(*decoded, original) << "mutant " << i << " kind " << kind;
    } else {
      EXPECT_FALSE(error.empty()) << "mutant " << i << " kind " << kind;
    }
  }
}

TEST_F(StorageTest, CheckpointMutantsAreRefusedOrIntact) {
  const fs::path path = dir_ / "valid.anc";
  write_census_file(path, {5, 1, kCensusFileComplete}, sample_stream());
  const auto intact = read_census_file(path);
  ASSERT_TRUE(intact.has_value());
  const std::string valid = [&] {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }();
  const auto same = [](const Observation& a, const Observation& b) {
    return a.target_index == b.target_index && a.kind == b.kind &&
           a.time_s == b.time_s && a.rtt_ms == b.rtt_ms;
  };
  std::mt19937 rng(3141);
  const fs::path hurt = dir_ / "mutant.anc";
  for (int i = 0; i < 600; ++i) {
    SCOPED_TRACE("mutant " + std::to_string(i));
    int kind = 0;
    const std::string mutant = mutate(valid, rng, kind);
    std::ofstream(hurt, std::ios::binary | std::ios::trunc) << mutant;
    if (const auto strict = read_census_file(hurt)) {
      EXPECT_EQ(strict->header.vp_id, 5u);
      ASSERT_EQ(strict->observations.size(), intact->observations.size());
      for (std::size_t k = 0; k < strict->observations.size(); ++k) {
        EXPECT_TRUE(same(strict->observations[k], intact->observations[k]));
      }
    }
    (void)read_census_file_header(hurt);
    const auto rescued = salvage_census_file(hurt);
    if (kind != 1 || !rescued.has_value()) continue;
    // A truncation salvages a prefix of the walk, never a complete one.
    EXPECT_FALSE(rescued->header.complete());
    ASSERT_LE(rescued->observations.size(), intact->observations.size());
    for (std::size_t k = 0; k < rescued->observations.size(); ++k) {
      EXPECT_TRUE(same(rescued->observations[k], intact->observations[k]));
    }
  }
}

TEST_F(StorageTest, CollateStatsSeparateSalvagedFromSkipped) {
  const auto stream = sample_stream();
  const fs::path good = dir_ / "good.anc";
  const fs::path chopped = dir_ / "chopped.anc";
  const fs::path garbage = dir_ / "garbage.anc";
  write_census_file(good, {1, 1, kCensusFileComplete}, stream);
  write_census_file(chopped, {2, 1, kCensusFileComplete}, stream);
  fs::resize_file(chopped,
                  16 + 8 + 50 * binary_bytes_per_observation());
  std::ofstream(garbage, std::ios::binary) << "nothing useful here";

  const std::vector<fs::path> paths{good, chopped, garbage};
  CollateStats stats;
  (void)collate_census_files_sharded(paths, 400, {}, &stats);
  EXPECT_EQ(stats.files_ok, 1u);
  EXPECT_EQ(stats.files_salvaged, 1u);
  EXPECT_EQ(stats.files_skipped, 1u);
  EXPECT_GT(stats.observations, 0u);

  // Strict collation refuses the salvageable file too.
  CollateStats strict;
  (void)collate_census_files_sharded(paths, 400, {}, &strict,
                                     /*salvage=*/false);
  EXPECT_EQ(strict.files_skipped, 2u);
}

std::uint64_t counter_value(std::string_view name) {
  for (const auto& metric : obs::metrics().scrape()) {
    if (metric.name == name) return metric.value;
  }
  return 0;
}

TEST_F(StorageTest, StrictCollateCountsEachFailedRead) {
  const auto stream = sample_stream();
  const fs::path good = dir_ / "good.anc";
  const fs::path flipped = dir_ / "flipped.anc";
  write_census_file(good, {1, 1, kCensusFileComplete}, stream);
  write_census_file(flipped, {2, 1, kCensusFileComplete}, stream);
  flip_payload_bit(flipped);
  const std::vector<fs::path> paths{good, flipped};

  const std::uint64_t failures = counter_value("checkpoint_read_failures");
  const std::uint64_t ok = counter_value("checkpoint_reads_ok");
  CollateStats strict;
  (void)collate_census_files_sharded(paths, 400, {}, &strict,
                                     /*salvage=*/false);
  EXPECT_EQ(strict.files_skipped, 1u);
  EXPECT_EQ(counter_value("checkpoint_read_failures"), failures + 1);
  EXPECT_EQ(counter_value("checkpoint_reads_ok"), ok + 1);

  // Salvage follows the failed strict read; it still counts once.
  CollateStats salvaged;
  (void)collate_census_files_sharded(paths, 400, {}, &salvaged);
  EXPECT_EQ(salvaged.files_salvaged, 1u);
  EXPECT_EQ(counter_value("checkpoint_read_failures"), failures + 2);
  EXPECT_EQ(counter_value("checkpoint_reads_ok"), ok + 2);
}

TEST_F(StorageTest, CollationIsThreadCountInvariant) {
  // Thirteen VPs over 3000 targets (no lane count divides 13, so every
  // pooled run ends on a partial window), among them the three kinds of
  // file collation must set aside the same way at every lane count: a
  // salvageable (bit-flipped) file, an unreadable one, and one whose
  // vp_id does not fit a row.
  constexpr std::size_t kTargets = 3000;
  std::vector<fs::path> paths;
  for (std::uint32_t vp = 0; vp < 13; ++vp) {
    std::vector<Observation> stream;
    for (std::uint32_t i = 0; i < 4000; ++i) {
      Observation obs;
      obs.target_index = (i * 1237u + vp * 101u) % (kTargets + 40);
      obs.kind = (i + vp) % 9 == 0 ? net::ReplyKind::kTimeout
                                   : net::ReplyKind::kEchoReply;
      obs.rtt_ms = 3.0 + static_cast<double>((i * 7 + vp) % 180);
      stream.push_back(obs);
    }
    paths.push_back(dir_ / ("vp" + std::to_string(vp) + ".anc"));
    write_census_file(paths.back(), {vp, 1, kCensusFileComplete}, stream);
  }
  flip_payload_bit(paths[4]);
  std::ofstream(paths[7], std::ios::binary | std::ios::trunc) << "junk";
  write_census_file(paths[9], {70000, 1, kCensusFileComplete},
                    sample_stream());

  for (const bool salvage : {false, true}) {
    CollateStats serial_stats;
    const ShardedCensusMatrix serial = collate_census_files_sharded(
        paths, kTargets, {}, &serial_stats, salvage);
    EXPECT_EQ(serial_stats.files_skipped, salvage ? 2u : 3u);
    EXPECT_EQ(serial_stats.files_salvaged, salvage ? 1u : 0u);
    for (const std::size_t lanes : {1u, 2u, 3u, 4u}) {
      for (const std::size_t shard : {0u, 257u}) {
        SCOPED_TRACE("salvage " + std::to_string(salvage) + " lanes " +
                     std::to_string(lanes) + " shard " +
                     std::to_string(shard));
        concurrency::ThreadPool pool(lanes);
        CollateStats stats;
        DataPlaneConfig plane;
        plane.shard_targets = shard;
        const ShardedCensusMatrix pooled = collate_census_files_sharded(
            paths, kTargets, plane, &stats, salvage, &pool);
        EXPECT_EQ(stats.files_ok, serial_stats.files_ok);
        EXPECT_EQ(stats.files_salvaged, serial_stats.files_salvaged);
        EXPECT_EQ(stats.files_skipped, serial_stats.files_skipped);
        EXPECT_EQ(stats.observations, serial_stats.observations);
        ASSERT_EQ(pooled.target_count(), serial.target_count());
        for (std::uint32_t t = 0; t < kTargets; ++t) {
          const auto a = serial.measurements(t);
          const auto b = pooled.measurements(t);
          ASSERT_EQ(a.size(), b.size()) << "target " << t;
          for (std::size_t i = 0; i < a.size(); ++i) {
            ASSERT_EQ(a[i].vp, b[i].vp) << "target " << t;
            ASSERT_EQ(a[i].rtt_ms, b[i].rtt_ms) << "target " << t;
          }
        }
      }
    }
  }
}

TEST_F(StorageTest, OutOfRangeTargetsDropped) {
  std::vector<Observation> stream{
      {399, 0.0, net::ReplyKind::kEchoReply, 10.0},
      {100000, 0.0, net::ReplyKind::kEchoReply, 10.0},  // beyond hitlist
  };
  const fs::path path = dir_ / "range.anc";
  write_census_file(path, {1, 1}, stream);
  const std::vector<fs::path> paths{path};
  const ShardedCensusMatrix data =
      collate_census_files_sharded(paths, 400, {}, nullptr, /*salvage=*/false);
  EXPECT_EQ(data.measurements(399).size(), 1u);
  std::size_t total = 0;
  for (std::uint32_t t = 0; t < data.target_count(); ++t) {
    total += data.measurements(t).size();
  }
  EXPECT_EQ(total, 1u);
}

TEST_F(StorageTest, VpIdBeyondSixteenBitsSkippedNotAliased) {
  // Rows store the VP as 16 bits; header vp_id 70000 would truncate onto
  // VP 4464 (70000 - 65536). Collation must skip the file instead.
  const auto stream = sample_stream();
  const fs::path real = dir_ / "real.anc";
  const fs::path alias = dir_ / "alias.anc";
  write_census_file(real, {12, 1, kCensusFileComplete}, stream);
  write_census_file(alias, {70000, 1, kCensusFileComplete}, stream);
  const std::vector<fs::path> paths{real, alias};
  CollateStats stats;
  const ShardedCensusMatrix data =
      collate_census_files_sharded(paths, 400, {}, &stats);
  EXPECT_EQ(stats.files_ok, 1u);
  EXPECT_EQ(stats.files_skipped, 1u);
  std::size_t rows = 0;
  for (std::uint32_t t = 0; t < data.target_count(); ++t) {
    for (const VpRtt& sample : data.measurements(t)) {
      EXPECT_NE(sample.vp, 70000 % 65536) << "target " << t;
      EXPECT_EQ(sample.vp, 12u) << "target " << t;
      ++rows;
    }
  }
  EXPECT_GT(rows, 0u);
}

TEST_F(StorageTest, OversizedIndexDroppedCountedAndJournaled) {
  // An index >= 2^24 cannot come from a real hitlist (~14.7M routed /24s);
  // the codec must drop it — never wrap it into another target's row —
  // and make the corruption visible in the flight recorder.
  std::vector<Observation> stream = sample_stream();
  Observation corrupt;
  corrupt.target_index = 1u << 24;  // first index the 24-bit field loses
  corrupt.kind = net::ReplyKind::kEchoReply;
  corrupt.rtt_ms = 12.0;
  stream.insert(stream.begin() + 250, corrupt);

  const auto dropped_metric = [] {
    for (const auto& metric : obs::metrics().scrape()) {
      if (metric.name == "record_dropped_oversized") return metric.value;
    }
    return std::uint64_t{0};
  };
  const std::uint64_t before = dropped_metric();
  const fs::path journal_path = dir_ / "journal.jsonl";
  ASSERT_TRUE(obs::journal().open(journal_path));

  std::size_t dropped = 0;
  const std::vector<std::uint8_t> bytes = encode_binary(stream, &dropped);
  obs::journal().close();
  obs::journal().set_recording(false);

  EXPECT_EQ(dropped, 1u);
  EXPECT_EQ(dropped_metric(), before + 1);

  // Journaled as a kTiming warning, so the drop shows up in run reports.
  std::ifstream journal(journal_path);
  const std::string text((std::istreambuf_iterator<char>(journal)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("record.dropped_oversized"), std::string::npos);

  // Every other record survives, byte-exact after quantisation.
  const auto decoded = decode_binary(bytes);
  ASSERT_TRUE(decoded.has_value());
  const std::vector<Observation> clean = sample_stream();
  ASSERT_EQ(decoded->size(), clean.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    EXPECT_EQ((*decoded)[i].target_index, clean[i].target_index);
    EXPECT_EQ((*decoded)[i].kind, clean[i].kind);
    if (clean[i].kind == net::ReplyKind::kEchoReply) {
      EXPECT_DOUBLE_EQ((*decoded)[i].rtt_ms,
                       quantised_rtt_us(clean[i].rtt_ms) / 1000.0);
    }
  }

  // The boundary case 2^24 - 1 is a valid index and must be kept.
  Observation edge = corrupt;
  edge.target_index = (1u << 24) - 1;
  std::size_t edge_dropped = 99;
  const auto edge_bytes =
      encode_binary(std::vector<Observation>{edge}, &edge_dropped);
  EXPECT_EQ(edge_dropped, 0u);
  const auto edge_decoded = decode_binary(edge_bytes);
  ASSERT_TRUE(edge_decoded.has_value());
  ASSERT_EQ(edge_decoded->size(), 1u);
  EXPECT_EQ((*edge_decoded)[0].target_index, (1u << 24) - 1);
}

// --- ANCS spill-file fault corpus -------------------------------------------
//
// The serving plane keeps spilled shards mmap'd read-only and faults their
// pages back on demand, so the same truncation/bit-flip corpus the .anc
// census files get must hold for .ancs spill files: strict reads refuse any
// damage, salvage recovers exactly the whole-record prefix — including
// while reader threads are actively faulting the snapshot back in.

/// A deterministic matrix whose row sizes encode the target index, so a
/// reader can verify any row against pure arithmetic.
CensusMatrix spillable_matrix(std::size_t targets) {
  CensusMatrixBuilder builder(targets);
  for (std::uint32_t t = 0; t < targets; ++t) {
    const std::uint16_t row = static_cast<std::uint16_t>(t % 9 + 1);
    for (std::uint16_t vp = 0; vp < row; ++vp) {
      builder.add(t, vp, 1.0F + static_cast<float>(t % 50) * 0.25F +
                             static_cast<float>(vp));
    }
  }
  return builder.build();
}

TEST_F(StorageTest, SpillFileTruncationCorpusStrictVsSalvage) {
  CensusMatrix matrix = spillable_matrix(300);
  const std::size_t total = matrix.observation_count();
  const fs::path path = dir_ / "shard0.ancs";
  if (!matrix.spill_values(path.string())) GTEST_SKIP() << "no spill tier";

  const auto intact = read_spill_file(path.string());
  ASSERT_TRUE(intact.has_value());
  EXPECT_FALSE(intact->salvaged);
  ASSERT_EQ(intact->values.size(), total);

  // Truncation corpus: empty file, half a header, header only, header +
  // half a record, and whole-record prefixes of several lengths.
  const std::size_t header = detail::kSpillHeaderBytes;
  const std::size_t rec = sizeof(VpRtt);
  struct Cut {
    std::size_t bytes;
    // Whole records a salvage must recover; SIZE_MAX = nothing at all
    // (nullopt even in salvage mode).
    std::size_t recoverable;
  };
  const Cut corpus[] = {
      {0, SIZE_MAX},
      {header / 2, SIZE_MAX},
      {header, 0},
      {header + rec / 2, 0},
      {header + rec, 1},
      {header + 17 * rec + 3, 17},
      {header + (total - 1) * rec, total - 1},
  };
  for (const Cut& cut : corpus) {
    const fs::path hurt = dir_ / ("cut_" + std::to_string(cut.bytes) + ".ancs");
    fs::copy_file(path, hurt);
    fs::resize_file(hurt, cut.bytes);

    EXPECT_FALSE(read_spill_file(hurt.string()).has_value())
        << "strict read accepted a file cut to " << cut.bytes << " bytes";
    const auto rescued = read_spill_file(hurt.string(), /*salvage=*/true);
    if (cut.recoverable == SIZE_MAX) {
      EXPECT_FALSE(rescued.has_value()) << cut.bytes;
      continue;
    }
    ASSERT_TRUE(rescued.has_value()) << cut.bytes;
    EXPECT_TRUE(rescued->salvaged);
    ASSERT_EQ(rescued->values.size(), cut.recoverable) << cut.bytes;
    for (std::size_t i = 0; i < cut.recoverable; ++i) {
      EXPECT_EQ(rescued->values[i].vp, intact->values[i].vp);
      EXPECT_EQ(rescued->values[i].rtt_ms, intact->values[i].rtt_ms);
    }
  }
}

TEST_F(StorageTest, SpillFileBitFlipCorpusStrictVsSalvage) {
  CensusMatrix matrix = spillable_matrix(300);
  const std::size_t total = matrix.observation_count();
  const fs::path path = dir_ / "shard0.ancs";
  if (!matrix.spill_values(path.string())) GTEST_SKIP() << "no spill tier";
  const std::size_t header = detail::kSpillHeaderBytes;
  const std::size_t size = fs::file_size(path);

  // Payload flips: CRC catches them; the file keeps its length, so
  // salvage keeps the declared count (damaged values and all — the
  // caller opted into best-effort).
  for (const std::size_t offset :
       {header, header + size / 3, size - 1}) {
    const fs::path hurt = dir_ / ("flip_" + std::to_string(offset) + ".ancs");
    fs::copy_file(path, hurt);
    std::fstream file(hurt, std::ios::in | std::ios::out | std::ios::binary);
    file.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x10);
    file.seekp(static_cast<std::streamoff>(offset));
    file.write(&byte, 1);
    file.close();

    EXPECT_FALSE(read_spill_file(hurt.string()).has_value()) << offset;
    const auto rescued = read_spill_file(hurt.string(), /*salvage=*/true);
    ASSERT_TRUE(rescued.has_value()) << offset;
    EXPECT_TRUE(rescued->salvaged);
    EXPECT_EQ(rescued->values.size(), total);
  }

  // A flipped magic is not an ANCS file: even salvage refuses.
  const fs::path bad_magic = dir_ / "bad_magic.ancs";
  fs::copy_file(path, bad_magic);
  {
    std::fstream file(bad_magic,
                      std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(0);
    file.put('X');
  }
  EXPECT_FALSE(read_spill_file(bad_magic.string()).has_value());
  EXPECT_FALSE(read_spill_file(bad_magic.string(), true).has_value());

  // A flipped CRC field leaves the payload intact but unverifiable:
  // strict refuses, salvage recovers every record bit-exact.
  const fs::path bad_crc = dir_ / "bad_crc.ancs";
  fs::copy_file(path, bad_crc);
  {
    std::fstream file(bad_crc, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(5);
    char byte = 0;
    file.seekg(5);
    file.read(&byte, 1);
    file.seekp(5);
    file.put(static_cast<char>(byte ^ 0x01));
  }
  EXPECT_FALSE(read_spill_file(bad_crc.string()).has_value());
  const auto intact = read_spill_file(path.string());
  const auto rescued = read_spill_file(bad_crc.string(), true);
  ASSERT_TRUE(intact.has_value());
  ASSERT_TRUE(rescued.has_value());
  EXPECT_TRUE(rescued->salvaged);
  ASSERT_EQ(rescued->values.size(), intact->values.size());
  for (std::size_t i = 0; i < rescued->values.size(); ++i) {
    EXPECT_EQ(rescued->values[i].vp, intact->values[i].vp);
    EXPECT_EQ(rescued->values[i].rtt_ms, intact->values[i].rtt_ms);
  }
}

TEST_F(StorageTest, SpillFileHugeCountCannotWrapPastTheCrc) {
  // count = 2^61 makes count * sizeof(VpRtt) wrap to 0, and 00000000 is
  // the CRC of an empty payload: a reader that multiplies before it
  // checks the count takes this 24-byte file as intact and then tries to
  // allocate 2^61 records. Strict must refuse it; salvage keeps the one
  // whole record the file holds.
  const fs::path path = dir_ / "wrapped.ancs";
  std::uint8_t bytes[detail::kSpillHeaderBytes + sizeof(VpRtt)] = {};
  const std::uint32_t crc = 0;
  const std::uint64_t count = std::uint64_t{1} << 61;
  std::memcpy(bytes, &detail::kSpillMagic, 4);
  std::memcpy(bytes + 4, &crc, 4);
  std::memcpy(bytes + 8, &count, 8);
  {
    std::ofstream file(path, std::ios::binary);
    file.write(reinterpret_cast<const char*>(bytes), sizeof bytes);
  }
  ASSERT_EQ(fs::file_size(path), 24u);

  EXPECT_FALSE(read_spill_file(path.string()).has_value());
  const auto rescued = read_spill_file(path.string(), /*salvage=*/true);
  ASSERT_TRUE(rescued.has_value());
  EXPECT_TRUE(rescued->salvaged);
  EXPECT_EQ(rescued->values.size(), 1u);
}

TEST_F(StorageTest, SpilledSnapshotServesWhileFaultCorpusRuns) {
  // A snapshot whose value pages live in a spill file, served to reader
  // threads that fault them back in, while the main thread runs the
  // strict-vs-salvage corpus against copies of the same file. Readers
  // must never observe a wrong row; the corpus must behave exactly as it
  // does with no load.
  constexpr std::size_t kTargets = 400;
  ShardedCensusMatrix matrix(kTargets, {});  // one shard
  CensusMatrix& shard = matrix.shard(0);
  shard = spillable_matrix(kTargets);
  const fs::path path = dir_ / "snapshot.ancs";
  if (!shard.spill_values(path.string())) GTEST_SKIP() << "no spill tier";
  shard.drop_resident_values();

  const serving::SnapshotView view = serving::SnapshotView::build(
      std::move(matrix), {}, /*id=*/1);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&view, &stop, &torn] {
      std::vector<std::uint32_t> targets(kTargets);
      for (std::uint32_t t = 0; t < kTargets; ++t) targets[t] = t;
      std::vector<serving::PointAnswer> answers(kTargets);
      while (!stop.load(std::memory_order_relaxed)) {
        view.lookup_batch(targets, answers.data());
        for (std::uint32_t t = 0; t < kTargets; ++t) {
          if (answers[t].vp_count != t % 9 + 1 || answers[t].anycast != 0) {
            torn.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  // The corpus, under load: intact strict read succeeds unsalvaged; a
  // truncated copy is refused strictly and salvages its prefix; a
  // bit-flipped copy is refused strictly and salvages its full count.
  for (int round = 0; round < 20; ++round) {
    const auto intact = read_spill_file(path.string());
    ASSERT_TRUE(intact.has_value());
    EXPECT_FALSE(intact->salvaged);

    const fs::path cut = dir_ / ("load_cut_" + std::to_string(round));
    fs::copy_file(path, cut);
    const std::size_t keep = 10 + static_cast<std::size_t>(round) * 7;
    fs::resize_file(cut, detail::kSpillHeaderBytes + keep * sizeof(VpRtt) + 1);
    EXPECT_FALSE(read_spill_file(cut.string()).has_value());
    const auto rescued = read_spill_file(cut.string(), true);
    ASSERT_TRUE(rescued.has_value());
    EXPECT_TRUE(rescued->salvaged);
    ASSERT_EQ(rescued->values.size(), keep);
    for (std::size_t i = 0; i < keep; ++i) {
      EXPECT_EQ(rescued->values[i].vp, intact->values[i].vp);
    }
    fs::remove(cut);
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0U);
}

}  // namespace
}  // namespace anycast::census
