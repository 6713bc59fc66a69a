#pragma once

/// Shared scaffolding for tests that drive campaign partial files: raw
/// byte access, checksum repair after a deliberate mutation, v3 section
/// lookup, and the file round trip every partial takes between processes
/// (write the v3 bytes, read them back through the one decoder).

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>

#include "runner/accumulate.h"
#include "runner/partial_binary.h"
#include "util/binio.h"

namespace vanet::testing {

/// v3 section ids (runner/partial_binary.cpp).
inline constexpr std::uint32_t kHeaderSection = 1;
inline constexpr std::uint32_t kPointsSection = 2;

inline std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

inline void dump(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  EXPECT_FALSE(out.fail()) << path;
}

/// Overwrites the little-endian u64 at `at`.
inline void putU64(std::string& bytes, std::size_t at, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    bytes[at + static_cast<std::size_t>(i)] =
        static_cast<char>((value >> (8 * i)) & 0xff);
  }
}

/// Recomputes the trailing FNV-1a checksum after a test mutated the
/// payload, so corruption tests hit the decoder check they target
/// instead of tripping the checksum at the end of the stream.
inline std::string withFixedChecksum(std::string bytes) {
  putU64(bytes, bytes.size() - 8,
         util::fnv1a64(bytes.data(), bytes.size() - 8));
  return bytes;
}

/// The file offset of the v3 section with `wantId` (0 when absent).
inline std::size_t sectionOffset(const std::string& bytes,
                                 std::uint32_t wantId) {
  util::BinReader in(bytes);
  for (int i = 0; i < 8; ++i) in.u8("magic");
  in.u32("version");
  const std::uint32_t sections = in.u32("section count");
  for (std::uint32_t s = 0; s < sections; ++s) {
    const std::uint32_t id = in.u32("id");
    in.u32("flags");
    const std::uint64_t offset = in.u64("offset");
    in.u64("length");
    if (id == wantId) return static_cast<std::size_t>(offset);
  }
  return 0;
}

/// Writes `partial` as v3 bytes to TempDir()/`name` and reads it back
/// with readCampaignPartial: the exchange two processes perform.
inline runner::CampaignPartial throughFile(
    const runner::CampaignPartial& partial, const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  dump(path, runner::campaignPartialBinary(partial));
  return runner::readCampaignPartial(path);
}

}  // namespace vanet::testing
