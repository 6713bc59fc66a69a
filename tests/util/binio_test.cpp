#include "util/binio.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace vanet::util {
namespace {

TEST(BinIoTest, IntegersAreLittleEndianOnTheWire) {
  BinWriter writer;
  writer.u8(0xab);
  writer.u32(0x01020304u);
  writer.u64(0x1122334455667788ull);
  const std::string& bytes = writer.buffer();
  ASSERT_EQ(bytes.size(), 13u);
  const auto byteAt = [&](std::size_t i) {
    return static_cast<unsigned char>(bytes[i]);
  };
  EXPECT_EQ(byteAt(0), 0xab);
  // u32: least-significant byte first.
  EXPECT_EQ(byteAt(1), 0x04);
  EXPECT_EQ(byteAt(2), 0x03);
  EXPECT_EQ(byteAt(3), 0x02);
  EXPECT_EQ(byteAt(4), 0x01);
  // u64 likewise.
  EXPECT_EQ(byteAt(5), 0x88);
  EXPECT_EQ(byteAt(12), 0x11);
}

TEST(BinIoTest, RoundTripAllScalarTypes) {
  BinWriter writer;
  writer.u8(200);
  writer.u32(0xdeadbeefu);
  writer.u64(0xfeedfacecafebeefull);
  writer.i32(-12345);
  writer.i64(-3000000000LL);
  writer.f64(3.141592653589793);
  writer.str("hello\0world");  // string_view stops at the NUL here
  writer.str("");
  const std::string bytes = writer.take();

  BinReader reader(bytes);
  EXPECT_EQ(reader.u8("a"), 200);
  EXPECT_EQ(reader.u32("b"), 0xdeadbeefu);
  EXPECT_EQ(reader.u64("c"), 0xfeedfacecafebeefull);
  EXPECT_EQ(reader.i32("d"), -12345);
  EXPECT_EQ(reader.i64("e"), -3000000000LL);
  EXPECT_EQ(reader.f64("f"), 3.141592653589793);
  EXPECT_EQ(reader.str("g"), "hello");
  EXPECT_EQ(reader.str("h"), "");
  EXPECT_TRUE(reader.atEnd());
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(BinIoTest, DoublesRoundTripBitExact) {
  // The raw-payload encoding must preserve every IEEE-754 special value,
  // including NaN payloads and the sign of zero, bit for bit.
  const double values[] = {0.0,
                           -0.0,
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max(),
                           -1.0 / 3.0};
  BinWriter writer;
  for (double value : values) writer.f64(value);
  BinReader reader(writer.buffer());
  for (double value : values) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(reader.f64("value")),
              std::bit_cast<std::uint64_t>(value));
  }
}

TEST(BinIoTest, TruncationNamesOffsetFieldAndCounts) {
  BinWriter writer;
  writer.u32(7);
  BinReader reader(writer.buffer());
  EXPECT_EQ(reader.u32("first"), 7u);
  try {
    reader.u64("grid index");
    FAIL() << "read past the end must throw";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(),
                 "truncated at byte offset 4 while reading grid index "
                 "(need 8 bytes, have 0)");
  }
}

TEST(BinIoTest, BaseOffsetShiftsReportedOffsets) {
  // A reader over one section of a larger file reports absolute file
  // offsets, not section-local ones.
  BinReader reader("abc", /*baseOffset=*/100);
  EXPECT_EQ(reader.offset(), 100u);
  reader.u8("x");
  EXPECT_EQ(reader.offset(), 101u);
  try {
    reader.u32("y");
    FAIL() << "must throw";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("byte offset 101"),
              std::string::npos)
        << error.what();
  }
}

TEST(BinIoTest, StringWithBadLengthPrefixThrows) {
  BinWriter writer;
  writer.u32(1000);  // claims 1000 bytes follow
  writer.raw("xy", 2);
  BinReader reader(writer.buffer());
  EXPECT_THROW(reader.str("name"), std::runtime_error);
}

TEST(BinIoTest, PatchU64FillsReservedFraming) {
  BinWriter writer;
  const std::size_t at = writer.size();
  writer.u64(0);  // reserve
  writer.str("payload");
  writer.patchU64(at, 0xa1b2c3d4e5f60718ull);
  BinReader reader(writer.buffer());
  EXPECT_EQ(reader.u64("patched"), 0xa1b2c3d4e5f60718ull);
  EXPECT_EQ(reader.str("payload"), "payload");
  EXPECT_THROW(writer.patchU64(writer.size() - 4, 1), std::logic_error);
}

TEST(BinIoTest, Fnv1a64MatchesReferenceVectorsAndChunks) {
  // Published FNV-1a 64 test vectors.
  EXPECT_EQ(fnv1a64("", 0), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a", 1), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar", 6), 0x85944171f73967e8ull);
  // Incremental hashing over chunks equals one pass over the whole.
  const std::string data = "the incremental form must agree";
  const std::uint64_t whole = fnv1a64(data.data(), data.size());
  std::uint64_t chunked = fnv1a64(data.data(), 7);
  chunked = fnv1a64(data.data() + 7, data.size() - 7, chunked);
  EXPECT_EQ(chunked, whole);
}

}  // namespace
}  // namespace vanet::util
