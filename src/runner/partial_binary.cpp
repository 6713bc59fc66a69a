#include "runner/partial_binary.h"

#include <cstring>
#include <stdexcept>
#include <utility>

#include "analysis/serialize.h"
#include "trace/serialize.h"
#include "util/binio.h"

namespace vanet::runner {
namespace {

using util::BinReader;
using util::BinWriter;

constexpr std::uint32_t kSectionHeader = 1;
constexpr std::uint32_t kSectionPoints = 2;
constexpr std::uint32_t kSectionCheckpoint = 3;

/// magic + version + section count.
constexpr std::size_t kProloguePrefix = 8 + 4 + 4;
constexpr std::size_t kTableEntrySize = 4 + 4 + 8 + 8;
constexpr std::size_t kChecksumSize = 8;

struct SectionEntry {
  std::uint32_t id = 0;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
};

/// The v2 JSON parser enforces the same bounds: a corrupt or hand-edited
/// adaptive header must fail loudly, never feed degenerate wave
/// arithmetic downstream.
void validateAdaptiveHeader(const CampaignPartial& partial) {
  if (partial.targetRelativeCi95 > 0.0 &&
      (partial.minReplications < 1 ||
       partial.maxReplications < partial.minReplications)) {
    throw std::runtime_error(
        "malformed adaptive header: needs 1 <= min_replications <= "
        "max_replications (got " + std::to_string(partial.minReplications) +
        ".." + std::to_string(partial.maxReplications) + ")");
  }
}

void writeHeaderSection(BinWriter& out, const CampaignPartial& partial) {
  out.str(partial.scenario);
  out.u64(partial.masterSeed);
  out.i32(partial.shard.index);
  out.i32(partial.shard.count);
  out.i32(partial.replications);
  out.f64(partial.targetRelativeCi95);
  out.i32(partial.minReplications);
  out.i32(partial.maxReplications);
  out.str(partial.targetMetric);
  out.u64(partial.totalPoints);
  out.u64(partial.totalJobs);
  out.u64(partial.points.size());
}

/// Parses the header section; returns the point-record count.
std::uint64_t parseHeaderSection(BinReader& in, CampaignPartial& partial) {
  partial.scenario = in.str("header scenario");
  partial.masterSeed = in.u64("header master_seed");
  partial.shard.index = in.i32("header shard_index");
  partial.shard.count = in.i32("header shard_count");
  partial.replications = in.i32("header replications");
  partial.targetRelativeCi95 = in.f64("header target_ci");
  partial.minReplications = in.i32("header min_replications");
  partial.maxReplications = in.i32("header max_replications");
  partial.targetMetric = in.str("header target_metric");
  partial.totalPoints = in.u64("header grid_points");
  partial.totalJobs = in.u64("header job_count");
  const std::uint64_t pointCount = in.u64("header point count");
  validateAdaptiveHeader(partial);
  return pointCount;
}

void writeCheckpointSection(BinWriter& out, const CampaignPartial& partial) {
  out.i32(partial.checkpointCoveredReps);
  out.u8(partial.checkpointComplete ? 1 : 0);
}

void parseCheckpointSection(BinReader& in, CampaignPartial& partial) {
  partial.hasCheckpoint = true;
  partial.checkpointCoveredReps = in.i32("checkpoint covered_replications");
  partial.checkpointComplete = in.u8("checkpoint complete flag") != 0;
}

void writePointRecord(BinWriter& out, const GridPointSummary& point) {
  out.u64(point.gridIndex);
  out.str(point.caseName);
  out.i32(point.replications);
  out.i64(point.rounds);
  out.f64(point.achievedCi95);
  out.u32(static_cast<std::uint32_t>(point.params.values().size()));
  for (const auto& [name, value] : point.params.values()) {
    out.str(name);
    out.f64(value);
  }
  trace::table1ToBin(out, point.table1);
  out.u32(static_cast<std::uint32_t>(point.figures.size()));
  for (const auto& [flow, figure] : point.figures) {
    (void)flow;  // the figure serializes its own flow id
    trace::flowFigureToBin(out, figure);
  }
  analysis::protocolTotalsToBin(out, point.totals);
  out.u32(static_cast<std::uint32_t>(point.metrics.size()));
  for (const auto& [name, stats] : point.metrics) {
    out.str(name);
    trace::runningStatsToBin(out, stats);
  }
}

GridPointSummary parsePointRecord(BinReader& in) {
  GridPointSummary point;
  point.gridIndex = static_cast<std::size_t>(in.u64("point grid_index"));
  point.caseName = in.str("point case name");
  point.replications = in.i32("point replications");
  point.rounds = in.i64("point rounds");
  point.achievedCi95 = in.f64("point achieved_ci95");
  const std::uint32_t paramCount = in.u32("point param count");
  for (std::uint32_t p = 0; p < paramCount; ++p) {
    const std::string name = in.str("param name");
    point.params.set(name, in.f64("param value"));
  }
  point.table1 = trace::table1FromBin(in);
  const std::uint32_t figureCount = in.u32("point figure count");
  for (std::uint32_t f = 0; f < figureCount; ++f) {
    trace::FlowFigure figure = trace::flowFigureFromBin(in);
    const FlowId flow = figure.flow;
    point.figures[flow] = std::move(figure);
  }
  point.totals = analysis::protocolTotalsFromBin(in);
  const std::uint32_t metricCount = in.u32("point metric count");
  for (std::uint32_t m = 0; m < metricCount; ++m) {
    const std::string name = in.str("metric name");
    point.metrics[name] = trace::runningStatsFromBin(in);
  }
  if (!in.atEnd()) {
    throw std::runtime_error("trailing bytes at byte offset " +
                             std::to_string(in.offset()) +
                             " after point record");
  }
  return point;
}

/// Parses the fixed prologue (magic, version, section table) out of
/// `data`; used by both the in-memory parser and the streaming reader.
std::vector<SectionEntry> parsePrologue(BinReader& in) {
  char magic[8];
  in.need(sizeof magic, "magic");
  for (char& byte : magic) {
    byte = static_cast<char>(in.u8("magic"));
  }
  if (std::memcmp(magic, kPartialBinaryMagic, sizeof magic) != 0) {
    throw std::runtime_error("not a binary campaign partial (bad magic)");
  }
  const std::uint32_t version = in.u32("format version");
  if (version != static_cast<std::uint32_t>(CampaignPartial::kBinaryVersion)) {
    throw std::runtime_error(
        "unsupported binary campaign partial version " +
        std::to_string(version) + " (supported: " +
        std::to_string(CampaignPartial::kBinaryVersion) + ")");
  }
  const std::uint32_t sectionCount = in.u32("section count");
  if (sectionCount == 0 || sectionCount > 16) {
    throw std::runtime_error("implausible section count " +
                             std::to_string(sectionCount) +
                             " at byte offset 12");
  }
  std::vector<SectionEntry> table(sectionCount);
  for (SectionEntry& entry : table) {
    entry.id = in.u32("section id");
    (void)in.u32("section flags");  // reserved, must round-trip as written
    entry.offset = in.u64("section offset");
    entry.length = in.u64("section length");
  }
  return table;
}

/// Section-table sanity shared by both readers: offsets must tile the
/// payload region [payloadStart, payloadEnd) in order, gap-free.
void validateSectionTable(const std::vector<SectionEntry>& table,
                          std::size_t payloadStart, std::size_t payloadEnd) {
  std::size_t cursor = payloadStart;
  for (std::size_t s = 0; s < table.size(); ++s) {
    const SectionEntry& entry = table[s];
    if (entry.id != kSectionHeader && entry.id != kSectionPoints &&
        entry.id != kSectionCheckpoint) {
      throw std::runtime_error("unknown section id " +
                               std::to_string(entry.id) + " in section table");
    }
    if (entry.offset != cursor) {
      throw std::runtime_error(
          "section table entry " + std::to_string(s) + " claims byte offset " +
          std::to_string(entry.offset) + ", expected " +
          std::to_string(cursor));
    }
    if (entry.length > payloadEnd - cursor) {
      throw std::runtime_error(
          "section " + std::to_string(entry.id) + " at byte offset " +
          std::to_string(entry.offset) + " overruns the file (length " +
          std::to_string(entry.length) + ", " +
          std::to_string(payloadEnd - cursor) + " bytes before checksum)");
    }
    cursor += entry.length;
  }
  if (table.front().id != kSectionHeader) {
    throw std::runtime_error("first section must be the header");
  }
  if (table.back().id != kSectionPoints) {
    throw std::runtime_error("last section must be the points");
  }
  if (cursor != payloadEnd) {
    throw std::runtime_error(
        "section table covers " + std::to_string(cursor - payloadStart) +
        " payload bytes, file has " + std::to_string(payloadEnd - payloadStart));
  }
}

}  // namespace

bool looksLikeBinaryPartial(std::string_view prefix) noexcept {
  return prefix.size() >= sizeof kPartialBinaryMagic &&
         std::memcmp(prefix.data(), kPartialBinaryMagic,
                     sizeof kPartialBinaryMagic) == 0;
}

std::string campaignPartialBinary(const CampaignPartial& partial) {
  BinWriter header;
  writeHeaderSection(header, partial);
  BinWriter checkpoint;
  if (partial.hasCheckpoint) {
    writeCheckpointSection(checkpoint, partial);
  }
  BinWriter points;
  for (const GridPointSummary& point : partial.points) {
    BinWriter record;
    writePointRecord(record, point);
    points.u64(record.size());  // length framing per record
    points.raw(record.buffer().data(), record.size());
  }

  const std::uint32_t sectionCount = partial.hasCheckpoint ? 3 : 2;
  const std::size_t tableSize = sectionCount * kTableEntrySize;
  std::uint64_t offset = kProloguePrefix + tableSize;

  BinWriter out;
  out.raw(kPartialBinaryMagic, sizeof kPartialBinaryMagic);
  out.u32(static_cast<std::uint32_t>(CampaignPartial::kBinaryVersion));
  out.u32(sectionCount);
  const auto tableEntry = [&out, &offset](std::uint32_t id,
                                          const BinWriter& payload) {
    out.u32(id);
    out.u32(0);  // flags, reserved
    out.u64(offset);
    out.u64(payload.size());
    offset += payload.size();
  };
  tableEntry(kSectionHeader, header);
  if (partial.hasCheckpoint) tableEntry(kSectionCheckpoint, checkpoint);
  tableEntry(kSectionPoints, points);

  out.raw(header.buffer().data(), header.size());
  if (partial.hasCheckpoint) {
    out.raw(checkpoint.buffer().data(), checkpoint.size());
  }
  out.raw(points.buffer().data(), points.size());
  out.u64(util::fnv1a64(out.buffer().data(), out.size()));
  return out.take();
}

CampaignPartial parseCampaignPartialBinary(std::string_view data) {
  BinReader prologue(data);
  const std::vector<SectionEntry> table = parsePrologue(prologue);
  if (data.size() < prologue.offset() + kChecksumSize) {
    throw std::runtime_error("truncated at byte offset " +
                             std::to_string(data.size()) +
                             ": no room for the trailing checksum");
  }
  validateSectionTable(table, prologue.offset(), data.size() - kChecksumSize);
  const std::uint64_t expected = util::fnv1a64(
      data.data(), data.size() - kChecksumSize);
  BinReader trailer(data.substr(data.size() - kChecksumSize),
                    data.size() - kChecksumSize);
  const std::uint64_t stored = trailer.u64("file checksum");
  if (stored != expected) {
    throw std::runtime_error("checksum mismatch: file is corrupt (stored " +
                             std::to_string(stored) + ", computed " +
                             std::to_string(expected) + ")");
  }

  CampaignPartial partial;
  std::uint64_t pointCount = 0;
  for (const SectionEntry& entry : table) {
    BinReader in(data.substr(entry.offset, entry.length), entry.offset);
    switch (entry.id) {
      case kSectionHeader:
        pointCount = parseHeaderSection(in, partial);
        break;
      case kSectionCheckpoint:
        parseCheckpointSection(in, partial);
        break;
      case kSectionPoints: {
        // Every record carries at least its u64 length framing.
        if (pointCount > in.remaining() / 8) {
          throw std::runtime_error(
              "header point count " + std::to_string(pointCount) +
              " cannot fit the " + std::to_string(entry.length) +
              "-byte points section at byte offset " +
              std::to_string(entry.offset));
        }
        partial.points.reserve(pointCount);
        for (std::uint64_t k = 0; k < pointCount; ++k) {
          try {
            const std::uint64_t recordLen = in.u64("point record length");
            const std::size_t recordOffset = in.offset();
            BinReader record(in.view(recordLen, "point record"), recordOffset);
            partial.points.push_back(parsePointRecord(record));
          } catch (const std::runtime_error& error) {
            throw std::runtime_error("point record " + std::to_string(k + 1) +
                                     " of " + std::to_string(pointCount) +
                                     ": " + error.what());
          }
        }
        if (!in.atEnd()) {
          throw std::runtime_error(
              "trailing bytes at byte offset " + std::to_string(in.offset()) +
              " after the last point record");
        }
        break;
      }
      default:
        break;  // unreachable: validateSectionTable rejected unknown ids
    }
  }
  return partial;
}

PartialBinaryFileReader::PartialBinaryFileReader(const std::string& path)
    : path_(path), runningHash_(util::fnv1a64(nullptr, 0)) {
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) {
    throw std::runtime_error("cannot open " + path + " for reading");
  }
  try {
    // The file size bounds every stored length before it sizes a buffer.
    const long size =
        std::fseek(file_, 0, SEEK_END) == 0 ? std::ftell(file_) : -1;
    if (size < 0 || std::fseek(file_, 0, SEEK_SET) != 0) {
      fail("cannot determine the file size");
    }
    fileSize_ = static_cast<std::uint64_t>(size);
    // Prologue: magic, version, section count, then the table.
    std::string prefix(kProloguePrefix, '\0');
    readExact(prefix.data(), prefix.size(), "file prologue");
    BinReader prefixReader(prefix);
    char magic[8];
    for (char& byte : magic) byte = static_cast<char>(prefixReader.u8("magic"));
    if (!looksLikeBinaryPartial(std::string_view(magic, sizeof magic))) {
      fail("not a binary campaign partial (bad magic)");
    }
    const std::uint32_t version = prefixReader.u32("format version");
    if (version !=
        static_cast<std::uint32_t>(CampaignPartial::kBinaryVersion)) {
      fail("unsupported binary campaign partial version " +
           std::to_string(version) + " (supported: " +
           std::to_string(CampaignPartial::kBinaryVersion) + ")");
    }
    const std::uint32_t sectionCount = prefixReader.u32("section count");
    if (sectionCount == 0 || sectionCount > 16) {
      fail("implausible section count " + std::to_string(sectionCount));
    }
    std::string tableBytes(sectionCount * kTableEntrySize, '\0');
    readExact(tableBytes.data(), tableBytes.size(), "section table");
    std::vector<SectionEntry> table(sectionCount);
    BinReader tableReader(tableBytes, kProloguePrefix);
    for (SectionEntry& entry : table) {
      entry.id = tableReader.u32("section id");
      (void)tableReader.u32("section flags");
      entry.offset = tableReader.u64("section offset");
      entry.length = tableReader.u64("section length");
    }
    // Streamed sequentially: each section must start exactly where the
    // previous one ended (validateSectionTable's tiling rule, minus the
    // end-of-file bound we cannot know without a seek).
    std::size_t cursor = fileOffset_;
    for (std::size_t s = 0; s < table.size(); ++s) {
      const SectionEntry& entry = table[s];
      if (entry.id != kSectionHeader && entry.id != kSectionPoints &&
          entry.id != kSectionCheckpoint) {
        fail("unknown section id " + std::to_string(entry.id) +
             " in section table");
      }
      if (entry.offset != cursor) {
        fail("section table entry " + std::to_string(s) +
             " claims byte offset " + std::to_string(entry.offset) +
             ", expected " + std::to_string(cursor));
      }
      cursor += entry.length;
    }
    if (table.front().id != kSectionHeader) {
      fail("first section must be the header");
    }
    if (table.back().id != kSectionPoints) {
      fail("last section must be the points");
    }

    // Everything before the points parses up front (header, checkpoint);
    // the points then stream record by record.
    std::uint64_t pointCount = 0;
    for (std::size_t s = 0; s + 1 < table.size(); ++s) {
      const SectionEntry& entry = table[s];
      requireFileBytes(entry.length, entry.id == kSectionHeader
                                         ? "header section"
                                         : "checkpoint section");
      std::string payload(entry.length, '\0');
      readExact(payload.data(), payload.size(),
                entry.id == kSectionHeader ? "header section"
                                           : "checkpoint section");
      BinReader in(payload, entry.offset);
      if (entry.id == kSectionHeader) {
        pointCount = parseHeaderSection(in, header_);
      } else {
        parseCheckpointSection(in, header_);
      }
    }
    header_.sourcePath = path_;
    // Every record carries at least its u64 length framing.
    if (pointCount > table.back().length / 8) {
      fail("header point count " + std::to_string(pointCount) +
           " cannot fit the " + std::to_string(table.back().length) +
           "-byte points section at byte offset " +
           std::to_string(table.back().offset));
    }
    pointsLeft_ = table.back().length;
    remaining_ = static_cast<std::size_t>(pointCount);
    if (remaining_ == 0) {
      // Zero-point shard: nothing will call into the record loop, so the
      // checksum trailer verifies here.
      GridPointSummary unused;
      nextPoint(unused);
    }
  } catch (...) {
    std::fclose(file_);
    file_ = nullptr;
    throw;
  }
}

PartialBinaryFileReader::~PartialBinaryFileReader() {
  if (file_ != nullptr) std::fclose(file_);
}

void PartialBinaryFileReader::fail(const std::string& message) const {
  throw std::runtime_error(path_ + ": " + message);
}

void PartialBinaryFileReader::failTruncated(std::uint64_t need,
                                            std::uint64_t have,
                                            const char* what) const {
  fail("truncated at byte offset " + std::to_string(fileOffset_ + have) +
       " while reading " + what + " (need " + std::to_string(need) +
       " bytes, have " + std::to_string(have) + ")");
}

void PartialBinaryFileReader::requireFileBytes(std::uint64_t size,
                                               const char* what) const {
  const std::uint64_t have =
      fileSize_ > fileOffset_ ? fileSize_ - fileOffset_ : 0;
  if (size > have) failTruncated(size, have, what);
}

void PartialBinaryFileReader::readExact(void* into, std::size_t size,
                                        const char* what) {
  if (size == 0) return;
  const std::size_t got = std::fread(into, 1, size, file_);
  if (got != size) failTruncated(size, got, what);
  runningHash_ = util::fnv1a64(into, size, runningHash_);
  fileOffset_ += size;
}

bool PartialBinaryFileReader::nextPoint(GridPointSummary& out) {
  if (remaining_ == 0) {
    if (file_ != nullptr) {
      // Verify the trailing checksum exactly once, after the last record.
      const std::uint64_t computed = runningHash_;
      char trailer[kChecksumSize];
      readExact(trailer, sizeof trailer, "file checksum");
      BinReader in(std::string_view(trailer, sizeof trailer),
                   fileOffset_ - kChecksumSize);
      const std::uint64_t stored = in.u64("file checksum");
      if (stored != computed) {
        fail("checksum mismatch: file is corrupt (stored " +
             std::to_string(stored) + ", computed " +
             std::to_string(computed) + ")");
      }
      if (std::fgetc(file_) != EOF) {
        fail("trailing garbage after the checksum at byte offset " +
             std::to_string(fileOffset_));
      }
      std::fclose(file_);
      file_ = nullptr;
    }
    return false;
  }
  char lenBytes[8];
  readExact(lenBytes, sizeof lenBytes, "point record length");
  BinReader lenReader(std::string_view(lenBytes, sizeof lenBytes),
                      fileOffset_ - sizeof lenBytes);
  const std::uint64_t recordLen = lenReader.u64("point record length");
  // Bound the stored length by the bytes really left -- in the points
  // section, then in the file -- before it sizes the buffer.
  const std::uint64_t sectionLeft = pointsLeft_ >= 8 ? pointsLeft_ - 8 : 0;
  if (recordLen > sectionLeft) {
    fail("point record " + std::to_string(streamed_ + 1) + ": length " +
         std::to_string(recordLen) + " at byte offset " +
         std::to_string(fileOffset_ - sizeof lenBytes) + " exceeds the " +
         std::to_string(sectionLeft) + " bytes left in the points section");
  }
  requireFileBytes(recordLen, "point record");
  pointsLeft_ = sectionLeft - recordLen;
  recordBuf_.resize(static_cast<std::size_t>(recordLen));
  const std::size_t recordOffset = fileOffset_;
  readExact(recordBuf_.data(), recordBuf_.size(), "point record");
  try {
    BinReader record(recordBuf_, recordOffset);
    out = parsePointRecord(record);
  } catch (const std::runtime_error& error) {
    fail("point record " + std::to_string(streamed_ + 1) + ": " +
         error.what());
  }
  ++streamed_;
  --remaining_;
  return true;
}

}  // namespace vanet::runner
