#include "runner/partial_binary.h"

#include <algorithm>
#include <cerrno>
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
constexpr std::uint32_t kMaxSections = 16;
/// The longest prologue parsePrologue accepts.
constexpr std::size_t kMaxPrologue =
    kProloguePrefix + kMaxSections * kTableEntrySize;
constexpr std::size_t kChecksumSize = 8;

struct SectionEntry {
  std::uint32_t id = 0;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
};

/// The bounds buildPlan enforces: a corrupt or hand-edited adaptive
/// header must fail loudly, never feed degenerate wave arithmetic
/// downstream.
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

/// Parses the prologue (magic, version, section table).
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
  if (sectionCount == 0 || sectionCount > kMaxSections) {
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

/// Section-table sanity: offsets must tile the payload region
/// [payloadStart, payloadEnd) in order, gap-free.
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

PartialBinaryFileReader::PartialBinaryFileReader(const std::string& path)
    : path_(path), runningHash_(util::fnv1a64(nullptr, 0)) {
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) {
    throw std::runtime_error(path + ": cannot open for reading: " +
                             std::strerror(errno));
  }
  try {
    readHeader();
  } catch (const std::runtime_error& error) {
    std::fclose(file_);
    file_ = nullptr;
    throw std::runtime_error(path_ + ": " + error.what());
  } catch (...) {
    std::fclose(file_);
    file_ = nullptr;
    throw;
  }
}

PartialBinaryFileReader::~PartialBinaryFileReader() {
  if (file_ != nullptr) std::fclose(file_);
}

bool PartialBinaryFileReader::nextPoint(GridPointSummary& out) {
  try {
    return readNextPoint(out);
  } catch (const std::runtime_error& error) {
    throw std::runtime_error(path_ + ": " + error.what());
  }
}

void PartialBinaryFileReader::readHeader() {
  // The file size bounds every stored length before it sizes a buffer.
  const long size =
      std::fseek(file_, 0, SEEK_END) == 0 ? std::ftell(file_) : -1;
  if (size < 0 || std::fseek(file_, 0, SEEK_SET) != 0) {
    throw std::runtime_error("cannot determine the file size");
  }
  fileSize_ = static_cast<std::uint64_t>(size);

  // The prologue is at most kMaxPrologue bytes: parse it from a peek at
  // the file's head, then consume exactly the bytes it spans.
  std::string head(static_cast<std::size_t>(std::min<std::uint64_t>(
                       fileSize_, kMaxPrologue)),
                   '\0');
  if (std::fread(head.data(), 1, head.size(), file_) != head.size()) {
    throw std::runtime_error("cannot read the file prologue");
  }
  BinReader prologue(head);
  const std::vector<SectionEntry> table = parsePrologue(prologue);
  fileOffset_ = prologue.offset();
  runningHash_ = util::fnv1a64(head.data(), fileOffset_, runningHash_);
  if (std::fseek(file_, static_cast<long>(fileOffset_), SEEK_SET) != 0) {
    throw std::runtime_error("cannot seek past the file prologue");
  }
  if (fileSize_ < fileOffset_ + kChecksumSize) {
    throw std::runtime_error("truncated at byte offset " +
                             std::to_string(fileSize_) +
                             ": no room for the trailing checksum");
  }
  validateSectionTable(table, fileOffset_, fileSize_ - kChecksumSize);

  // Everything before the points parses up front (header, checkpoint);
  // the points then stream record by record.
  std::uint64_t pointCount = 0;
  for (std::size_t s = 0; s + 1 < table.size(); ++s) {
    const SectionEntry& entry = table[s];
    const bool isHeader = entry.id == kSectionHeader;
    std::string payload(static_cast<std::size_t>(entry.length), '\0');
    readExact(payload.data(), payload.size(),
              isHeader ? "header section" : "checkpoint section");
    BinReader in(payload, entry.offset);
    if (isHeader) {
      pointCount = parseHeaderSection(in, header_);
    } else {
      parseCheckpointSection(in, header_);
    }
  }
  header_.sourcePath = path_;
  const SectionEntry& points = table.back();
  // Every record carries at least its u64 length framing.
  if (pointCount > points.length / 8) {
    throw std::runtime_error(
        "header point count " + std::to_string(pointCount) +
        " cannot fit the " + std::to_string(points.length) +
        "-byte points section at byte offset " +
        std::to_string(points.offset));
  }
  pointsLeft_ = points.length;
  remaining_ = static_cast<std::size_t>(pointCount);
  if (remaining_ == 0) {
    // Zero-point shard: nothing will call into the record loop, so the
    // checksum trailer verifies here.
    GridPointSummary unused;
    readNextPoint(unused);
  }
}

void PartialBinaryFileReader::readExact(void* into, std::size_t size,
                                        const char* what) {
  if (size == 0) return;
  const std::size_t got = std::fread(into, 1, size, file_);
  if (got != size) {
    throw std::runtime_error(
        "truncated at byte offset " + std::to_string(fileOffset_ + got) +
        " while reading " + what + " (need " + std::to_string(size) +
        " bytes, have " + std::to_string(got) + ")");
  }
  runningHash_ = util::fnv1a64(into, size, runningHash_);
  fileOffset_ += size;
}

bool PartialBinaryFileReader::readNextPoint(GridPointSummary& out) {
  if (remaining_ == 0) {
    if (file_ != nullptr) {
      if (pointsLeft_ != 0) {
        throw std::runtime_error("trailing bytes at byte offset " +
                                 std::to_string(fileOffset_) +
                                 " after the last point record");
      }
      // Verify the trailing checksum exactly once, after the last record.
      const std::uint64_t computed = runningHash_;
      char trailer[kChecksumSize];
      readExact(trailer, sizeof trailer, "file checksum");
      BinReader in(std::string_view(trailer, sizeof trailer),
                   fileOffset_ - kChecksumSize);
      const std::uint64_t stored = in.u64("file checksum");
      if (stored != computed) {
        throw std::runtime_error(
            "checksum mismatch: file is corrupt (stored " +
            std::to_string(stored) + ", computed " +
            std::to_string(computed) + ")");
      }
      std::fclose(file_);
      file_ = nullptr;
    }
    return false;
  }
  try {
    const std::size_t framingOffset = fileOffset_;
    if (pointsLeft_ < 8) {
      throw std::runtime_error("the points section ends at byte offset " +
                               std::to_string(framingOffset) +
                               " before the record's length framing");
    }
    char lenBytes[8];
    readExact(lenBytes, sizeof lenBytes, "point record length");
    const std::uint64_t recordLen =
        BinReader(std::string_view(lenBytes, sizeof lenBytes), framingOffset)
            .u64("point record length");
    // Bound the stored length by the bytes left in the points section
    // (which the section table bounded by the file) before it sizes the
    // buffer.
    const std::uint64_t sectionLeft = pointsLeft_ - 8;
    if (recordLen > sectionLeft) {
      throw std::runtime_error(
          "length " + std::to_string(recordLen) + " at byte offset " +
          std::to_string(framingOffset) + " exceeds the " +
          std::to_string(sectionLeft) + " bytes left in the points section");
    }
    pointsLeft_ = sectionLeft - recordLen;
    recordBuf_.resize(static_cast<std::size_t>(recordLen));
    const std::size_t recordOffset = fileOffset_;
    readExact(recordBuf_.data(), recordBuf_.size(), "point record");
    BinReader record(recordBuf_, recordOffset);
    out = parsePointRecord(record);
  } catch (const std::runtime_error& error) {
    throw std::runtime_error("point record " + std::to_string(streamed_ + 1) +
                             " of " + std::to_string(streamed_ + remaining_) +
                             ": " + error.what());
  }
  ++streamed_;
  --remaining_;
  return true;
}

}  // namespace vanet::runner
