#include "trace/serialize.h"

#include <cstddef>
#include <utility>
#include <vector>

namespace vanet::trace {
namespace {

/// The Table1Row stat columns in serialization order. Kept in one place
/// so writer and reader cannot drift.
std::vector<RunningStats Table1Row::*> table1Columns() {
  return {&Table1Row::txByAp,        &Table1Row::lostBefore,
          &Table1Row::lostAfter,     &Table1Row::lostJoint,
          &Table1Row::pctLostBefore, &Table1Row::pctLostAfter,
          &Table1Row::pctLostJoint};
}

}  // namespace

void runningStatsToBin(util::BinWriter& out, const RunningStats& stats) {
  const RunningStats::State s = stats.state();
  out.u64(s.count);
  if (s.count == 0) return;  // an empty state carries no moments
  for (const double field : {s.mean, s.m2, s.sum, s.min, s.max}) {
    out.f64(field);
  }
}

RunningStats runningStatsFromBin(util::BinReader& in) {
  RunningStats::State s;
  s.count = in.u64("stats count");
  if (s.count == 0) return RunningStats();
  s.mean = in.f64("stats mean");
  s.m2 = in.f64("stats m2");
  s.sum = in.f64("stats sum");
  s.min = in.f64("stats min");
  s.max = in.f64("stats max");
  return RunningStats::fromState(s);
}

void seriesToBin(util::BinWriter& out, const SeriesAccumulator& series) {
  out.u32(static_cast<std::uint32_t>(series.cells().size()));
  for (const RunningStats& cell : series.cells()) {
    runningStatsToBin(out, cell);
  }
}

SeriesAccumulator seriesFromBin(util::BinReader& in) {
  const std::uint32_t count = in.u32("series cell count");
  // Every cell is at least its u64 count: bound the reservation by the
  // bytes actually left before trusting the stored count.
  in.need(std::size_t{count} * 8, "series cells");
  std::vector<RunningStats> cells;
  cells.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    cells.push_back(runningStatsFromBin(in));
  }
  return SeriesAccumulator::fromCells(std::move(cells));
}

void table1ToBin(util::BinWriter& out, const Table1Data& data) {
  out.i64(data.rounds);
  const auto columns = table1Columns();
  out.u32(static_cast<std::uint32_t>(data.rows.size()));
  for (const Table1Row& row : data.rows) {
    out.i32(row.car);
    for (const auto column : columns) {
      runningStatsToBin(out, row.*column);
    }
  }
}

Table1Data table1FromBin(util::BinReader& in) {
  Table1Data data;
  data.rounds = in.i64("table1 rounds");
  const auto columns = table1Columns();
  const std::uint32_t rowCount = in.u32("table1 row count");
  // A row is at least its i32 car id plus one u64 count per column.
  in.need(std::size_t{rowCount} * (4 + 8 * columns.size()), "table1 rows");
  data.rows.reserve(rowCount);
  for (std::uint32_t r = 0; r < rowCount; ++r) {
    Table1Row row;
    row.car = in.i32("table1 car id");
    for (const auto column : columns) {
      row.*column = runningStatsFromBin(in);
    }
    data.rows.push_back(std::move(row));
  }
  return data;
}

void flowFigureToBin(util::BinWriter& out, const FlowFigure& figure) {
  out.i32(figure.flow);
  out.u32(static_cast<std::uint32_t>(figure.rxByCar.size()));
  for (const auto& [car, series] : figure.rxByCar) {
    out.i32(car);
    seriesToBin(out, series);
  }
  seriesToBin(out, figure.afterCoop);
  seriesToBin(out, figure.joint);
  runningStatsToBin(out, figure.regionBoundary12);
  runningStatsToBin(out, figure.regionBoundary23);
}

FlowFigure flowFigureFromBin(util::BinReader& in) {
  FlowFigure figure;
  figure.flow = in.i32("figure flow id");
  const std::uint32_t carCount = in.u32("figure rx_by_car count");
  for (std::uint32_t c = 0; c < carCount; ++c) {
    const NodeId car = in.i32("figure car id");
    figure.rxByCar[car] = seriesFromBin(in);
  }
  figure.afterCoop = seriesFromBin(in);
  figure.joint = seriesFromBin(in);
  figure.regionBoundary12 = runningStatsFromBin(in);
  figure.regionBoundary23 = runningStatsFromBin(in);
  return figure;
}

}  // namespace vanet::trace
