#pragma once

/// \file serialize.h
/// Binary (de)serialization of the trace-layer merge states, used by the
/// campaign partial format v3 (runner/partial_binary.h). Every
/// RunningStats is written as its full Welford state with doubles as raw
/// IEEE-754 payloads, so a round trip is bit-exact by construction:
/// folding deserialized partials produces the same bytes as folding the
/// in-process results they were serialized from. Readers are bounded by
/// the BinReader they are handed; a count never sizes an allocation
/// beyond the bytes left.

#include "trace/aggregate.h"
#include "util/binio.h"

namespace vanet::trace {

/// One RunningStats merge state: u64 count, then (count > 0 only)
/// mean, m2, sum, min, max.
void runningStatsToBin(util::BinWriter& out, const RunningStats& stats);
RunningStats runningStatsFromBin(util::BinReader& in);

void seriesToBin(util::BinWriter& out, const SeriesAccumulator& series);
SeriesAccumulator seriesFromBin(util::BinReader& in);

void table1ToBin(util::BinWriter& out, const Table1Data& data);
Table1Data table1FromBin(util::BinReader& in);

void flowFigureToBin(util::BinWriter& out, const FlowFigure& figure);
FlowFigure flowFigureFromBin(util::BinReader& in);

}  // namespace vanet::trace
