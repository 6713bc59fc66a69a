#pragma once

/// \file serialize.h
/// Binary (de)serialization of the analysis-layer merge states
/// (ProtocolTotals with its embedded mac::MediumStats counters), used by
/// the campaign partial format v3. Like the trace serializers, the full
/// merge state round-trips bit-identically (raw IEEE-754 doubles), and
/// writer and reader share one column list so they cannot drift.

#include "analysis/experiment.h"
#include "util/binio.h"

namespace vanet::analysis {

void protocolTotalsToBin(util::BinWriter& out, const ProtocolTotals& totals);
ProtocolTotals protocolTotalsFromBin(util::BinReader& in);

}  // namespace vanet::analysis
