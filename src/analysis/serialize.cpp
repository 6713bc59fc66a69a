#include "analysis/serialize.h"

#include <vector>

#include "trace/serialize.h"

namespace vanet::analysis {
namespace {

/// The per-round stat fields in serialization order; writer and reader
/// share the list so they cannot drift.
std::vector<RunningStats ProtocolTotals::*> totalsColumns() {
  return {&ProtocolTotals::requestsPerRound,
          &ProtocolTotals::requestSeqsPerRound,
          &ProtocolTotals::coopDataPerRound,
          &ProtocolTotals::suppressedPerRound,
          &ProtocolTotals::hellosPerRound,
          &ProtocolTotals::bufferedPerRound};
}

std::vector<std::uint64_t mac::MediumStats::*> mediumColumns() {
  return {&mac::MediumStats::framesTransmitted,
          &mac::MediumStats::framesDelivered,
          &mac::MediumStats::framesBelowSensitivity,
          &mac::MediumStats::framesCollided,
          &mac::MediumStats::framesChannelError,
          &mac::MediumStats::framesBurstLost,
          &mac::MediumStats::framesHalfDuplexMissed,
          &mac::MediumStats::framesCorruptDelivered};
}

}  // namespace

void protocolTotalsToBin(util::BinWriter& out, const ProtocolTotals& totals) {
  for (const auto field : totalsColumns()) {
    trace::runningStatsToBin(out, totals.*field);
  }
  for (const auto field : mediumColumns()) out.u64(totals.medium.*field);
}

ProtocolTotals protocolTotalsFromBin(util::BinReader& in) {
  ProtocolTotals totals;
  for (const auto field : totalsColumns()) {
    totals.*field = trace::runningStatsFromBin(in);
  }
  for (const auto field : mediumColumns()) {
    totals.medium.*field = in.u64("medium counter");
  }
  return totals;
}

}  // namespace vanet::analysis
