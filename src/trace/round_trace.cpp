#include "trace/round_trace.h"

#include <algorithm>

#include "util/assert.h"

namespace vanet::trace {

RoundTrace::RoundTrace(std::vector<NodeId> carIds) : carIds_(std::move(carIds)) {
  VANET_ASSERT(!carIds_.empty(), "a round needs at least one car");
}

void RoundTrace::recordApTx(FlowId flow, SeqNo seq, int copy, sim::SimTime at) {
  if (copy != 0) return;  // retransmissions do not advance the tx log
  VANET_ASSERT(seq >= 0, "sequence numbers are non-negative");
  FlowTx& log = tx_[flow];
  const auto index = static_cast<std::size_t>(seq);
  if (index >= log.firstTx.size()) log.firstTx.resize(index + 1, kNotSent);
  if (log.firstTx[index] != kNotSent) return;  // a later pass of the file
  log.firstTx[index] = at;
  ++log.count;
  log.maxSeq = std::max(log.maxSeq, seq);
}

void RoundTrace::recordOverhear(NodeId car, FlowId flow, SeqNo seq,
                                sim::SimTime at) {
  CarLog& log = cars_[car];
  log.overheard[flow].insert(seq);
  // Order-insensitive min/max so traces can be assembled out of order.
  log.firstAnyRx = std::min(log.firstAnyRx.value_or(at), at);
  log.lastAnyRx = std::max(log.lastAnyRx, at);
  if (flow == car) {
    log.firstOwnRx = std::min(log.firstOwnRx.value_or(at), at);
    auto& times = log.ownRxTimes;
    times.insert(std::upper_bound(times.begin(), times.end(), at), at);
  }
}

void RoundTrace::recordRecovered(NodeId car, SeqNo seq, sim::SimTime) {
  cars_[car].recovered.insert(seq);
}

const RoundTrace::FlowTx* RoundTrace::flowTx(FlowId flow) const {
  const auto it = tx_.find(flow);
  return it != tx_.end() ? &it->second : nullptr;
}

const RoundTrace::CarLog* RoundTrace::carLog(NodeId car) const {
  const auto it = cars_.find(car);
  return it != cars_.end() ? &it->second : nullptr;
}

bool RoundTrace::wasOverheard(NodeId car, FlowId flow, SeqNo seq) const {
  const CarLog* log = carLog(car);
  if (log == nullptr) return false;
  const auto flowIt = log->overheard.find(flow);
  return flowIt != log->overheard.end() && flowIt->second.contains(seq);
}

bool RoundTrace::anyOverheard(FlowId flow, SeqNo seq) const {
  return std::any_of(carIds_.begin(), carIds_.end(), [&](NodeId car) {
    return wasOverheard(car, flow, seq);
  });
}

bool RoundTrace::wasRecovered(NodeId car, SeqNo seq) const {
  const CarLog* log = carLog(car);
  return log != nullptr && log->recovered.contains(seq);
}

std::optional<sim::SimTime> RoundTrace::txTime(FlowId flow, SeqNo seq) const {
  const FlowTx* log = flowTx(flow);
  if (log == nullptr || seq < 0 ||
      static_cast<std::size_t>(seq) >= log->firstTx.size()) {
    return std::nullopt;
  }
  const sim::SimTime at = log->firstTx[static_cast<std::size_t>(seq)];
  if (at == kNotSent) return std::nullopt;
  return at;
}

SeqNo RoundTrace::maxSeqTransmitted(FlowId flow) const {
  const FlowTx* log = flowTx(flow);
  return log != nullptr ? log->maxSeq : 0;
}

std::optional<std::pair<sim::SimTime, sim::SimTime>>
RoundTrace::associationWindow(NodeId car) const {
  const CarLog* log = carLog(car);
  if (log == nullptr || !log->firstOwnRx.has_value()) return std::nullopt;
  return std::make_pair(*log->firstOwnRx, log->lastAnyRx);
}

std::vector<SeqNo> RoundTrace::seqsTransmittedDuring(FlowId flow,
                                                     sim::SimTime from,
                                                     sim::SimTime to) const {
  std::vector<SeqNo> out;
  const FlowTx* log = flowTx(flow);
  if (log == nullptr) return out;
  for (std::size_t seq = 0; seq < log->firstTx.size(); ++seq) {
    const sim::SimTime at = log->firstTx[seq];
    if (at != kNotSent && at >= from && at <= to) {
      out.push_back(static_cast<SeqNo>(seq));
    }
  }
  return out;
}

std::optional<sim::SimTime> RoundTrace::firstOverhearTime(NodeId car) const {
  const CarLog* log = carLog(car);
  return log != nullptr ? log->firstAnyRx : std::nullopt;
}

const std::vector<sim::SimTime>& RoundTrace::directRxTimes(NodeId car) const {
  const CarLog* log = carLog(car);
  return log != nullptr ? log->ownRxTimes : emptyTimes_;
}

std::size_t RoundTrace::txCount(FlowId flow) const {
  const FlowTx* log = flowTx(flow);
  return log != nullptr ? log->count : 0;
}

}  // namespace vanet::trace
