#include "mac/radio.h"

#include <algorithm>

#include "mac/radio_environment.h"
#include "util/assert.h"

namespace vanet::mac {

Radio::Radio(sim::Simulator& sim, RadioEnvironment& environment, NodeId id,
             const mobility::MobilityModel* mobility, RadioConfig config)
    : sim_(sim), environment_(environment), id_(id), mobility_(mobility),
      config_(config) {
  VANET_ASSERT(mobility_ != nullptr, "radio requires a mobility model");
  environment_.attach(this);
}

Radio::~Radio() { environment_.detach(this); }

void Radio::transmit(const Frame& frame, channel::PhyMode mode) {
  VANET_ASSERT(!transmitting(), "half-duplex radio is already transmitting");
  Frame outgoing = frame;
  outgoing.src = id_;
  const sim::SimTime end = environment_.beginTransmission(*this, outgoing, mode);
  txUntil_ = end;
  txHistory_.emplace_back(sim_.now(), end);
  ++framesSent_;
  // Prune history entries that can no longer overlap any in-flight frame.
  // Ends ascend with starts (see transmittedDuring), so they are a prefix.
  const sim::SimTime horizon = sim_.now() - sim::SimTime::seconds(1.0);
  const auto live = std::find_if(
      txHistory_.begin(), txHistory_.end(),
      [horizon](const auto& span) { return span.second >= horizon; });
  txHistory_.erase(txHistory_.begin(), live);
}

void Radio::onFrameDelivered(const Frame& frame, const RxInfo& info) {
  ++framesReceived_;
  if (rxCallback_) {
    rxCallback_(frame, info);
  }
}

void Radio::onFrameCorrupted(const Frame& frame, const RxInfo& info) {
  if (corruptCallback_) {
    corruptCallback_(frame, info);
  }
}

bool Radio::transmittedDuring(sim::SimTime start, sim::SimTime end) const {
  // Spans are appended in start order and never overlap (half-duplex), so
  // their ends ascend too: of the spans starting before `end`, the latest
  // one reaches furthest, and it alone decides the answer.
  for (auto span = txHistory_.rbegin(); span != txHistory_.rend(); ++span) {
    if (span->first < end) return start < span->second;
  }
  return false;
}

}  // namespace vanet::mac
