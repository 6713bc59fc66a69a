#include "core/carq_agent.h"

#include <algorithm>

#include "mac/airtime.h"
#include "util/assert.h"
#include "util/log.h"

namespace vanet::carq {

const char* phaseName(Phase phase) noexcept {
  switch (phase) {
    case Phase::kIdle:
      return "Idle";
    case Phase::kReception:
      return "Reception";
    case Phase::kCoopArq:
      return "CoopArq";
  }
  return "?";
}

CarqAgent::CarqAgent(net::Node& node, CarqConfig config, Rng rng)
    : node_(node), sim_(node.simulator()), config_(config), rng_(rng),
      table_(node.id()),
      scheduler_(config.requestMode, config.maxBatchSeqs) {
  VANET_ASSERT(config_.coopSlot > sim::SimTime::zero(),
               "cooperation slot must be positive");
}

void CarqAgent::start() {
  VANET_ASSERT(!started_, "agent already started");
  started_ = true;
  node_.mac().setRxHandler(
      [this](const mac::Frame& frame, const mac::RxInfo& info) {
        onFrame(frame, info);
      });
  if (config_.frameCombining) {
    node_.mac().setCorruptRxHandler(
        [this](const mac::Frame& frame, const mac::RxInfo& info) {
          onCorruptFrame(frame, info);
        });
  }
  if (config_.cooperationEnabled) {
    // Desynchronise first HELLOs across the platoon.
    const double offset =
        rng_.uniform(0.05, config_.helloPeriod.toSeconds());
    helloTimer_ =
        sim_.scheduleAfter(sim::SimTime::seconds(offset), [this] { sendHello(); });
  }
}

// ---------------------------------------------------------------- frames

void CarqAgent::onFrame(const mac::Frame& frame, const mac::RxInfo& info) {
  switch (frame.kind) {
    case mac::FrameKind::kData:
      handleData(frame);
      break;
    case mac::FrameKind::kHello:
      handleHello(frame, info);
      break;
    case mac::FrameKind::kRequest:
      handleRequest(frame);
      break;
    case mac::FrameKind::kCoopData:
      handleCoopData(frame);
      break;
  }
}

void CarqAgent::onCorruptFrame(const mac::Frame& frame,
                               const mac::RxInfo& info) {
  // Chase combining applies to copies of own-flow packets, whether they
  // arrive as AP data or as cooperator retransmissions.
  FlowId flow = 0;
  SeqNo seq = 0;
  bool fromAp = false;
  if (frame.kind == mac::FrameKind::kData) {
    flow = mac::dataOf(frame).flow;
    seq = mac::dataOf(frame).seq;
    fromAp = true;
  } else if (frame.kind == mac::FrameKind::kCoopData) {
    flow = mac::coopDataOf(frame).flow;
    seq = mac::coopDataOf(frame).seq;
  } else {
    return;
  }
  if (flow != id() || store_.hasOwn(seq)) return;
  ++counters_.corruptCopiesHeard;

  const int bits = mac::frameBits(frame.bytes);
  // The copy already failed an independent decode in the environment;
  // combining grants only the *additional* success probability the
  // accumulated energy provides beyond that single-copy attempt.
  const double single = channel::frameSuccessProbability(
      config_.phyMode, info.sinrDb, bits);
  const double combinedDb = combiner_.accumulateDb(seq, info.sinrDb);
  const double combined =
      channel::frameSuccessProbability(config_.phyMode, combinedDb, bits);
  const double extra =
      std::clamp((combined - single) / std::max(1e-12, 1.0 - single), 0.0, 1.0);
  if (!rng_.bernoulli(extra)) return;

  // Decoded via combining: from here on it is a normal reception.
  combiner_.clear(seq);
  ++counters_.softCombinedDecodes;
  const sim::SimTime now = sim_.now();
  if (fromAp) {
    if (hooks_.onOverhearData) hooks_.onOverhearData(flow, seq, now);
    restartReceptionTimer();
    if (phase_ != Phase::kReception) enterReception(frame.src);
    ++counters_.dataDirect;
    store_.noteDirect(seq);
    if (hooks_.onDirectRx) hooks_.onDirectRx(seq, now);
  } else {
    store_.noteRecovered(seq);
    ++counters_.recovered;
    ++recoveredDuringCycle_;
    scheduler_.markRecovered(seq);
    if (hooks_.onRecovered) hooks_.onRecovered(seq, now);
    if (phase_ == Phase::kCoopArq && scheduler_.empty() &&
        hooks_.onWindowRecovered) {
      hooks_.onWindowRecovered(now);
    }
  }
  if (config_.fileSizeSeqs > 0) checkFileComplete();
}

void CarqAgent::handleData(const mac::Frame& frame) {
  const mac::DataPayload& data = mac::dataOf(frame);
  const sim::SimTime now = sim_.now();
  if (hooks_.onOverhearData) hooks_.onOverhearData(data.flow, data.seq, now);

  // Any packet from an AP means we are in coverage (paper: a node is
  // associated from the first packet it receives).
  restartReceptionTimer();
  if (phase_ != Phase::kReception) enterReception(frame.src);

  if (data.flow == id()) {
    ++counters_.dataDirect;
    const bool isNew = !store_.hasOwn(data.seq);
    store_.noteDirect(data.seq);
    if (config_.frameCombining) combiner_.clear(data.seq);
    if (isNew && hooks_.onDirectRx) hooks_.onDirectRx(data.seq, now);
    if (config_.fileSizeSeqs > 0) checkFileComplete();
    return;
  }
  if (config_.cooperationEnabled && table_.considersMeCooperator(data.flow)) {
    store_.buffer(data.flow, data.seq, frame.bytes);
    ++counters_.dataOverheardBuffered;
  } else {
    ++counters_.dataOverheardIgnored;
  }
}

void CarqAgent::handleHello(const mac::Frame& frame, const mac::RxInfo& info) {
  if (!config_.cooperationEnabled) return;
  ++counters_.hellosReceived;
  const mac::HelloPayload& hello = mac::helloOf(frame);
  table_.onHello(frame.src, hello.cooperators, info.rxPowerDbm, sim_.now());
  if (config_.gossipWindowExtension) {
    for (const auto& [flow, maxSeq] : hello.bufferedMaxSeq) {
      if (flow == id() && maxSeq > gossipedMaxSeq_) {
        gossipedMaxSeq_ = maxSeq;
        // Learning about later packets while already in the dark area:
        // fold them into the walk, and restart the request cycle if it
        // had gone dormant (everything previously known was recovered).
        if (phase_ == Phase::kCoopArq && config_.fileSizeSeqs <= 0) {
          scheduler_.loadMissing(currentMissing());
          if (requestTimer_ == 0 && !scheduler_.empty()) {
            issueNextRequest();
          }
        }
      }
    }
  }
}

void CarqAgent::handleRequest(const mac::Frame& frame) {
  if (!config_.cooperationEnabled) return;
  const mac::RequestPayload& request = mac::requestOf(frame);
  if (request.origin == id()) return;
  ++counters_.requestsReceived;

  // Only nodes the origin announced as cooperators answer; the announced
  // position is the response order (paper §3.2).
  const std::optional<int> order = table_.myOrderFor(request.origin);
  if (!order.has_value()) return;
  const auto& peer = table_.peers().at(request.origin);
  const int maxOrder = std::max<int>(1, static_cast<int>(peer.announced.size()));

  for (std::size_t i = 0; i < request.seqs.size(); ++i) {
    const SeqNo seq = request.seqs[i];
    if (!store_.hasBuffered(request.flow, seq)) continue;
    const ResponseKey key{request.flow, seq};
    if (pendingResponses_.count(key) > 0) continue;
    // (seq-major, order-minor) slot grid; one seq per REQUEST degenerates
    // to the paper's plain `order * slot` backoff.
    const sim::SimTime delay =
        (static_cast<std::int64_t>(i) * maxOrder + *order) * config_.coopSlot;
    const sim::EventId ev = sim_.scheduleAfter(delay, [this, key] {
      pendingResponses_.erase(key);
      sendCoopData(key.flow, key.seq);
    });
    pendingResponses_.emplace(key, ev);
  }
}

void CarqAgent::handleCoopData(const mac::Frame& frame) {
  const mac::CoopDataPayload& coop = mac::coopDataOf(frame);
  ++counters_.coopDataReceived;
  const sim::SimTime now = sim_.now();

  // Overhearing another cooperator's response suppresses my own pending
  // response for the same packet (paper §3.3 "unless other cooperator
  // sends it before").
  const ResponseKey key{coop.flow, coop.seq};
  if (const auto it = pendingResponses_.find(key);
      it != pendingResponses_.end()) {
    sim_.cancel(it->second);
    pendingResponses_.erase(it);
    ++counters_.responsesSuppressed;
  }

  if (coop.flow == id()) {
    if (!store_.hasOwn(coop.seq)) {
      store_.noteRecovered(coop.seq);
      ++counters_.recovered;
      ++recoveredDuringCycle_;
      scheduler_.markRecovered(coop.seq);
      if (hooks_.onRecovered) hooks_.onRecovered(coop.seq, now);
      if (phase_ == Phase::kCoopArq && scheduler_.empty() &&
          hooks_.onWindowRecovered) {
        hooks_.onWindowRecovered(now);
      }
      if (config_.fileSizeSeqs > 0) checkFileComplete();
    } else {
      ++counters_.duplicateRecoveries;
    }
    return;
  }
  if (config_.bufferOverheardCoopData && config_.cooperationEnabled &&
      table_.considersMeCooperator(coop.flow) &&
      !store_.hasBuffered(coop.flow, coop.seq)) {
    store_.buffer(coop.flow, coop.seq,
                  std::max(0, frame.bytes - config_.coopDataHeaderBytes));
  }
}

// ---------------------------------------------------------------- HELLO

void CarqAgent::sendHello() {
  table_.applySelection(config_.selection, config_.maxCooperators, rng_);
  const std::vector<NodeId>& list = table_.myCooperators();

  mac::Frame frame;
  frame.kind = mac::FrameKind::kHello;
  frame.src = id();
  frame.bytes = config_.helloBaseBytes +
                config_.helloPerCooperatorBytes * static_cast<int>(list.size());
  mac::HelloPayload payload{list, {}};
  if (config_.gossipWindowExtension) {
    payload.bufferedMaxSeq = store_.bufferedMaxSeqs();
    frame.bytes += config_.helloPerGossipBytes *
                   static_cast<int>(payload.bufferedMaxSeq.size());
  }
  frame.payload = std::move(payload);
  node_.mac().enqueue(std::move(frame), config_.phyMode);
  ++counters_.hellosSent;
  scheduleNextHello();
}

void CarqAgent::scheduleNextHello() {
  const double jitter = rng_.uniform(-config_.helloJitterFraction,
                                     config_.helloJitterFraction);
  const sim::SimTime period =
      sim::SimTime::seconds(config_.helloPeriod.toSeconds() * (1.0 + jitter));
  helloTimer_ = sim_.scheduleAfter(period, [this] { sendHello(); });
}

// ------------------------------------------------------------- phases

void CarqAgent::restartReceptionTimer() {
  if (receptionTimer_ != 0) sim_.cancel(receptionTimer_);
  receptionTimer_ = sim_.scheduleAfter(config_.receptionTimeout,
                                       [this] { onReceptionTimeout(); });
}

void CarqAgent::enterReception(NodeId viaAp) {
  phase_ = Phase::kReception;
  if (requestTimer_ != 0) {
    sim_.cancel(requestTimer_);
    requestTimer_ = 0;
  }
  LOG_DEBUG("car " << id() << " -> Reception (AP " << viaAp << ") at "
                   << sim_.now());
  if (hooks_.onEnterReception) hooks_.onEnterReception(viaAp, sim_.now());
}

void CarqAgent::onReceptionTimeout() {
  receptionTimer_ = 0;
  if (phase_ != Phase::kReception) return;
  enterCoopArq();
}

void CarqAgent::enterCoopArq() {
  phase_ = Phase::kCoopArq;
  LOG_DEBUG("car " << id() << " -> CoopArq at " << sim_.now());
  if (hooks_.onEnterCoopArq) hooks_.onEnterCoopArq(sim_.now());
  if (!config_.cooperationEnabled) return;
  scheduler_.loadMissing(currentMissing());
  recoveredDuringCycle_ = 0;
  if (scheduler_.empty()) {
    if (hooks_.onWindowRecovered) hooks_.onWindowRecovered(sim_.now());
    return;
  }
  issueNextRequest();
}

std::vector<SeqNo> CarqAgent::currentMissing() const {
  if (config_.fileSizeSeqs > 0) {
    return store_.missingInRange(1, config_.fileSizeSeqs);
  }
  if (config_.gossipWindowExtension && store_.firstSeen() > 0 &&
      gossipedMaxSeq_ > store_.lastSeen()) {
    return store_.missingInRange(store_.firstSeen(), gossipedMaxSeq_);
  }
  return store_.missingInWindow();
}

// ------------------------------------------------------------- requests

void CarqAgent::issueNextRequest() {
  requestTimer_ = 0;
  if (phase_ != Phase::kCoopArq || !config_.cooperationEnabled) return;
  const auto next = scheduler_.next();
  if (!next.has_value()) return;  // everything recovered

  sim::SimTime extraDelay = sim::SimTime::zero();
  if (next->wrapped) {
    ++counters_.cyclesCompleted;
    if (recoveredDuringCycle_ == 0) {
      ++counters_.unproductiveCycles;
      extraDelay = config_.unproductiveCycleBackoff;
    }
    recoveredDuringCycle_ = 0;
  }

  mac::Frame frame;
  frame.kind = mac::FrameKind::kRequest;
  frame.src = id();
  frame.bytes = config_.requestBaseBytes +
                config_.requestPerSeqBytes * static_cast<int>(next->seqs.size());
  frame.payload = mac::RequestPayload{id(), id(), next->seqs};
  const int requestBytes = frame.bytes;
  node_.mac().enqueue(std::move(frame), config_.phyMode);
  ++counters_.requestsSent;
  counters_.requestSeqsSent += next->seqs.size();
  if (hooks_.onRequestSent) {
    hooks_.onRequestSent(static_cast<int>(next->seqs.size()), sim_.now());
  }

  // Response window: my announced cooperators answer on the
  // (seq-major, order-minor) slot grid after the REQUEST lands.
  const int maxOrder =
      std::max<int>(1, static_cast<int>(table_.myCooperators().size()));
  const sim::SimTime grid =
      static_cast<std::int64_t>(next->seqs.size()) * maxOrder * config_.coopSlot;
  const sim::SimTime wait = mac::frameAirtime(config_.phyMode, requestBytes) +
                            grid + config_.requestGuard + extraDelay;
  requestTimer_ = sim_.scheduleAfter(wait, [this] { issueNextRequest(); });
}

void CarqAgent::sendCoopData(FlowId flow, SeqNo seq) {
  mac::Frame frame;
  frame.kind = mac::FrameKind::kCoopData;
  frame.src = id();
  frame.bytes =
      config_.coopDataHeaderBytes + store_.bufferedPayloadBytes(flow);
  frame.payload = mac::CoopDataPayload{id(), flow, seq};
  node_.mac().enqueue(std::move(frame), config_.phyMode);
  ++counters_.coopDataSent;
  if (hooks_.onCoopDataSent) hooks_.onCoopDataSent(flow, seq, sim_.now());
}

void CarqAgent::checkFileComplete() {
  if (fileCompleteFired_ || config_.fileSizeSeqs <= 0) return;
  if (store_.holdsAll(1, config_.fileSizeSeqs)) {
    fileCompleteFired_ = true;
    if (hooks_.onFileComplete) hooks_.onFileComplete(sim_.now());
  }
}

}  // namespace vanet::carq
