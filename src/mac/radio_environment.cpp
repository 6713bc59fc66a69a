#include "mac/radio_environment.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "mac/airtime.h"
#include "mac/radio.h"
#include "obs/counters.h"
#include "util/assert.h"
#include "util/vmath.h"

namespace vanet::mac {
namespace {

/// How long finished transmissions are retained for overlap computations.
/// Must exceed the longest frame airtime (1500 B at 1 Mbps is ~12.5 ms).
constexpr sim::SimTime kOverlapWindow = sim::SimTime::millis(50.0);

// dB <-> mW through the shared vmath helpers (one kernel, one documented
// 1e-15 floor) instead of per-call std::pow / std::log10.
double dbmToMilliwatt(double dbm) noexcept { return vmath::dbToLinear(dbm); }
double milliwattToDbm(double mw) noexcept { return vmath::linearToDb(mw); }

}  // namespace

const RadioEnvironment::PlannedRx* RadioEnvironment::ActiveTx::planFor(
    const Radio* rx) const {
  const std::size_t slot = rx->envSlot();
  if (slot >= planBySlot.size()) return nullptr;  // attached after planning
  const std::int32_t idx = planBySlot[slot];
  return idx >= 0 ? &plans[static_cast<std::size_t>(idx)] : nullptr;
}

void RadioEnvironment::ActiveTx::rebuildSlotIndex(std::size_t slotCount) {
  planBySlot.assign(slotCount, -1);
  for (std::size_t i = 0; i < plans.size(); ++i) {
    planBySlot[plans[i].rx->envSlot()] = static_cast<std::int32_t>(i);
  }
}

RadioEnvironment::RadioEnvironment(sim::Simulator& sim, channel::LinkModel& link,
                                   Rng rng)
    : sim_(sim), link_(link), rng_(rng) {}

void RadioEnvironment::attach(Radio* radio) {
  VANET_ASSERT(radio != nullptr, "cannot attach a null radio");
  radio->setEnvSlot(radios_.size());
  radios_.push_back(radio);
}

void RadioEnvironment::detach(Radio* radio) {
  std::erase(radios_, radio);
  for (std::size_t slot = 0; slot < radios_.size(); ++slot) {
    radios_[slot]->setEnvSlot(slot);
  }
  // Forget any planned delivery to the detached radio and re-key the
  // surviving plans against the renumbered slots (recent_ records are
  // still consulted by interference lookups of *other* receivers).
  const auto scrub = [&](ActiveTx* tx) {
    std::erase_if(tx->plans,
                  [radio](const PlannedRx& p) { return p.rx == radio; });
    tx->rebuildSlotIndex(radios_.size());
  };
  for (ActiveTx* tx : active_) scrub(tx);
  for (ActiveTx* tx : recent_) scrub(tx);
}

RadioEnvironment::ActiveTx* RadioEnvironment::acquireTx() {
  if (!freeTx_.empty()) {
    ActiveTx* tx = freeTx_.back();
    freeTx_.pop_back();
    tx->plans.clear();  // keeps capacity
    return tx;
  }
  pool_.push_back(std::make_unique<ActiveTx>());
  return pool_.back().get();
}

sim::SimTime RadioEnvironment::beginTransmission(Radio& src, Frame frame,
                                                 channel::PhyMode mode) {
  ActiveTx* tx = acquireTx();
  tx->id = nextFrameId_++;
  tx->src = src.id();
  frame.frameId = tx->id;
  tx->frame = std::move(frame);
  tx->mode = mode;
  tx->start = sim_.now();
  tx->end = sim_.now() + frameAirtime(mode, tx->frame.bytes);

  // Gather every other radio into the struct-of-arrays batch (receiver
  // order = attach order, as the scalar loop iterated), plan all links in
  // staged passes, then scatter into the per-transmission plan records.
  const geom::Vec2 txPos = src.position();
  batch_.clear();
  for (Radio* rx : radios_) {
    if (rx == &src) continue;
    batch_.add(rx->id(), rx->position());
  }
  OBS_COUNT_N("mac.link_evaluations", batch_.size());
  batch_.prepare();
  link_.planBatch(src.id(), txPos, src.txPowerDbm(), batch_, rng_);

  tx->plans.reserve(batch_.size());
  tx->planBySlot.assign(radios_.size(), -1);
  std::size_t i = 0;
  for (Radio* rx : radios_) {
    if (rx == &src) continue;
    tx->planBySlot[rx->envSlot()] =
        static_cast<std::int32_t>(tx->plans.size());
    tx->plans.push_back(
        PlannedRx{rx, batch_.meanDbm()[i], batch_.fadedDbm()[i]});
    ++i;
  }

  active_.push_back(tx);
  // Wake consolidated-backoff MACs now that the sensed-busy state may
  // have changed. Snapshot first: every listener removes itself from
  // mediumListeners_ while reacting.
  if (!mediumListeners_.empty()) {
    listenerScratch_ = mediumListeners_;
    for (MediumActivityListener* listener : listenerScratch_) {
      listener->onMediumActivity();
    }
  }
  ++stats_.framesTransmitted;
  // Raw-pointer capture: fits std::function's small buffer (no per-event
  // allocation). The pool owns `tx` for the environment's lifetime, and
  // the record cannot be recycled before this event runs (recycling only
  // happens once the record ages out of recent_, 50 ms *after* delivery).
  sim_.scheduleAt(tx->end, [this, tx] { deliver(tx); });
  return tx->end;
}

double RadioEnvironment::interferenceDbmAt(const Radio* rx,
                                           const ActiveTx& target) const {
  double totalMw = 0.0;
  const auto accumulate = [&](const ActiveTx& other) {
    if (other.id == target.id) return;
    if (other.start >= target.end || target.start >= other.end) return;
    if (const PlannedRx* plan = other.planFor(rx)) {
      totalMw += dbmToMilliwatt(plan->fadedDbm);
    }
  };
  for (const ActiveTx* other : active_) accumulate(*other);
  for (const ActiveTx* other : recent_) accumulate(*other);
  return totalMw > 0.0 ? milliwattToDbm(totalMw)
                       : -std::numeric_limits<double>::infinity();
}

double RadioEnvironment::interferenceDbmFromOverlap(const Radio* rx) const {
  // Same accumulation (and order: active_ then recent_) as
  // interferenceDbmAt, over the overlap set hoisted once per delivery.
  double totalMw = 0.0;
  for (const ActiveTx* other : overlap_) {
    if (const PlannedRx* plan = other->planFor(rx)) {
      totalMw += dbmToMilliwatt(plan->fadedDbm);
    }
  }
  return totalMw > 0.0 ? milliwattToDbm(totalMw)
                       : -std::numeric_limits<double>::infinity();
}

void RadioEnvironment::pruneRecent() {
  const sim::SimTime horizon = sim_.now() - kOverlapWindow;
  std::erase_if(recent_, [&](ActiveTx* tx) {
    if (tx->end >= horizon) return false;
    freeTx_.push_back(tx);  // recycle: no pending event references it
    return true;
  });
}

void RadioEnvironment::deliver(ActiveTx* tx) {
  // Move from in-flight to recent before evaluating receivers, so the frame
  // no longer contributes to carrier sensing but still counts as
  // interference for overlapping frames.
  std::erase(active_, tx);
  recent_.push_back(tx);
  pruneRecent();

  // Batch-occupancy histogram: how many receiver plans this delivery
  // processes at once, i.e. how full the SIMD lanes of the batched
  // pipeline run. Visible in any campaign's counter snapshot.
  {
    const std::size_t occupancy = tx->plans.size();
    if (occupancy <= 1) {
      OBS_COUNT("mac.batch_size_1");
    } else if (occupancy <= 4) {
      OBS_COUNT("mac.batch_size_2_4");
    } else if (occupancy <= 8) {
      OBS_COUNT("mac.batch_size_5_8");
    } else {
      OBS_COUNT("mac.batch_size_9plus");
    }
  }

  const channel::LinkBudget& budget = link_.budget();
  const int bits = frameBits(tx->frame.bytes);
  if (budget.noiseFloorDbm != noiseFloorKeyDbm_) {
    noiseFloorKeyDbm_ = budget.noiseFloorDbm;
    noiseMw_ = dbmToMilliwatt(budget.noiseFloorDbm);
    noiseOnlyDbm_ = milliwattToDbm(noiseMw_);
  }
  const double noiseMw = noiseMw_;
  const double noiseOnlyDbm = noiseOnlyDbm_;

  // The overlap set is a property of the transmission, not the receiver:
  // hoist it out of the gate loop (active_ then recent_, the accumulation
  // order of interferenceDbmAt). In the common no-overlap case every
  // receiver then reuses one noise-only denominator instead of paying a
  // log10 each (x + 0.0 == x for the positive noiseMw, so the shared
  // value is bit-identical to the per-receiver computation).
  overlap_.clear();
  for (ActiveTx* other : active_) {
    if (other->id != tx->id && other->start < tx->end &&
        tx->start < other->end) {
      overlap_.push_back(other);
    }
  }
  for (ActiveTx* other : recent_) {
    if (other->id != tx->id && other->start < tx->end &&
        tx->start < other->end) {
      overlap_.push_back(other);
    }
  }

  // Stage 1 -- gates, one pass over the contiguous plan array: half-duplex,
  // sensitivity, capture-vs-interference. No RNG is consumed here, so
  // hoisting the gates off the per-receiver draw loop cannot reorder any
  // stream. Receiver callbacks have not run yet either: MACs never
  // transmit synchronously from a delivery (the CSMA kick schedules a
  // timer), so gate inputs cannot depend on this stage's outcome order.
  survivorIdx_.clear();
  survivorSinrDb_.clear();
  for (std::size_t i = 0; i < tx->plans.size(); ++i) {
    const PlannedRx& plan = tx->plans[i];
    if (plan.rx->transmittedDuring(tx->start, tx->end)) {
      ++stats_.framesHalfDuplexMissed;
      OBS_COUNT("mac.frames_dropped");
      continue;
    }
    if (plan.fadedDbm < budget.sensitivityDbm) {
      ++stats_.framesBelowSensitivity;
      OBS_COUNT("mac.frames_dropped");
      continue;
    }
    double sinrDb;
    if (overlap_.empty()) {
      sinrDb = plan.fadedDbm - noiseOnlyDbm;
    } else {
      const double interferenceDbm = interferenceDbmFromOverlap(plan.rx);
      const double interferenceMw = std::isinf(interferenceDbm)
                                        ? 0.0
                                        : dbmToMilliwatt(interferenceDbm);
      sinrDb = plan.fadedDbm - milliwattToDbm(noiseMw + interferenceMw);
      if (interferenceMw > 0.0 && sinrDb < budget.captureThresholdDb) {
        ++stats_.framesCollided;
        OBS_COUNT("mac.frames_dropped");
        continue;
      }
    }
    survivorIdx_.push_back(static_cast<std::uint32_t>(i));
    survivorSinrDb_.push_back(sinrDb);
  }

  // Stage 2 -- decode probabilities for all survivors, batched (pure
  // function of SINR; no draws).
  survivorPSuccess_.resize(survivorIdx_.size());
  link_.successProbabilityBatch(tx->mode, survivorSinrDb_.data(), bits,
                                survivorPSuccess_.data(), survivorIdx_.size());

  // Stage 3 -- conditional draws and delivery, in receiver order: the
  // decode bernoulli on the environment stream, then the burst-chain
  // advance, exactly the per-survivor sequence of the scalar loop.
  for (std::size_t k = 0; k < survivorIdx_.size(); ++k) {
    const PlannedRx& plan = tx->plans[survivorIdx_[k]];
    Radio* rx = plan.rx;
    const double sinrDb = survivorSinrDb_[k];
    if (!rng_.bernoulli(survivorPSuccess_[k])) {
      ++stats_.framesChannelError;
      OBS_COUNT("mac.frames_dropped");
      // The frame was detected (preamble robust, above sensitivity) but
      // the payload failed: radios that opted in receive it with its
      // SINR so they can soft-combine copies (C-ARQ/FC).
      if (rx->wantsCorruptFrames()) {
        ++stats_.framesCorruptDelivered;
        rx->onFrameCorrupted(tx->frame,
                             RxInfo{tx->src, plan.fadedDbm, sinrDb, sim_.now()});
      }
      continue;
    }
    if (link_.burstLoss(tx->src, rx->id(), sim_.now(),
                        static_cast<int>(tx->frame.kind))) {
      ++stats_.framesBurstLost;
      OBS_COUNT("mac.frames_dropped");
      continue;
    }
    ++stats_.framesDelivered;
    OBS_COUNT("mac.frames_delivered");
    rx->onFrameDelivered(tx->frame,
                         RxInfo{tx->src, plan.fadedDbm, sinrDb, sim_.now()});
  }
}

void RadioEnvironment::addMediumListener(MediumActivityListener* listener) {
  mediumListeners_.push_back(listener);
}

void RadioEnvironment::removeMediumListener(
    MediumActivityListener* listener) noexcept {
  std::erase(mediumListeners_, listener);
}

bool RadioEnvironment::channelBusy(const Radio& sensor) const {
  if (sensor.transmitting()) return true;
  const double threshold = link_.budget().carrierSenseDbm;
  for (const ActiveTx* tx : active_) {
    if (tx->src == sensor.id()) continue;
    if (const PlannedRx* plan = tx->planFor(&sensor)) {
      if (plan->meanDbm >= threshold) return true;
    }
  }
  return false;
}

sim::SimTime RadioEnvironment::channelBusyUntil(const Radio& sensor) const {
  sim::SimTime until = sim_.now();
  if (sensor.transmitting()) until = std::max(until, sensor.transmitUntil());
  const double threshold = link_.budget().carrierSenseDbm;
  for (const ActiveTx* tx : active_) {
    if (tx->src == sensor.id()) continue;
    if (const PlannedRx* plan = tx->planFor(&sensor)) {
      if (plan->meanDbm >= threshold) until = std::max(until, tx->end);
    }
  }
  return until;
}

}  // namespace vanet::mac
