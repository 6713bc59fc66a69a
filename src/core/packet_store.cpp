#include "core/packet_store.h"

#include <algorithm>

#include "util/assert.h"

namespace vanet::carq {

void PacketStore::noteDirect(SeqNo seq) {
  VANET_DASSERT(seq > 0, "sequence numbers start at 1");
  if (!direct_.insert(seq)) {
    ++duplicates_;
    return;
  }
  if (firstSeen_ == 0 || seq < firstSeen_) firstSeen_ = seq;
  lastSeen_ = std::max(lastSeen_, seq);
}

void PacketStore::noteRecovered(SeqNo seq) {
  if (direct_.contains(seq) || !recovered_.insert(seq)) {
    ++duplicates_;
  }
}

bool PacketStore::hasOwn(SeqNo seq) const {
  return direct_.contains(seq) || recovered_.contains(seq);
}

std::vector<SeqNo> PacketStore::missingInWindow() const {
  if (firstSeen_ == 0) return {};
  return missingInRange(firstSeen_, lastSeen_);
}

std::vector<SeqNo> PacketStore::missingInRange(SeqNo lo, SeqNo hi) const {
  std::vector<SeqNo> missing;
  for (SeqNo seq = lo; seq <= hi; ++seq) {
    if (!hasOwn(seq)) missing.push_back(seq);
  }
  return missing;
}

bool PacketStore::holdsAll(SeqNo lo, SeqNo hi) const {
  if (hi < lo) return true;
  // The two sets can overlap (a recovered packet may arrive directly
  // later), so their summed size only bounds the union from above.
  if (direct_.size() + recovered_.size() <
      static_cast<std::size_t>(hi - lo) + 1) {
    return false;
  }
  for (SeqNo seq = lo; seq <= hi; ++seq) {
    if (!hasOwn(seq)) return false;
  }
  return true;
}

void PacketStore::buffer(FlowId flow, SeqNo seq, int payloadBytes) {
  ForeignFlow& foreign = foreign_[flow];
  foreign.seqs.insert(seq);
  foreign.payloadBytes = payloadBytes;
}

bool PacketStore::hasBuffered(FlowId flow, SeqNo seq) const {
  const auto it = foreign_.find(flow);
  return it != foreign_.end() && it->second.seqs.contains(seq);
}

int PacketStore::bufferedPayloadBytes(FlowId flow) const {
  const auto it = foreign_.find(flow);
  return it != foreign_.end() ? it->second.payloadBytes : 0;
}

std::size_t PacketStore::bufferedCount() const {
  std::size_t total = 0;
  for (const auto& [flow, foreign] : foreign_) {
    total += foreign.seqs.size();
  }
  return total;
}

std::vector<std::pair<FlowId, SeqNo>> PacketStore::bufferedMaxSeqs() const {
  std::vector<std::pair<FlowId, SeqNo>> out;
  out.reserve(foreign_.size());
  for (const auto& [flow, foreign] : foreign_) {
    if (!foreign.seqs.empty()) out.emplace_back(flow, foreign.seqs.max());
  }
  return out;
}

}  // namespace vanet::carq
