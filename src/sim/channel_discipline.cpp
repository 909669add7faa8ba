#include "sim/channel_discipline.hpp"

#include <algorithm>
#include <utility>

#include "channel/pseudo_bayesian.hpp"
#include "support/check.hpp"

namespace mmn::sim {

const char* discipline_name(DisciplineKind kind) {
  switch (kind) {
    case DisciplineKind::kFreeForAll: return "freeforall";
    case DisciplineKind::kTdma: return "tdma";
    case DisciplineKind::kCapetanakis: return "capetanakis";
    case DisciplineKind::kUnslotted: return "unslotted";
    case DisciplineKind::kPseudoBayesian: return "pseudobayes";
    case DisciplineKind::kReservation: return "reservation";
  }
  MMN_REQUIRE(false, "unknown discipline kind");
  return "";
}

std::unique_ptr<ChannelDiscipline> make_discipline(
    DisciplineKind kind, const UnslottedConfig& unslotted, std::uint64_t seed) {
  switch (kind) {
    case DisciplineKind::kFreeForAll:
      return std::make_unique<FreeForAllDiscipline>();
    case DisciplineKind::kTdma:
      return std::make_unique<TdmaDiscipline>();
    case DisciplineKind::kCapetanakis:
      return std::make_unique<CapetanakisDiscipline>();
    case DisciplineKind::kUnslotted:
      return std::make_unique<UnslottedDiscipline>(unslotted);
    case DisciplineKind::kPseudoBayesian:
      return std::make_unique<PseudoBayesianDiscipline>(seed);
    case DisciplineKind::kReservation:
      return std::make_unique<ReservationDiscipline>(seed);
  }
  MMN_REQUIRE(false, "unknown discipline kind");
  return nullptr;
}

// ---- free-for-all ----------------------------------------------------------

SlotObservation FreeForAllDiscipline::slot(std::span<const ChannelWrite> writes,
                                           Channel& channel, Metrics& metrics) {
  for (const ChannelWrite& w : writes) channel.write(w.node, w.packet);
  return channel.resolve(metrics);
}

// ---- TDMA ------------------------------------------------------------------

void TdmaDiscipline::reset(NodeId n) {
  MMN_REQUIRE(n >= 1, "TDMA needs at least one station");
  n_ = n;
  slot_ = 0;
  backlog_ = 0;
  pending_.assign(n, std::nullopt);
}

SlotObservation TdmaDiscipline::slot(std::span<const ChannelWrite> writes,
                                     Channel& channel, Metrics& metrics) {
  for (const ChannelWrite& w : writes) {
    MMN_REQUIRE(w.node < n_, "writer id out of range");
    if (!pending_[w.node]) ++backlog_;
    pending_[w.node] = w.packet;
  }
  const NodeId owner = static_cast<NodeId>(slot_ % n_);
  ++slot_;
  if (pending_[owner]) {
    channel.write(owner, *pending_[owner]);
    pending_[owner].reset();
    --backlog_;
  }
  return channel.resolve(metrics);
}

void TdmaDiscipline::stifle(NodeId v) {
  if (v < pending_.size() && pending_[v].has_value()) {
    pending_[v].reset();
    --backlog_;
  }
}

// ---- Capetanakis -----------------------------------------------------------

void CapetanakisDiscipline::reset(NodeId n) {
  MMN_REQUIRE(n >= 1, "tree resolution needs a non-empty id space");
  n_ = n;
  epoch_.clear();
  waiting_.clear();
  resolver_.reset();
}

SlotObservation CapetanakisDiscipline::slot(std::span<const ChannelWrite> writes,
                                            Channel& channel,
                                            Metrics& metrics) {
  for (const ChannelWrite& w : writes) {
    MMN_REQUIRE(w.node < n_, "writer id out of range");
    // A re-write from an id already scheduled refreshes its payload (the
    // node re-keys its request); a new id waits for the next epoch so the
    // running traversal's contender set stays fixed.
    if (auto it = epoch_.find(w.node); it != epoch_.end()) {
      it->second = w.packet;
    } else {
      waiting_.insert_or_assign(w.node, w.packet);
    }
  }
  if (!resolver_ && !waiting_.empty()) {
    epoch_ = std::move(waiting_);
    waiting_.clear();
    resolver_.emplace(n_);
  }
  if (!resolver_) {
    return channel.resolve(metrics);  // no pending work: the slot idles
  }
  const auto probe = resolver_->probe();
  MMN_ASSERT(probe.has_value(), "live resolver must have a probe interval");
  for (auto it = epoch_.lower_bound(static_cast<NodeId>(probe->first));
       it != epoch_.end() && it->first < probe->second; ++it) {
    channel.write(it->first, it->second);
  }
  const SlotObservation obs = channel.resolve(metrics);
  resolver_->observe(obs);
  if (obs.success()) epoch_.erase(obs.writer);
  if (resolver_->done()) {
    MMN_ASSERT(epoch_.empty(), "traversal ended with unresolved contenders");
    resolver_.reset();
  }
  return obs;
}

void CapetanakisDiscipline::stifle(NodeId v) {
  // Mid-traversal removal is benign: the probe interval that held v now
  // reads one contender lighter (possibly idle) and the resolver follows
  // the channel feedback as always; the traversal still retires every
  // remaining contender.  std::map::erase frees, never allocates.
  epoch_.erase(v);
  waiting_.erase(v);
}

// ---- pseudo-Bayesian stabilized Aloha --------------------------------------

void PseudoBayesianDiscipline::stifle(NodeId v) {
  if (v < pending_.size() && pending_[v].has_value()) {
    pending_[v].reset();
    withdraw(v);
  }
}

void PseudoBayesianDiscipline::withdraw(NodeId v) {
  const auto it =
      std::lower_bound(pending_ids_.begin(), pending_ids_.end(), v);
  MMN_ASSERT(it != pending_ids_.end() && *it == v, "station is not pending");
  pending_ids_.erase(it);
}

void PseudoBayesianDiscipline::reset(NodeId n) {
  MMN_REQUIRE(n >= 1, "stabilized Aloha needs at least one station");
  n_ = n;
  nu_ = 1.0;
  pending_.assign(n, std::nullopt);
  pending_ids_.clear();
}

SlotObservation PseudoBayesianDiscipline::slot(
    std::span<const ChannelWrite> writes, Channel& channel, Metrics& metrics) {
  for (const ChannelWrite& w : writes) file(w);
  return contend(channel, metrics);
}

void PseudoBayesianDiscipline::file(const ChannelWrite& w) {
  MMN_REQUIRE(w.node < n_, "writer id out of range");
  if (!pending_[w.node]) {
    pending_ids_.insert(
        std::lower_bound(pending_ids_.begin(), pending_ids_.end(), w.node),
        w.node);
  }
  pending_[w.node] = w.packet;  // re-write replaces (head-of-line re-key)
}

SlotObservation PseudoBayesianDiscipline::contend(Channel& channel,
                                                  Metrics& metrics) {
  // Each pending station transmits with probability min(1, 1/nu).  Ascending
  // node order, one draw per pending station: the draw sequence is a pure
  // function of the committed write sequence and past outcomes.
  const double p = nu_ <= 1.0 ? 1.0 : 1.0 / nu_;
  for (const NodeId v : pending_ids_) {
    if (rng_.next_bernoulli(p)) channel.write(v, *pending_[v]);
  }
  const SlotObservation obs = channel.resolve(metrics);
  nu_ = rivest_update(nu_, obs.collision());
  if (obs.success()) {
    pending_[obs.writer].reset();
    withdraw(obs.writer);
  }
  return obs;
}

// ---- reservation (multimedia MAC) ------------------------------------------

void ReservationDiscipline::reset(NodeId n) {
  MMN_REQUIRE(n >= 1, "reservation MAC needs at least one station");
  n_ = n;
  queue_.assign(n, kNoNode);
  queue_head_ = 0;
  queue_size_ = 0;
  queued_.assign(n, 0);
  pending_.assign(n, Packet{});
  data_.reset(n);
}

SlotObservation ReservationDiscipline::slot(std::span<const ChannelWrite> writes,
                                            Channel& channel,
                                            Metrics& metrics) {
  // Pass 1 — classify.  Reserved classes (voice/video) file a grant request,
  // modeled as arriving over the collision-free reservation minislots; the
  // FIFO ring has capacity n because each station holds at most one grant
  // (the engines enforce one write per slot, and a queued station's
  // re-write only refreshes its pending payload — the head-of-line re-key,
  // same as TDMA/Capetanakis).  Data-class writes land as the data lane's
  // pending transmissions, also with replace semantics.
  for (const ChannelWrite& w : writes) {
    MMN_REQUIRE(w.node < n_, "writer id out of range");
    if (queued_[w.node]) {
      pending_[w.node] = w.packet;
    } else if (qos_of_tag(w.packet.type()) != QosClass::kData) {
      queued_[w.node] = 1;
      pending_[w.node] = w.packet;
      queue_[(queue_head_ + queue_size_) % queue_.size()] = w.node;
      ++queue_size_;
    } else {
      data_.file(w);
    }
  }
  // Pass 2 — resolve.  A non-empty queue owns the slot: the head station
  // transmits exclusively, collision-free by construction, and the data
  // lane neither transmits nor updates its estimate (it learns nothing
  // from a slot it was barred from).  Only queue-free slots fall through
  // to the data lane's pseudo-Bayesian lottery.
  if (queue_size_ > 0) {
    const NodeId v = queue_[queue_head_];
    queue_head_ = (queue_head_ + 1) % queue_.size();
    --queue_size_;
    queued_[v] = 0;
    channel.write(v, pending_[v]);
    return channel.resolve(metrics);
  }
  return data_.contend(channel, metrics);
}

void ReservationDiscipline::stifle(NodeId v) {
  if (v >= queued_.size()) return;
  if (queued_[v]) {
    // Compact v out of the FIFO ring in place, preserving grant order for
    // everyone else.  O(queue occupancy) and allocation-free — crashes are
    // rare slot-boundary events, not hot-path work.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < queue_size_; ++i) {
      const NodeId u = queue_[(queue_head_ + i) % queue_.size()];
      if (u == v) continue;
      queue_[(queue_head_ + kept) % queue_.size()] = u;
      ++kept;
    }
    queue_size_ = kept;
    queued_[v] = 0;
  }
  data_.stifle(v);
}

// ---- unslotted busy-tone emulation -----------------------------------------

void UnslottedDiscipline::reset(NodeId n) {
  MMN_REQUIRE(n >= 1, "need at least one station");
  MMN_REQUIRE(config_.transmit_ticks >= 1, "transmissions need positive length");
  MMN_REQUIRE(config_.idle_gap_ticks >= 1, "idle gap must be positive");
  n_ = n;
  boundary_ = 0;
  rng_ = Rng(config_.seed);
}

SlotObservation UnslottedDiscipline::slot(std::span<const ChannelWrite> writes,
                                          Channel& channel, Metrics& metrics) {
  // The shared continuous-time envelope step (sim/unslotted.hpp): per-writer
  // reaction jitter, fixed transmission lengths, boundary one idle gap after
  // the last carrier drops.  Containment holds by construction — every
  // start lies strictly after the boundary, every end strictly before the
  // next.
  for (const ChannelWrite& w : writes) {
    MMN_REQUIRE(w.node < n_, "writer id out of range");
    channel.write(w.node, w.packet);
  }
  boundary_ = unslotted_envelope_step(boundary_, writes.size(), config_, rng_);
  metrics.channel_ticks = boundary_;  // boundary_ is the cumulative envelope
  // Listeners count carriers between the emergent boundaries; that derived
  // outcome equals the ideally slotted one (the Section 7.2 equivalence).
  return channel.resolve(metrics);
}

}  // namespace mmn::sim
