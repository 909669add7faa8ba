// Open-loop QoS stations: the workload half of the traffic subsystem.
//
// Each node runs an open-loop station: a TrafficSource (sim/traffic.hpp)
// pushes arrivals at it every slot regardless of channel state, each
// arrival is assigned a QosClass from the configured mix, and the station
// keeps one FIFO per class.  Every slot the station re-writes the
// head-of-line packet of its most urgent non-empty queue to the channel —
// the station carries no medium-access logic of its own; the registered
// ChannelDiscipline is the MAC (the ContentionGlobalProcess pattern).  A
// write that the discipline defers or loses is simply re-written next slot
// with the same enqueue stamp, so replace semantics in the discipline
// never lose a packet.
//
// When a station observes its own transmission succeed it pops that head,
// folds the enqueue->delivery delay into the shard's LatencyRecorder
// block, and (optionally) gossips a delivery notice to its neighbors —
// the point-to-point leg that keeps the message arena exercised under
// steady open-loop load and makes the topology family visible in the
// run's traffic.  Stations stop generating at `horizon` slots and report
// finished; a deferring discipline then drains its backlog while rounds
// continue (the engines keep stepping until the channel idles).  One
// boundary artifact is accepted: the synchronous engine stops the moment
// the channel idles, so the observation round of the very last drained
// transmission may not run — that delivery goes unrecorded (at most one
// packet, identically under every scheduler).
//
// Both engine variants exist — OpenLoopProcess for lockstep rounds and
// AsyncOpenLoopProcess for the native slot-phase policy (no synchronizer:
// stations tolerate deferred slots, so deferring disciplines are fine
// here, unlike the synchronizer path scenario::run guards).  Both fold
// identical per-node state, exposed through OpenLoopStats for digests.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/async_engine.hpp"
#include "sim/engine.hpp"
#include "sim/traffic.hpp"

namespace mmn {

/// Channel payload of an open-loop station: word 0 is the enqueue slot.
/// The QosClass rides in the tag's class bits (qos_tagged).
inline constexpr std::uint16_t kLoadPacketType = 0x2F0;
/// Delivery-notice gossip to neighbors: words are {enqueue slot, delay}.
inline constexpr std::uint16_t kLoadNotifyType = 0x2F1;

struct OpenLoopConfig {
  sim::ArrivalKind arrivals = sim::ArrivalKind::kPoisson;
  /// Aggregate offered load, packets per slot across ALL stations; each
  /// node's TrafficSource runs at offered / n.  The channel serves at most
  /// one packet per slot, so offered > 1 is guaranteed saturation.
  double offered = 0.5;
  /// Class mix of arrivals (voice, video, data); normalized internally.
  std::array<double, sim::kNumQosClasses> mix{0.25, 0.25, 0.50};
  /// Slots of arrival generation; stations finish once it elapses.
  std::uint64_t horizon = 1200;
  /// Gossip a delivery notice to neighbors on every own success.
  bool gossip = true;
};

/// Per-node open-loop tallies, identical across engines and schedulers.
struct OpenLoopCounters {
  std::array<std::uint64_t, sim::kNumQosClasses> arrivals{};
  std::array<std::uint64_t, sim::kNumQosClasses> delivered{};
  std::array<std::uint64_t, sim::kNumQosClasses> delay_sum{};
  std::uint64_t gossip_seen = 0;      ///< delivery notices read from inbox
  std::uint64_t gossip_checksum = 0;  ///< order-sensitive fold over notices
};

/// Engine-generic read surface of a station, for digests and tests.
class OpenLoopStats {
 public:
  virtual ~OpenLoopStats() = default;
  virtual const OpenLoopCounters& counters() const = 0;
  /// Undelivered packets queued at this station in the given class.
  virtual std::uint64_t backlog(sim::QosClass cls) const = 0;
  /// FNV-1a fold of every counter, queue depth, and head stamp — one word
  /// per node that pins the station's externally visible state bit for bit.
  virtual std::uint64_t digest_word() const = 0;
};

/// One station's queues + counters, shared by both engine variants.  The
/// per-slot steps are templates over the context type: NodeContext and
/// AsyncContext expose the same rng()/note_arrivals()/record_latency()/
/// broadcast() surface, and the instantiations stay byte-for-byte the same
/// logic, which is what keeps the two engines' per-node state comparable.
struct OpenLoopStation {
  /// One per-class FIFO of enqueue slots.  pop() recycles the backing
  /// vector once drained, so a stable station reaches a high-water
  /// capacity during warmup and never allocates again.
  struct SlotQueue {
    std::vector<std::uint64_t> buf;
    std::size_t head = 0;

    bool empty() const { return head == buf.size(); }
    std::uint64_t size() const { return buf.size() - head; }
    std::uint64_t front() const { return buf[head]; }
    void push(std::uint64_t enq) {
      if (head != 0 && head == buf.size()) {
        buf.clear();
        head = 0;
      }
      buf.push_back(enq);
    }
    void pop() {
      ++head;
      if (head == buf.size()) {
        buf.clear();
        head = 0;
      }
    }
  };

  OpenLoopStation(const sim::LocalView& view, const OpenLoopConfig& config);

  OpenLoopConfig config;
  sim::TrafficSource source;
  std::array<double, sim::kNumQosClasses> cum_mix{};  // normalized cumulative
  std::array<SlotQueue, sim::kNumQosClasses> queues;
  OpenLoopCounters counters;

  std::uint64_t backlog(sim::QosClass cls) const {
    return queues[static_cast<std::size_t>(cls)].size();
  }
  std::uint64_t digest_word() const;

  /// Most urgent non-empty queue, or -1 when idle.
  int head_class() const {
    for (std::size_t c = 0; c < sim::kNumQosClasses; ++c) {
      if (!queues[c].empty()) return static_cast<int>(c);
    }
    return -1;
  }

  /// The head-of-line packet the station (re-)writes this slot.
  sim::Packet head_packet() const {
    const int c = head_class();
    MMN_DCHECK(c >= 0, "head_packet on an idle station");
    const auto cls = static_cast<sim::QosClass>(c);
    return sim::Packet(
        sim::qos_tagged(kLoadPacketType, cls),
        {static_cast<sim::Word>(queues[static_cast<std::size_t>(c)].front())});
  }

  /// Draws this slot's arrivals and classes from the node's own stream and
  /// queues them; folds per-class counts into the shard's recorder block.
  template <typename Ctx>
  void arrive(Ctx& ctx, std::uint64_t slot) {
    const std::uint32_t k = source.arrivals(ctx.rng());
    std::array<std::uint32_t, sim::kNumQosClasses> fresh{};
    for (std::uint32_t i = 0; i < k; ++i) {
      const double u = ctx.rng().next_double();
      std::size_t c = 0;
      while (c + 1 < sim::kNumQosClasses && u >= cum_mix[c]) ++c;
      queues[c].push(slot);
      ++fresh[c];
    }
    for (std::size_t c = 0; c < sim::kNumQosClasses; ++c) {
      if (fresh[c] == 0) continue;
      counters.arrivals[c] += fresh[c];
      ctx.note_arrivals(static_cast<sim::QosClass>(c), fresh[c]);
    }
  }

  /// Handles this station's own successful transmission: pops the matching
  /// head, records the delay, gossips the delivery notice.
  template <typename Ctx>
  void delivered(Ctx& ctx, const sim::Packet& payload,
                 std::uint64_t delivered_slot) {
    const sim::QosClass cls = sim::qos_of_tag(payload.type());
    const auto c = static_cast<std::size_t>(cls);
    const auto enq = static_cast<std::uint64_t>(payload[0]);
    MMN_ASSERT(!queues[c].empty() && queues[c].front() == enq,
               "delivered payload does not match the head-of-line packet");
    queues[c].pop();
    const std::uint64_t delay = delivered_slot - enq;
    ++counters.delivered[c];
    counters.delay_sum[c] += delay;
    ctx.record_latency(cls, delay);
    if (config.gossip) {
      ctx.broadcast(sim::Packet(kLoadNotifyType,
                                {static_cast<sim::Word>(enq),
                                 static_cast<sim::Word>(delay)}));
    }
  }

  /// Folds one neighbor's delivery notice into the gossip checksum.
  void fold_gossip(NodeId from, const sim::Packet& pkt);
};

/// The synchronous station.
class OpenLoopProcess final : public sim::Process, public OpenLoopStats {
 public:
  OpenLoopProcess(const sim::LocalView& view, const OpenLoopConfig& config);

  void round(sim::NodeContext& ctx) override;
  bool finished() const override { return done_; }

  const OpenLoopCounters& counters() const override { return state_.counters; }
  std::uint64_t backlog(sim::QosClass cls) const override {
    return state_.backlog(cls);
  }
  std::uint64_t digest_word() const override { return state_.digest_word(); }

 private:
  OpenLoopStation state_;
  bool done_ = false;
};

/// The asynchronous station — the same state machine on the slot-phase
/// policy, without the synchronizer (deferring disciplines welcome: an
/// open-loop station reads nothing into idle slots).
class AsyncOpenLoopProcess final : public sim::AsyncProcess,
                                   public OpenLoopStats {
 public:
  AsyncOpenLoopProcess(const sim::LocalView& view, const OpenLoopConfig& config);

  void start(sim::AsyncContext& ctx) override;
  void on_message(const sim::Received& msg, sim::AsyncContext& ctx) override;
  void on_slot(const sim::SlotObservation& obs, sim::AsyncContext& ctx) override;
  bool finished() const override { return done_; }

  const OpenLoopCounters& counters() const override { return state_.counters; }
  std::uint64_t backlog(sim::QosClass cls) const override {
    return state_.backlog(cls);
  }
  std::uint64_t digest_word() const override { return state_.digest_word(); }

 private:
  OpenLoopStation state_;
  bool done_ = false;
};

/// Station factories.  `n` (for the per-node rate offered / n) comes from
/// each node's view, so the factories close over only the config.
sim::ProcessFactory make_open_loop_factory(const OpenLoopConfig& config);
sim::AsyncProcessFactory make_open_loop_async_factory(
    const OpenLoopConfig& config);

/// Node-major FNV-1a fold over stations [begin, begin + n), starting the
/// accumulator at h0.  The defaults fold the whole run from the offset
/// basis; a sharded scenario::run chains per-window folds through h0 to
/// reproduce the serial digest bit for bit.
std::uint64_t open_loop_digest(
    NodeId n, const std::function<const OpenLoopStats&(NodeId)>& at,
    NodeId begin = 0, std::uint64_t h0 = 0xcbf29ce484222325ULL);

}  // namespace mmn
