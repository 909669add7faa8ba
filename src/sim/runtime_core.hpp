// The shared execution substrate of the multimedia-network model.
//
// Both engines — the synchronous lockstep Engine and the tick-driven
// AsyncEngine (Section 7) — simulate the same object: n nodes with local
// views, per-node RNG streams forked from one seed, point-to-point links,
// and one shared collision channel whose slot costs one time unit.
// RuntimeCore owns that substrate exactly once, together with everything
// both engines would otherwise keep twice: the fault runtime and the crash
// gate in front of every handler call, the per-node finished flags and
// their per-shard outstanding counters, the one round/slot counter, and
// the public folds of the channel record (PublicFold).
// StagingContext is the fault-gated, payload-interning send path that
// NodeContext and AsyncContext share.  The engines are thin stepping
// policies over it: each adds only its stepping order and the header it
// files per send.
//
// Hot-path data layout (the full argument lives in ARCHITECTURE.md):
// message delivery is structure-of-arrays.  A staged send is a small POD
// header (destination, sender, link, plus tick/seq stamps on the
// asynchronous path) carrying a PacketRef index into a packet pool; the
// per-round counting sort in MessageArena::flip and the bucket drain in
// SlotBuckets::stage move 16–32-byte headers while the 80-byte payloads
// stay put.  The count/prefix passes of both run through the runtime-
// dispatched kernels in support/simd.hpp (AVX2 on capable hosts, scalar
// reference otherwise, pinnable via MMN_FORCE_SCALAR); broadcast() interns
// one pooled payload behind deg(v) headers instead of staging deg(v)
// copies.  Pools and ring buckets are recycled at their high-water-mark
// capacity, so a warmed-up run performs zero heap allocations per round.
// Determinism is unchanged: shards are contiguous ascending node ranges,
// so concatenating their header buffers in shard order reproduces the
// serial send order bit for bit (see sim/scheduler.hpp) — the payload
// indirection never participates in ordering.
//
// A core may own only a window [lo, hi) of the nodes: rank r of a K-rank
// run (sim/rank.hpp) steps Scheduler::shard_range(n, r, K) and swaps its
// cross-window effects with the other ranks through a Transport
// (sim/shard_comm.hpp) once per round.  On a single rank the window is
// [0, n) and no exchange code runs.
//
// The active set: a synchronous round steps only the nodes that have work.
// A process may ask to sleep (NodeContext::sleep) until a message arrives
// for it or a channel slot resolves idle — SteppedProcess does, in barrier
// steps, whose quiet rounds are no-ops by contract (core/stepped.hpp) — or
// to doze (NodeContext::doze) until a message arrives or a public fold's
// event fires — SteppedProcess does in observed steps whose public state
// the engine folds (PublicFold).  The core keeps a sleep bit and a doze
// bit per node beside its finished bit: a request sets one, and at commit
// time every destination in the round's flip (own shards and rank ingress
// alike) clears both, an idle resolved slot clears every sleep bit and a
// fold's event every doze bit.  The folds themselves are folded once per
// round, on one thread, right after the slot resolves and before the
// wake; the asynchronous policy folds none.  Each shard's loop still
// visits its range in ascending order, skipping the nodes with either bit
// set, and shards commit in ascending order; a skipped round would have
// drawn no RNG and staged nothing, so every digest, Metrics and FaultStats
// is what stepping every node gives.  While nobody rests the loop tests no
// bit, and the asynchronous policy never sets one.  The one virtual call
// is per stepped node, not per node.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "graph/epoch.hpp"
#include "graph/graph.hpp"
#include "sim/channel.hpp"
#include "sim/channel_discipline.hpp"
#include "sim/fault.hpp"
#include "sim/message.hpp"
#include "sim/scheduler.hpp"
#include "sim/traffic.hpp"
#include "support/check.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"

namespace mmn::sim {

namespace shard_comm {
class Transport;
}

/// Outcome of an engine's last step()/run() call.  Shared by both stepping
/// policies: AsyncEngine has reported it since PR 2; the synchronous Engine
/// grew the same non-aborting surface in the fault PR.  kSlotCapReached
/// means the budget ran out with work outstanding — the run is capped, not
/// corrupted: metrics, latency summaries, and digests are all well-formed.
enum class RunStatus : std::uint8_t {
  kRunning,
  kCompleted,
  kSlotCapReached,
};

/// One incident link as known locally by a node — the graph layer's packed
/// adjacency row itself (graph/graph.hpp).  The former sim-local twin
/// struct is gone: a LocalView windows the Graph's CSR arena directly.
using mmn::Neighbor;

/// A node's a-priori knowledge: its id, its links sorted by ascending weight,
/// and the network size n (assumed known, Section 2; Section 7.3/7.4 shows
/// how to compute/estimate it — see core/size.hpp).
///
/// A 16-byte non-owning view: `links()` is a zero-copy window into the
/// topology's shared CSR arena (or an O(1) generator on the implicit dense
/// families) and `link_index` resolves through the graph's shared per-edge
/// slab — nothing is copied per node, so RuntimeCore construction is O(n)
/// regardless of m.  The Graph must outlive every view (RuntimeCore, the
/// engines, and every Process hold views by reference).
struct LocalView {
  NodeId self = kNoNode;
  NodeId n = 0;
  const Graph* topo = nullptr;

  /// This node's links, ascending weight.  Value-semantic range — build it
  /// per access (range-for keeps it alive for the loop), don't store it.
  NeighborRange links() const { return topo->neighbors(self); }

  std::uint32_t degree() const { return topo->degree(self); }

  /// Index into links() of the given edge, or -1 if not incident.  O(1)
  /// from the edge's canonical endpoint, O(log degree) otherwise.
  int link_index(EdgeId edge) const { return topo->link_slot(self, edge); }
};

/// A point-to-point message as received: the delivery header plus a pointer
/// to the payload in the round's packet pool.  Handed to node code by value;
/// the payload pointer is valid only for the duration of the handler call
/// (the pool is recycled once the round ends) — a process that needs the
/// payload later must copy the Packet, not the Received.
struct Received {
  NodeId from = kNoNode;
  EdgeId via = kNoEdge;
  const Packet* pkt = nullptr;

  const Packet& packet() const { return *pkt; }
};

/// A staged point-to-point send: the 16-byte unit MessageArena::flip
/// counting-sorts.  `ref` indexes the staging shard's packet pool.
struct MsgHeader {
  NodeId to = kNoNode;
  NodeId from = kNoNode;
  EdgeId via = kNoEdge;
  PacketRef ref = 0;
};

/// A send staged by the asynchronous policy.  The delivery tick is already
/// fixed (drawn from the sender's own RNG stream at send time); the global
/// order stamp is assigned when the phase commits, in ascending shard order
/// — i.e. in exactly the serial emission order.
struct AsyncMsgHeader {
  std::uint64_t due_tick = 0;
  NodeId to = kNoNode;
  NodeId from = kNoNode;
  EdgeId via = kNoEdge;
  PacketRef ref = 0;
};

/// Externally visible effects of one shard's nodes during one round (or one
/// asynchronous slot phase).  Nodes of one shard run sequentially, so no
/// synchronization is needed; the core merges shards in ascending order
/// after the barrier.  Cache-line aligned: adjacent shards are written by
/// different worker threads on the hottest path (every send of every node),
/// so they must not share a line.
struct alignas(64) ShardBuffer {
  std::vector<MsgHeader> outbox;
  std::vector<AsyncMsgHeader> async_outbox;
  /// Payload slots behind outbox/async_outbox refs.  Lean staging: the
  /// vector is held at its high-water SIZE (not just capacity) and
  /// `pool_used` tracks the live prefix, so stage_packet never
  /// default-constructs (and so never zero-fills) a slot in steady state —
  /// it memcpys only the packet's live prefix over whatever stale words the
  /// slot held two rounds ago.  Contract-abiding readers never see the
  /// stale tail (Packet::live_bytes()).
  std::vector<Packet> pool;
  std::uint32_t pool_used = 0;    ///< slots staged this round
  std::uint64_t pool_bytes = 0;   ///< live payload bytes staged this round
  std::vector<ChannelWrite> channel_writes;
  std::uint64_t p2p_sent = 0;
  /// Sends this shard's nodes aimed at a dead link or dead endpoint this
  /// round (sim/fault.hpp), plus inboxes of crashed nodes the engine
  /// skipped.  Merged shard-major into FaultStats::drops — a pure sum, so
  /// the merge order only matters for uniformity with every other effect.
  std::uint64_t fault_drops = 0;
  /// This shard's delay-histogram block (sim/traffic.hpp), wired by
  /// RuntimeCore at construction.  Written only by the shard's own worker,
  /// like everything else here; merged shard-major on read.
  LatencyBlock* latency = nullptr;

  /// Files one payload in the shard's pool and returns its ref.  Only the
  /// live prefix is copied; slots are appended only past the high-water
  /// mark, so a warmed-up round stages without allocating or zero-filling.
  /// (A fixed-size copy rounded up to 32/72 bytes was tried and measured
  /// slower than the variable-length live-prefix memcpy — glibc's
  /// small-copy dispatch beats the extra stores.)
  PacketRef stage_packet(const Packet& packet) {
    const PacketRef ref = pool_used;
    if (pool_used == pool.size()) [[unlikely]] {
      pool.emplace_back();
    }
    const std::size_t bytes = packet.live_bytes();
    std::memcpy(&pool[pool_used], &packet, bytes);
    pool_bytes += bytes;
    ++pool_used;
    return ref;
  }

  void clear_round() {
    outbox.clear();
    async_outbox.clear();
    pool_used = 0;   // slots stay allocated at the high-water mark
    pool_bytes = 0;
    channel_writes.clear();
    p2p_sent = 0;
    fault_drops = 0;
  }
};

/// One scheduler shard's node bookkeeping, written during a round only by
/// the shard's own worker (cache-line aligned — adjacent shards run on
/// different threads) and read by the core after the barrier.
///
/// `outstanding` counts the not-yet-finished nodes of the shard's static
/// range (Scheduler::shard_range): RuntimeCore::note_finished touches it only
/// on a finished-transition, so the per-node finished() probe is batched
/// into a handful of counters the core sums.  `slept` counts the shard's
/// sleep requests of the round (RuntimeCore::note_sleep) the same way.
struct alignas(64) ShardState {
  std::int64_t outstanding = 0;
  std::uint64_t slept = 0;  ///< nodes that asked to sleep this round
  std::uint64_t dozed = 0;  ///< nodes that asked to doze this round
};

/// Public state folded from the channel record once per engine (or rank)
/// instead of once per node.  Every node hears every slot, so anything a
/// node derives from slot outcomes alone — a Capetanakis traversal, a
/// pseudo-Bayesian backlog estimate, the fold of the overheard partials —
/// is the same at every listener; one copy folded on one thread is exact.
/// Nodes reach a fold through NodeContext::public_fold and only read it.
class PublicFold {
 public:
  virtual ~PublicFold() = default;

  /// Folds one resolved slot; returns true when the fold's public event
  /// fires.  The core folds a fold every synchronous round from the round
  /// that created it (that round's slot first) until its event fires; the
  /// fold is then retired — never folded again, still readable.
  virtual bool fold(const SlotObservation& obs) = 0;
};

/// The public folds of one RuntimeCore, keyed by (fold type, creation
/// round): every node that asks for a fold of type F in one round shares
/// one instance.  get is the only access from shard workers and takes a
/// mutex (it runs once per node per fold, not per round); fold runs on one
/// thread between the slot resolution and the wake.  Inline mutex and an
/// empty vector: constructing the core allocates nothing here.
class PublicFolds {
 public:
  /// The fold of type F keyed by `round`, built from make() (an F, returned
  /// by value) by the first caller of the round.
  template <class F, class Make>
  F& get(std::uint64_t round, const Make& make) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Entry& e : entries_) {
      if (e.tag == &kTag<F> && e.round == round) {
        return static_cast<F&>(*e.fold);
      }
    }
    entries_.push_back(Entry{&kTag<F>, round, std::make_unique<F>(make())});
    ++live_;
    return static_cast<F&>(*entries_.back().fold);
  }

  /// Folds `obs` into every live fold and retires those whose event fired;
  /// returns whether any did.  One thread, after the round barrier.
  bool fold(const SlotObservation& obs) {
    event_ = false;
    if (live_ == 0) return false;
    for (Entry& e : entries_) {
      if (e.live && e.fold->fold(obs)) {
        e.live = false;
        --live_;
        event_ = true;
      }
    }
    return event_;
  }

  /// True when some fold's event fired at the last fold() — the wake
  /// signal of dozing nodes.
  bool event() const { return event_; }

 private:
  template <class F>
  static constexpr char kTag = 0;  ///< one address per fold type

  struct Entry {
    const char* tag;
    std::uint64_t round;
    std::unique_ptr<PublicFold> fold;
    bool live = true;
  };

  std::mutex mutex_;
  std::vector<Entry> entries_;
  std::size_t live_ = 0;
  bool event_ = false;
};

/// The staging half both per-node contexts share (NodeContext here,
/// AsyncContext in sim/async_engine.hpp): the node's view and RNG stream,
/// its shard buffer, and the fault-gated, payload-interning staging of
/// point-to-point sends.  A stepping policy differs only in the header it
/// files per surviving link — its private `emit(nb, ref)`: the synchronous
/// header is plain, the asynchronous one carries a delay drawn inside emit,
/// so after the fault gate and in ascending link order.
///
/// Static polymorphism: the base is templated on the final context, so the
/// engine's hot path reaches send/broadcast/emit without any virtual
/// dispatch (the one virtual seam per node per handler call is the process
/// itself).
template <class Policy>
class StagingContext {
 public:
  StagingContext(const StagingContext&) = delete;
  StagingContext& operator=(const StagingContext&) = delete;

  const LocalView& view() const { return *view_; }
  Rng& rng() { return *rng_; }
  NodeId self() const { return view_->self; }

  /// Open-loop accounting (sim/traffic.hpp): counts `count` fresh arrivals
  /// of class `cls` against this node's shard block.  Engine-backed
  /// contexts only — the synchronizer's sink contexts carry no shard, and
  /// the open-loop workloads never run under it.
  void note_arrivals(QosClass cls, std::uint64_t count) {
    MMN_REQUIRE(shard_ != nullptr,
                "open-loop accounting needs an engine-backed context");
    shard_->latency->note_arrivals(cls, count);
  }

  /// Folds one delivered packet's enqueue->delivery delay (in slots) into
  /// the per-class histogram of this node's shard block.  Two array
  /// increments and an add — the recorder allocates nothing in steady state.
  void record_latency(QosClass cls, std::uint64_t delay_slots) {
    MMN_REQUIRE(shard_ != nullptr,
                "open-loop accounting needs an engine-backed context");
    shard_->latency->record(cls, delay_slots);
  }

 protected:
  /// `faults` is the run's epoch overlay when fault injection is installed
  /// (read-only during a phase — events apply at slot boundaries), null on
  /// the fault-free fast path.
  StagingContext(const LocalView& view, Rng& rng, ShardBuffer* shard,
                 const EpochOverlay* faults)
      : view_(&view), rng_(&rng), shard_(shard), faults_(faults) {}

  static void require_bounded(const Packet& packet) {
    MMN_REQUIRE(packet.size() <= Packet::kMaxWords,
                "packet exceeds the O(log n) bound");
  }

  /// Stages one send over an incident link.  A send aimed at a dead link
  /// or a dead endpoint is dropped-and-counted at the sender — nothing
  /// leaves the node, so emit (and any delay draw in it) never runs.
  /// Returns true if the send was staged.
  bool stage_send(EdgeId edge, const Packet& packet) {
    const int idx = view_->link_index(edge);
    MMN_REQUIRE(idx >= 0, "send over a link not incident to this node");
    require_bounded(packet);
    const Neighbor nb = view_->links()[static_cast<std::uint32_t>(idx)];
    if (faults_ != nullptr &&
        (!faults_->link_alive(edge) || !faults_->node_alive(nb.to)))
        [[unlikely]] {
      ++shard_->fault_drops;
      return false;
    }
    policy().emit(nb, shard_->stage_packet(packet));
    ++shard_->p2p_sent;
    return true;
  }

  /// Stages one packet to every neighbor (ascending link order — exactly
  /// the trace of `for (nb : links()) send(nb.edge, packet)`), filing ONE
  /// pooled payload plus deg(v) headers that share its ref instead of
  /// deg(v) payload copies.  Sharing needs no refcount in the shard: the
  /// synchronous flip recycles each round's pool wholesale, and the
  /// asynchronous commit interns a run of equal refs into one refcounted
  /// PacketPool slot.  Returns true if any header was staged.
  bool stage_broadcast(const Packet& packet) {
    require_bounded(packet);
    const NeighborRange links = view_->links();
    const std::size_t deg = links.size();
    if (deg == 0) return false;
    if (faults_ != nullptr) [[unlikely]] {
      // Fault path: per-link liveness gate, with the payload staged lazily
      // so a fully dark neighborhood stages nothing at all.  Surviving
      // links still share one interned payload.
      PacketRef ref = 0;
      bool staged = false;
      for (std::size_t i = 0; i < deg; ++i) {
        const Neighbor nb = links[i];
        if (!faults_->link_alive(nb.edge) || !faults_->node_alive(nb.to)) {
          ++shard_->fault_drops;
          continue;
        }
        if (!staged) {
          ref = shard_->stage_packet(packet);
          staged = true;
        }
        policy().emit(nb, ref);
        ++shard_->p2p_sent;
      }
      return staged;
    }
    const PacketRef ref = shard_->stage_packet(packet);
    for (std::size_t i = 0; i < deg; ++i) policy().emit(links[i], ref);
    shard_->p2p_sent += deg;
    return true;
  }

  Policy& policy() { return static_cast<Policy&>(*this); }

  const LocalView* view_;
  Rng* rng_;
  ShardBuffer* shard_;  ///< null => NodeContext's sink path
  const EpochOverlay* faults_;  ///< null => fault-free fast path
};

/// Per-round API handed to a Process.  All sends happen "this round" and are
/// delivered next round; at most one channel write per round.
///
/// The synchronizer (core/synchronizer.hpp), which runs synchronous
/// Processes over the asynchronous engine, plugs in through the Sink escape
/// hatch — a pair of raw function pointers taken only when no shard buffer
/// is attached, so the engine path pays a single predictable null test.
class NodeContext final : public StagingContext<NodeContext> {
 public:
  /// External effect sink for contexts not backed by an engine shard (the
  /// busy-tone synchronizer's shim).  Both hooks are required.
  struct Sink {
    void (*send)(void* self, EdgeId edge, const Packet& packet) = nullptr;
    void (*channel_write)(void* self, const Packet& packet) = nullptr;
    void* self = nullptr;
  };

  /// Engine staging path: effects go to `shard`, merged after the barrier;
  /// `folds` are the engine's public folds (null: public_fold unavailable).
  NodeContext(const LocalView& view, Rng& rng, std::span<const Received> inbox,
              const SlotObservation& slot, std::uint64_t round,
              ShardBuffer& shard, const EpochOverlay* faults = nullptr,
              PublicFolds* folds = nullptr)
      : StagingContext(view, rng, &shard, faults),
        slot_(&slot),
        folds_(folds),
        inbox_(inbox),
        round_(round) {}

  /// Sink path: effects go through `sink` (synchronizer shim).
  NodeContext(const LocalView& view, Rng& rng, std::span<const Received> inbox,
              const SlotObservation& slot, std::uint64_t round, Sink sink)
      : StagingContext(view, rng, nullptr, nullptr),
        slot_(&slot),
        sink_(sink),
        inbox_(inbox),
        round_(round) {}

  std::uint64_t round() const { return round_; }

  /// Messages delivered this round (a span into the round's flat arena;
  /// valid only for the duration of the round call).
  std::span<const Received> inbox() const { return inbox_; }

  /// The outcome of the previous round's channel slot.
  const SlotObservation& slot() const { return *slot_; }

  /// Sends a packet over one of this node's incident links.
  void send(EdgeId edge, const Packet& packet) {
    if (shard_ == nullptr) [[unlikely]] {
      sink_.send(sink_.self, edge, packet);
      sent_message_ = true;
      return;
    }
    sent_message_ |= stage_send(edge, packet);
  }

  /// Sends one packet to every neighbor, interned (StagingContext).
  void broadcast(const Packet& packet) {
    if (shard_ == nullptr) [[unlikely]] {
      // Sink path (busy-tone synchronizer): per-link sends, so the shim's
      // ack accounting sees every message individually.
      for (const Neighbor& nb : view_->links()) {
        sink_.send(sink_.self, nb.edge, packet);
        sent_message_ = true;
      }
      return;
    }
    sent_message_ |= stage_broadcast(packet);
  }

  /// Writes to the channel slot of the current round (at most once).
  void channel_write(const Packet& packet) {
    MMN_REQUIRE(!wrote_channel_, "at most one channel write per node per slot");
    if (shard_ == nullptr) [[unlikely]] {
      sink_.channel_write(sink_.self, packet);
      wrote_channel_ = true;
      return;
    }
    require_bounded(packet);
    wrote_channel_ = true;
    shard_->channel_writes.push_back(ChannelWrite{view_->self, packet});
  }

  /// True if this node already wrote to the channel this round.
  bool wrote_channel() const { return wrote_channel_; }

  /// True if this node sent at least one point-to-point message this round.
  bool sent_message() const { return sent_message_; }

  /// Asks the engine not to step this node again until a message arrives
  /// for it or a channel slot resolves idle.  Only a node whose rounds until
  /// then are no-ops may ask: such a round draws no RNG, sends nothing,
  /// writes no channel slot and changes no state anyone reads.  A request
  /// can only save work — the synchronizer's sink path ignores it, and
  /// stepping a sleeping node anyway is always correct.
  void sleep() { sleep_ = true; }

  /// True if the process asked to sleep during this round.
  bool sleep_requested() const { return sleep_; }

  /// Asks the engine not to step this node again until a message arrives
  /// for it or a public fold's event fires (an idle slot does not wake it).
  /// The same no-op condition as sleep() holds for the rounds it skips; a
  /// node that asks for both sleeps.  The sink path ignores it too.
  void doze() { doze_ = true; }

  /// True if the process asked to doze during this round.
  bool doze_requested() const { return doze_; }

  /// The engine's public fold of type F created in this round, built from
  /// make() by the first node that asks (see PublicFold).  Called in the
  /// round a step begins, it gives every node that begins the step in
  /// that round the same fold.  Engine-backed contexts only.
  template <class F, class Make>
  F& public_fold(const Make& make) {
    MMN_REQUIRE(folds_ != nullptr, "public folds need an engine-backed context");
    return folds_->get<F>(round_, make);
  }

 private:
  friend class StagingContext<NodeContext>;
  /// Test-only (tests/test_active_set.cpp): withdraws a sleep or doze
  /// request so resting nodes are stepped anyway and audited, and reads
  /// the fold event that would have woken a dozer.
  friend struct SleepAudit;

  /// The synchronous header: delivered next round, no delay to draw.
  void emit(const Neighbor& nb, PacketRef ref) {
    shard_->outbox.push_back(MsgHeader{nb.to, view_->self, nb.edge, ref});
  }

  const SlotObservation* slot_;
  PublicFolds* folds_ = nullptr;
  Sink sink_{};
  std::span<const Received> inbox_;
  std::uint64_t round_;
  bool wrote_channel_ = false;
  bool sent_message_ = false;
  bool sleep_ = false;
  bool doze_ = false;
};

/// A node program.  round() is invoked once per simulated round, except in
/// rounds it slept or dozed through (NodeContext::sleep, NodeContext::doze).
class Process {
 public:
  virtual ~Process() = default;

  virtual void round(NodeContext& ctx) = 0;

  /// The engine stops once every process reports finished.
  virtual bool finished() const = 0;
};

using ProcessFactory = std::function<std::unique_ptr<Process>(const LocalView&)>;

/// Fixed-capacity recycling payload store for in-flight asynchronous
/// messages: acquire() files a packet under a stable PacketRef with
/// refcount 1, add_ref() lets further headers share the slot (an interned
/// broadcast payload is one slot referenced by deg(v) headers), and
/// release() decrements — the slot returns to the free list only when the
/// LAST reader lets go.  Slots are only appended when the free list is
/// empty, so a warmed-up pool sits at its high-water mark and never
/// allocates again.  Refs stay valid across the backing vector's growth
/// (they are indices, not pointers); at(ref) pointers are only materialized
/// transiently, between mutations.
class PacketPool {
 public:
  void reset() {
    slots_.clear();
    refs_.clear();
    free_.clear();
  }

  PacketRef acquire(const Packet& packet) {
    PacketRef ref;
    if (!free_.empty()) {
      ref = free_.back();
      free_.pop_back();
    } else {
      slots_.emplace_back();
      refs_.push_back(0);
      ref = static_cast<PacketRef>(slots_.size() - 1);
    }
    // Lean copy, like ShardBuffer::stage_packet: live prefix only; the
    // slot's stale tail is never read by contract-abiding code.
    std::memcpy(&slots_[ref], &packet, packet.live_bytes());
    refs_[ref] = 1;
    return ref;
  }

  /// One more header now shares the slot.
  void add_ref(PacketRef ref) {
    MMN_DCHECK(ref < refs_.size() && refs_[ref] > 0,
               "add_ref on a slot that is not live");
    ++refs_[ref];
  }

  void release(PacketRef ref) {
    MMN_DCHECK(ref < refs_.size() && refs_[ref] > 0,
               "release on a slot that is not live");
    if (--refs_[ref] == 0) free_.push_back(ref);
  }

  const Packet& at(PacketRef ref) const { return slots_[ref]; }

  /// Live readers of a slot (0 = free).  Test hook for the interning
  /// lifetime suite.
  std::uint32_t ref_count(PacketRef ref) const { return refs_[ref]; }

  /// High-water mark: every slot ever acquired (free or live).
  std::size_t capacity() const { return slots_.size(); }

 private:
  std::vector<Packet> slots_;
  std::vector<std::uint32_t> refs_;  ///< per-slot reader count
  std::vector<PacketRef> free_;
};

/// Double-buffered flat delivery buffer: all messages delivered in the
/// current round, grouped by destination, with per-node offset spans.
/// flip() counting-sorts 16-byte MsgHeaders and steals the shards' packet
/// pools by buffer swap, so payloads are written once at send time and never
/// copied again; the pools rotate through a two-deep recycle queue and are
/// handed back to the shards with their capacity intact.
///
/// The counting sort runs on one of three paths, picked per flip:
///  * empty      — O(1) short-circuit for message-free rounds;
///  * sparse     — when the round carries far fewer messages than nodes,
///                 the headers are sorted directly (by destination, original
///                 order as tie-break — i.e. stably) and the offset table is
///                 written in one monotone pass, skipping the dense
///                 count/prefix/cursor passes over all n counters;
///  * dense      — histogram + exclusive prefix sum through the
///                 support/simd.hpp kernels (AVX2 when the host has it,
///                 scalar reference otherwise), then a stable scalar
///                 scatter.
/// All three produce bit-identical delivery tables: the scatter order is
/// always ascending (destination, serial send position).
class MessageArena {
 public:
  void reset(NodeId n, unsigned shards);

  std::span<const Received> inbox(NodeId v) const {
    return {buf_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  /// Counting-sorts the staged headers of all shards (ascending shard order,
  /// preserving per-shard send order — i.e. exactly the serial send order)
  /// into the back buffer, recycles the shard pools, and flips buffers.
  void flip(std::vector<ShardBuffer>& shards);

  /// Cumulative bytes the flips moved: headers read + delivery records
  /// written + live payload bytes staged by the flipped rounds.  The
  /// roofline bench divides this by rounds and by wall-clock to report the
  /// hot path's traffic against measured machine bandwidth.
  std::uint64_t bytes_moved() const { return bytes_moved_; }

 private:
  /// One sparse-path entry: the destination and stable rank as sort key
  /// plus the fully resolved delivery record (headers from different shards
  /// resolve into different pools, so the pointer must be bound pre-sort).
  struct SparseEntry {
    NodeId to;
    std::uint32_t rank;  ///< serial send position (stable tie-break)
    Received r;
  };

  NodeId n_ = 0;
  bool empty_ = true;  // both delivery buffers empty, both offset sets zero
  std::uint64_t bytes_moved_ = 0;
  std::vector<Received> buf_;       // delivered this round
  std::vector<Received> next_buf_;  // being filled for next round
  std::vector<std::uint32_t> offsets_;       // n_ + 1 spans into buf_
  std::vector<std::uint32_t> next_offsets_;  // n_ + 1 spans into next_buf_
  std::vector<std::uint32_t> cursor_;        // scatter cursors, n_
  std::vector<SparseEntry> scratch_;         // sparse-path sort buffer
  std::vector<std::vector<Packet>> pools_;   // per shard, backing buf_
  std::vector<std::vector<Packet>> next_pools_;  // recycled next flip
};

/// An in-flight asynchronous message header, stamped for deterministic
/// delivery: `tick` is its fixed delivery time, `seq` its position in the
/// serial emission order, `ref` its payload in the bucket store's pool.
/// Within one staged delivery sub-round, a node handles its messages in
/// ascending (tick, seq); across sub-rounds, causal order wins — an
/// intra-slot cascade is always handled after the sub-round that triggered
/// it, even if its tick is smaller (see sim/async_engine.hpp).
struct StampedHeader {
  std::uint64_t tick = 0;
  std::uint64_t seq = 0;
  NodeId to = kNoNode;
  NodeId from = kNoNode;
  EdgeId via = kNoEdge;
  PacketRef ref = 0;
};

/// Slot-bucketed delivery store for the asynchronous stepping policy: every
/// in-flight message is filed under the slot its delivery tick falls into (a
/// ring of max_delay + slack buckets).  stage(slot) drains one bucket into a
/// flat per-destination delivery table — grouped by node, each node's
/// messages in ascending (tick, seq) — that a delivery phase shards exactly
/// like a synchronous round.  Because seq stamps are assigned at commit time
/// in ascending shard order, the table is scheduler-independent: parallel
/// async runs see bit-identical delivery orders to serial ones.
///
/// Only 32-byte headers move through the buckets and the sort; payloads live
/// in a recycling PacketPool from commit to delivery.  Ring buckets, the
/// staged table, and the pool all retain their high-water capacity, so a
/// warmed-up engine stages slots without heap allocation.
class SlotBuckets {
 public:
  /// Sizes the store: n destination nodes, the tick<->slot mapping, and the
  /// bucket ring (ring_slots must exceed the maximum delivery-slot span).
  void reset(NodeId n, std::uint64_t ticks_per_slot, std::uint64_t ring_slots);

  /// Stamps one committed send with the next serial-order seq, files its
  /// payload in the pool (refcount 1), and files the header under its
  /// delivery slot.  Call in ascending shard order only.  Returns the pool
  /// ref so a run of sends sharing one staged payload (a broadcast) can
  /// intern it via push_shared.
  PacketRef push(const AsyncMsgHeader& send, const Packet& payload);

  /// Like push, but instead of filing a new payload the header shares
  /// `pooled` — the ref a preceding push() of the same commit returned.
  /// Bumps the slot's refcount; the slot frees when the last sharing
  /// header's delivery releases it.
  void push_shared(const AsyncMsgHeader& send, PacketRef pooled);

  /// Drains every message due in `slot` into the delivery table; returns the
  /// number of messages staged.  Messages pushed after this call land in a
  /// fresh bucket, so calling again stages only the intra-slot cascades.
  /// The previous table's payloads are released back to the pool.
  ///
  /// The per-slot sort is a radix partition: a histogram + prefix sum over
  /// destinations (support/simd.hpp kernels), a stable scatter — bucket
  /// order is ascending seq, so each destination's run lands seq-sorted —
  /// and a small per-run sort by (tick, seq) only where a run holds more
  /// than one message.  Identical table to the old global
  /// sort-by-(to, tick, seq), without moving every header through an
  /// O(m log m) comparison sort.
  std::size_t stage(std::uint64_t slot);

  /// Messages staged for `v` by the last stage() call, ascending (tick, seq).
  /// Valid until the next stage() call.
  std::span<const StampedHeader> inbox(NodeId v) const {
    return {staged_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  /// Payload of a staged header.  The reference is valid until the next
  /// push() or stage() call — materialize per delivery, do not hold.
  const Packet& payload(PacketRef ref) const { return pool_.at(ref); }

  /// Total messages filed but not yet staged for delivery.
  std::size_t in_flight() const { return in_flight_; }

  /// The payload pool (test hook: the interning lifetime suite reads
  /// refcounts and the high-water capacity through it).
  const PacketPool& pool() const { return pool_; }

 private:
  NodeId n_ = 0;
  std::uint64_t ticks_per_slot_ = 1;
  std::uint64_t next_seq_ = 0;
  std::size_t in_flight_ = 0;
  std::vector<std::vector<StampedHeader>> ring_;  ///< bucket = slot % size
  std::vector<StampedHeader> staged_;  ///< last staged slot, (to, tick, seq)
  std::vector<std::uint32_t> offsets_;  ///< n_ + 1 spans into staged_
  std::vector<std::uint32_t> cursor_;   ///< radix scatter cursors, n_
  PacketPool pool_;                     ///< payloads, commit -> delivery
};

/// The substrate both engines execute on.  Besides the model state it owns
/// every piece of bookkeeping the two stepping policies share: the process
/// table's finished flags and per-shard outstanding counters, the fault
/// runtime and the crash gate in front of every handler call, the
/// round/slot counter, and the one per-node loop every round runs (the
/// synchronous policy's over the active set).  An engine adds only its
/// stepping order.
///
/// Per-node state is indexed by the local index v - window_lo() (equal to
/// v on a single rank).  On rank r of K the arena flips K - 1 + shards()
/// buffers: ingress from ranks below r, then this rank's own shards, then
/// ingress from ranks above — ascending sender order, as on one rank.
class RuntimeCore {
 public:
  /// Builds views, per-node RNG streams forked from `seed`, the channel,
  /// metrics, and the message arena.  Views are non-owning windows into the
  /// graph's CSR arena (O(n) pointer setup, no adjacency copies), so `g`
  /// must outlive the core and every engine built on it.  A null scheduler
  /// means serial; a null discipline means free-for-all (the bare Section 2
  /// channel).  A transport with ranks() > 1 makes this core rank
  /// transport->rank()'s window of a sharded run: `g` must then hold at
  /// least that window's rows (build_topology_window), the transport must
  /// outlive the core, and every rank must build its core with the same
  /// seed and discipline.
  RuntimeCore(const Graph& g, std::uint64_t seed,
              std::unique_ptr<Scheduler> scheduler = nullptr,
              std::unique_ptr<ChannelDiscipline> discipline = nullptr,
              shard_comm::Transport* transport = nullptr);
  ~RuntimeCore();

  RuntimeCore(const RuntimeCore&) = delete;
  RuntimeCore& operator=(const RuntimeCore&) = delete;

  /// Nodes this core steps: the window [window_lo(), window_lo() +
  /// num_nodes()), all n nodes on a single rank.
  NodeId num_nodes() const { return static_cast<NodeId>(views_.size()); }
  NodeId window_lo() const { return lo_; }
  const Graph& graph() const { return *graph_; }
  const LocalView& view(NodeId v) const { return views_[v]; }
  Rng& rng(NodeId v) { return rngs_[v]; }
  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }
  const SlotObservation& slot() const { return slot_; }
  std::uint64_t round() const { return round_; }
  std::span<const Received> inbox(NodeId v) const { return arena_.inbox(v); }
  ShardBuffer& shard(unsigned s) { return shards_[own_ + s]; }

  /// Builds one process per owned node from `factory` (every view exists
  /// before the first call) and seeds the finished flags and per-shard
  /// outstanding counters from each process's initial finished().  On a
  /// sharded run the ranks also swap their totals once, since termination
  /// is checked before round 0.
  template <class Factory>
  auto build_processes(const Factory& factory) {
    std::vector<decltype(factory(views_[0]))> processes;
    processes.reserve(num_nodes());
    flags_.assign(num_nodes(), 0);
    for (NodeId v = 0; v < num_nodes(); ++v) {
      processes.push_back(factory(views_[v]));
      MMN_REQUIRE(processes.back() != nullptr, "factory returned null process");
      flags_[v] = processes.back()->finished() ? kFinished : 0;
    }
    init_outstanding();
    return processes;
  }

  /// Runs `fn` over every awake owned node (local index) under the
  /// scheduler — the one entry through which any node handler runs.
  void step_nodes(Scheduler::NodeFn fn);

  /// True once any node handler has run (step_nodes was entered).
  bool started() const { return started_; }

  /// The crash gate in front of node v's (local index) handlers: false when
  /// v is crashed — it does not step, and the `undelivered` messages handed
  /// to it are lost-and-counted as shard s's fault drops.  One null test on
  /// the fault-free path.
  bool node_up(unsigned s, NodeId v, std::size_t undelivered) {
    if (faults_ == nullptr) [[likely]] return true;
    if (faults_->overlay().node_alive(lo_ + v)) return true;
    shard(s).fault_drops += undelivered;
    return false;
  }

  /// Folds node v's (local index) finished-transition, if any, into shard
  /// s's outstanding counter.  Called by the shard's worker right after the
  /// node's handlers ran, so the batched count stays exact without an O(n)
  /// scan per round.
  void note_finished(unsigned s, NodeId v, bool finished) {
    const char done = finished ? kFinished : 0;
    if (done != (flags_[v] & kFinished)) {
      flags_[v] ^= kFinished;
      shard_state_[s].outstanding += done ? -1 : 1;
    }
  }

  /// Puts node v (local index) to sleep after its round, from shard s's
  /// worker: its bit is set and counted.  Only a node that ran its round
  /// may sleep — a crashed node stays awake, so whatever is delivered to it
  /// is still counted as dropped.
  void note_sleep(unsigned s, NodeId v) {
    flags_[v] |= kAsleep;
    ++shard_state_[s].slept;
  }

  /// Dozes node v (local index) after its round, like note_sleep: its doze
  /// bit is set and counted.
  void note_doze(unsigned s, NodeId v) {
    flags_[v] |= kDozing;
    ++shard_state_[s].dozed;
  }

  /// The public folds run_round folds after every slot (PublicFold).
  PublicFolds& public_folds() { return folds_; }

  /// True when no node of any rank is outstanding.
  bool all_finished() const {
    for (const ShardState& s : shard_state_) {
      if (s.outstanding != 0) return false;
    }
    return remote_outstanding_ == 0;
  }

  /// Installs deterministic fault injection (sim/fault.hpp): once, before
  /// any node has run.  On a sharded run every rank replays the identical
  /// full plan against its own overlay replica (a windowed graph reports
  /// global n and m), so liveness tests and discipline stifles agree
  /// across ranks.
  void install_faults(const FaultPlan& plan);

  /// The installed fault runtime (stats + overlay), or null.
  FaultRuntime* faults() { return faults_.get(); }
  const FaultRuntime* faults() const { return faults_.get(); }

  /// The overlay contexts gate sends on; null on the fault-free path.
  const EpochOverlay* fault_overlay() const {
    return faults_ != nullptr ? &faults_->overlay() : nullptr;
  }

  /// Applies the fault events due at the current round, single-threaded,
  /// before any node of it steps.  No-op without faults.
  void apply_faults() {
    if (faults_ != nullptr) [[unlikely]] {
      faults_->apply_slot(round_, *discipline_);
    }
  }

  /// Ends the current round (or asynchronous slot): the one round/slot
  /// counter both policies read.
  void advance_round() {
    ++round_;
    ++metrics_.rounds;
  }

  /// One lockstep round: applies the round's fault events, runs `fn` over
  /// the round's awake owned nodes (local index) under the scheduler, then
  /// commits deterministically — channel writes and p2p sends merged in
  /// ascending shard order, on a sharded run swapped with the other ranks
  /// (exchange_round), slot resolved, the public folds folded, resting
  /// nodes with work woken, arena flipped, round advanced.  `fn` reports a
  /// stepped node's sleep or doze request through note_sleep / note_doze.
  void run_round(Scheduler::NodeFn fn);

  /// Cross-shard messages this rank sent to peers (headers on the wire);
  /// 0 on a single rank.
  std::uint64_t xshard_msgs() const;
  /// Edges with exactly one endpoint in the window — the frontier the
  /// cross-shard traffic rides; 0 on a single rank.
  std::uint64_t boundary_edges() const;

  /// Resolves the current slot through the channel discipline: the staged
  /// writes (ascending commit order = ascending node order within the slot)
  /// are handed to the policy, which picks the contenders and resolves.
  /// Used by run_round internally; the asynchronous policy calls it at each
  /// slot boundary.
  SlotObservation resolve_slot();

  /// True when no channel work is outstanding: no write staged for the
  /// current slot and nothing deferred inside the discipline.
  bool channel_idle() const {
    return slot_writes_.empty() && discipline_->backlog() == 0;
  }

  /// The asynchronous policy's bucket store; inert until its reset().
  SlotBuckets& slot_buckets() { return slot_buckets_; }

  /// Per-class delay/backlog accounting for open-loop workloads
  /// (sim/traffic.hpp).  Always present (a block per shard, ~1 KiB each);
  /// closed-loop runs simply never write to it.
  const LatencyRecorder& latency() const { return latency_; }
  LatencyRecorder& latency() { return latency_; }

  /// Commits one asynchronous slot phase: the staged effects of all shards
  /// merged in ascending shard order — channel writes into the channel,
  /// async sends seq-stamped into the slot buckets, p2p counts into metrics.
  /// The shard-major merge order equals the serial emission order, so the
  /// committed state is identical under any scheduler.
  void commit_async_phase();

 private:
  struct RankSeam;

  void init_outstanding();
  void shard_loop(unsigned s, Scheduler::NodeFn fn);
  void wake_sleepers(bool fold_event);
  void exchange_round();

  const Graph* graph_;
  NodeId lo_ = 0;     ///< first owned node
  unsigned own_ = 0;  ///< index of scheduler shard 0 in shards_ (= rank)
  std::vector<LocalView> views_;
  std::vector<Rng> rngs_;
  std::unique_ptr<Scheduler> scheduler_;
  std::unique_ptr<ChannelDiscipline> discipline_;
  std::vector<ShardBuffer> shards_;  ///< [ingress below][own][ingress above]
  LatencyRecorder latency_;
  MessageArena arena_;
  SlotBuckets slot_buckets_;
  Channel channel_;
  std::vector<ChannelWrite> slot_writes_;  // staged for the current slot
  SlotObservation slot_;  // outcome of the previous round's slot
  Metrics metrics_;
  std::unique_ptr<FaultRuntime> faults_;  ///< null on the fault-free path
  std::uint64_t round_ = 0;  ///< synchronous round = asynchronous slot
  bool started_ = false;     ///< some node handler has run
  /// Per-node kFinished | kAsleep | kDozing bits.  A char per node: each
  /// shard's worker writes only its own nodes' bytes, so shards never race.
  std::vector<char> flags_;
  static constexpr char kFinished = 1;
  static constexpr char kAsleep = 2;
  static constexpr char kDozing = 4;
  static constexpr char kResting = kAsleep | kDozing;
  std::vector<ShardState> shard_state_;  ///< per scheduler shard
  std::uint64_t sleepers_ = 0;  ///< nodes with kAsleep set
  std::uint64_t dozers_ = 0;    ///< nodes with kDozing set
  PublicFolds folds_;
  std::int64_t remote_outstanding_ = 0;  ///< other ranks' total, last swap
  std::unique_ptr<RankSeam> seam_;  ///< null on a single rank
};

}  // namespace mmn::sim
