// Channel disciplines: per-slot medium-access policies over the channel.
//
// The paper's multi-access channel (Section 2) resolves every slot by the
// free-for-all collision rule, but its constructions are really access
// *disciplines* layered on that channel: TDMA scheduling (Theorem 2's
// broadcast baseline), Capetanakis tree resolution (Sections 5 and 6), and
// the Section 7.2 unslotted-to-slotted busy-tone emulation.  A
// ChannelDiscipline makes that layer explicit: RuntimeCore hands it the
// writes registered for the slot (in ascending node order — the committed
// shard-merge order, which equals the serial emission order) and the
// discipline decides which of them actually contend, feeds those into the
// Channel, and resolves.
//
// Determinism: a discipline's state may evolve only as a function of the
// committed write sequence and the slot outcomes.  Because the write
// sequence is scheduler-independent (see sim/runtime_core.hpp), every
// discipline is bit-identical under the serial and parallel schedulers, on
// both engines — test_scheduler_equiv enforces this over the whole scenario
// registry.
//
// Deferring disciplines (TDMA, Capetanakis) queue a write until the policy
// grants the medium, so a node's transmission may land slots after its
// write.  That is incompatible with protocols that read the *absence* of a
// transmission as information in the same slot — notably the busy-tone
// synchronizer (Section 7.1), whose idle-slot pulse must certify that no
// node holds an unacknowledged message.  Such protocols must run under a
// non-deferring discipline (free-for-all or unslotted); scenario::run
// enforces this for asynchronous runs via defers().
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "channel/capetanakis.hpp"
#include "graph/graph.hpp"
#include "sim/channel.hpp"
#include "sim/unslotted.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"

namespace mmn::sim {

/// Per-slot medium-access policy.  One instance per run, owned by
/// RuntimeCore; reset(n) is called once before the first slot.
class ChannelDiscipline {
 public:
  virtual ~ChannelDiscipline() = default;

  virtual const char* name() const = 0;

  /// Called once with the realized network size before the run starts.
  virtual void reset(NodeId n) = 0;

  /// Resolves one slot.  `writes` are the writes registered this slot, in
  /// ascending node order (at most one per node — the engines enforce that).
  /// The discipline feeds the contending subset into `channel`, resolves,
  /// and returns the outcome every node observes.
  virtual SlotObservation slot(std::span<const ChannelWrite> writes,
                               Channel& channel, Metrics& metrics) = 0;

  /// Writes accepted but not yet transmitted (deferred by the policy).
  virtual std::size_t backlog() const { return 0; }

  /// True if the policy may transmit a write in a later slot than the one
  /// it was registered for.  Deferring disciplines cannot drive protocols
  /// that read idle slots as "nobody is busy" (the synchronizer).
  virtual bool defers() const { return false; }

  /// Withdraws node v's deferred channel state (sim/fault.hpp calls this
  /// when v crashes): its pending/queued writes vanish from the backlog so
  /// a crashed station never transmits from beyond the grave.  Called
  /// single-threaded at a slot boundary; must not allocate.  Non-deferring
  /// disciplines hold no state, hence the no-op default.
  virtual void stifle(NodeId v) { (void)v; }
};

/// The named disciplines, for scenario registration and factories.
enum class DisciplineKind : std::uint8_t {
  kFreeForAll,     ///< every write contends; the bare Section 2 channel
  kTdma,           ///< round-robin slot ownership; writes wait for their slot
  kCapetanakis,    ///< tree resolution: collisions split the pending id set
  kUnslotted,      ///< Section 7.2 busy-tone emulation; outcome-preserving
  kPseudoBayesian, ///< Rivest stabilized Aloha over the pending-station set
  kReservation,    ///< multimedia MAC: reserved grants for voice/video,
                   ///< free-for-all contention for data
};

const char* discipline_name(DisciplineKind kind);

/// Builds a fresh discipline instance.  `unslotted` configures the
/// kUnslotted emulation and is ignored by the other kinds; `seed` feeds the
/// kPseudoBayesian transmission lottery (the other kinds draw nothing —
/// kUnslotted's jitter stream is pinned by its own config, whose seed
/// participates in golden digests and must not drift with the run seed).
std::unique_ptr<ChannelDiscipline> make_discipline(
    DisciplineKind kind, const UnslottedConfig& unslotted = UnslottedConfig{},
    std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

/// The seed behavior: every registered write goes straight to the channel.
class FreeForAllDiscipline final : public ChannelDiscipline {
 public:
  const char* name() const override { return "freeforall"; }
  void reset(NodeId) override {}
  SlotObservation slot(std::span<const ChannelWrite> writes, Channel& channel,
                       Metrics& metrics) override;
};

/// Round-robin TDMA: slot s belongs to node s % n.  A write waits as the
/// node's pending transmission until its slot comes around; a re-write
/// before then replaces the pending packet (the node re-keys its request —
/// queues stay O(1) per node).  With k nodes contending from slot 0, all k
/// resolve within one cycle of n slots and nothing ever collides.
class TdmaDiscipline final : public ChannelDiscipline {
 public:
  const char* name() const override { return "tdma"; }
  void reset(NodeId n) override;
  SlotObservation slot(std::span<const ChannelWrite> writes, Channel& channel,
                       Metrics& metrics) override;
  std::size_t backlog() const override { return backlog_; }
  bool defers() const override { return true; }
  void stifle(NodeId v) override;

 private:
  NodeId n_ = 0;
  std::uint64_t slot_ = 0;
  std::size_t backlog_ = 0;
  std::vector<std::optional<Packet>> pending_;  // per node, replace semantics
};

/// Capetanakis tree scheduling: pending writes are resolved in epochs.  An
/// epoch snapshots the waiting id set and runs one depth-first traversal of
/// the id-space tree (channel/capetanakis.hpp): every pending id inside the
/// probe interval transmits, a collision splits the interval, a success
/// retires the writer.  Writes arriving mid-epoch from new ids wait for the
/// next epoch; an epoch of k contenders with contiguous ids costs exactly
/// 2k - 1 probe slots (k successes, k - 1 collisions).
class CapetanakisDiscipline final : public ChannelDiscipline {
 public:
  const char* name() const override { return "capetanakis"; }
  void reset(NodeId n) override;
  SlotObservation slot(std::span<const ChannelWrite> writes, Channel& channel,
                       Metrics& metrics) override;
  std::size_t backlog() const override { return epoch_.size() + waiting_.size(); }
  bool defers() const override { return true; }
  void stifle(NodeId v) override;

 private:
  NodeId n_ = 0;
  std::map<NodeId, Packet> epoch_;    // contenders of the running traversal
  std::map<NodeId, Packet> waiting_;  // arrivals for the next epoch
  std::optional<CapetanakisResolver> resolver_;
};

/// Section 7.2 busy-tone emulation, promoted from the standalone
/// sim/unslotted.cpp demo into a discipline: outcomes are exactly the
/// free-for-all outcomes (the slotted/unslotted equivalence the section
/// proves), but the discipline additionally simulates the continuous-time
/// envelope — per-writer reaction-delay jitter, fixed-length transmissions,
/// and the emergent boundary one idle gap after the last carrier drops —
/// and accounts the emergent channel time in ticks(), surfaced to run
/// output as Metrics::channel_ticks.
class UnslottedDiscipline final : public ChannelDiscipline {
 public:
  explicit UnslottedDiscipline(const UnslottedConfig& config)
      : config_(config), rng_(config.seed) {}

  const char* name() const override { return "unslotted"; }
  void reset(NodeId n) override;
  SlotObservation slot(std::span<const ChannelWrite> writes, Channel& channel,
                       Metrics& metrics) override;

  /// Emergent continuous time consumed so far (the latest slot boundary).
  std::uint64_t ticks() const { return boundary_; }

 private:
  UnslottedConfig config_;
  Rng rng_;
  NodeId n_ = 0;
  std::uint64_t boundary_ = 0;
};

/// Rivest's pseudo-Bayesian stabilized Aloha as a discipline-level MAC (the
/// node-side formulation lives in channel/pseudo_bayesian.hpp; here the
/// policy itself holds the pending stations, which is what an open-loop
/// workload needs — stations just keep re-writing their head-of-line packet
/// and the discipline is the scheduler).  Every slot, each pending station
/// transmits with probability min(1, 1/nu); the shared backlog estimate nu
/// is updated from the public outcome (collision: nu += 1/(e-2); otherwise
/// nu = max(1, nu-1)).  Stationary throughput approaches 1/e.
///
/// Determinism: slot() runs single-threaded after the round barrier, the
/// pending set is iterated in ascending node id, and the lottery draws come
/// from the discipline's own stream seeded at construction — a pure
/// function of the committed write sequence and slot outcomes, so the
/// scheduler-equivalence argument holds unchanged.
class PseudoBayesianDiscipline final : public ChannelDiscipline {
 public:
  explicit PseudoBayesianDiscipline(std::uint64_t seed) : rng_(seed) {}

  const char* name() const override { return "pseudobayes"; }
  void reset(NodeId n) override;
  /// file() every write, then contend().
  SlotObservation slot(std::span<const ChannelWrite> writes, Channel& channel,
                       Metrics& metrics) override;
  std::size_t backlog() const override { return pending_ids_.size(); }
  bool defers() const override { return true; }
  void stifle(NodeId v) override;

  /// Files one registered write as its station's pending transmission; a
  /// re-write replaces it (the head-of-line re-key).
  void file(const ChannelWrite& w);

  /// Runs one slot's lottery over the pending stations, resolves it, and
  /// folds the public outcome into the backlog estimate.
  SlotObservation contend(Channel& channel, Metrics& metrics);

 private:
  /// Takes v off the pending list (v must be on it).
  void withdraw(NodeId v);

  Rng rng_;
  NodeId n_ = 0;
  double nu_ = 1.0;
  std::vector<std::optional<Packet>> pending_;  // per node, replace semantics
  /// The pending stations, ascending — the lottery's draw order.  Its size
  /// is the backlog; a slot costs O(backlog), not O(n).
  std::vector<NodeId> pending_ids_;
};

/// The PAPERS.md multimedia MAC: reservation minislots for the
/// delay-sensitive classes, stabilized contention for the rest.  Writes
/// whose packet tag carries a reserved QosClass (voice/video — see
/// qos_of_tag in sim/message.hpp; untagged legacy packets read as voice)
/// enter a collision-free FIFO grant queue: the station's request is
/// assumed signalled over per-slot reservation minislots, which the model
/// treats as a free side channel (exactly like the Section 7.2 busy tone —
/// minislot traffic is below the slot's payload granularity).  A non-empty
/// queue owns the slot and its head transmits exclusively; only queue-free
/// slots fall through to the data lane — a PseudoBayesianDiscipline over
/// the pending data stations, seeded with the run seed.
/// Reserved delay is therefore bounded by the queue occupancy (at most the
/// number of reserved stations) independent of data load, while data keeps
/// the leftover slots at ~1/e efficiency and starves first under overload —
/// the bounded-delay/starvation split tests/test_traffic.cpp pins.
class ReservationDiscipline final : public ChannelDiscipline {
 public:
  explicit ReservationDiscipline(std::uint64_t seed) : data_(seed) {}

  const char* name() const override { return "reservation"; }
  void reset(NodeId n) override;
  SlotObservation slot(std::span<const ChannelWrite> writes, Channel& channel,
                       Metrics& metrics) override;
  std::size_t backlog() const override {
    return queue_size_ + data_.backlog();
  }
  bool defers() const override { return true; }
  void stifle(NodeId v) override;

 private:
  PseudoBayesianDiscipline data_;  // the data lane
  NodeId n_ = 0;
  std::vector<NodeId> queue_;   // FIFO ring of granted stations, capacity n
  std::size_t queue_head_ = 0;
  std::size_t queue_size_ = 0;
  std::vector<char> queued_;    // per node: sitting in queue_?
  std::vector<Packet> pending_; // per queued node, replace semantics
};

}  // namespace mmn::sim
