#include "sim/runtime_core.hpp"

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "sim/shard_comm.hpp"
#include "support/check.hpp"
#include "support/simd.hpp"

namespace mmn::sim {

// The strided histograms in flip/stage read the `to` field straight out of
// the packed header arrays; pin the layout they assume.
static_assert(offsetof(MsgHeader, to) == 0 && sizeof(MsgHeader) == 16,
              "flip's histogram reads `to` at offset 0, stride 16");
static_assert(offsetof(StampedHeader, to) == 16 && sizeof(StampedHeader) == 32,
              "stage's histogram reads `to` at offset 16, stride 32");

void MessageArena::reset(NodeId n, unsigned shards) {
  n_ = n;
  empty_ = true;
  bytes_moved_ = 0;
  buf_.clear();
  next_buf_.clear();
  offsets_.assign(n_ + 1, 0);
  next_offsets_.assign(n_ + 1, 0);
  cursor_.assign(n_, 0);
  scratch_.clear();
  pools_.assign(shards, {});
  next_pools_.assign(shards, {});
}

void MessageArena::flip(std::vector<ShardBuffer>& shards) {
  MMN_ASSERT(shards.size() == pools_.size(),
             "arena was reset for a different shard count");
  std::size_t total = 0;
  std::uint64_t payload_bytes = 0;
  for (const ShardBuffer& sb : shards) {
    total += sb.outbox.size();
    payload_bytes += sb.pool_bytes;
  }
  // Message-free rounds (channel-only stages, barrier quiescence) skip the
  // O(n) offset work entirely: after one empty flip both offset buffers are
  // all-zero and both delivery buffers empty, so a second consecutive empty
  // flip is a no-op — every inbox span is already empty, and the shard
  // pools hold nothing live to recycle (payloads only enter through sends,
  // and every send files a header).
  if (total == 0) {
    if (empty_) return;
    std::fill(next_offsets_.begin(), next_offsets_.end(), 0);
    next_buf_.clear();
    for (unsigned s = 0; s < shards.size(); ++s) {
      shards[s].pool.swap(next_pools_[s]);
      shards[s].pool_used = 0;
      shards[s].pool_bytes = 0;
    }
    buf_.swap(next_buf_);
    offsets_.swap(next_offsets_);
    pools_.swap(next_pools_);
    empty_ = true;
    return;
  }
  empty_ = false;
  bytes_moved_ +=
      total * (sizeof(MsgHeader) + sizeof(Received)) + payload_bytes;
  next_buf_.resize(total);

  // POOL STABILITY: both paths below hoist sb.pool.data() and resolve every
  // header against it.  flip runs single-threaded after the round barrier
  // and calls back into no node code, so no send can grow a pool mid-flip;
  // the per-header DCHECK makes a stale ref (a header staged against a pool
  // that was since recycled) fault loudly in debug builds instead of
  // reading recycled payload memory.

  if (total < n_ / 8) {
    // Sparse round: far fewer messages than nodes.  The dense path below
    // pays three O(n) passes over the counters no matter how few headers
    // there are; here we sort the headers themselves — by destination with
    // the serial send position as tie-break, i.e. exactly the counting
    // sort's stable order — and write the monotone offset table in one
    // pass.  Delivery records are resolved pre-sort because headers from
    // different shards point into different pools.
    scratch_.clear();
    std::uint32_t rank = 0;
    for (ShardBuffer& sb : shards) {
      const Packet* pool = sb.pool.data();
      for (const MsgHeader& h : sb.outbox) {
        MMN_DCHECK(h.ref < sb.pool_used,
                   "stale PacketRef: header points past the staged pool");
        scratch_.push_back(
            SparseEntry{h.to, rank++, Received{h.from, h.via, pool + h.ref}});
      }
    }
    std::sort(scratch_.begin(), scratch_.end(),
              [](const SparseEntry& a, const SparseEntry& b) {
                if (a.to != b.to) return a.to < b.to;
                return a.rank < b.rank;
              });
    NodeId next_node = 0;
    for (std::uint32_t i = 0; i < total; ++i) {
      const NodeId to = scratch_[i].to;
      while (next_node <= to) next_offsets_[next_node++] = i;
      next_buf_[i] = scratch_[i].r;
    }
    const auto total32 = static_cast<std::uint32_t>(total);
    while (next_node <= n_) next_offsets_[next_node++] = total32;
  } else {
    // Dense round: histogram destinations over all shards, turn counts into
    // scatter offsets with an exclusive prefix sum (both through the
    // runtime-dispatched SIMD kernels), then scatter stably — shards
    // ascend, each outbox in send order, together the exact serial send
    // order, so inbox contents are scheduler-independent.  Only the 16-byte
    // headers move; the buffer swap below transfers ownership of the
    // payload block without touching a byte of it.
    std::fill(cursor_.begin(), cursor_.end(), 0);
    for (const ShardBuffer& sb : shards) {
      if (sb.outbox.empty()) continue;
      simd::histogram_u32_strided(sb.outbox.data(), sizeof(MsgHeader),
                                  sb.outbox.size(), cursor_.data());
    }
    [[maybe_unused]] const std::uint32_t counted =
        simd::exclusive_prefix_sum_u32(cursor_.data(), n_);
    MMN_DCHECK(counted == total, "histogram lost headers");
    std::memcpy(next_offsets_.data(), cursor_.data(),
                n_ * sizeof(std::uint32_t));
    next_offsets_[n_] = static_cast<std::uint32_t>(total);
    for (ShardBuffer& sb : shards) {
      const Packet* pool = sb.pool.data();
      for (const MsgHeader& h : sb.outbox) {
        MMN_DCHECK(h.ref < sb.pool_used,
                   "stale PacketRef: header points past the staged pool");
        next_buf_[cursor_[h.to]++] = Received{h.from, h.via, pool + h.ref};
      }
    }
  }

  for (unsigned s = 0; s < shards.size(); ++s) {
    ShardBuffer& sb = shards[s];
    sb.outbox.clear();
    // Recycle: the freshly staged payload buffer moves into next_pools_ (it
    // backs next_buf_, the round about to run); the shard gets the buffer
    // from two flips ago back — no longer referenced — with its slots held
    // at the high-water mark (pool_used rewinds to 0; the stale contents
    // are overwritten live-prefix-first by the next round's staging), so
    // steady-state staging never allocates or zero-fills.
    sb.pool.swap(next_pools_[s]);
    sb.pool_used = 0;
    sb.pool_bytes = 0;
  }
  buf_.swap(next_buf_);
  offsets_.swap(next_offsets_);
  pools_.swap(next_pools_);
}

void SlotBuckets::reset(NodeId n, std::uint64_t ticks_per_slot,
                        std::uint64_t ring_slots) {
  MMN_REQUIRE(ticks_per_slot >= 1, "need at least one tick per slot");
  MMN_REQUIRE(ring_slots >= 2, "bucket ring needs at least two slots");
  n_ = n;
  ticks_per_slot_ = ticks_per_slot;
  next_seq_ = 0;
  in_flight_ = 0;
  ring_.assign(ring_slots, {});
  staged_.clear();
  offsets_.assign(n_ + 1, 0);
  cursor_.assign(n_, 0);
  pool_.reset();
}

PacketRef SlotBuckets::push(const AsyncMsgHeader& send, const Packet& payload) {
  MMN_DCHECK(send.due_tick >= 1, "delivery tick predates the first slot");
  const PacketRef pooled = pool_.acquire(payload);
  const std::uint64_t due_slot = (send.due_tick - 1) / ticks_per_slot_;
  ring_[due_slot % ring_.size()].push_back(StampedHeader{
      send.due_tick, next_seq_++, send.to, send.from, send.via, pooled});
  ++in_flight_;
  return pooled;
}

void SlotBuckets::push_shared(const AsyncMsgHeader& send, PacketRef pooled) {
  MMN_DCHECK(send.due_tick >= 1, "delivery tick predates the first slot");
  pool_.add_ref(pooled);
  const std::uint64_t due_slot = (send.due_tick - 1) / ticks_per_slot_;
  ring_[due_slot % ring_.size()].push_back(StampedHeader{
      send.due_tick, next_seq_++, send.to, send.from, send.via, pooled});
  ++in_flight_;
}

std::size_t SlotBuckets::stage(std::uint64_t slot) {
  // The previous table's payloads were consumed by the delivery sub-round
  // that read it; each header drops its reader — an interned broadcast
  // slot frees only when the LAST sharing header releases it.
  for (const StampedHeader& h : staged_) pool_.release(h.ref);
  std::vector<StampedHeader>& bucket = ring_[slot % ring_.size()];
  staged_.clear();
  // Every slot's delivery loop ends on an empty stage; skip the O(n)
  // offsets rebuild for it (inbox() is never consulted on a zero return).
  if (bucket.empty()) return 0;
  const std::size_t m = bucket.size();
  // Radix partition by destination: histogram + exclusive prefix sum
  // (runtime-dispatched SIMD kernels) and a stable scatter.  Bucket order
  // is ascending seq — seqs are stamped at push in commit order — so each
  // destination's run lands already seq-sorted; only runs longer than one
  // message still need a (tick, seq) sort, and those are short.  The table
  // is identical to a global sort by (to, tick, seq): seq is unique, so
  // the order is total and scheduler-independent.  Only 32-byte headers
  // move; payloads stay in the pool.
  std::fill(cursor_.begin(), cursor_.end(), 0);
  simd::histogram_u32_strided(
      reinterpret_cast<const char*>(bucket.data()) + offsetof(StampedHeader, to),
      sizeof(StampedHeader), m, cursor_.data());
  [[maybe_unused]] const std::uint32_t counted =
      simd::exclusive_prefix_sum_u32(cursor_.data(), n_);
  MMN_DCHECK(counted == m, "histogram lost headers");
  std::memcpy(offsets_.data(), cursor_.data(), n_ * sizeof(std::uint32_t));
  offsets_[n_] = static_cast<std::uint32_t>(m);
  // Explicit doubling: resize on a cleared vector grows to exactly m (no
  // geometric overshoot), which would turn every new per-slot peak into a
  // steady-state allocation.
  if (staged_.capacity() < m) {
    staged_.reserve(std::max(m, staged_.capacity() * 2));
  }
  staged_.resize(m);
  for (const StampedHeader& h : bucket) {
    MMN_DCHECK((h.tick - 1) / ticks_per_slot_ == slot,
               "bucket ring too small for the delay bound");
    staged_[cursor_[h.to]++] = h;
  }
  bucket.clear();  // keeps its high-water capacity
  std::size_t i = 0;
  while (i < m) {
    const NodeId to = staged_[i].to;
    std::size_t j = i + 1;
    while (j < m && staged_[j].to == to) ++j;
    if (j - i > 1) {
      std::sort(staged_.begin() + static_cast<std::ptrdiff_t>(i),
                staged_.begin() + static_cast<std::ptrdiff_t>(j),
                [](const StampedHeader& a, const StampedHeader& b) {
                  if (a.tick != b.tick) return a.tick < b.tick;
                  return a.seq < b.seq;
                });
    }
    i = j;
  }
  in_flight_ -= m;
  return m;
}

/// The cross-rank half of a windowed core (K > 1 only), held at high-water
/// capacity so warmed-up exchanges allocate nothing.  Every rank swaps with
/// its peers in ascending order: no waiting cycle, and each swap is
/// full-duplex (shard_comm.hpp), so a round's exchange always completes.
struct RuntimeCore::RankSeam {
  shard_comm::Transport* transport;
  std::vector<NodeId> bounds;                     ///< ranks + 1 window bounds
  std::vector<shard_comm::PeerBatch> out;         ///< per dst rank
  std::vector<std::vector<ChannelWrite>> writes;  ///< per src rank
  std::vector<ChannelWrite> merged;  ///< rank-major slot writes, swapped in
  std::vector<std::uint8_t> out_blob;
  std::vector<std::uint8_t> in_blob;
  std::uint64_t xshard_msgs = 0;
  std::uint64_t boundary_edges = 0;

  unsigned ranks() const { return static_cast<unsigned>(out.size()); }
  shard_comm::Window window(unsigned r) const {
    return {bounds[r], bounds[r + 1]};
  }
  unsigned owner_of(NodeId v) const {
    // floor(v K / n) never overshoots v's window; it may undershoot by one.
    auto r = static_cast<unsigned>(std::uint64_t{v} * ranks() / bounds.back());
    while (v >= bounds[r + 1]) ++r;
    return r;
  }
  void swap(unsigned peer) {
    transport->exchange(peer, out_blob.data(), out_blob.size(), in_blob);
  }
};

RuntimeCore::RuntimeCore(const Graph& g, std::uint64_t seed,
                         std::unique_ptr<Scheduler> scheduler,
                         std::unique_ptr<ChannelDiscipline> discipline,
                         shard_comm::Transport* transport)
    : graph_(&g),
      scheduler_(scheduler ? std::move(scheduler)
                           : std::make_unique<SerialScheduler>()),
      discipline_(discipline ? std::move(discipline)
                             : std::make_unique<FreeForAllDiscipline>()) {
  const NodeId n = g.num_nodes();
  const unsigned ranks = transport != nullptr ? transport->ranks() : 1;
  const unsigned rank = transport != nullptr ? transport->rank() : 0;
  MMN_REQUIRE(ranks >= 1 && rank < ranks, "rank out of range");
  const auto [lo, hi] = Scheduler::shard_range(n, rank, ranks);
  lo_ = lo;
  own_ = rank;
  // Views are O(window) pointer setup over the graph's shared CSR arena —
  // no per-node adjacency copy, no per-node edge index (see
  // graph/graph.hpp).  Rng::fork is pure, so a window's streams are the
  // serial run's without replaying the unowned forks.
  views_.resize(hi - lo);
  rngs_.reserve(hi - lo);
  Rng root(seed);
  for (NodeId v = lo; v < hi; ++v) {
    views_[v - lo] = LocalView{v, n, &g};
    rngs_.push_back(root.fork(v));
  }
  const unsigned shards = scheduler_->shards();
  shards_.resize(shards + ranks - 1);
  latency_.reset(shards);
  for (unsigned s = 0; s < shards; ++s) {
    shard(s).latency = &latency_.block(s);
  }
  arena_.reset(hi - lo, shards + ranks - 1);
  discipline_->reset(n);  // the channel spans all n nodes on every rank

  if (ranks > 1) {
    seam_ = std::make_unique<RankSeam>();
    seam_->transport = transport;
    seam_->bounds.resize(ranks + 1);
    for (unsigned r = 0; r < ranks; ++r) {
      seam_->bounds[r] = Scheduler::shard_range(n, r, ranks).first;
    }
    seam_->bounds[ranks] = n;
    seam_->out.resize(ranks);
    seam_->writes.resize(ranks);
    for (NodeId v = lo; v < hi; ++v) {
      for (const Neighbor& nb : g.neighbors(v)) {
        if (nb.to < lo || nb.to >= hi) ++seam_->boundary_edges;
      }
    }
  }
}

RuntimeCore::~RuntimeCore() = default;

std::uint64_t RuntimeCore::xshard_msgs() const {
  return seam_ != nullptr ? seam_->xshard_msgs : 0;
}

std::uint64_t RuntimeCore::boundary_edges() const {
  return seam_ != nullptr ? seam_->boundary_edges : 0;
}

void RuntimeCore::init_outstanding() {
  const unsigned shards = scheduler_->shards();
  shard_state_.assign(shards, ShardState{});
  for (unsigned s = 0; s < shards; ++s) {
    const auto [first, last] = Scheduler::shard_range(num_nodes(), s, shards);
    for (NodeId v = first; v < last; ++v) {
      shard_state_[s].outstanding += (flags_[v] & kFinished) ? 0 : 1;
    }
  }
  remote_outstanding_ = 0;
  if (seam_ == nullptr) return;
  std::int64_t local = 0;
  for (const ShardState& s : shard_state_) local += s.outstanding;
  shard_comm::encode_count(local, seam_->out_blob);
  for (unsigned peer = 0; peer < seam_->ranks(); ++peer) {
    if (peer == own_) continue;
    seam_->swap(peer);
    remote_outstanding_ +=
        shard_comm::decode_count(seam_->in_blob, seam_->window(peer));
  }
}

void RuntimeCore::install_faults(const FaultPlan& plan) {
  MMN_REQUIRE(!started_ && faults_ == nullptr,
              "install_faults: once, before any node has run");
  faults_ = std::make_unique<FaultRuntime>(*graph_, plan);
}

SlotObservation RuntimeCore::resolve_slot() {
  const SlotObservation obs =
      discipline_->slot(slot_writes_, channel_, metrics_);
  slot_writes_.clear();
  return obs;
}

void RuntimeCore::step_nodes(Scheduler::NodeFn fn) {
  started_ = true;
  struct Pass {
    RuntimeCore* core;
    Scheduler::NodeFn fn;
  } pass{this, fn};
  scheduler_->for_each_shard(Scheduler::ShardFn{
      [](void* env, unsigned s) {
        const Pass& p = *static_cast<const Pass*>(env);
        p.core->shard_loop(s, p.fn);
      },
      &pass});
}

/// The one per-node loop of every round and slot phase, run by shard s's
/// worker over the shard's range in ascending order, so the shard-major
/// commit that follows sees the serial order.  While some node sleeps it
/// skips the nodes whose kAsleep bit is set — a byte test per node, against
/// a virtual call.  The hottest dispatch in the simulator: one raw indirect
/// call per stepped node, no std::function thunk between the scheduler and
/// node code.
void RuntimeCore::shard_loop(unsigned s, Scheduler::NodeFn fn) {
  const auto [first, last] =
      Scheduler::shard_range(num_nodes(), s, scheduler_->shards());
  if (sleepers_ + dozers_ == 0) {
    for (NodeId v = first; v < last; ++v) fn(s, v);
    return;
  }
  for (NodeId v = first; v < last; ++v) {
    if ((flags_[v] & kResting) == 0) fn(s, v);
  }
}

void RuntimeCore::run_round(Scheduler::NodeFn fn) {
  // Fault events scheduled for this round apply before any shard steps, on
  // one thread — every node of the round sees the same topology.
  apply_faults();
  step_nodes(fn);
  const unsigned shards = scheduler_->shards();
  for (unsigned s = 0; s < shards; ++s) {
    sleepers_ += shard_state_[s].slept;
    dozers_ += shard_state_[s].dozed;
    shard_state_[s].slept = 0;
    shard_state_[s].dozed = 0;
    ShardBuffer& sb = shard(s);
    for (ChannelWrite& w : sb.channel_writes) {
      slot_writes_.push_back(std::move(w));
    }
    sb.channel_writes.clear();
    metrics_.p2p_messages += sb.p2p_sent;
    sb.p2p_sent = 0;
    if (faults_ != nullptr) {
      faults_->stats().drops += sb.fault_drops;
      sb.fault_drops = 0;
    }
  }
  if (seam_ != nullptr) [[unlikely]] exchange_round();
  slot_ = resolve_slot();
  const bool fold_event = folds_.fold(slot_);
  if (sleepers_ + dozers_ != 0) wake_sleepers(fold_event);
  arena_.flip(shards_);  // clears the shard outboxes, recycles the pools
  advance_round();
}

/// Clears the rest bits of the nodes that have work next round, on one
/// thread between the fold and the flip: an idle slot wakes every sleeper,
/// a fold's event every dozer, and every header about to be flipped its
/// destination.  The headers include the ingress from other ranks (already
/// rebased to local ids), and the slot and the folds are replicated on
/// every rank, so a rank wakes its window alone.
void RuntimeCore::wake_sleepers(bool fold_event) {
  char woken = 0;
  if (slot_.idle() && sleepers_ != 0) {
    woken |= kAsleep;
    sleepers_ = 0;
  }
  if (fold_event && dozers_ != 0) {
    woken |= kDozing;
    dozers_ = 0;
  }
  if (woken != 0) {
    for (char& f : flags_) f &= ~woken;
  }
  if (sleepers_ + dozers_ == 0) return;
  for (const ShardBuffer& sb : shards_) {
    for (const MsgHeader& h : sb.outbox) {
      const char rest = flags_[h.to] & kResting;
      if (rest != 0) {
        flags_[h.to] &= ~kResting;
        sleepers_ -= (rest & kAsleep) != 0;
        dozers_ -= (rest & kDozing) != 0;
      }
    }
  }
}

/// The per-round rank seam, between the commit and the slot resolution:
///  1. partition — own-window headers stay in their shard buffer, rebased
///     to local ids (their payloads are not copied); cross-window headers
///     pack into one batch per destination rank, in send order;
///  2. swap — one frame per peer: the batch, this rank's channel writes
///     (slot_writes_ holds exactly those here), and its outstanding count;
///     incoming headers and payloads land in that peer's ingress buffer;
///  3. merge — channel writes rank-major, i.e. ascending node order, the
///     serial commit order the disciplines' determinism is stated over;
///     outstanding counts summed into the termination predicate.
/// The ingress buffers sit around the own shards in shards_, so the flip
/// that follows sees the serial ascending-sender order.
void RuntimeCore::exchange_round() {
  RankSeam& seam = *seam_;
  const NodeId w = num_nodes();
  const unsigned shards = scheduler_->shards();
  for (shard_comm::PeerBatch& b : seam.out) b.clear();
  std::int64_t local = 0;
  for (unsigned s = 0; s < shards; ++s) {
    local += shard_state_[s].outstanding;
    ShardBuffer& sb = shard(s);
    for (shard_comm::PeerBatch& b : seam.out) b.next_pool();
    const Packet* pool = sb.pool.data();
    std::size_t kept = 0;
    for (const MsgHeader& h : sb.outbox) {
      const NodeId local_to = h.to - lo_;  // wraps for nodes below the window
      if (local_to < w) {
        sb.outbox[kept++] = MsgHeader{local_to, h.from, h.via, h.ref};
      } else {
        seam.out[seam.owner_of(h.to)].pack(h, pool[h.ref]);
        ++seam.xshard_msgs;
      }
    }
    sb.outbox.resize(kept);
    // A shard whose every send left the rank has nothing for the flip to
    // recycle; rewind its pool here (the payloads are on the wire now).
    if (kept == 0) {
      sb.pool_used = 0;
      sb.pool_bytes = 0;
    }
  }

  remote_outstanding_ = 0;
  for (unsigned peer = 0; peer < seam.ranks(); ++peer) {
    if (peer == own_) continue;
    shard_comm::encode_frame(seam.out[peer], slot_writes_, local,
                             seam.out_blob);
    seam.swap(peer);
    seam.writes[peer].clear();
    ShardBuffer& ingress = shards_[peer < own_ ? peer : peer + shards - 1];
    remote_outstanding_ += shard_comm::decode_frame(
        seam.in_blob, seam.window(peer), seam.window(own_), ingress,
        seam.writes[peer]);
  }

  seam.merged.clear();
  for (unsigned r = 0; r < seam.ranks(); ++r) {
    const std::vector<ChannelWrite>& from =
        r == own_ ? slot_writes_ : seam.writes[r];
    seam.merged.insert(seam.merged.end(), from.begin(), from.end());
  }
  slot_writes_.swap(seam.merged);
}

void RuntimeCore::commit_async_phase() {
  constexpr PacketRef kNoRef = static_cast<PacketRef>(-1);
  for (ShardBuffer& sb : shards_) {
    for (ChannelWrite& w : sb.channel_writes) {
      slot_writes_.push_back(std::move(w));
    }
    // Broadcast interning: AsyncContext::broadcast stages ONE payload
    // shared by a run of consecutive headers.  Shard refs are unique per
    // stage_packet call, so a repeated ref can only be such a run — the
    // first header files the payload into the bucket pool, the rest share
    // its refcounted slot.
    PacketRef prev_src = kNoRef;
    PacketRef prev_pooled = 0;
    for (const AsyncMsgHeader& send : sb.async_outbox) {
      if (send.ref == prev_src) {
        slot_buckets_.push_shared(send, prev_pooled);
      } else {
        prev_pooled = slot_buckets_.push(send, sb.pool[send.ref]);
        prev_src = send.ref;
      }
    }
    metrics_.p2p_messages += sb.p2p_sent;
    if (faults_ != nullptr) {
      faults_->stats().drops += sb.fault_drops;
    }
    sb.clear_round();
  }
}

}  // namespace mmn::sim
