// Sharded execution (sim/rank.hpp, scenario::run with RunConfig::ranks):
// windowed graph builds must reproduce the full build's owned rows bit for
// bit, the socketpair transport must swap arbitrary blobs, the frame
// decoder must reject every torn or garbled frame without reading past it,
// a throwing rank must fail the run in the parent only, cells that cannot
// run sharded must be rejected before any rank is forked, and a sharded
// scenario run must produce the serial run's digest, metrics, fault stats
// and QoS section exactly — including under fault churn and a station
// crash — across 1, 2, and 4 ranks, with and without threads inside each
// rank.
//
// Child ranks run in forked processes, so in-child checks use MMN_REQUIRE
// (a throwing child exits nonzero and run_ranks throws in the parent);
// gtest EXPECTs live only in rank 0 / parent code.
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <random>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "scenario/registry.hpp"
#include "sim/fault.hpp"
#include "sim/rank.hpp"
#include "sim/scheduler.hpp"
#include "sim/shard_comm.hpp"
#include "support/check.hpp"

namespace mmn {
namespace {

using scenario::Registry;
using scenario::RunResult;

void expect_windows_match_full(const TopologySpec& spec, unsigned ranks) {
  const Graph full = build_topology(spec);
  const NodeId n = full.num_nodes();
  for (unsigned r = 0; r < ranks; ++r) {
    const auto [lo, hi] = sim::Scheduler::shard_range(n, r, ranks);
    const Graph win = build_topology_window(spec, GraphWindow{lo, hi});
    ASSERT_EQ(win.num_nodes(), n);
    ASSERT_EQ(win.num_edges(), full.num_edges());
    for (NodeId v = lo; v < hi; ++v) {
      ASSERT_EQ(win.degree(v), full.degree(v)) << "node " << v;
      const auto win_range = win.neighbors(v);
      auto wi = win_range.begin();
      for (const Neighbor& nb : full.neighbors(v)) {
        const Neighbor& wn = *wi;
        EXPECT_EQ(wn.to, nb.to);
        EXPECT_EQ(wn.weight, nb.weight);
        EXPECT_EQ(wn.edge, nb.edge);
        EXPECT_EQ(win.link_slot(v, nb.edge), full.link_slot(v, nb.edge));
        ++wi;
      }
    }
  }
}

TEST(RankWindow, WindowedBuildMatchesFullOwnedRows) {
  for (unsigned ranks : {2u, 3u, 4u}) {
    expect_windows_match_full(TopologySpec{TopoKind::kRing, 64, 7}, ranks);
    expect_windows_match_full(TopologySpec{TopoKind::kRandom, 96, 11}, ranks);
    expect_windows_match_full(TopologySpec{TopoKind::kTree, 80, 3}, ranks);
  }
}

TEST(RankWindow, UnretainedEdgeIsInvisibleNotFatal) {
  const TopologySpec spec{TopoKind::kRing, 16, 7};
  const Graph full = build_topology(spec);
  const Graph win = build_topology_window(spec, GraphWindow{0, 8});
  // An edge with both endpoints outside the window is not retained: its
  // link_slot resolves to "not incident" from any owned node.
  for (NodeId v = 0; v < 8; ++v) {
    for (EdgeId e = 0; e < full.num_edges(); ++e) {
      const int slot = full.link_slot(v, e);
      EXPECT_EQ(win.link_slot(v, e), slot);
    }
  }
}

TEST(RankTransport, PairwiseSwapCarriesLopsidedBlobs) {
  // Each rank swaps a rank-stamped blob with every peer; sizes differ per
  // direction (rank r sends (r + 1) * 1000 + peer bytes) so the duplex
  // drain path is exercised in both roles.
  sim::shard_comm::run_ranks(4, [](sim::shard_comm::Transport& t) {
    const unsigned me = t.rank();
    std::vector<std::uint8_t> in;
    for (unsigned peer = 0; peer < t.ranks(); ++peer) {
      if (peer == me) continue;
      std::vector<std::uint8_t> out((me + 1) * 1000 + peer,
                                    static_cast<std::uint8_t>(me * 16 + peer));
      t.exchange(peer, out.data(), out.size(), in);
      MMN_REQUIRE(in.size() == (peer + 1) * 1000 + me,
                  "swap returned the wrong frame size");
      for (const std::uint8_t b : in) {
        MMN_REQUIRE(b == static_cast<std::uint8_t>(peer * 16 + me),
                    "swap returned corrupted bytes");
      }
    }
    MMN_REQUIRE(t.bytes_out() > 0 && t.bytes_in() > 0,
                "transport byte counters did not advance");
  });
}

void expect_sharded_matches_serial(const scenario::Scenario& s, NodeId n,
                                   std::uint64_t seed, std::uint32_t faults,
                                   unsigned threads = 1) {
  const RunResult serial = run(s, n, seed, {.faults = faults});
  for (unsigned ranks : {1u, 2u, 4u}) {
    const RunResult sharded =
        run(s, n, seed, {.threads = threads, .ranks = ranks, .faults = faults});
    EXPECT_EQ(sharded.digest, serial.digest)
        << s.name << " n=" << n << " ranks=" << ranks;
    EXPECT_TRUE(sharded.metrics == serial.metrics)
        << s.name << " n=" << n << " ranks=" << ranks;
    EXPECT_TRUE(sharded.faults == serial.faults)
        << s.name << " n=" << n << " ranks=" << ranks;
    EXPECT_TRUE(sharded.qos == serial.qos)
        << s.name << " n=" << n << " ranks=" << ranks;
    EXPECT_EQ(sharded.delivered_ratio, serial.delivered_ratio);
    EXPECT_EQ(sharded.completed, serial.completed);
    EXPECT_EQ(sharded.realized_n, serial.realized_n);
    if (ranks > 1) {
      // A ring window [lo, hi) has exactly two boundary edges; K windows
      // cut the cycle K times.
      if (s.topology == TopoKind::kRing) {
        EXPECT_EQ(sharded.shard.boundary_edges, ranks);
      }
      EXPECT_GT(sharded.shard.wire_bytes, 0u);
    } else {
      EXPECT_EQ(sharded.shard.wire_bytes, 0u);
    }
  }
}

void expect_sharded_matches_serial(const char* name, NodeId n,
                                   std::uint64_t seed, std::uint32_t faults,
                                   unsigned threads = 1) {
  scenario::register_builtin();
  const scenario::Scenario* s = Registry::instance().find(name);
  ASSERT_NE(s, nullptr) << name;
  expect_sharded_matches_serial(*s, n, seed, faults, threads);
}

TEST(RankRun, GlobalMinRandRingMatchesSerial) {
  expect_sharded_matches_serial("global/min/rand/ring", 64, 7, 0);
  expect_sharded_matches_serial("global/min/rand/ring", 256, 11, 0);
}

TEST(RankRun, DetRandomTopologyMatchesSerial) {
  expect_sharded_matches_serial("global/min/det/random", 96, 7, 0);
}

TEST(RankRun, FaultChurnMatchesSerial) {
  // Reservation MAC under link and station churn: covers cross-rank fault
  // replication (replicated overlay + stifles), the drops reduction and the
  // QoS section (latency blocks summed across ranks).
  expect_sharded_matches_serial("fault/load/churn/ring", 64, 7, 1);
  expect_sharded_matches_serial("fault/load/churn/ring", 64, 7, 3);
}

TEST(RankRun, CrashedStationOrphansMatchSerial) {
  // A permanent crash of a station outside rank 0's window on an
  // oversaturated ring: the orphaned backlog is counted by the owning rank
  // and must reach rank 0's result exactly as a serial run reports it.
  scenario::Scenario s = scenario::open_loop_scenario(
      "fault/crash/ring", "one permanent station crash", TopoKind::kRing,
      OpenLoopConfig{.horizon = 800}, /*default_load=*/2.0,
      sim::DisciplineKind::kReservation, {32});
  s.make_fault_plan = [](const Graph&, std::uint32_t, std::uint64_t) {
    sim::FaultPlan plan;
    plan.add({/*slot=*/400, sim::FaultKind::kNodeCrash, /*id=*/20});
    return plan;
  };
  s.default_faults = 1;
  EXPECT_GT(run(s, 32, 7).faults.orphaned_pkts, 0u);
  expect_sharded_matches_serial(s, 32, 7, 0);
}

TEST(RankRun, ThreadsInsideRanksMatchSerial) {
  expect_sharded_matches_serial("global/min/rand/ring", 256, 11, 0, 2);
  expect_sharded_matches_serial("global/min/det/random", 96, 7, 0, 2);
  expect_sharded_matches_serial("fault/load/churn/ring", 64, 7, 1, 2);
  expect_sharded_matches_serial("fault/load/churn/ring", 64, 7, 3, 2);
}

TEST(RankRun, UnshardableCellsAreRejectedBeforeAnyFork) {
  // Two-phase recovery re-partitions mid-run and the asynchronous engine
  // has no rank seam; both must throw in the caller.  A rank forked before
  // the check would fail on its own and print its error, so the captured
  // stderr stays empty only if nothing was forked.
  scenario::register_builtin();
  const scenario::Scenario* recovery = Registry::instance().find("fault/mst/random");
  const scenario::Scenario* p2p = Registry::instance().find("global/min/p2p/grid");
  const scenario::Scenario* load =
      Registry::instance().find("load/poisson/resv/ring");
  ASSERT_NE(recovery, nullptr);
  ASSERT_NE(p2p, nullptr);
  ASSERT_NE(load, nullptr);
  const auto async = scenario::EngineKind::kAsync;
  testing::internal::CaptureStderr();
  EXPECT_THROW(run(*recovery, 64, 7, {.ranks = 2}), std::invalid_argument);
  EXPECT_THROW(run(*p2p, 64, 7, {.engine = async, .ranks = 2}),
               std::invalid_argument);
  EXPECT_THROW(run(*load, 64, 7, {.engine = async, .ranks = 4}),
               std::invalid_argument);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST(RankRun, ThrowingRankFailsTheRunInTheParentOnly) {
  // Every process that gets past run_ranks reports its pid on a pipe; with
  // a child escaping by exception there would be two reporters.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const pid_t parent = ::getpid();
  bool threw = false;
  try {
    sim::shard_comm::run_ranks(3, [](sim::shard_comm::Transport& t) {
      MMN_REQUIRE(t.rank() != 1, "rank 1 fails on purpose");
      std::vector<std::uint8_t> in;
      for (unsigned peer = 0; peer < t.ranks(); ++peer) {
        if (peer != t.rank()) t.exchange(peer, nullptr, 0, in);
      }
    });
  } catch (const std::exception&) {
    threw = true;
  }
  const pid_t me = ::getpid();
  ASSERT_EQ(::write(fds[1], &me, sizeof(me)), static_cast<ssize_t>(sizeof(me)));
  if (me != parent) ::_exit(0);
  ::close(fds[1]);
  std::vector<pid_t> reporters;
  pid_t pid;
  while (::read(fds[0], &pid, sizeof(pid)) == static_cast<ssize_t>(sizeof(pid))) {
    reporters.push_back(pid);
  }
  ::close(fds[0]);
  EXPECT_TRUE(threw);
  EXPECT_EQ(reporters, std::vector<pid_t>{parent});
  // Every child was reaped: none is left, zombie or running.
  errno = 0;
  EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

// ----- frame decoder -------------------------------------------------------

const sim::shard_comm::Window kSrc{8, 16};
const sim::shard_comm::Window kDst{0, 8};

struct Decoded {
  sim::ShardBuffer ingress;
  std::vector<sim::ChannelWrite> writes;
  std::int64_t outstanding = 0;
};

/// Decodes `blob` and re-encodes the result: a decode that returns must
/// reproduce exactly the bytes it was given.
std::vector<std::uint8_t> round_trip(const std::vector<std::uint8_t>& blob,
                                     Decoded& d) {
  d.outstanding = sim::shard_comm::decode_frame(blob, kSrc, kDst, d.ingress,
                                                d.writes);
  sim::shard_comm::PeerBatch batch;
  for (const sim::MsgHeader& h : d.ingress.outbox) {
    EXPECT_LT(h.to, kDst.second - kDst.first);
    EXPECT_LT(h.ref, d.ingress.pool_used);
    batch.pack(sim::MsgHeader{h.to + kDst.first, h.from, h.via, h.ref},
               d.ingress.pool[h.ref]);
  }
  std::vector<std::uint8_t> again;
  sim::shard_comm::encode_frame(batch, d.writes, d.outstanding, again);
  return again;
}

/// A frame with a three-header broadcast run, two single sends, payloads of
/// different lengths and two channel writes.
std::vector<std::uint8_t> sample_frame() {
  const sim::Packet bcast(7, {1, 2, 3});
  const sim::Packet one(9, {});
  const sim::Packet full(11, {1, 2, 3, 4, 5, 6, 7, 8});
  sim::shard_comm::PeerBatch batch;
  batch.pack({0, 8, 20, 0}, bcast);
  batch.pack({3, 8, 21, 0}, bcast);
  batch.pack({7, 8, 22, 0}, bcast);
  batch.pack({2, 9, 23, 1}, one);
  batch.next_pool();  // a second shard's pool: ref 1 again, a new payload
  batch.pack({5, 12, 24, 1}, full);
  const std::vector<sim::ChannelWrite> writes = {
      {9, sim::Packet(4, {42})}, {15, sim::Packet(5, {-1, 7})}};
  std::vector<std::uint8_t> blob;
  sim::shard_comm::encode_frame(batch, writes, 6, blob);
  return blob;
}

TEST(RankWire, FrameRoundTrips) {
  const std::vector<std::uint8_t> blob = sample_frame();
  Decoded d;
  EXPECT_EQ(round_trip(blob, d), blob);
  ASSERT_EQ(d.ingress.outbox.size(), 5u);
  EXPECT_EQ(d.ingress.pool_used, 3u);  // one payload per run
  EXPECT_EQ(d.ingress.outbox[1].to, 3u);
  EXPECT_EQ(d.ingress.outbox[1].from, 8u);
  EXPECT_EQ(d.ingress.outbox[1].ref, d.ingress.outbox[0].ref);
  EXPECT_TRUE(d.ingress.pool[d.ingress.outbox[4].ref] ==
              sim::Packet(11, {1, 2, 3, 4, 5, 6, 7, 8}));
  ASSERT_EQ(d.writes.size(), 2u);
  EXPECT_EQ(d.writes[1].node, 15u);
  EXPECT_TRUE(d.writes[1].packet == sim::Packet(5, {-1, 7}));
  EXPECT_EQ(d.outstanding, 6);
}

TEST(RankWire, EveryTruncationThrows) {
  const std::vector<std::uint8_t> blob = sample_frame();
  for (std::size_t len = 0; len < blob.size(); ++len) {
    // An exact-size copy, so ASan sees any read past the prefix.
    const std::vector<std::uint8_t> cut(blob.begin(), blob.begin() + len);
    Decoded d;
    EXPECT_THROW(sim::shard_comm::decode_frame(cut, kSrc, kDst, d.ingress,
                                               d.writes),
                 std::invalid_argument)
        << "prefix of " << len << " bytes";
  }
}

TEST(RankWire, CountsThatWouldWrapThrow) {
  const auto frame = [](std::uint64_t n_headers, std::uint64_t payload) {
    std::vector<std::uint8_t> blob(32);
    const sim::MsgHeader h{0, 8, 0, 0};
    std::memcpy(blob.data(), &n_headers, 8);
    std::memcpy(blob.data() + 8, &h, sizeof(h));
    std::memcpy(blob.data() + 24, &payload, 8);
    return blob;
  };
  const std::uint64_t huge_payload = ~std::uint64_t{0} - 15;  // 2^64 - 16
  // n_headers * 16 wraps to 16; payload_bytes + cursor wraps to 8.
  for (const auto& blob : {frame((std::uint64_t{1} << 60) + 1, huge_payload),
                           frame(1, huge_payload)}) {
    Decoded d;
    EXPECT_THROW(sim::shard_comm::decode_frame(blob, kSrc, kDst, d.ingress,
                                               d.writes),
                 std::invalid_argument);
  }
}

TEST(RankWire, ByteFlipsThrowOrRoundTrip) {
  // No checksum in the format, so a flipped payload word decodes to a
  // different but well-formed frame; everything else must throw.
  const std::vector<std::uint8_t> blob = sample_frame();
  std::mt19937_64 rng(2024);
  int threw = 0;
  for (int i = 0; i < 4000; ++i) {
    std::vector<std::uint8_t> bad = blob;
    bad[rng() % bad.size()] ^= static_cast<std::uint8_t>(1 + rng() % 255);
    Decoded d;
    try {
      EXPECT_EQ(round_trip(bad, d), bad) << "flip " << i;
    } catch (const std::invalid_argument&) {
      ++threw;
    }
  }
  EXPECT_GT(threw, 0);
}

TEST(RankRun, CrossShardTrafficIsCounted) {
  scenario::register_builtin();
  const scenario::Scenario* s = Registry::instance().find("global/min/rand/ring");
  ASSERT_NE(s, nullptr);
  const RunResult r = run(*s, 64, 7, {.ranks = 2});
  EXPECT_NE(r.digest, 0u);
  // A ring split in two windows routes every wrap-around hop cross-shard.
  EXPECT_GT(r.shard.xshard_msgs, 0u);
  EXPECT_EQ(r.shard.boundary_edges, 2u);
}

}  // namespace
}  // namespace mmn
