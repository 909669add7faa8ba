// Tests of the benchmark's own parts: the decorators are transparent, a
// corrupted result is counted as a failed repetition, and the peak-RSS
// accounting sees reaped children.  Small sizes; the workloads themselves
// run only from perfbench/run.py.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "sim/channel_discipline.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

/// A benchmark workload shrunk to test size; an unpinned seed skips the
/// pinned-value check, the engine-independent checks still run.
Workload small(std::string_view name, mmn::NodeId n) {
  Workload w = *find_workload(name);
  w.n = n;
  return w;
}
constexpr std::uint64_t kSeed = 3;

double layer(const Rep& rep, const std::string& name) {
  for (const auto& [k, v] : rep.layers) {
    if (k == name) return v;
  }
  ADD_FAILURE() << "missing layer metric " << name;
  return -1;
}

TEST(Decorators, TracedRepMatchesUntracedOnEveryEngine) {
  for (const auto& [name, n] :
       std::vector<std::pair<std::string_view, mmn::NodeId>>{
           {"ring", 256}, {"cube", 256}, {"resv-async", 256},
           {"ring-r2", 256}}) {
    SCOPED_TRACE(std::string(name));
    const Workload w = small(name, n);
    const Rep plain = run_rep(w, kSeed);
    SpanLog log;
    const Rep traced = run_rep(w, kSeed, &log, 1);
    ASSERT_TRUE(plain.failure.empty()) << plain.failure;
    ASSERT_TRUE(traced.failure.empty()) << traced.failure;
    EXPECT_EQ(traced.digest, plain.digest);
    EXPECT_EQ(traced.metrics, plain.metrics);
    EXPECT_TRUE(plain.layers.empty());
    EXPECT_EQ(layer(traced, "sim.rounds"),
              static_cast<double>(plain.metrics.rounds));
    EXPECT_EQ(layer(traced, "sim.round_samples"),
              static_cast<double>(plain.metrics.rounds));
    EXPECT_GT(layer(traced, "core.calls"), 0);
    EXPECT_GE(layer(traced, "sim.step_s"), layer(traced, "sim.self_s"));
    if (w.mode == Mode::kSync) {
      // One round() call per node per round.
      EXPECT_EQ(layer(traced, "core.calls"),
                static_cast<double>(plain.node_rounds));
    }
    if (w.mode == Mode::kRanks) {
      EXPECT_GT(layer(traced, "shard_comm.exchanges"), 0);
      EXPECT_GT(layer(traced, "shard_comm.bytes_out"), 0);
    } else {
      EXPECT_EQ(layer(traced, "shard_comm.exchanges"), 0);
    }
  }
}

TEST(Decorators, DisciplineForwardsEverySlotOutcome) {
  auto plain = mmn::sim::make_discipline(mmn::sim::DisciplineKind::kReservation,
                                         mmn::sim::UnslottedConfig{}, 11);
  SpanLog log;
  LayerCounts counts;
  auto timed = make_discipline(mmn::sim::DisciplineKind::kReservation, 11,
                               &log, &counts);
  plain->reset(8);
  timed->reset(8);
  mmn::sim::Channel c1, c2;
  mmn::Metrics m1, m2;
  for (std::uint32_t slot = 0; slot < 64; ++slot) {
    std::vector<mmn::sim::ChannelWrite> writes;
    for (mmn::NodeId v = 0; v < 8; ++v) {
      if ((slot * 7 + v * 3) % 5 == 0) {
        writes.push_back({v, mmn::sim::Packet{}});
      }
    }
    const auto a = plain->slot(writes, c1, m1);
    const auto b = timed->slot(writes, c2, m2);
    ASSERT_EQ(a.state, b.state);
    ASSERT_EQ(a.writer, b.writer);
    ASSERT_EQ(plain->backlog(), timed->backlog());
  }
  EXPECT_EQ(m1, m2);
  EXPECT_EQ(counts.slots_busy, m2.slots_busy());
  EXPECT_EQ(log.spans().size(), 64u);  // one channel.slot span per call
}

TEST(Checks, CorruptedResultCountsAsFailed) {
  std::vector<mmn::sim::Word> values(16, 1);
  EXPECT_EQ(check_values(Expect::kGlobalMin, 16, values), "");
  values[9] = 2;
  EXPECT_NE(check_values(Expect::kGlobalMin, 16, values), "");

  std::vector<mmn::sim::Word> sums(16, 16 * 17 / 2);
  EXPECT_EQ(check_values(Expect::kGlobalSum, 16, sums), "");
  sums[0] -= 1;
  EXPECT_NE(check_values(Expect::kGlobalSum, 16, sums), "");

  ClassTotals t;
  t.arrivals = {5, 6, 7};
  t.delivered = {5, 4, 7};
  t.backlog = {0, 2, 0};
  t.recorded_arrivals = t.arrivals;
  t.recorded_delivered = t.delivered;
  EXPECT_EQ(check_conservation(t), "");
  t.backlog[1] = 1;  // one packet vanished
  EXPECT_NE(check_conservation(t), "");

  const Workload& ring = *find_workload("ring");
  EXPECT_EQ(check_pinned(ring, kPinnedSeed, ring.pinned_digest,
                         ring.pinned_metrics),
            "");
  EXPECT_NE(check_pinned(ring, kPinnedSeed, ring.pinned_digest ^ 1,
                         ring.pinned_metrics),
            "");

  Tally tally;
  Rep good;
  Rep bad;
  bad.failure = check_values(Expect::kGlobalMin, 16, values);
  tally.add(good);
  tally.add(bad);
  tally.add(good);
  EXPECT_EQ(tally.attempted, 3u);
  EXPECT_EQ(tally.failed, 1u);
  ASSERT_EQ(tally.failures.size(), 1u);
}

TEST(PeakRss, SeesAReapedForkedChild) {
  rusage self{};
  ::getrusage(RUSAGE_SELF, &self);
  constexpr std::size_t kChildMb = 192;
  // Otherwise the check below would pass on this process's own peak.
  ASSERT_LT(static_cast<double>(self.ru_maxrss) / 1024.0, kChildMb);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    std::vector<char> block(kChildMb << 20);
    std::memset(block.data(), 1, block.size());  // make it resident
    ::_exit(block[block.size() / 2] == 1 ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  EXPECT_GE(peak_rss_mb(), static_cast<double>(kChildMb));
}

}  // namespace
}  // namespace perfbench
