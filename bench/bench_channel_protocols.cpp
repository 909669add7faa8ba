// E10 — Ablation: the channel scheduling toolbox (Sections 2, 5, 6).
//
// Scheduling k stations out of an id space of n on the collision channel:
// Capetanakis tree resolution (deterministic, no global knowledge of the
// station set), pseudo-Bayesian randomized resolution (Metcalfe–Boggs), and
// TDMA (needs the station order known a priori — the unreachable optimum).
// Plus the deterministic bit-by-bit election (O(log n) slots).
#include <set>

#include "channel/capetanakis.hpp"
#include "channel/election.hpp"
#include "channel/pseudo_bayesian.hpp"
#include "channel/randomized_election.hpp"
#include "common.hpp"
#include "sim/channel.hpp"
#include "support/math.hpp"
#include "support/rng.hpp"

namespace mmn {
namespace {

std::vector<std::uint64_t> pick_ids(std::uint64_t n, std::size_t k,
                                    std::uint64_t seed) {
  Rng rng(seed);
  std::set<std::uint64_t> ids;
  while (ids.size() < k) ids.insert(rng.next_below(n));
  return {ids.begin(), ids.end()};
}

// Stations decide through the one listener and keep only a pending bit:
// Capetanakis probe membership, or the pseudo-Bayesian draw from each
// station's own RNG.
std::uint64_t capetanakis_slots(std::uint64_t n,
                                const std::vector<std::uint64_t>& ids,
                                bool massey_skip) {
  CapetanakisResolver listener(n, massey_skip);
  std::vector<bool> pending(ids.size(), true);
  sim::Channel channel;
  Metrics metrics;
  std::uint64_t slots = 0;
  while (!listener.done()) {
    for (std::size_t s = 0; s < ids.size(); ++s) {
      if (pending[s] && listener.station_transmits(ids[s])) {
        channel.write(static_cast<NodeId>(ids[s]), sim::Packet(1));
      }
    }
    const auto obs = channel.resolve(metrics);
    for (std::size_t s = 0; s < ids.size(); ++s) {
      if (obs.success() && obs.writer == static_cast<NodeId>(ids[s])) {
        pending[s] = false;
      }
    }
    listener.observe(obs);
    ++slots;
  }
  return slots;
}

double randomized_slots(std::size_t k, std::uint64_t seed) {
  Rng root(seed);
  std::vector<Rng> rngs;
  for (std::size_t s = 0; s < k; ++s) rngs.push_back(root.fork(s));
  std::vector<bool> pending(k, true);
  RandomizedScheduler listener(static_cast<double>(k));
  sim::Channel channel;
  Metrics metrics;
  std::uint64_t slots = 0;
  while (!listener.done()) {
    for (std::size_t s = 0; s < k; ++s) {
      if (pending[s] && listener.station_transmits(rngs[s])) {
        channel.write(static_cast<NodeId>(s), sim::Packet(1));
      }
    }
    const auto obs = channel.resolve(metrics);
    const std::uint64_t before = listener.success_count();
    listener.observe(obs);
    if (listener.success_count() != before) pending[obs.writer] = false;
    ++slots;
  }
  return static_cast<double>(slots);
}

double randomized_election_slots(std::size_t k, std::uint64_t seed) {
  Rng root(seed);
  std::vector<Rng> rngs;
  for (std::size_t s = 0; s < k; ++s) rngs.push_back(root.fork(s));
  RandomizedElection listener;
  sim::Channel channel;
  Metrics metrics;
  while (!listener.done()) {
    for (std::size_t s = 0; s < k; ++s) {
      if (listener.station_transmits(rngs[s])) {
        channel.write(static_cast<NodeId>(s),
                      sim::Packet(1, {static_cast<sim::Word>(s)}));
      }
    }
    listener.observe(channel.resolve(metrics));
  }
  return static_cast<double>(listener.slots());
}

int election_rounds(std::uint64_t n, const std::vector<std::uint64_t>& ids) {
  ChannelElection listener(n);
  sim::Channel channel;
  Metrics metrics;
  int rounds = 0;
  while (!listener.done()) {
    for (std::uint64_t id : ids) {
      if (listener.station_transmits(id)) {
        channel.write(static_cast<NodeId>(id), sim::Packet(1));
      }
    }
    listener.observe(channel.resolve(metrics));
    ++rounds;
  }
  return rounds;
}

}  // namespace
}  // namespace mmn

int main(int argc, char** argv) {
  using namespace mmn;
  bench::BenchOutput out(argc, argv, "channel_protocols");
  const std::uint64_t n = 4096;
  bench::print_header("E10", "channel scheduling disciplines (id space 4096)");
  bench::print_note(
      "slots per scheduled station: TDMA = 1 (needs a priori order);\n"
      "Capetanakis ~ 2 log(n/k) + O(1) deterministic (and with Massey's\n"
      "skip of doomed right-sibling probes); pseudo-Bayesian ~ 2e randomized\n"
      "(both lanes).  Deterministic election resolves in ceil(log2 n) slots;\n"
      "the Willard-style randomized one in O(log log n) expected slots.");
  Table table({"k", "capetanakis/k", "massey/k", "pseudo-bayes/k", "tdma/k",
               "det-elect slots", "rand-elect slots"});
  for (std::size_t k : {1u, 4u, 16u, 64u, 256u, 1024u}) {
    const auto ids = pick_ids(n, k, 91 + k);
    double pb = 0;
    double re = 0;
    const int trials = 10;
    for (int t = 0; t < trials; ++t) {
      pb += randomized_slots(k, 500 + t);
      re += randomized_election_slots(k, 800 + t);
    }
    table.begin_row();
    table.add(std::uint64_t{k});
    table.add(static_cast<double>(capetanakis_slots(n, ids, false)) / k, 2);
    table.add(static_cast<double>(capetanakis_slots(n, ids, true)) / k, 2);
    table.add(pb / trials / static_cast<double>(k), 2);
    table.add(1.0, 2);
    table.add(std::int64_t{election_rounds(n, ids)});
    table.add(re / trials, 1);
  }
  out.table("disciplines", table);
  out.finish();
  return 0;
}
