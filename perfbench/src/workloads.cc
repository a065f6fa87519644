// The three workloads: their programs, networks, seeded update streams and
// the checks of their results against the reference computations.
#include <algorithm>

#include "bench.h"
#include "deduce/common/rng.h"

namespace perfbench {

using deduce::Intern;
using deduce::Rng;
using deduce::StreamOp;
using deduce::Term;
using deduce::Topology;

namespace {

/// Spacing of the join workloads' updates. bench_scale spaces them 40 ms
/// apart; at that spacing a removal can overtake its insert on the way to
/// the result home and leave a phantom join result standing (see
/// perfbench/README.md, "Known faults"). 2 s is longer than the longest
/// routed path on either network (seeds 1-40 are exact), and the host work
/// per update is the same.
constexpr SimTime kJoinGap = 2'000'000;

/// Join updates come in bursts of this many, each burst followed by a pause
/// long enough for the network to drain (the longest drain seen on either
/// join network is about 35 s). A burst's drain takes ~12 s or ~33 s
/// depending on whether its last update yields a result, so the mean settle
/// time over bursts needs many bursts to be steady across seeds.
constexpr int kBurstUpdates = 25;
constexpr SimTime kJoinBurstGap = 120'000'000;

/// Marks the first update of every burst but the first.
void MarkBursts(std::vector<std::vector<Update>> bursts,
                std::vector<Update>* out) {
  for (size_t b = 0; b < bursts.size(); ++b) {
    if (bursts[b].empty()) continue;
    bursts[b].front().drain_first = b > 0;
    out->insert(out->end(), bursts[b].begin(), bursts[b].end());
  }
}

/// `total` updates kJoinGap apart in bursts of kBurstUpdates, at uniformly
/// drawn nodes, 20% of them deletions of a uniformly drawn live tuple.
/// Inserted tuples are `stream(K, node, i)` with the stream drawn from
/// `streams`.
std::vector<Update> JoinStream(int nodes, int total, int key_range,
                               const std::vector<const char*>& streams,
                               uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<Update>> bursts;
  std::vector<std::pair<NodeId, Fact>> alive;
  SimTime t = 10'000;
  for (int i = 0; i < total; ++i, t += kJoinGap) {
    if (i % kBurstUpdates == 0) {
      if (i > 0) t += kJoinBurstGap;
      bursts.emplace_back();
    }
    if (!alive.empty() && rng.Bernoulli(0.2)) {
      size_t k = static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(alive.size()) - 1));
      bursts.back().push_back(
          {t, alive[k].first, StreamOp::kDelete, alive[k].second});
      alive.erase(alive.begin() + static_cast<long>(k));
      continue;
    }
    NodeId node = static_cast<NodeId>(rng.Uniform(0, nodes - 1));
    const char* stream = streams[static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(streams.size()) - 1))];
    Fact f(Intern(stream), {Term::Int(rng.Uniform(0, key_range - 1)),
                            Term::Int(node), Term::Int(i)});
    bursts.back().push_back({t, node, StreamOp::kInsert, f});
    alive.emplace_back(node, f);
  }
  std::vector<Update> out;
  MarkBursts(std::move(bursts), &out);
  return out;
}

// --- grid-join ------------------------------------------------------------
// bench_scale --smoke: a 100x100 grid, two-stream equi-join with PA row
// storage and batched delivery, 2,000 updates, 20% deletions.

constexpr int kGridSide = 100;
constexpr int kGridUpdates = 2000;

Workload GridJoin() {
  Workload w;
  w.name = "grid-join";
  w.program_text = R"(
    .decl r/3 input.
    .decl s/3 input.
    t(K, N1, N2, I1, I2) :- r(K, N1, I1), s(K, N2, I2).
  )";
  w.batched_delivery = true;
  w.topology = [](uint64_t) { return Topology::Grid(kGridSide); };
  w.updates = [](const Topology& topo, uint64_t seed) {
    return JoinStream(topo.node_count(), kGridUpdates, kGridUpdates / 2,
                      {"r", "s"}, seed);
  };
  w.check = [](const Topology&, const std::vector<Update>& updates,
               const ResultReader& read) {
    std::vector<Fact> want =
        HashJoin("t", {AliveFacts(updates, Intern("r")),
                       AliveFacts(updates, Intern("s"))},
                 {{0, 0}, {0, 1}, {1, 1}, {0, 2}, {1, 2}});
    return CompareKeyed("t", want, read("t"), 5);
  };
  // PA row storage: every update (insert or deletion mark) walks its row,
  // one store message per hop.
  w.property = [](const Round& r, const Topology&,
                  const std::vector<Update>& updates) -> std::string {
    uint64_t want = updates.size() * (kGridSide - 1);
    if (r.store_messages == want) return "";
    return "store-phase messages " + std::to_string(r.store_messages) +
           " != updates x (m - 1) = " + std::to_string(want);
  };
  return w;
}

// --- vehicles-testbed -----------------------------------------------------
// The paper's Example 1 (uncovered enemies: a dist join plus negation) and
// the logicJ shortest-path tree (XY-stratified recursion over g), together
// on a 16x16 testbed grid with reliable transport, the retraction protocol,
// frame checksums and the metrics registry on.

constexpr int kVehSide = 16;
constexpr int kEpochs = 16;
constexpr SimTime kEpochGap = 900'000'000;
constexpr double kCoverRange = 5.0;

Fact Detection(const char* pred, int x, int y, int epoch, NodeId node) {
  return Fact(Intern(pred), {Term::Function("loc", {Term::Int(x), Term::Int(y)}),
                             Term::Int(epoch), Term::Int(node)});
}

Workload VehiclesTestbed() {
  Workload w;
  w.name = "vehicles-testbed";
  w.program_text = R"(
    .decl veh_enemy(l, t, n) input.
    .decl veh_friendly(l, t, n) input.
    cov(L1, T) :- veh_enemy(L1, T, N1), veh_friendly(L2, T, N2),
                  dist(L1, L2) <= 5.0.
    uncov(L, T) :- veh_enemy(L, T, N), NOT cov(L, T).
    .decl g/2 input storage spatial 1.
    .decl j(y, d) home y stage d storage local.
    .decl j1(y, d) home y stage d storage local.
    j(0, 0).
    j1(Y, D + 1) :- j(Y, D2), (D + 1) > D2, j(X, D), g(X, Y).
    j(Y, D + 1) :- g(X, Y), j(X, D), NOT j1(Y, D + 1).
  )";
  // The testbed's jitter, clock skew, per-byte delay and MAC retries, but
  // no loss: with its 5% loss, about one seed in nine leaves a wrong cov or
  // an extra j depth behind, because a retransmitted message can outlast
  // the timing bounds (README.md, "Known faults").
  w.link = deduce::LinkModel::Testbed();
  w.link.loss_rate = 0;
  w.reliable = true;
  w.registry = true;
  w.topology = [](uint64_t) { return Topology::Grid(kVehSide); };
  w.updates = [](const Topology& topo, uint64_t seed) {
    Rng rng(seed);
    // Burst b starts at b * kEpochGap; burst 0 builds the graph, burst e
    // is epoch e of the vehicle detections.
    std::vector<std::vector<Update>> bursts(kEpochs + 1);
    auto at = [](int burst, int step) {
      return 50'000 + burst * kEpochGap + step * SimTime{100'000};
    };
    // The fault probe (seed-independent, epoch 0): an enemy stays, a
    // friendly in range arrives in burst 1 and leaves in burst 2, so
    // uncov(loc(1, 1), 0) must hold at the end.
    NodeId enemy = topo.GridNode(1, 1);
    NodeId friendly = topo.GridNode(2, 2);
    bursts[0].push_back({at(0, 0), enemy, StreamOp::kInsert,
                         Detection("veh_enemy", 1, 1, 0, enemy)});
    bursts[1].push_back({at(1, 0), friendly, StreamOp::kInsert,
                         Detection("veh_friendly", 2, 2, 0, friendly)});
    bursts[2].push_back({at(2, 0), friendly, StreamOp::kDelete,
                         Detection("veh_friendly", 2, 2, 0, friendly)});
    // Every directed edge as g(X, Y) at X, 5 ms apart, in seeded order.
    std::vector<std::pair<NodeId, NodeId>> edges;
    for (NodeId v = 0; v < topo.node_count(); ++v) {
      for (NodeId u : topo.neighbors(v)) edges.emplace_back(v, u);
    }
    for (size_t i = edges.size(); i > 1; --i) {
      std::swap(edges[i - 1], edges[static_cast<size_t>(rng.Uniform(
                                  0, static_cast<int64_t>(i) - 1))]);
    }
    SimTime t = at(0, 1);
    for (const auto& [x, y] : edges) {
      bursts[0].push_back({t, x, StreamOp::kInsert,
                           Fact(Intern("g"), {Term::Int(x), Term::Int(y)})});
      t += 5'000;
    }
    // Vehicle detections: each epoch withdraws half of the previous
    // epoch's enemy detections, then places one enemy in every 4x4 block
    // and one friendly in every 8x8 quadrant (distinct cells, stratified so
    // every epoch covers the whole field), injected 100 ms apart in seeded
    // order.
    std::vector<Update> previous_enemies;
    for (int epoch = 1; epoch <= kEpochs; ++epoch) {
      std::vector<Update>& burst = bursts[static_cast<size_t>(epoch)];
      int step = static_cast<int>(burst.size());
      for (size_t i = 0; i < previous_enemies.size(); i += 2) {
        Update del = previous_enemies[i];
        del.time = at(epoch, step++);
        del.op = StreamOp::kDelete;
        burst.push_back(del);
      }
      previous_enemies.clear();
      std::vector<std::pair<NodeId, bool>> placed;  // (cell, is_enemy)
      auto place = [&](int x0, int y0, int side, bool is_enemy) {
        for (;;) {
          NodeId node = topo.GridNode(x0 + static_cast<int>(rng.Uniform(0, side - 1)),
                                      y0 + static_cast<int>(rng.Uniform(0, side - 1)));
          bool taken = false;
          for (const auto& p : placed) taken = taken || p.first == node;
          if (!taken) {
            placed.emplace_back(node, is_enemy);
            return;
          }
        }
      };
      for (int by = 0; by < kVehSide; by += 4) {
        for (int bx = 0; bx < kVehSide; bx += 4) place(bx, by, 4, true);
      }
      for (int qy = 0; qy < kVehSide; qy += 8) {
        for (int qx = 0; qx < kVehSide; qx += 8) place(qx, qy, 8, false);
      }
      for (size_t i = placed.size(); i > 1; --i) {
        std::swap(placed[i - 1], placed[static_cast<size_t>(rng.Uniform(
                                     0, static_cast<int64_t>(i) - 1))]);
      }
      for (const auto& [node, is_enemy] : placed) {
        auto [x, y] = topo.GridCoord(node);
        Update u{at(epoch, step++), node, StreamOp::kInsert,
                 Detection(is_enemy ? "veh_enemy" : "veh_friendly", x, y,
                           epoch, node)};
        burst.push_back(u);
        if (is_enemy) previous_enemies.push_back(u);
      }
    }
    std::vector<Update> out;
    MarkBursts(std::move(bursts), &out);
    return out;
  };
  w.check = [](const Topology& topo, const std::vector<Update>& updates,
               const ResultReader& read) {
    std::vector<Fact> cov, uncov;
    Coverage(AliveFacts(updates, Intern("veh_enemy")),
             AliveFacts(updates, Intern("veh_friendly")), kCoverRange, &cov,
             &uncov);
    // Epoch 0 is the fault probe; its operations are tallied apart.
    auto probe = [](const Fact& f) {
      return f.args()[1].value().as_int() == 0;
    };
    auto split = [&](std::vector<Fact> facts, bool want_probe) {
      facts.erase(std::remove_if(facts.begin(), facts.end(),
                                 [&](const Fact& f) {
                                   return probe(f) != want_probe;
                                 }),
                  facts.end());
      return facts;
    };
    std::vector<Fact> got_cov = read("cov");
    std::vector<Fact> got_uncov = read("uncov");
    Tally t;
    t.Add(CompareKeyed("cov", split(cov, false), split(got_cov, false), 2));
    t.Add(CompareKeyed("uncov", split(uncov, false), split(got_uncov, false),
                       2));
    Tally p = CompareKeyed("cov", split(cov, true), split(got_cov, true), 2);
    p.Add(CompareKeyed("uncov", split(uncov, true), split(got_uncov, true), 2));
    p.probe_failed = p.failed;
    t.Add(p);
    t.Add(CompareKeyed("j", BfsDepth(topo, 0), read("j"), 1));
    return t;
  };
  return w;
}

// --- random-join ----------------------------------------------------------
// 5,000 nodes placed uniformly at random (unit-disk links), a three-stream
// join and a per-key count: the irregular-topology band decomposition,
// routed band walks, and the aggregate group-home path. The placement is
// fixed (drawn from a constant seed); --seed draws the updates. The count
// runs over base stream `a`: over the derived stream `t` it keeps stale
// group values (README.md, "Known faults").

constexpr int kRandomNodes = 5000;
constexpr double kRandomSide = 50.0;
constexpr double kRandomRange = 1.5;
constexpr int kRandomUpdates = 2000;
constexpr uint64_t kRandomPlacementSeed = 5000;

Workload RandomJoin() {
  Workload w;
  w.name = "random-join";
  w.program_text = R"(
    .decl a/3 input.
    .decl b/3 input.
    .decl c/3 input.
    t(K, I1, I2, I3) :- a(K, N1, I1), b(K, N2, I2), c(K, N3, I3).
    cnt(K, count(I)) :- a(K, N, I).
  )";
  w.topology = [](uint64_t) {
    // Redraw (deterministically) until connected.
    Rng rng(kRandomPlacementSeed);
    for (;;) {
      Topology topo = Topology::RandomGeometric(
          kRandomNodes, kRandomSide, kRandomSide, kRandomRange, &rng);
      if (topo.IsConnected()) return topo;
    }
  };
  w.updates = [](const Topology& topo, uint64_t seed) {
    return JoinStream(topo.node_count(), kRandomUpdates, kRandomUpdates / 5,
                      {"a", "b", "c"}, seed);
  };
  w.check = [](const Topology&, const std::vector<Update>& updates,
               const ResultReader& read) {
    std::vector<Fact> want =
        HashJoin("t", {AliveFacts(updates, Intern("a")),
                       AliveFacts(updates, Intern("b")),
                       AliveFacts(updates, Intern("c"))},
                 {{0, 0}, {0, 2}, {1, 2}, {2, 2}});
    Tally t = CompareKeyed("t", want, read("t"), 4);
    t.Add(CompareKeyed("cnt", CountPerKey("cnt", AliveFacts(updates, Intern("a"))),
                       read("cnt"), 1));
    return t;
  };
  return w;
}

const std::vector<Workload>& All() {
  static const std::vector<Workload> all = {GridJoin(), VehiclesTestbed(),
                                            RandomJoin()};
  return all;
}

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : All()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> out;
  for (const Workload& w : All()) out.push_back(w.name);
  return out;
}

deduce::EngineOptions OptionsFor(const Workload& w,
                                 deduce::MetricsRegistry* registry) {
  deduce::EngineOptions options;
  options.planner.default_storage = deduce::StoragePolicy::kRow;
  options.metrics = registry;
  if (w.reliable) {
    options.transport.reliable = true;
    options.transport.retraction = true;
    options.checksum = true;
  }
  return options;
}

}  // namespace perfbench
