// Self-check of the benchmark's own reference computations and checker on
// tiny hand-worked inputs, with planted errors: a missing result, a phantom
// result and an off-by-one (and a stale extra) aggregate value must each be
// counted as one failed operation. This shows the check can fail.
#include <algorithm>
#include <cstdio>

#include "bench.h"

namespace perfbench {

namespace {

using deduce::Intern;
using deduce::Term;

Fact F(const char* pred, std::vector<Term> args) {
  return Fact(Intern(pred), std::move(args));
}
Term I(int64_t v) { return Term::Int(v); }
Term Loc(int x, int y) { return Term::Function("loc", {I(x), I(y)}); }

struct Checker {
  int errors = 0;
  void Expect(bool ok, const char* what) {
    if (ok) return;
    ++errors;
    std::fprintf(stderr, "self-check failed: %s\n", what);
  }
  void ExpectTally(const Tally& t, uint64_t attempted, uint64_t failed,
                   const char* what) {
    Expect(t.attempted == attempted && t.failed == failed, what);
  }
};

bool SameFacts(std::vector<Fact> a, std::vector<Fact> b) {
  auto key = [](const Fact& f) { return f.ToString(); };
  std::vector<std::string> ka, kb;
  for (const Fact& f : a) ka.push_back(key(f));
  for (const Fact& f : b) kb.push_back(key(f));
  std::sort(ka.begin(), ka.end());
  std::sort(kb.begin(), kb.end());
  return ka == kb;
}

}  // namespace

bool SelfCheck() {
  Checker c;

  // Stream replay: a deleted tuple is gone.
  std::vector<Update> updates = {
      {0, 0, deduce::StreamOp::kInsert, F("r", {I(1), I(10), I(0)})},
      {1, 0, deduce::StreamOp::kInsert, F("r", {I(2), I(11), I(1)})},
      {2, 0, deduce::StreamOp::kInsert, F("s", {I(1), I(20), I(2)})},
      {3, 0, deduce::StreamOp::kInsert, F("s", {I(1), I(21), I(3)})},
      {4, 0, deduce::StreamOp::kInsert, F("s", {I(3), I(22), I(4)})},
      {5, 0, deduce::StreamOp::kDelete, F("r", {I(2), I(11), I(1)})},
  };
  std::vector<Fact> r = AliveFacts(updates, Intern("r"));
  std::vector<Fact> s = AliveFacts(updates, Intern("s"));
  c.Expect(SameFacts(r, {F("r", {I(1), I(10), I(0)})}), "alive r");
  c.Expect(s.size() == 3, "alive s");

  // Join: t(K, N1, N2, I1, I2) :- r(K, N1, I1), s(K, N2, I2).
  std::vector<Fact> t =
      HashJoin("t", {r, s}, {{0, 0}, {0, 1}, {1, 1}, {0, 2}, {1, 2}});
  std::vector<Fact> t_want = {F("t", {I(1), I(10), I(20), I(0), I(2)}),
                              F("t", {I(1), I(10), I(21), I(0), I(3)})};
  c.Expect(SameFacts(t, t_want), "hash join");
  c.ExpectTally(CompareKeyed("t", t_want, t, 5), 2, 0, "join: exact");
  c.ExpectTally(CompareKeyed("t", t_want, {t_want[0]}, 5), 2, 1,
                "join: one missing result");
  std::vector<Fact> phantom = t_want;
  phantom.push_back(F("t", {I(3), I(10), I(22), I(0), I(4)}));
  c.ExpectTally(CompareKeyed("t", t_want, phantom, 5), 3, 1,
                "join: one phantom result");

  // Three-way join on a shared key.
  std::vector<Fact> t3 = HashJoin(
      "t", {{F("a", {I(1), I(0), I(5)})},
            {F("b", {I(1), I(0), I(6)}), F("b", {I(1), I(0), I(7)})},
            {F("c", {I(1), I(0), I(8)}), F("c", {I(2), I(0), I(9)})}},
      {{0, 0}, {0, 2}, {1, 2}, {2, 2}});
  c.Expect(SameFacts(t3, {F("t", {I(1), I(5), I(6), I(8)}),
                          F("t", {I(1), I(5), I(7), I(8)})}),
           "three-way join");

  // Counts per key, and the aggregate errors the checker must catch.
  std::vector<Fact> cnt = CountPerKey("cnt", t3);
  c.Expect(SameFacts(cnt, {F("cnt", {I(1), I(2)})}), "count per key");
  c.ExpectTally(CompareKeyed("cnt", cnt, {F("cnt", {I(1), I(3)})}, 1), 1, 1,
                "count: off by one");
  c.ExpectTally(
      CompareKeyed("cnt", cnt, {F("cnt", {I(1), I(2)}), F("cnt", {I(1), I(1)})},
                   1),
      1, 1, "count: stale value kept beside the current one");
  c.ExpectTally(CompareKeyed("cnt", cnt, {}, 1), 1, 1, "count: missing group");

  // Coverage: distance exactly 5 covers; other epochs never do.
  std::vector<Fact> enemies = {F("veh_enemy", {Loc(0, 0), I(1), I(0)}),
                               F("veh_enemy", {Loc(10, 10), I(1), I(1)}),
                               F("veh_enemy", {Loc(0, 0), I(2), I(0)})};
  std::vector<Fact> friendlies = {F("veh_friendly", {Loc(3, 4), I(1), I(2)}),
                                  F("veh_friendly", {Loc(9, 9), I(3), I(3)})};
  std::vector<Fact> cov, uncov;
  Coverage(enemies, friendlies, 5.0, &cov, &uncov);
  c.Expect(SameFacts(cov, {F("cov", {Loc(0, 0), I(1)})}), "coverage: cov");
  c.Expect(SameFacts(uncov, {F("uncov", {Loc(10, 10), I(1)}),
                             F("uncov", {Loc(0, 0), I(2)})}),
           "coverage: uncov");
  c.ExpectTally(CompareKeyed("uncov", uncov, {uncov[0]}, 2), 2, 1,
                "coverage: missing alert");

  // BFS depth on a 3x3 grid is the Manhattan distance to node 0.
  deduce::Topology grid = deduce::Topology::Grid(3);
  std::vector<Fact> depth = BfsDepth(grid, 0);
  std::vector<Fact> depth_want;
  for (int q = 0; q < 3; ++q) {
    for (int p = 0; p < 3; ++p) {
      depth_want.push_back(F("j", {I(grid.GridNode(p, q)), I(p + q)}));
    }
  }
  c.Expect(SameFacts(depth, depth_want), "bfs depth");
  std::vector<Fact> deeper = depth_want;
  deeper.push_back(F("j", {I(8), I(5)}));
  c.ExpectTally(CompareKeyed("j", depth_want, deeper, 1), 9, 1,
                "depth: extra depth for one node");

  if (c.errors == 0) std::printf("self-check: ok\n");
  return c.errors == 0;
}

}  // namespace perfbench
