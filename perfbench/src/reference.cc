// Reference computations and the result checker. Nothing here calls the
// engine or the repository's evaluators: the references are plain hash
// joins, distance tests, breadth-first search and counting over the
// benchmark's own copy of the update stream.
#include <cmath>
#include <cstdio>
#include <deque>
#include <set>
#include <unordered_map>

#include "bench.h"

namespace perfbench {

using deduce::Intern;
using deduce::SymbolId;
using deduce::Term;

void Tally::Add(const Tally& other) {
  attempted += other.attempted;
  failed += other.failed;
  probe_failed += other.probe_failed;
  for (const std::string& n : other.notes) {
    if (notes.size() < 8) notes.push_back(n);
  }
}

void Tally::Fail(const std::string& what) {
  ++failed;
  if (notes.size() < 8) notes.push_back(what);
}

namespace {

std::string JoinArgs(const Fact& f, size_t from, size_t to) {
  std::string out;
  for (size_t i = from; i < to && i < f.args().size(); ++i) {
    if (i > from) out += ", ";
    out += f.args()[i].ToString();
  }
  return out;
}

}  // namespace

Tally CompareKeyed(const std::string& relation,
                   const std::vector<Fact>& expected,
                   const std::vector<Fact>& actual, size_t key_arity) {
  auto group = [key_arity](const std::vector<Fact>& facts) {
    std::map<std::string, std::set<std::string>> out;
    for (const Fact& f : facts) {
      out[JoinArgs(f, 0, key_arity)].insert(
          JoinArgs(f, key_arity, f.args().size()));
    }
    return out;
  };
  std::map<std::string, std::set<std::string>> want = group(expected);
  std::map<std::string, std::set<std::string>> got = group(actual);
  Tally t;
  for (const auto& [key, values] : want) {
    ++t.attempted;
    auto it = got.find(key);
    if (it == got.end()) {
      t.Fail("missing " + relation + "(" + key + ")");
    } else if (it->second != values) {
      std::string have;
      for (const std::string& v : it->second) have += " [" + v + "]";
      t.Fail("wrong value " + relation + "(" + key + "): want [" +
             *values.begin() + "], have" + have);
    }
  }
  for (const auto& [key, values] : got) {
    if (want.count(key) != 0) continue;
    ++t.attempted;
    t.Fail("phantom " + relation + "(" + key + ")");
  }
  return t;
}

std::vector<Fact> AliveFacts(const std::vector<Update>& updates,
                             SymbolId pred) {
  std::vector<Fact> alive;
  for (const Update& u : updates) {
    if (u.fact.predicate() != pred) continue;
    if (u.op == deduce::StreamOp::kInsert) {
      alive.push_back(u.fact);
      continue;
    }
    for (size_t i = 0; i < alive.size(); ++i) {
      if (alive[i] == u.fact) {
        alive.erase(alive.begin() + static_cast<long>(i));
        break;
      }
    }
  }
  return alive;
}

std::vector<Fact> HashJoin(const std::string& head,
                           const std::vector<std::vector<Fact>>& inputs,
                           const std::vector<std::pair<size_t, size_t>>& out) {
  // Index every input but the first by its key (argument 0).
  std::vector<std::unordered_map<std::string, std::vector<const Fact*>>> index(
      inputs.size());
  for (size_t i = 1; i < inputs.size(); ++i) {
    for (const Fact& f : inputs[i]) index[i][f.args()[0].ToString()].push_back(&f);
  }
  std::vector<Fact> result;
  std::vector<const Fact*> row(inputs.size());
  std::function<void(size_t, const std::string&)> extend =
      [&](size_t i, const std::string& key) {
        if (i == inputs.size()) {
          std::vector<Term> args;
          for (const auto& [input, arg] : out) {
            args.push_back(row[input]->args()[arg]);
          }
          result.emplace_back(Intern(head), std::move(args));
          return;
        }
        auto it = index[i].find(key);
        if (it == index[i].end()) return;
        for (const Fact* f : it->second) {
          row[i] = f;
          extend(i + 1, key);
        }
      };
  for (const Fact& f : inputs[0]) {
    row[0] = &f;
    extend(1, f.args()[0].ToString());
  }
  return result;
}

std::vector<Fact> CountPerKey(const std::string& head,
                              const std::vector<Fact>& facts) {
  std::map<std::string, std::pair<Term, int64_t>> counts;
  for (const Fact& f : facts) {
    auto [it, inserted] =
        counts.try_emplace(f.args()[0].ToString(), f.args()[0], 0);
    ++it->second.second;
  }
  std::vector<Fact> out;
  for (const auto& [key, kc] : counts) {
    out.emplace_back(Intern(head),
                     std::vector<Term>{kc.first, Term::Int(kc.second)});
  }
  return out;
}

namespace {

std::pair<double, double> PointOf(const Term& loc) {
  return {static_cast<double>(loc.args()[0].value().as_int()),
          static_cast<double>(loc.args()[1].value().as_int())};
}

}  // namespace

void Coverage(const std::vector<Fact>& enemies,
              const std::vector<Fact>& friendlies, double range,
              std::vector<Fact>* cov, std::vector<Fact>* uncov) {
  std::set<std::string> seen_cov, seen_uncov;
  for (const Fact& e : enemies) {
    const Term& loc = e.args()[0];
    const Term& epoch = e.args()[1];
    auto [ex, ey] = PointOf(loc);
    bool covered = false;
    for (const Fact& f : friendlies) {
      if (f.args()[1] != epoch) continue;
      auto [fx, fy] = PointOf(f.args()[0]);
      if (std::hypot(ex - fx, ey - fy) <= range) {
        covered = true;
        break;
      }
    }
    Fact out(Intern(covered ? "cov" : "uncov"), {loc, epoch});
    std::set<std::string>& seen = covered ? seen_cov : seen_uncov;
    if (seen.insert(out.ToString()).second) {
      (covered ? cov : uncov)->push_back(out);
    }
  }
}

std::vector<Fact> BfsDepth(const deduce::Topology& topology, NodeId root) {
  std::vector<int> depth(static_cast<size_t>(topology.node_count()), -1);
  std::deque<NodeId> queue{root};
  depth[static_cast<size_t>(root)] = 0;
  while (!queue.empty()) {
    NodeId v = queue.front();
    queue.pop_front();
    for (NodeId u : topology.neighbors(v)) {
      if (depth[static_cast<size_t>(u)] >= 0) continue;
      depth[static_cast<size_t>(u)] = depth[static_cast<size_t>(v)] + 1;
      queue.push_back(u);
    }
  }
  std::vector<Fact> out;
  for (NodeId v = 0; v < topology.node_count(); ++v) {
    if (depth[static_cast<size_t>(v)] < 0) continue;
    out.emplace_back(Intern("j"),
                     std::vector<Term>{Term::Int(v),
                                       Term::Int(depth[static_cast<size_t>(v)])});
  }
  return out;
}

}  // namespace perfbench
