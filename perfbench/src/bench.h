// Shared declarations of the host-cost benchmark: workload definitions, the
// reference computations the engine's outputs are checked against, and the
// per-layer measurements of the traced invocation.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "deduce/common/metrics.h"
#include "deduce/datalog/fact.h"
#include "deduce/datalog/program.h"
#include "deduce/engine/engine.h"
#include "deduce/net/network.h"
#include "deduce/net/topology.h"

namespace perfbench {

using deduce::Fact;
using deduce::NodeId;
using deduce::SimTime;

/// One base-stream update the workload injects.
struct Update {
  SimTime time = 0;
  NodeId node = 0;
  deduce::StreamOp op = deduce::StreamOp::kInsert;
  Fact fact;
  /// Starts a burst: the round first runs the network to quiescence (the
  /// pause before this update must be long enough for that).
  bool drain_first = false;
};

// ---------------------------------------------------------------------------
// Checking. An operation is one result the workload checks at quiescence; it
// fails when the result is missing, a phantom, or carries the wrong value.

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Failures among the fixed (seed-independent) fault-probe operations.
  uint64_t probe_failed = 0;
  std::vector<std::string> notes;  ///< First few failures, for stderr.

  void Add(const Tally& other);
  void Fail(const std::string& what);
};

/// Compares the engine's facts of one relation with the reference. The
/// first `key_arity` arguments name a result and the rest is its value: one
/// operation per reference key (failed unless the engine holds exactly that
/// value for the key) plus one failed operation per key the engine holds and
/// the reference does not.
Tally CompareKeyed(const std::string& relation,
                   const std::vector<Fact>& expected,
                   const std::vector<Fact>& actual, size_t key_arity);

/// Base-stream contents at quiescence: every insert not later deleted.
std::vector<Fact> AliveFacts(const std::vector<Update>& updates,
                             deduce::SymbolId pred);

// Reference computations, made apart from the engine (plain containers, no
// engine or evaluator code).

/// Equi-join of relations on argument 0: one `head` fact per combination,
/// whose arguments are `out` = (input, argument) picks from that combination.
std::vector<Fact> HashJoin(const std::string& head,
                           const std::vector<std::vector<Fact>>& inputs,
                           const std::vector<std::pair<size_t, size_t>>& out);

/// Per-key counts of `facts`' argument 0, as head(K, count) facts.
std::vector<Fact> CountPerKey(const std::string& head,
                              const std::vector<Fact>& facts);

/// Example 1 of the paper: cov(L, T) for every enemy detection with a
/// friendly detection of the same epoch T within Euclidean `range`, and
/// uncov(L, T) for the other enemy detections. Detections are
/// veh_*(loc(X, Y), T, N).
void Coverage(const std::vector<Fact>& enemies,
              const std::vector<Fact>& friendlies, double range,
              std::vector<Fact>* cov, std::vector<Fact>* uncov);

/// Hop depth of every node from `root` by breadth-first search over the
/// topology's adjacency, as j(Y, D) facts (unreachable nodes omitted).
std::vector<Fact> BfsDepth(const deduce::Topology& topology, NodeId root);

/// Plants errors into tiny inputs and checks that the checker counts each
/// one; returns false (with a message on stderr) if any check misses.
bool SelfCheck();

// ---------------------------------------------------------------------------
// Workloads.

struct Round;

/// Reads one relation's facts from the engine at quiescence (timed as
/// engine.result_read_s).
using ResultReader = std::function<std::vector<Fact>(const char* pred)>;

struct Workload {
  std::string name;
  std::string program_text;
  deduce::LinkModel link;
  bool batched_delivery = false;
  bool reliable = false;  ///< Reliable transport + retraction + checksums.
  bool registry = false;  ///< Attach a MetricsRegistry as configured.
  /// Builds the topology (timed as part of set-up).
  std::function<deduce::Topology(uint64_t seed)> topology;
  /// Makes the update stream from the seed (not timed).
  std::function<std::vector<Update>(const deduce::Topology&, uint64_t seed)>
      updates;
  /// Reference outputs + comparison with the engine's results, read once
  /// each through the reader, at quiescence.
  std::function<Tally(const deduce::Topology&, const std::vector<Update>&,
                      const ResultReader&)>
      check;
  /// Workload-specific property of the method, checked on every round;
  /// returns "" when it holds, else what broke.
  std::function<std::string(const Round&, const deduce::Topology&,
                            const std::vector<Update>&)>
      property;
};

/// The named workload, or nullptr.
const Workload* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

deduce::EngineOptions OptionsFor(const Workload& w,
                                 deduce::MetricsRegistry* registry);

// ---------------------------------------------------------------------------
// One round: a network and an engine built, loaded and run to quiescence.

/// What the rounds of one invocation share. Every round builds the topology
/// inside its set-up timing and keeps it here; the update stream is made
/// from it once, outside the timing.
struct Context {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  deduce::Program program;
  std::optional<deduce::Topology> topology;
  std::vector<Update> updates;
};

struct Round {
  double topology_s = 0;
  double create_s = 0;
  double setup_s = 0;   ///< set-up start to the end of engine creation.
  /// setup_s in parts: from the set-up's start to the topology build (the
  /// process start, for a cold round), topology, network, engine.
  std::vector<double> setup_part_s;
  double run_s = 0;     ///< first Inject to quiescence, probes excluded.
  /// run_s split at fixed update indices and every kDrainEvents events of
  /// each drain to quiescence; every round splits identically.
  std::vector<double> segment_s;
  /// The host-speed probe's time next to each part of setup_part_s and
  /// segment_s (see ProbedParts).
  std::vector<double> setup_probe_s;
  std::vector<double> segment_probe_s;
  double inject_s = 0;  ///< time inside Inject calls.
  double result_read_s = 0;
  uint64_t events = 0;  ///< simulator events fired during the run.
  double rss_after_setup_mib = 0;
  double rss_after_run_mib = 0;
  // Simulated cost.
  uint64_t sim_messages = 0;
  uint64_t sim_bytes = 0;
  /// Messages sent + received by the busiest node over the whole run (the
  /// energy hotspot, NetworkStats::MaxNodeMessages).
  uint64_t sim_hot_node_msgs = 0;
  /// Mean over bursts of the simulated time from a burst's last update to
  /// quiescence.
  double sim_settle_ms = 0;
  uint64_t store_messages = 0;
  uint64_t frames_coalesced = 0;
  deduce::EngineStats stats;
  size_t max_node_replicas = 0;
  Tally tally;
  /// Properties of the method this round broke (empty when all held).
  std::vector<std::string> broken;
};

/// Builds a topology, a network and an engine, injects the update stream
/// and runs to quiescence, then checks the results and the properties.
/// `setup_start` (seconds, NowSeconds clock) is when set-up began; negative
/// means now. `before_create` may attach trace sinks to the network. Exits
/// the process if the engine cannot be built.
Round RunRound(Context* ctx, deduce::MetricsRegistry* registry,
               double setup_start,
               const std::function<void(deduce::Network*)>& before_create =
                   nullptr);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Runs one round in a child process of its own, so that its set-up is a
/// cold one timed from that process's start, and returns what the child
/// measured (timings, simulated cost, tally, broken properties; not the
/// engine statistics). Returns nullopt, with a message on stderr, if the
/// child fails.
std::optional<Round> RunRoundInChild(Context* ctx);

/// Per-layer metrics of the traced invocation. Runs its own rounds in this
/// process (rounds as configured alternating with rounds that flip the
/// registry: kTracePairs pairs, and more until `seconds` have passed since
/// `process_start`; then one round with a capturing trace sink), appends
/// them to `rounds`, then times the layers' public functions on their own.
/// Returns false when a property only the traced invocation can check
/// fails.
bool TraceLayers(Context* ctx, double process_start, double seconds,
                 std::vector<Round>* rounds, std::vector<Metric>* metrics);

/// RunRound splits the timed run into parts that repeat exactly from round
/// to round: kRunSegments parts by update index, and a part per
/// kDrainEvents simulator events while draining.
inline constexpr size_t kRunSegments = 250;
inline constexpr uint64_t kDrainEvents = 2000;

/// The estimators use this many rounds of every invocation, whatever the
/// machine's speed: more rounds would give lower minima, so a change that
/// only made rounds shorter would seem to speed up the parts it did not
/// touch. An invocation runs at least this many rounds, and more (checked,
/// not measured) until --seconds have passed.
inline constexpr size_t kMeasuredRounds = 5;
/// Pairs of rounds (registry as configured, registry flipped) the traced
/// invocation measures.
inline constexpr size_t kTracePairs = 3;

/// Host time robust to contention from other tenants of the machine, which
/// slows this process by up to 1.6x, in phases of seconds to minutes.
/// Every part of a round is timed next to a host-speed probe: a fixed piece
/// of work apart from the library (ProbeSeconds), whose time moves with the
/// program's when the host slows down. A part's time is scaled to the speed
/// at which the probe takes kProbeReferenceS, which evens out slow phases,
/// even ones that last a whole run. The first `count` rounds repeat
/// identical work split into identical parts (`parts`: setup_part_s or
/// segment_s, with `probes` the matching probe times), so each part's
/// scaled time is taken as its minimum over those rounds, which keeps out
/// bursts shorter than a round; the parts are summed. With `probes` null
/// the parts are not scaled.
double SumOfPartMinima(const std::vector<Round>& rounds, size_t count,
                       const std::vector<double> Round::*parts,
                       const std::vector<double> Round::*probes);

/// Seconds one pass of the host-speed probe takes: an untimed warm-up pass
/// over its L2-resident static buffers, then the median of kProbePasses
/// timed passes (one pass alone is too short to be steady).
double ProbeSeconds();
inline constexpr int kProbePasses = 5;

/// The probe's time on an idle host of the kind the reference figures in
/// README.md come from (4-vCPU Xeon VM), so that host times read as
/// seconds on such a host.
inline constexpr double kProbeReferenceS = 0.00065;

/// Probes the host between timed parts: each part gets the smaller of the
/// probe times just before and just after it (one disturbed probe does not
/// skew the scaling), or just after it for the first.
struct ProbedParts {
  std::vector<double>* parts;
  std::vector<double>* probes;
  double before = -1;  ///< the last probe's time, or negative.
  /// Probes now and assigns the probe time to every part added since the
  /// last probe.
  void Probe();
};

/// RunRound probes the host after every this many run segments.
inline constexpr size_t kProbeEvery = 32;

double NowSeconds();
double CurrentRssMib();
/// Peak RSS of this process (RUSAGE_SELF) or of its largest waited-for
/// child (RUSAGE_CHILDREN).
double PeakRssMib(int who);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
