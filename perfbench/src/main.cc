// perfbench: host cost of simulating a deductive sensor-network program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --self-check
//
// Each invocation runs one workload, single-threaded: one network and one
// engine per round, kMeasuredRounds rounds and more until --seconds have
// passed. With --trace 0 each round runs in a child process of its own, one
// at a time. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones; with --trace 1 they are the per-layer ones.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "bench.h"
#include "deduce/datalog/parser.h"

namespace perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CurrentRssMib() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0, resident = 0;
  if (!(statm >> pages >> resident)) return 0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double PeakRssMib(int who) {
  struct rusage ru;
  if (getrusage(who, &ru) != 0) return 0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Round RunRound(Context* ctx, deduce::MetricsRegistry* registry,
               double setup_start,
               const std::function<void(deduce::Network*)>& before_create) {
  const Workload& w = *ctx->workload;
  Round r;
  ctx->topology.reset();
  double mark = setup_start >= 0 ? setup_start : NowSeconds();
  ProbedParts setup_probes{&r.setup_part_s, &r.setup_probe_s};
  auto close_part = [&] {
    double now = NowSeconds();
    r.setup_part_s.push_back(now - mark);
    r.setup_s += now - mark;
    setup_probes.Probe();
    mark = NowSeconds();
  };
  close_part();
  ctx->topology.emplace(w.topology(ctx->seed));
  close_part();
  deduce::Network net(*ctx->topology, w.link, ctx->seed);
  net.EnableBatchedDelivery(w.batched_delivery);
  if (before_create) before_create(&net);
  close_part();
  auto engine =
      deduce::DistributedEngine::Create(&net, ctx->program, OptionsFor(w, registry));
  close_part();
  r.topology_s = r.setup_part_s[1];
  r.create_s = r.setup_part_s[3];
  if (!engine.ok()) {
    std::fprintf(stderr, "engine: %s\n", engine.status().ToString().c_str());
    std::exit(1);
  }
  r.rss_after_setup_mib = CurrentRssMib();
  if (ctx->updates.empty()) {
    ctx->updates = w.updates(*ctx->topology, ctx->seed);
  }

  const std::vector<Update>& updates = ctx->updates;
  net.sim().RunUntil(updates.front().time);
  ProbedParts run_probes{&r.segment_s, &r.segment_probe_s, setup_probes.before};
  double segment_start = NowSeconds();
  auto close_segment = [&] {
    double now = NowSeconds();
    r.segment_s.push_back(now - segment_start);
    r.run_s += now - segment_start;
    if (r.segment_s.size() % kProbeEvery == 0) {
      run_probes.Probe();
      now = NowSeconds();
    }
    segment_start = now;
  };
  // Runs to quiescence, one segment per kDrainEvents events.
  auto drain = [&] {
    for (;;) {
      uint64_t fired = net.sim().Run(kDrainEvents);
      r.events += fired;
      close_segment();
      if (fired < kDrainEvents) return;
    }
  };
  // Per burst: the simulated time from its last update to quiescence.
  std::vector<SimTime> settle_us;
  bool drain_overran = false;
  size_t segments = std::min(kRunSegments, updates.size());
  for (size_t i = 0; i < updates.size(); ++i) {
    const Update& u = updates[i];
    if (i > 0 && i * segments / updates.size() !=
                     (i - 1) * segments / updates.size()) {
      close_segment();
    }
    if (u.drain_first) {
      drain();
      settle_us.push_back(net.now() - updates[i - 1].time);
      if (net.now() > u.time) drain_overran = true;
    }
    if (i > 0) r.events += net.sim().RunUntil(u.time);
    double t0 = NowSeconds();
    deduce::Status st = (*engine)->Inject(u.node, u.op, u.fact);
    r.inject_s += NowSeconds() - t0;
    if (!st.ok()) {
      std::fprintf(stderr, "inject: %s\n", st.ToString().c_str());
      std::exit(1);
    }
  }
  close_segment();
  drain();
  if (r.segment_probe_s.size() < r.segment_s.size()) run_probes.Probe();
  settle_us.push_back(net.now() - updates.back().time);
  r.rss_after_run_mib = CurrentRssMib();

  const deduce::NetworkStats& ns = net.stats();
  r.sim_messages = ns.TotalMessages();
  r.sim_bytes = ns.TotalBytes();
  r.sim_hot_node_msgs = ns.MaxNodeMessages();
  for (SimTime us : settle_us) r.sim_settle_ms += static_cast<double>(us);
  r.sim_settle_ms /= 1000.0 * static_cast<double>(settle_us.size());
  auto store = ns.sent_by_type.find(deduce::kStoreMsg);
  r.store_messages = store == ns.sent_by_type.end() ? 0 : store->second;
  r.frames_coalesced = ns.frames_coalesced;
  r.stats = (*engine)->stats();
  r.max_node_replicas = (*engine)->MaxNodeReplicas();

  ResultReader read = [&](const char* pred) {
    double t0 = NowSeconds();
    std::vector<Fact> facts = (*engine)->ResultFacts(deduce::Intern(pred));
    r.result_read_s += NowSeconds() - t0;
    return facts;
  };
  r.tally = w.check(*ctx->topology, updates, read);
  for (const std::string& e : r.stats.errors) r.tally.Fail("engine error: " + e);

  // Properties of the method.
  if (drain_overran) {
    r.broken.push_back("a burst had not drained before the next began");
  }
  // Every workload runs on loss-free links.
  uint64_t received = 0;
  for (const auto& p : ns.per_node) received += p.received_messages;
  if (r.sim_messages != received) {
    r.broken.push_back(std::to_string(r.sim_messages) + " sent but " +
                       std::to_string(received) + " received on loss-free links");
  }
  if (w.property) {
    std::string broken = w.property(r, *ctx->topology, updates);
    if (!broken.empty()) r.broken.push_back(broken);
  }
  return r;
}

namespace {

/// What a child process hands back: the fields of a Round the parent
/// reports or checks, one record per line.
std::string Serialize(const Round& r) {
  std::ostringstream out;
  out.precision(17);
  out << "round " << r.setup_s << ' ' << r.run_s << ' ' << r.events << ' '
      << r.sim_messages << ' ' << r.sim_bytes << ' ' << r.sim_hot_node_msgs
      << ' ' << r.sim_settle_ms << ' ' << r.stats.join_passes << ' '
      << r.tally.attempted << ' ' << r.tally.failed << ' '
      << r.tally.probe_failed << '\n';
  for (auto [name, parts] : {std::pair{"setup_parts", &r.setup_part_s},
                             std::pair{"segments", &r.segment_s},
                             std::pair{"setup_probes", &r.setup_probe_s},
                             std::pair{"segment_probes", &r.segment_probe_s}}) {
    out << name;
    for (double v : *parts) out << ' ' << v;
    out << '\n';
  }
  for (const std::string& n : r.tally.notes) out << "note " << n << '\n';
  for (const std::string& b : r.broken) out << "broken " << b << '\n';
  return out.str();
}

std::optional<Round> Deserialize(const std::string& text) {
  Round r;
  bool have_round = false;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    std::string rest = line.substr(std::min(line.size(), tag.size() + 1));
    if (tag == "round") {
      have_round = static_cast<bool>(
          fields >> r.setup_s >> r.run_s >> r.events >> r.sim_messages >>
          r.sim_bytes >> r.sim_hot_node_msgs >> r.sim_settle_ms >>
          r.stats.join_passes >> r.tally.attempted >> r.tally.failed >>
          r.tally.probe_failed);
    } else if (std::vector<double>* parts =
                   tag == "setup_parts"      ? &r.setup_part_s
                   : tag == "segments"       ? &r.segment_s
                   : tag == "setup_probes"   ? &r.setup_probe_s
                   : tag == "segment_probes" ? &r.segment_probe_s
                                             : nullptr) {
      for (double v; fields >> v;) parts->push_back(v);
    } else if (tag == "note") {
      r.tally.notes.push_back(rest);
    } else if (tag == "broken") {
      r.broken.push_back(rest);
    }
  }
  if (!have_round) return std::nullopt;
  return r;
}

}  // namespace

std::optional<Round> RunRoundInChild(Context* ctx) {
  int fds[2];
  if (pipe(fds) != 0) {
    std::perror("pipe");
    return std::nullopt;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  pid_t parent = getpid();
  double start = NowSeconds();
  pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    close(fds[0]);
    close(fds[1]);
    return std::nullopt;
  }
  if (pid == 0) {
    // A round never outlives the invocation that started it.
    if (prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 || getppid() != parent) _exit(1);
    close(fds[0]);
    deduce::MetricsRegistry registry;
    Round r = RunRound(ctx, ctx->workload->registry ? &registry : nullptr, start);
    std::string text = Serialize(r);
    for (size_t done = 0; done < text.size();) {
      ssize_t n = write(fds[1], text.data() + done, text.size() - done);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) _exit(1);
      done += static_cast<size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  std::string text;
  char buf[1 << 16];
  for (;;) {
    ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "round process failed (status %d)\n", status);
    return std::nullopt;
  }
  std::optional<Round> r = Deserialize(text);
  if (!r) std::fprintf(stderr, "round process sent no result\n");
  return r;
}

}  // namespace perfbench

namespace {

using namespace perfbench;

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\n       perfbench --self-check\nworkloads:");
  for (const std::string& n : WorkloadNames()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  std::exit(64);
}

/// What every round of a run must repeat exactly: the simulation is
/// seeded, so the same inputs give the same simulated cost and results.
std::string Fingerprint(const Round& r) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%llu/%llu/%llu/%.3f/%llu/%llu/%llu/%zu",
                static_cast<unsigned long long>(r.sim_messages),
                static_cast<unsigned long long>(r.sim_bytes),
                static_cast<unsigned long long>(r.sim_hot_node_msgs),
                r.sim_settle_ms,
                static_cast<unsigned long long>(r.stats.join_passes),
                static_cast<unsigned long long>(r.tally.attempted),
                static_cast<unsigned long long>(r.tally.failed),
                r.segment_s.size());
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  double process_start = NowSeconds();
  std::string workload;
  long long seed = -1;
  double seconds = -1;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--self-check") return SelfCheck() ? 0 : 1;
    if (i + 1 >= argc) Usage();
    std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoll(value.c_str(), &end, 10);
      if (*end != '\0' || seed < 0) Usage();
    } else if (arg == "--seconds") {
      seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(seconds > 0)) Usage();
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") Usage();
      trace = value == "1" ? 1 : 0;
    } else {
      Usage();
    }
  }
  const Workload* w = FindWorkload(workload);
  if (w == nullptr || seed < 0 || seconds < 0 || trace < 0) Usage();

  Context ctx;
  ctx.workload = w;
  ctx.seed = static_cast<uint64_t>(seed);
  auto program = deduce::ParseProgram(w->program_text);
  if (!program.ok()) {
    std::fprintf(stderr, "parse: %s\n", program.status().ToString().c_str());
    return 1;
  }
  ctx.program = std::move(program).value();

  std::vector<Round> rounds;
  std::vector<Metric> metrics;
  bool properties_hold = true;
  if (trace == 1) {
    properties_hold =
        TraceLayers(&ctx, process_start, seconds, &rounds, &metrics);
  } else {
    // Every round runs in a child process of its own: each set-up is cold.
    while (rounds.size() < kMeasuredRounds ||
           NowSeconds() - process_start < seconds) {
      std::optional<Round> r = RunRoundInChild(&ctx);
      if (!r) return 1;
      rounds.push_back(std::move(*r));
    }
  }

  // Properties of the method, checked on every round.
  const Round& first = rounds.front();
  std::string fingerprint = Fingerprint(first);
  Tally tally;
  for (const Round& r : rounds) {
    tally.Add(r.tally);
    if (Fingerprint(r) != fingerprint) {
      std::fprintf(stderr, "property: rounds differ: %s vs %s\n",
                   Fingerprint(r).c_str(), fingerprint.c_str());
      properties_hold = false;
    }
    for (const std::string& b : r.broken) {
      std::fprintf(stderr, "property: %s\n", b.c_str());
      properties_hold = false;
    }
  }
  for (const std::string& note : first.tally.notes) {
    std::fprintf(stderr, "check: %s\n", note.c_str());
  }
  // Failed operations are allowed only among the fixed fault probes, and
  // the checker itself must still catch planted errors.
  bool correct = properties_hold && tally.failed == tally.probe_failed &&
                 SelfCheck();

  if (trace == 0) {
    metrics = {
        {"setup_s", SumOfPartMinima(rounds, kMeasuredRounds, &Round::setup_part_s,
                                    &Round::setup_probe_s), "s"},
        {"run_s", SumOfPartMinima(rounds, kMeasuredRounds, &Round::segment_s,
                                  &Round::segment_probe_s), "s"},
        {"peak_rss_mib", PeakRssMib(RUSAGE_CHILDREN), "MiB"},
        {"sim_messages", static_cast<double>(first.sim_messages), "count"},
        {"sim_bytes", static_cast<double>(first.sim_bytes), "bytes"},
        {"sim_hot_node_msgs", static_cast<double>(first.sim_hot_node_msgs), "count"},
        {"sim_settle_ms", first.sim_settle_ms, "ms"},
    };
  }

  for (size_t i = 0; i < rounds.size(); ++i) {
    std::vector<double> probes = rounds[i].segment_probe_s;
    std::sort(probes.begin(), probes.end());
    std::printf("# round %zu: setup_s %.4f run_s %.4f probe_us %.1f events %llu\n",
                i, rounds[i].setup_s, rounds[i].run_s,
                probes.empty() ? 0.0 : probes[probes.size() / 2] * 1e6,
                static_cast<unsigned long long>(rounds[i].events));
  }
  if (trace == 0) {
    std::printf("# not scaled to the reference host speed: setup_s %.4f run_s %.4f\n",
                SumOfPartMinima(rounds, kMeasuredRounds, &Round::setup_part_s, nullptr),
                SumOfPartMinima(rounds, kMeasuredRounds, &Round::segment_s, nullptr));
  }
  std::printf("# %s seed %lld: %zu rounds, %llu operations, %llu failed "
              "(%llu in the fault probe)\n",
              w->name.c_str(), seed, rounds.size(),
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.probe_failed));
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    std::printf("%-36s %s %s\n", m.name.c_str(), value, m.unit.c_str());
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
