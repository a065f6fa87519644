// The traced invocation: per-layer host cost, measured from outside by
// timing calls into each module's public functions. Nothing is traced
// inside the program; the only hook is a Network trace sink that counts
// transmissions and keeps sampled payloads and (hop, final target) pairs
// for replay against the codec and routing layers.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <unordered_set>

#include "bench.h"
#include "deduce/datalog/parser.h"
#include "deduce/engine/plan.h"
#include "deduce/engine/regions.h"
#include "deduce/engine/wire.h"
#include "deduce/eval/incremental.h"
#include "deduce/routing/routing.h"

namespace perfbench {

namespace {

using deduce::Message;

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Message types the layer metrics break traffic down by.
const std::vector<std::pair<uint16_t, const char*>>& TypeNames() {
  static const std::vector<std::pair<uint16_t, const char*>> names = {
      {deduce::kStoreMsg, "store"},   {deduce::kJoinPassMsg, "join_pass"},
      {deduce::kResultMsg, "result"}, {deduce::kAggMsg, "agg"},
      {deduce::kAckMsg, "ack"},       {deduce::kReliableMsg, "reliable"},
  };
  return names;
}

/// What the capturing trace sink records.
struct Capture {
  std::map<uint16_t, std::pair<uint64_t, uint64_t>> by_type;  // msgs, bytes
  uint64_t messages = 0, bytes = 0;
  uint64_t transmissions = 0, payload_bytes = 0;
  std::vector<std::pair<NodeId, NodeId>> hops;  // (hop, final target)
  std::vector<Message> samples;
};

constexpr size_t kMaxHops = 2'000'000;
/// Where the routing replay's next hops go, so the lookups are not
/// optimized away.
volatile uint64_t g_routing_sink = 0;
constexpr size_t kSampleEvery = 16;
constexpr size_t kMaxSamples = 20'000;

void Record(const deduce::TraceEvent& ev, Capture* c) {
  uint64_t attempts = static_cast<uint64_t>(ev.attempts);
  auto& t = c->by_type[ev.type];
  t.first += attempts;
  t.second += ev.bytes * attempts;
  c->messages += attempts;
  c->bytes += ev.bytes * attempts;
  if (ev.msg == nullptr) return;
  ++c->transmissions;
  c->payload_bytes += ev.msg->payload.size();
  if (c->hops.size() < kMaxHops) {
    auto target = deduce::PeekFinalTarget(*ev.msg);
    if (target.ok() && *target != deduce::kNoNode) {
      c->hops.emplace_back(ev.src, *target);
    }
  }
  if (c->transmissions % kSampleEvery == 0 && c->samples.size() < kMaxSamples) {
    c->samples.push_back(*ev.msg);
  }
}

/// Heap bytes in use (malloc's own count). Current RSS cannot show a cache
/// filling up here: the freed memory of the rounds before is reused first.
size_t HeapBytesInUse() {
  struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

/// The registry's rule_eval span total, in seconds (the span records whole
/// microseconds per call).
double RuleEvalSeconds(const deduce::MetricsRegistry& registry) {
  int64_t us = 0;
  for (const auto& [key, entry] : registry.entries()) {
    if (std::get<1>(key) == "timing" && std::get<2>(key) == "rule_eval") {
      us += entry.histogram.sum;
    }
  }
  return static_cast<double>(us) / 1e6;
}

/// Decoded payloads, so encoding can be timed on its own.
struct Decoded {
  std::vector<deduce::StoreWire> store;
  std::vector<deduce::JoinPassWire> join_pass;
  std::vector<deduce::ResultWire> result;
  std::vector<deduce::AggWire> agg;
  std::vector<deduce::AckWire> ack;
  std::vector<deduce::ReliableWire> reliable;
  size_t count() const {
    return store.size() + join_pass.size() + result.size() + agg.size() +
           ack.size() + reliable.size();
  }
};

template <typename W>
void DecodeInto(const Message& m, std::vector<W>* out, size_t* bytes) {
  auto w = W::Decode(m);
  if (!w.ok()) return;
  out->push_back(std::move(w).value());
  *bytes += m.payload.size();
}

/// Decodes one frame by type; `bytes` sums the payloads that decoded.
void DecodeOne(const Message& m, Decoded* d, size_t* bytes) {
  switch (m.type) {
    case deduce::kStoreMsg: DecodeInto(m, &d->store, bytes); break;
    case deduce::kJoinPassMsg: DecodeInto(m, &d->join_pass, bytes); break;
    case deduce::kResultMsg: DecodeInto(m, &d->result, bytes); break;
    case deduce::kAggMsg: DecodeInto(m, &d->agg, bytes); break;
    case deduce::kAckMsg: DecodeInto(m, &d->ack, bytes); break;
    case deduce::kReliableMsg: DecodeInto(m, &d->reliable, bytes); break;
    default: break;
  }
}

template <typename W>
size_t EncodeAll(const std::vector<W>& ws) {
  size_t bytes = 0;
  for (const W& w : ws) bytes += w.Encode().payload.size();
  return bytes;
}

}  // namespace

bool TraceLayers(Context* ctx, double process_start, double seconds,
                 std::vector<Round>* rounds, std::vector<Metric>* out) {
  const Workload& w = *ctx->workload;
  bool ok = true;
  auto put = [out](const std::string& name, double value, const char* unit) {
    out->push_back({name, value, unit});
  };

  // Rounds as configured (the first is cold, timed from process start),
  // alternating with rounds that flip the registry: kTracePairs pairs, and
  // more until `seconds` have passed.
  std::vector<Round> configured, flipped;
  deduce::MetricsRegistry on_registry;
  do {
    for (bool flip : {false, true}) {
      deduce::MetricsRegistry registry;
      bool attach = w.registry != flip;
      Round r = RunRound(ctx, attach ? &registry : nullptr,
                         rounds->empty() ? process_start : -1);
      if (attach && on_registry.empty()) on_registry = registry;
      (flip ? flipped : configured).push_back(r);
      rounds->push_back(std::move(r));
    }
  } while (configured.size() < kTracePairs ||
           NowSeconds() - process_start < seconds);
  const Round cold = configured.front();
  std::vector<double> inject_us, read_s;
  for (const Round& r : configured) {
    inject_us.push_back(r.inject_s * 1e6 /
                        static_cast<double>(ctx->updates.size()));
    read_s.push_back(r.result_read_s);
  }
  double run_s = SumOfPartMinima(configured, kTracePairs, &Round::segment_s,
                                 &Round::segment_probe_s);

  // One round with the capturing trace sink.
  Capture cap;
  deduce::MetricsRegistry traced_registry;
  rounds->push_back(RunRound(ctx, w.registry ? &traced_registry : nullptr, -1,
                             [&cap](deduce::Network* net) {
                               net->AddTraceSink([&cap](const deduce::TraceEvent& ev) {
                                 Record(ev, &cap);
                               });
                             }));
  const Round& traced = rounds->back();
  if (cap.messages != traced.sim_messages || cap.bytes != traced.sim_bytes) {
    std::fprintf(stderr,
                 "property: trace sink saw %llu msgs / %llu bytes, "
                 "NetworkStats %llu / %llu\n",
                 static_cast<unsigned long long>(cap.messages),
                 static_cast<unsigned long long>(cap.bytes),
                 static_cast<unsigned long long>(traced.sim_messages),
                 static_cast<unsigned long long>(traced.sim_bytes));
    ok = false;
  }

  const deduce::Topology& topo = *ctx->topology;

  // --- datalog ---
  {
    constexpr int kReps = 50;
    double t0 = NowSeconds();
    for (int i = 0; i < kReps; ++i) (void)deduce::ParseProgram(w.program_text);
    put("datalog.parse_s", (NowSeconds() - t0) / kReps, "s");
  }

  // --- host ---
  // The host-speed probe's median time over the measured rounds: the host
  // times above are scaled to kProbeReferenceS by it.
  {
    std::vector<double> probes;
    for (size_t i = 0; i < kTracePairs; ++i) {
      const std::vector<double>& p = configured[i].segment_probe_s;
      probes.insert(probes.end(), p.begin(), p.end());
    }
    put("host.probe_us", Median(probes) * 1e6, "us");
  }

  // --- net ---
  put("net.topology_build_s", cold.topology_s, "s");
  {
    double t0 = NowSeconds();
    int d = topo.DiameterHops();
    put("net.diameter_s", NowSeconds() - t0, "s");
    if (d < 0) ok = false;
  }
  put("net.sim_events", static_cast<double>(cold.events), "count");
  put("net.host_ns_per_event",
      run_s * 1e9 / static_cast<double>(std::max<uint64_t>(cold.events, 1)),
      "ns");
  for (const auto& [type, name] : TypeNames()) {
    auto it = cap.by_type.find(type);
    uint64_t msgs = it == cap.by_type.end() ? 0 : it->second.first;
    uint64_t bytes = it == cap.by_type.end() ? 0 : it->second.second;
    put(std::string("net.msgs.") + name, static_cast<double>(msgs), "count");
    put(std::string("net.bytes.") + name, static_cast<double>(bytes), "bytes");
  }
  put("net.frames_coalesced", static_cast<double>(cold.frames_coalesced),
      "count");

  // --- engine ---
  deduce::EngineOptions options = OptionsFor(w, nullptr);
  {
    double t0 = NowSeconds();
    auto plan = deduce::CompilePlan(ctx->program, deduce::BuiltinRegistry::Default(),
                                    options.planner);
    put("engine.plan_compile_s", NowSeconds() - t0, "s");
    if (!plan.ok()) ok = false;
  }
  {
    double t0 = NowSeconds();
    deduce::RegionMapper regions(&topo);
    put("engine.regions_build_s", NowSeconds() - t0, "s");
    (void)regions.band_count();
  }
  put("engine.create_s", cold.create_s, "s");
  put("engine.inject_us_per_update", Median(inject_us), "us");
  put("engine.result_read_s", Median(read_s), "s");
  const deduce::EngineStats& st = cold.stats;
  put("engine.join_passes", static_cast<double>(st.join_passes), "count");
  put("engine.results_emitted", static_cast<double>(st.results_emitted), "count");
  put("engine.derivations_added", static_cast<double>(st.derivations_added), "count");
  put("engine.derivations_removed", static_cast<double>(st.derivations_removed),
      "count");
  put("engine.replicas", static_cast<double>(st.replicas_stored), "count");
  put("engine.max_node_replicas", static_cast<double>(cold.max_node_replicas),
      "count");
  put("engine.retransmissions", static_cast<double>(st.retransmissions), "count");
  put("engine.acks_sent", static_cast<double>(st.acks_sent), "count");
  put("engine.retraction_requeues", static_cast<double>(st.retraction_requeues),
      "count");
  put("engine.skipped_sweep_nodes", static_cast<double>(st.skipped_sweep_nodes),
      "count");

  // --- eval ---
  put("eval.rule_eval_s", RuleEvalSeconds(on_registry), "s");
  {
    // The centralized incremental evaluator on the same stream, for the
    // programs it accepts (0 otherwise).
    double per_update = 0;
    auto inc = deduce::IncrementalEngine::Create(ctx->program,
                                                 deduce::IncrementalOptions{});
    if (inc.ok()) {
      uint32_t seq = 0;
      bool applied = true;
      double t0 = NowSeconds();
      for (const Update& u : ctx->updates) {
        deduce::StreamEvent ev;
        ev.op = u.op;
        ev.fact = u.fact;
        ev.id = deduce::TupleId{u.node, u.time, seq++};
        ev.time = u.time;
        if (!(*inc)->Apply(ev, nullptr).ok()) {
          applied = false;
          break;
        }
      }
      if (applied) {
        per_update = (NowSeconds() - t0) * 1e6 /
                     static_cast<double>(ctx->updates.size());
      }
    }
    put("eval.incremental_us_per_update", per_update, "us");
  }

  // --- obs ---
  // Registry on ÷ registry off on every workload, so the figure is the
  // registry's cost whichever way the workload is configured.
  double flipped_s = SumOfPartMinima(flipped, kTracePairs, &Round::segment_s,
                                    &Round::segment_probe_s);
  put("obs.registry_ratio", w.registry ? run_s / flipped_s : flipped_s / run_s,
      "ratio");
  put("obs.registry_entries", static_cast<double>(on_registry.size()), "count");

  // --- mem ---
  put("mem.rss_after_setup_mib", cold.rss_after_setup_mib, "MiB");
  put("mem.run_growth_mib", cold.rss_after_run_mib - cold.rss_after_setup_mib,
      "MiB");

  // --- wire: sampled payloads through the codec ---
  {
    std::vector<Message> frames = cap.samples;
    if (options.checksum) {
      for (Message& m : frames) (void)deduce::CheckAndStripFrame(&m);
    }
    Decoded decoded;
    size_t decoded_bytes = 0;
    double t0 = NowSeconds();
    for (const Message& m : frames) DecodeOne(m, &decoded, &decoded_bytes);
    double decode_s = NowSeconds() - t0;
    t0 = NowSeconds();
    size_t bytes = EncodeAll(decoded.store) + EncodeAll(decoded.join_pass) +
                   EncodeAll(decoded.result) + EncodeAll(decoded.agg) +
                   EncodeAll(decoded.ack) + EncodeAll(decoded.reliable);
    double encode_s = NowSeconds() - t0;
    double n = static_cast<double>(std::max<size_t>(decoded.count(), 1));
    put("wire.decode_ns_per_msg", decode_s * 1e9 / n, "ns");
    put("wire.encode_ns_per_msg", encode_s * 1e9 / n, "ns");
    put("wire.mean_payload_bytes",
        static_cast<double>(cap.payload_bytes) /
            static_cast<double>(std::max<uint64_t>(cap.transmissions, 1)),
        "bytes");
    if (bytes != decoded_bytes) {
      std::fprintf(stderr, "property: re-encoding %zu sampled payloads gave "
                   "%zu bytes, not %zu\n", decoded.count(), bytes, decoded_bytes);
      ok = false;
    }
  }

  // --- routing: captured (hop, final target) pairs on a fresh table ---
  {
    deduce::RoutingTable table(&topo);
    std::vector<std::pair<NodeId, NodeId>> first_use;
    std::unordered_set<NodeId> seen;
    for (const auto& hd : cap.hops) {
      if (seen.insert(hd.second).second) first_use.push_back(hd);
    }
    size_t heap0 = HeapBytesInUse();
    uint64_t sink = 0;
    double t0 = NowSeconds();
    for (const auto& [hop, dest] : first_use) {
      sink += static_cast<uint64_t>(table.GeoNextHop(hop, dest));
    }
    double cold_s = NowSeconds() - t0;
    double grown = static_cast<double>(HeapBytesInUse()) -
                   static_cast<double>(heap0);
    t0 = NowSeconds();
    for (const auto& [hop, dest] : cap.hops) {
      sink += static_cast<uint64_t>(table.NextHop(hop, dest));
    }
    double warm_s = NowSeconds() - t0;
    t0 = NowSeconds();
    for (const auto& [hop, dest] : cap.hops) {
      sink += static_cast<uint64_t>(table.GeoNextHop(hop, dest));
    }
    double geo_s = NowSeconds() - t0;
    double dests = static_cast<double>(std::max<size_t>(first_use.size(), 1));
    double pairs = static_cast<double>(std::max<size_t>(cap.hops.size(), 1));
    put("routing.distinct_dests", static_cast<double>(first_use.size()), "count");
    put("routing.cold_lookup_us", cold_s * 1e6 / dests, "us");
    put("routing.warm_lookup_ns", warm_s * 1e9 / pairs, "ns");
    put("routing.geo_next_hop_ns", geo_s * 1e9 / pairs, "ns");
    put("routing.table_bytes_per_dest", grown / dests, "bytes");
    g_routing_sink = sink;
  }

  std::sort(out->begin(), out->end(),
            [](const Metric& a, const Metric& b) { return a.name < b.name; });
  return ok;
}

}  // namespace perfbench
