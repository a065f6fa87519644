// The host-speed probe: a fixed piece of work, apart from the library, whose
// time says how fast the host runs this process at the moment.
#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "bench.h"

namespace perfbench {

namespace {

// Static buffers, so the probe neither calls malloc nor depends on the
// state of the heap the program under test leaves behind. Together they
// fit in a core's L2 cache.
constexpr size_t kSlots = size_t{1} << 15;
constexpr size_t kHeapSize = 4096;
constexpr int kSteps = 20'000;
uint64_t g_slots[kSlots];
uint64_t g_heap[kHeapSize];
volatile uint64_t g_sink = 0;

/// The kind of work a discrete-event simulator does: a binary heap of
/// timestamps popped in order, each event looked up and recorded in an
/// open-addressing hash table, and a later event pushed.
uint64_t ProbePass() {
  uint64_t x = 88172645463325252ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (uint64_t& s : g_slots) s = 0;
  size_t n = 0;
  auto push = [&n](uint64_t v) {
    size_t i = n++;
    while (i > 0 && g_heap[(i - 1) / 2] > v) {
      g_heap[i] = g_heap[(i - 1) / 2];
      i = (i - 1) / 2;
    }
    g_heap[i] = v;
  };
  auto pop = [&n] {
    uint64_t top = g_heap[0];
    uint64_t v = g_heap[--n];
    size_t i = 0;
    for (;;) {
      size_t c = 2 * i + 1;
      if (c >= n) break;
      if (c + 1 < n && g_heap[c + 1] < g_heap[c]) ++c;
      if (g_heap[c] >= v) break;
      g_heap[i] = g_heap[c];
      i = c;
    }
    g_heap[i] = v;
    return top;
  };
  for (size_t i = 0; i < kHeapSize; ++i) push(next() >> 20);
  uint64_t sum = 0;
  for (int step = 0; step < kSteps; ++step) {
    uint64_t t = pop();
    size_t h = static_cast<size_t>((t * 0x9E3779B97F4A7C15ull) >> 49);
    while (g_slots[h] != 0 && g_slots[h] != t) h = (h + 1) & (kSlots - 1);
    if (g_slots[h] == 0 && step % 4 != 0) g_slots[h] = t;
    sum += g_slots[h] & 0xff;
    push(t + (next() & 0xffff) + 1);
  }
  return sum;
}

}  // namespace

double ProbeSeconds() {
  // The first pass brings the buffers back into cache (the program under
  // test evicts them between probes); the others are timed.
  g_sink = g_sink + ProbePass();
  double times[kProbePasses];
  for (double& t : times) {
    double t0 = NowSeconds();
    g_sink = g_sink + ProbePass();
    t = NowSeconds() - t0;
  }
  std::sort(times, times + kProbePasses);
  return times[kProbePasses / 2];
}

void ProbedParts::Probe() {
  double p = ProbeSeconds();
  probes->resize(parts->size(), before >= 0 ? std::min(before, p) : p);
  before = p;
}

double SumOfPartMinima(const std::vector<Round>& rounds, size_t count,
                       const std::vector<double> Round::*parts,
                       const std::vector<double> Round::*probes) {
  count = std::min(count, rounds.size());
  const std::vector<double>& first = rounds.front().*parts;
  double total = 0;
  for (size_t k = 0; k < first.size(); ++k) {
    double best = -1;
    for (size_t i = 0; i < count; ++i) {
      // A round that split differently did different work; the fingerprint
      // check reports it.
      const std::vector<double>& p = rounds[i].*parts;
      if (p.size() != first.size()) continue;
      double t = p[k];
      if (probes != nullptr) {
        const std::vector<double>& q = rounds[i].*probes;
        if (q.size() != p.size()) continue;
        t *= kProbeReferenceS / q[k];
      }
      if (best < 0 || t < best) best = t;
    }
    total += std::max(best, 0.0);
  }
  return total;
}

}  // namespace perfbench
