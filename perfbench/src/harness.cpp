#include "harness.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <ctime>
#include <exception>
#include <fstream>
#include <sstream>

#include "minimpi/runtime.hpp"

namespace pb {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
}

void bind_rank(int rank) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  int seen = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    if (seen++ != rank % CPU_COUNT(&set)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
    return;
  }
}

void require_thread_budget(const std::string& workload, int rank_threads,
                           int pack_threads_per_rank) {
  const int threads = rank_threads * (1 + pack_threads_per_rank);
  if (threads <= nproc()) return;
  throw ThreadBudgetExceeded(format(
      "workload %s needs %d rank threads + %d PackExecutor workers = %d "
      "threads, more than the %d CPUs of this host; refusing to run it",
      workload.c_str(), rank_threads, rank_threads * pack_threads_per_rank,
      threads, nproc()));
}

std::string format(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  return buf;
}

// --- statistics -------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// --- host diagnostics -------------------------------------------------------

namespace {

/// Aggregate steal ticks from the first ("cpu") line of /proc/stat; 0 when
/// the file is unreadable.
std::uint64_t steal_ticks() {
  std::ifstream f("/proc/stat");
  std::string line;
  if (!std::getline(f, line)) return 0;
  std::istringstream in(line);
  std::string label;
  in >> label;
  std::uint64_t v[8] = {};
  for (auto& x : v) in >> x;
  return in ? v[7] : 0;
}

rusage usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru;
}

}  // namespace

void HostProbe::start() {
  t0_ = now_s();
  steal0_ = steal_ticks();
  const rusage ru = usage();
  nivcsw0_ = ru.ru_nivcsw;
}

void HostProbe::stop() {
  wall_ = now_s() - t0_;
  steal_ = steal_ticks() - steal0_;
  const rusage ru = usage();
  nivcsw_ = static_cast<double>(ru.ru_nivcsw - nivcsw0_);
}

double HostProbe::steal_frac() const {
  if (wall_ <= 0) return 0.0;
  const double hz = static_cast<double>(sysconf(_SC_CLK_TCK));
  return static_cast<double>(steal_) / (hz * wall_ * nproc());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- barrier ----------------------------------------------------------------

namespace {
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}
}  // namespace

bool Barrier::arrive_and_wait(const std::function<void()>& on_last) {
  if (aborted()) return false;
  const std::uint32_t g = gen_.load(std::memory_order_acquire);
  if (count_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_) {
    try {
      on_last();
    } catch (...) {
      abort();
      throw;
    }
    count_.store(0, std::memory_order_relaxed);
    gen_.fetch_add(1, std::memory_order_release);
    return !aborted();
  }
  while (gen_.load(std::memory_order_acquire) == g) cpu_relax();
  return !aborted();
}

void Barrier::abort() {
  aborted_.store(true, std::memory_order_release);
  gen_.fetch_add(1, std::memory_order_release);
}

// --- trace ------------------------------------------------------------------

TraceTotals drain(trace::Recorder& rec) {
  const trace::MetricsSummary s = trace::summarize({&rec});
  TraceTotals t;
  auto get = [&](const char* name) {
    const auto it = s.by_name.find(name);
    return it == s.by_name.end() ? trace::MetricsSummary::Entry{} : it->second;
  };
  t.setup_us = get("ddr.setup").total_us;
  t.redistribute_us = get("ddr.redistribute").total_us;
  t.send_bytes = get("ddr.msg.send").total_bytes;
  rec.clear();
  return t;
}

// --- lockstep harness -------------------------------------------------------

namespace {

struct Slot {
  double t0 = 0, t1 = 0, cpu = 0;
  OpMeasure m;
  TraceTotals trace;
  bool ok = true;
};

OpRecord aggregate(const std::vector<Slot>& slots, OpLayers& l) {
  OpRecord r;
  double t0 = slots[0].t0, t1_max = slots[0].t1, t1_min = slots[0].t1;
  for (const Slot& s : slots) {
    t0 = std::min(t0, s.t0);
    t1_max = std::max(t1_max, s.t1);
    t1_min = std::min(t1_min, s.t1);
    r.cpu_ms += s.cpu * 1e3;
    for (std::size_t k = 0; k < l.laps.size(); ++k)
      l.laps[k] = std::max(l.laps[k], s.m.laps[k]);
    for (std::size_t k = 0; k < l.tallies.size(); ++k)
      l.tallies[k] += s.m.tallies[k];
    l.trace.setup_us = std::max(l.trace.setup_us, s.trace.setup_us);
    l.trace.redistribute_us =
        std::max(l.trace.redistribute_us, s.trace.redistribute_us);
    l.trace.send_bytes += s.trace.send_bytes;
    r.ok = r.ok && s.ok;
  }
  r.start_s = t0;
  r.wall_ms = (t1_max - t0) * 1e3;
  r.rank0_ms = (slots[0].t1 - t0) * 1e3;
  r.skew_ms = (t1_max - t1_min) * 1e3;
  return r;
}

struct Counters {
  double messages = 0, acquires = 0, heap = 0;
};

Counters read_counters(const mpi::Comm& comm) {
  if (!comm.valid()) return {};
  const mpi::StagingStats s = comm.staging_stats();
  return {static_cast<double>(comm.messages_posted()),
          static_cast<double>(s.acquires),
          static_cast<double>(s.heap_allocations)};
}

}  // namespace

Timeline run_lockstep(
    const LockstepConfig& cfg,
    const std::function<std::unique_ptr<RankWork>(const mpi::Comm&)>& make) {
  enum class Action { none, setup, op, stop };

  Timeline tl;
  // Room for every op of a long run up front: growing the vector would
  // briefly hold two copies. Untouched capacity is not resident.
  tl.ops.reserve(std::size_t{1} << 16);
  Barrier bar(cfg.nranks);
  std::vector<Slot> slots(static_cast<std::size_t>(cfg.nranks));
  mpi::Comm world;  // rank 0's handle, set before its first arrival

  // Everything below is touched only inside on_last (all ranks parked) or
  // read by the ranks after the barrier released them.
  Action last = Action::none, next = Action::none;
  bool next_traced = false, next_timed = false;
  int setups_done = 0;
  std::int64_t ops_done = 0;
  double warm_start = -1;
  bool in_window = false;
  Counters prev;

  const std::function<void()> on_last = [&] {
    const Counters now_c = read_counters(world);
    OpLayers l;
    if (last == Action::setup) {
      OpRecord r = aggregate(slots, l);
      r.timed = next_timed;
      r.layers = std::make_shared<const OpLayers>(l);
      if (r.timed) tl.setups.push_back(std::move(r));
    } else if (last == Action::op) {
      OpRecord r = aggregate(slots, l);
      r.timed = next_timed;
      r.traced = next_traced;
      l.messages = now_c.messages - prev.messages;
      l.staging_acquires = now_c.acquires - prev.acquires;
      l.staging_heap_allocs = now_c.heap - prev.heap;
      if (cfg.trace) r.layers = std::make_shared<const OpLayers>(l);
      tl.ops.push_back(std::move(r));
      ++ops_done;
    }
    prev = now_c;

    const double now = now_s();
    if (setups_done < kSetupWarmupReps + kSetupReps) {
      next = Action::setup;
      next_timed = setups_done >= kSetupWarmupReps;  // recorded
      ++setups_done;
    } else {
      if (warm_start < 0) warm_start = now;
      if (!in_window && ops_done >= kWarmupMinOps &&
          now - warm_start >= kWarmupS) {
        in_window = true;
        tl.window_start_s = now;
        tl.host.start();
      }
      if (in_window && now - tl.window_start_s >= cfg.window_s) {
        tl.window_end_s = now;
        tl.host.stop();
        next = Action::stop;
      } else {
        next = Action::op;
        next_timed = in_window;
        const auto block = static_cast<std::int64_t>(
            (now - tl.window_start_s) / kTraceBlockS);
        next_traced = cfg.trace && in_window && block % 2 == 1;
      }
    }
    last = next;
  };

  try {
    mpi::run(cfg.nranks, [&](mpi::Comm& comm) {
      const int r = comm.rank();
      bind_rank(r);
      Slot& slot = slots[static_cast<std::size_t>(r)];
      trace::Recorder rec(r);
      try {
        std::unique_ptr<RankWork> work = make(comm);
        if (r == 0) world = comm;
        std::int64_t my_op = 0, prepared = -1;
        for (;;) {
          if (prepared != my_op) {
            work->prepare(my_op);
            prepared = my_op;
          }
          if (!bar.arrive_and_wait(on_last)) throw Aborted{};
          const Action a = next;
          if (a == Action::stop) break;
          const bool traced =
              a == Action::setup ? cfg.trace : next_traced;
          trace::Recorder* rp = traced ? &rec : nullptr;
          slot.m = {};
          slot.ok = true;
          const double c0 = thread_cpu_s();
          slot.t0 = now_s();
          if (a == Action::setup)
            work->setup(rp);
          else
            work->op(my_op, slot.m, rp);
          slot.t1 = now_s();
          slot.cpu = thread_cpu_s() - c0;
          if (a == Action::op) {
            slot.ok = work->verify(my_op);
            ++my_op;
          }
          slot.trace = rp != nullptr ? drain(rec) : TraceTotals{};
        }
      } catch (const Aborted&) {
        // Another rank failed first; its exception is the run's error.
      } catch (...) {
        bar.abort();
        throw;
      }
    });
  } catch (const std::exception& e) {
    tl.error = e.what();
  }
  return tl;
}

void count_ops(const Timeline& t, Report& r) {
  r.attempted = static_cast<std::int64_t>(t.ops.size());
  for (const OpRecord& op : t.ops)
    if (!op.ok) ++r.failed;
  if (!t.error.empty()) {
    ++r.attempted;
    ++r.failed;
    r.notes.push_back(format("program error: %s", t.error.c_str()));
  }
}

// --- metrics ----------------------------------------------------------------

namespace {

std::vector<const OpRecord*> timed_ops(const Timeline& t, bool traced) {
  std::vector<const OpRecord*> out;
  for (const OpRecord& op : t.ops)
    if (op.timed && op.traced == traced) out.push_back(&op);
  return out;
}

template <typename F>
std::vector<double> collect(const std::vector<const OpRecord*>& ops, F get) {
  std::vector<double> v;
  v.reserve(ops.size());
  for (const OpRecord* op : ops) v.push_back(get(*op));
  return v;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// The timed window is cut into this many equal parts; ops_per_s is the
/// median of the parts' rates, so one burst of host noise moves one part.
constexpr int kThroughputParts = 10;

}  // namespace

double lap_ms(const Timeline& t, Lap lap) {
  return median(collect(timed_ops(t, false), [lap](const OpRecord& o) {
    return o.layers->laps[static_cast<std::size_t>(lap)];
  }));
}

double tally(const Timeline& t, Tally k) {
  std::vector<const OpRecord*> ops = timed_ops(t, false);
  for (const OpRecord* o : timed_ops(t, true)) ops.push_back(o);
  return median(collect(ops, [k](const OpRecord& o) {
    return o.layers->tallies[static_cast<std::size_t>(k)];
  }));
}

double traced_median(const Timeline& t,
                     const std::function<double(const OpLayers&)>& get) {
  return median(collect(timed_ops(t, true),
                        [&](const OpRecord& o) { return get(*o.layers); }));
}

void end_to_end(const Timeline& t, Throughput mode, Report& r) {
  const auto ops = timed_ops(t, false);
  const auto wall = collect(ops, [](const OpRecord& o) { return o.wall_ms; });

  std::vector<double> rates;
  const double span = (t.window_end_s - t.window_start_s) / kThroughputParts;
  for (int p = 0; p < kThroughputParts && span > 0; ++p) {
    const double lo = t.window_start_s + p * span, hi = lo + span;
    double n = 0, busy_s = 0;
    for (const OpRecord* op : ops)
      if (op->start_s >= lo && op->start_s < hi) {
        n += 1;
        busy_s += op->wall_ms * 1e-3;
      }
    const double denom = mode == Throughput::busy ? busy_s : span;
    if (n > 0 && denom > 0) rates.push_back(n / denom);
  }
  std::string parts;
  for (double x : rates) parts += format(" %.1f", x);
  r.notes.push_back(format("ops/s by part of the window:%s", parts.c_str()));

  r.metrics["ops_per_s"] = median(rates);
  r.metrics["op_ms.p50"] = median(wall);
  r.metrics["op_ms.p90"] = quantile(wall, 0.9);
  r.metrics["cpu_ms_per_op"] =
      median(collect(ops, [](const OpRecord& o) { return o.cpu_ms; }));
  std::vector<double> setup_s;
  for (const OpRecord& o : t.setups) setup_s.push_back(o.wall_ms * 1e-3);
  r.metrics["setup_s"] = median(setup_s);
  r.metrics["peak_rss_mb"] = peak_rss_mb();
  r.metrics["frame_latency_ms.p50"] =
      median(collect(ops, [](const OpRecord& o) { return o.rank0_ms; }));
  r.notes.push_back(format("timed ops: %zu (p90 has %zu samples beyond it)",
                           ops.size(), ops.size() / 10));
  const double n = static_cast<double>(std::max<std::size_t>(1, ops.size()));
  r.notes.push_back(
      format("host: steal %.3f of the CPUs, %.2f involuntary switches per op",
             t.host.steal_frac(), t.host.nivcsw() / n));
}

void common_layers(const Timeline& t, Report& r) {
  const auto plain = timed_ops(t, false);
  const auto traced = timed_ops(t, true);
  r.metrics["mpi.rank_skew_ms.p50"] =
      median(collect(plain, [](const OpRecord& o) { return o.skew_ms; }));
  r.metrics["mpi.messages_per_op"] = mean(
      collect(plain, [](const OpRecord& o) { return o.layers->messages; }));
  r.metrics["mpi.staging_acquires_per_op"] =
      mean(collect(plain, [](const OpRecord& o) {
        return o.layers->staging_acquires;
      }));
  r.metrics["mpi.staging_heap_allocs_per_op"] =
      mean(collect(plain, [](const OpRecord& o) {
        return o.layers->staging_heap_allocs;
      }));
  const double untraced_p50 =
      median(collect(plain, [](const OpRecord& o) { return o.wall_ms; }));
  const double traced_p50 =
      median(collect(traced, [](const OpRecord& o) { return o.wall_ms; }));
  r.metrics["trace.overhead_frac"] =
      untraced_p50 > 0 && !traced.empty() ? traced_p50 / untraced_p50 - 1.0
                                          : 0.0;
  r.metrics["host.steal_frac"] = t.host.steal_frac();
  const std::size_t timed = plain.size() + traced.size();
  r.metrics["host.nivcsw_per_op"] =
      timed > 0 ? t.host.nivcsw() / static_cast<double>(timed) : 0.0;
}

void closure(const Timeline& t, bool traced,
             const std::function<double(const OpLayers&)>& layers, Report& r) {
  const auto ops = timed_ops(t, traced);
  const double ratio = median(collect(ops, [&](const OpRecord& o) {
    return o.wall_ms > 0 ? layers(*o.layers) / o.wall_ms : 0.0;
  }));
  const double gap = std::fabs(ratio - 1.0);
  r.metrics["trace.closure_gap_frac"] = gap;
  r.notes.push_back(format(
      "closure: blocking-path layers / op wall = %.4f over %zu %s ops "
      "(gap %.1f%%, bound %.0f%%)",
      ratio, ops.size(), traced ? "traced" : "untraced", 100 * gap,
      100 * kOpP50Bound));
  if (gap > kOpP50Bound) {
    r.checks_ok = false;
    r.notes.push_back("closure check FAILED");
  }
}

}  // namespace pb
