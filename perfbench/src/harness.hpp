#pragma once

/// \file harness.hpp
/// Measurement harness of the DDR benchmark.
///
/// Every workload runs its ranks as minimpi rank threads inside one process.
/// The harness times program calls from the outside only: it never adds
/// instrumentation to the library, and everything it synchronises goes
/// through its own Barrier (never through minimpi), so message and staging
/// counters see only the program's traffic.
///
/// A run has three stages: input generation (the workload's constructor and
/// prepare(), untimed), set-up, warm-up ops, and the timed window. Set-up
/// runs kSetupWarmupReps unrecorded collective set-ups (a process's first
/// ones run up to 2x slower), then kSetupReps recorded ones (setup_s is
/// their median); the ops use the last one's state. In a traced run the
/// timed window alternates untraced and traced blocks, so the traced
/// numbers and the tracing overhead come from the same run.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "minimpi/comm.hpp"
#include "trace/trace.hpp"

namespace pb {

// --- clocks -------------------------------------------------------------

/// Wall time in seconds on the steady clock.
[[nodiscard]] double now_s();
/// CPU time of the calling thread, seconds.
[[nodiscard]] double thread_cpu_s();
/// Logical CPUs this process may run on (what `nproc` prints).
[[nodiscard]] int nproc();
/// Binds the calling rank thread to its own CPU (the `rank`-th of the
/// process's affinity mask), as `mpirun --bind-to core` binds MPI ranks.
void bind_rank(int rank);

// --- command line -------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;  ///< directory for generated input files
};

// --- results ------------------------------------------------------------

/// What one run reports. Metric values are keyed by the names in
/// BENCHMARK.json; metrics of a layer the workload does not exercise are
/// filled with 0 by the caller.
struct Report {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool checks_ok = true;           ///< run-level checks (closure, accounting)
  std::map<std::string, double> metrics;
  std::vector<std::string> notes;  ///< human-readable diagnostics (stderr)
};

/// Thrown when a workload's geometry would run more threads than the host
/// has CPUs; main() prints the message and exits without a result.
struct ThreadBudgetExceeded : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Refuses a workload whose rank threads plus PackExecutor workers
/// (`pack_threads` per rank) exceed nproc().
void require_thread_budget(const std::string& workload, int rank_threads,
                           int pack_threads_per_rank);

/// printf-style formatting into a std::string (for notes and messages).
[[nodiscard]] std::string format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

// --- statistics ---------------------------------------------------------

[[nodiscard]] double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> v, double q);

// --- host diagnostics ---------------------------------------------------

/// Steal ticks (/proc/stat) and involuntary context switches (getrusage)
/// over a window. Diagnostic only: a noisy host, not a slow program.
class HostProbe {
 public:
  void start();
  void stop();
  [[nodiscard]] double steal_frac() const;  ///< steal / (nproc * wall)
  [[nodiscard]] double nivcsw() const { return nivcsw_; }

 private:
  double t0_ = 0, wall_ = 0;
  std::uint64_t steal0_ = 0, steal_ = 0;
  long nivcsw0_ = 0;
  double nivcsw_ = 0;
};

[[nodiscard]] double peak_rss_mb();

// --- synchronisation ----------------------------------------------------

/// Abortable spinning barrier. The last thread to arrive runs `on_last`
/// before releasing the others, so bookkeeping sees every rank's slot
/// quiescent. abort() releases every waiter for good. Waiters never sleep:
/// each rank has its own CPU, so spinning costs the others nothing, while a
/// sleeping waiter's wake-up would be charged to the next op.
class Barrier {
 public:
  explicit Barrier(int n) : n_(n) {}
  Barrier(const Barrier&) = delete;
  Barrier& operator=(const Barrier&) = delete;

  /// Returns false once the barrier has been aborted.
  bool arrive_and_wait(const std::function<void()>& on_last);
  void abort();

 private:
  [[nodiscard]] bool aborted() const {
    return aborted_.load(std::memory_order_acquire);
  }

  const int n_;
  std::atomic<int> count_{0};
  std::atomic<std::uint32_t> gen_{0};
  std::atomic<bool> aborted_{false};
};

/// Thrown on the other ranks after one rank failed and aborted the barrier.
struct Aborted {};

// --- traced totals ------------------------------------------------------

/// The trace quantities the benchmark reads per op, from one rank's
/// Recorder through trace::summarize.
struct TraceTotals {
  double setup_us = 0;          ///< "ddr.setup" spans
  double redistribute_us = 0;   ///< "ddr.redistribute" spans
  std::int64_t send_bytes = 0;  ///< "ddr.msg.send" instants
};

/// Summarises `rec` and clears it.
[[nodiscard]] TraceTotals drain(trace::Recorder& rec);

// --- per-op records -----------------------------------------------------

/// Layer laps a workload times around program calls inside one op. The
/// harness keeps, per op, the slowest rank's value of each lap (the rank
/// the op waits for).
enum Lap : int {
  kLapDdrSetup,
  kLapDdrRedistribute,
  kLapLoaderExecute,
  kLapDvrRender,
  kLapLbmSteps,
  kLapLbmField,
  kLapStreamSend,
  kLapStreamReceive,
  kLapConcat,
  kLapColormap,
  kLapGather,
  kLapJpegEncode,
  kNumLaps,
};
using Laps = std::array<double, kNumLaps>;  ///< milliseconds

/// Per-op quantities a workload counts on each rank; the harness sums them
/// over ranks.
enum Tally : int {
  kTallyImagesRead,
  kTallyBytesRead,
  kTallyDecodeMs,
  kTallyJpegBytes,
  kNumTallies,
};
using Tallies = std::array<double, kNumTallies>;

/// What one rank measured during one op.
struct OpMeasure {
  Laps laps{};
  Tallies tallies{};
};

/// What the per-layer metrics read off one op (or one set-up), aggregated
/// over ranks.
struct OpLayers {
  Laps laps{};          ///< slowest rank's value of each lap
  Tallies tallies{};    ///< summed over ranks
  TraceTotals trace;    ///< slowest rank's times, summed bytes
  double messages = 0;  ///< Comm::messages_posted delta
  /// Comm::staging_stats deltas of the world communicator.
  double staging_acquires = 0, staging_heap_allocs = 0;
};

/// One measured op (or one set-up), aggregated over ranks. The per-layer
/// detail is kept for set-ups and, in a traced run, for every op; an
/// untraced run keeps only these few numbers per op, so the benchmark's
/// own memory (part of peak_rss_mb) hardly grows with the op rate.
struct OpRecord {
  bool timed = false;   ///< an op of the timed window; a recorded set-up
  bool traced = false;  ///< a recorder was installed
  bool ok = true;
  double start_s = 0;   ///< common start (earliest rank)
  double wall_ms = 0;   ///< common start -> last rank's finish
  double rank0_ms = 0;  ///< common start -> result on rank 0
  double skew_ms = 0;   ///< first -> last rank's finish
  double cpu_ms = 0;    ///< thread CPU inside program calls, all ranks
  std::shared_ptr<const OpLayers> layers;  ///< null when not kept
};

struct Timeline {
  std::vector<OpRecord> setups;  ///< recorded set-ups
  std::vector<OpRecord> ops;     ///< warm-up and timed ops, in order
  double window_start_s = 0, window_end_s = 0;
  HostProbe host;
  /// Set when the program threw; the op it hit counts as attempted and
  /// failed (it has no record), and the run stops there.
  std::string error;
};

// --- lockstep workloads --------------------------------------------------

/// A workload whose ranks run each op together (pencil_fft, rebalance,
/// tiff_volume). One instance per rank, constructed on its rank thread.
class RankWork {
 public:
  RankWork() = default;
  RankWork(const RankWork&) = delete;
  RankWork& operator=(const RankWork&) = delete;
  virtual ~RankWork() = default;
  /// Collective set-up; the last repetition's state is used by the ops.
  /// `rec` is non-null in a traced run (install it around the calls).
  virtual void setup(trace::Recorder* rec) = 0;
  /// Untimed: generates the inputs of op `op` (called before its barrier).
  virtual void prepare(std::int64_t op) { (void)op; }
  /// The timed op. Record layer laps (ms) and tallies in `m`.
  virtual void op(std::int64_t op, OpMeasure& m, trace::Recorder* rec) = 0;
  /// Untimed: checks the op's output on this rank.
  virtual bool verify(std::int64_t op) = 0;
};

/// Run structure shared by every workload.
inline constexpr int kSetupWarmupReps = 16;  ///< unrecorded set-ups
inline constexpr int kSetupReps = 51;       ///< recorded set-ups (setup_s)
inline constexpr double kWarmupS = 0.5;     ///< warm-up, at least ...
inline constexpr int kWarmupMinOps = 3;     ///< ... and this many ops
inline constexpr double kTraceBlockS = 0.25;  ///< traced/untraced blocks

struct LockstepConfig {
  int nranks = 4;
  double window_s = 10.0;
  bool trace = false;
};

/// Runs a lockstep workload and returns its timeline. An exception from the
/// program (mpi::Error, ddr::Error, ...) stops every rank and lands in
/// Timeline::error.
[[nodiscard]] Timeline run_lockstep(
    const LockstepConfig& cfg,
    const std::function<std::unique_ptr<RankWork>(const mpi::Comm&)>& make);

/// Fills attempted/failed from the timeline (every op is checked; an op the
/// program threw on counts as failed) and notes the error, if any.
void count_ops(const Timeline& t, Report& r);

// --- turning a timeline into metrics -------------------------------------

/// How ops_per_s is derived: from the time spent inside ops (lockstep
/// workloads, whose ops run back to back with benchmark-only gaps between
/// them), or from elapsed time (a pipeline, whose gaps are the program's).
enum class Throughput { busy, elapsed };

/// Fills the end-to-end metrics common to every workload.
void end_to_end(const Timeline& t, Throughput mode, Report& r);

/// Fills the per-layer metrics every workload shares (rank skew, message
/// and staging counts, trace overhead, host diagnostics).
void common_layers(const Timeline& t, Report& r);

/// Median over untraced timed ops of one lap, ms.
[[nodiscard]] double lap_ms(const Timeline& t, Lap lap);
/// Median over all timed ops of one tally.
[[nodiscard]] double tally(const Timeline& t, Tally k);
/// Median over traced timed ops of a trace quantity, via `get`.
[[nodiscard]] double traced_median(
    const Timeline& t, const std::function<double(const OpLayers&)>& get);
/// The bound op_ms.p50 carries in BENCHMARK.json; the closure check uses it.
inline constexpr double kOpP50Bound = 0.25;

/// Closure check: on every op of one kind (traced or not), the layer times
/// on the op's blocking path (`layers`, ms) divided by the op's wall time;
/// the median of that ratio must be within kOpP50Bound of 1. Records
/// trace.closure_gap_frac and fails the run's checks when it is not.
void closure(const Timeline& t, bool traced,
             const std::function<double(const OpLayers&)>& layers, Report& r);

}  // namespace pb
