#pragma once

/// \file trace.hpp
/// Per-rank observability layer for minimpi and DDR core.
///
/// A Recorder collects a flat, monotonically-ordered event stream for one
/// rank thread: scoped spans (begin/end pairs closed exception-safely by
/// RAII), instants (point events carrying keys), and counters. Events are
/// keyed by communicator, round, and peer so a redistribution schedule can
/// be attributed phase by phase.
///
/// Recording is opt-in per thread: instrumentation sites go through the
/// DDR_TRACE_* macros, which check a thread-local Recorder pointer and do
/// nothing when none is installed (a single predictable branch — the data
/// path stays allocation-free and effectively free when tracing is off).
/// Defining DDR_TRACE_DISABLED at build time compiles every site out
/// entirely (CMake option DDR_TRACE=OFF).
///
/// Sinks: write_chrome_json() emits the Chrome trace-event JSON format
/// (loadable in chrome://tracing and Perfetto; one pid per labelled group,
/// one tid per rank), and MetricsSummary/write_summary() give a flat
/// per-event-name aggregate for quick diffing.
///
/// Determinism contract (what the golden tests rely on): under the
/// deterministic simnet runtime, the per-rank event *structure* — names,
/// order, nesting, and the round/peer/bytes keys — is identical across
/// runs. Timestamps (`ts_us`), sequence numbers across ranks, the `comm`
/// id, and the `value` field (e.g. pool-hit-vs-heap on staging acquires)
/// are NOT covered by the contract; structure_string() renders exactly the
/// covered subset. Events whose timing depends on the deadlock watchdog or
/// retry clocks — `ddr.exchange.reliable` contents, `mpi.shrink.retry`,
/// and the elastic-resize family (`mpi.resize`, `mpi.resize.join`,
/// `mpi.resize.retry`, `ddr.resize`, `ddr.resize.plan`,
/// `ddr.resize.transfer`, `ddr.resize.commit`, `ddr.resize.rollback`,
/// `ddr.resize.retry`) — are likewise excluded. The authoritative
/// name/keys schema lives in DESIGN.md §9.2.

#include <cstddef>
#include <cstdint>
#include <chrono>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace trace {

/// Event flavour, mirroring the Chrome trace-event phases we emit
/// ("B"/"E"/"i"/"C").
enum class Phase : std::uint8_t { begin, end, instant, counter };

/// Optional keys attached to an event; -1 means "not set" (omitted from
/// JSON args and from structure_string()).
struct Keys {
  std::int64_t comm = -1;   ///< communicator id (Comm::trace_id)
  std::int64_t round = -1;  ///< redistribution round
  std::int64_t peer = -1;   ///< peer rank in the communicator
  std::int64_t bytes = -1;  ///< payload/region size
  std::int64_t value = -1;  ///< event-specific extra (counter value, flags)
};

/// One recorded event. `name` must be a string with static storage duration
/// (instrumentation sites pass literals); recording never copies or
/// allocates for the name.
struct Event {
  Phase phase = Phase::instant;
  const char* name = "";
  std::uint64_t seq = 0;  ///< per-recorder monotonic sequence number
  double ts_us = 0.0;     ///< microseconds since the recorder's epoch
  Keys keys;
};

/// Per-rank event recorder. One per rank thread; not thread-safe (each rank
/// records only into its own Recorder). Storage grows geometrically; call
/// reserve() up front for fully allocation-free steady-state recording.
class Recorder {
 public:
  explicit Recorder(int rank);

  void begin(const char* name, const Keys& keys = {});
  void end(const char* name);
  void instant(const char* name, const Keys& keys = {});
  void counter(const char* name, std::int64_t value, const Keys& keys = {});

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] const std::vector<Event>& events() const noexcept {
    return events_;
  }
  /// Number of begun-but-not-ended spans (0 once every span closed).
  [[nodiscard]] std::size_t open_spans() const noexcept { return depth_; }

  /// Sets the `value` key of the still-open span begun at event index
  /// `begin_index` (see Span::set_value); ignored once clear() dropped it.
  void set_value(std::size_t begin_index, std::int64_t value) noexcept {
    if (begin_index < events_.size()) events_[begin_index].keys.value = value;
  }

  void reserve(std::size_t nevents) { events_.reserve(nevents); }
  /// Drops recorded events (keeps capacity); open-span depth resets too, so
  /// only clear() between complete operations.
  void clear();

 private:
  void push(Phase phase, const char* name, const Keys& keys);

  int rank_;
  std::size_t depth_ = 0;
  std::uint64_t next_seq_ = 0;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Event> events_;
};

/// The calling thread's active recorder (nullptr when tracing is off).
[[nodiscard]] Recorder* current() noexcept;

/// Installs a recorder as the calling thread's active one for a scope;
/// restores the previous recorder (usually nullptr) on destruction.
/// Installing nullptr is valid and turns recording off for the scope.
class ScopedRecorder {
 public:
  explicit ScopedRecorder(Recorder* rec) noexcept;
  ~ScopedRecorder();
  ScopedRecorder(const ScopedRecorder&) = delete;
  ScopedRecorder& operator=(const ScopedRecorder&) = delete;

 private:
  Recorder* prev_;
};

/// RAII span: records begin on construction and end on destruction — also
/// during stack unwinding, which is what keeps traces well-formed when a
/// collective throws (fail-safe contracts, watchdog, rank kills). Captures
/// the recorder active at construction so begin/end always pair up in the
/// same stream.
class Span {
 public:
  explicit Span(const char* name, const Keys& keys = {}) noexcept
      : rec_(current()), name_(name) {
    if (rec_ != nullptr) {
      begin_ = rec_->events().size();
      rec_->begin(name_, keys);
    }
  }
  ~Span() {
    if (rec_ != nullptr) rec_->end(name_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Sets the span's `value` key once the span has learned it (e.g. how
  /// many bytes the work inside it allocated).
  void set_value(std::int64_t value) noexcept {
    if (rec_ != nullptr) rec_->set_value(begin_, value);
  }

 private:
  Recorder* rec_;
  const char* name_;
  std::size_t begin_ = 0;  ///< index of the begin event in rec_
};

/// No-op stand-in used when DDR_TRACE_DISABLED compiles tracing out.
struct NoopSpan {
  template <typename... Args>
  explicit NoopSpan(const Args&...) noexcept {}
  void set_value(std::int64_t) noexcept {}
};

inline void instant(const char* name, const Keys& keys = {}) {
  if (Recorder* r = current()) r->instant(name, keys);
}

inline void counter(const char* name, std::int64_t value,
                    const Keys& keys = {}) {
  if (Recorder* r = current()) r->counter(name, value, keys);
}

// --- analysis ---------------------------------------------------------------

/// True when every begin has a matching end in LIFO order (the stream is a
/// well-formed forest of spans).
[[nodiscard]] bool spans_balanced(const std::vector<Event>& events);

/// Sum of the `bytes` key over events named `name` (all phases), grouped by
/// the `peer` key. Events without a peer land under key -1.
[[nodiscard]] std::map<std::int64_t, std::int64_t> bytes_by_peer(
    const std::vector<Event>& events, const char* name);

/// Sum of the `bytes` key over events named `name` (begin/instant/counter
/// phases; ends carry no keys).
[[nodiscard]] std::int64_t total_bytes(const std::vector<Event>& events,
                                       const char* name);

/// Number of events named `name` with the given phase.
[[nodiscard]] std::size_t count_events(const std::vector<Event>& events,
                                       const char* name, Phase phase);

/// Canonical, timestamp-free rendering of the event structure: one line per
/// event, indentation showing span nesting, with only the deterministic
/// keys (round, peer, bytes). Two runs of the same deterministic operation
/// yield byte-identical strings — the golden-trace comparison artifact.
[[nodiscard]] std::string structure_string(const std::vector<Event>& events);

/// Flat per-name aggregates over one or more ranks' event streams.
struct MetricsSummary {
  struct Entry {
    std::uint64_t count = 0;      ///< spans (begin count) or instants/counters
    double total_us = 0.0;        ///< summed span durations (spans only)
    std::int64_t total_bytes = 0; ///< summed `bytes` keys
  };
  std::map<std::string, Entry> by_name;
};

[[nodiscard]] MetricsSummary summarize(
    const std::vector<const Recorder*>& recorders);

/// Prints a MetricsSummary as an aligned text table.
void write_summary(std::ostream& os, const MetricsSummary& summary);

// --- Chrome trace JSON ------------------------------------------------------

/// Streams one Chrome trace-event JSON object ({"traceEvents": [...]}) built
/// from one or more groups of per-rank recorders. Each group becomes a pid
/// with a process_name metadata record; each recorder becomes tid = rank.
/// Usage:
///   ChromeTraceWriter w(os);
///   w.add_process(0, "alltoallw", recorders0);
///   w.add_process(1, "p2p", recorders1);
///   w.finish();
class ChromeTraceWriter {
 public:
  explicit ChromeTraceWriter(std::ostream& os);
  ~ChromeTraceWriter();
  void add_process(int pid, const std::string& name,
                   const std::vector<const Recorder*>& recorders);
  /// Closes the JSON object; further add_process calls are invalid.
  void finish();

 private:
  void emit(int pid, int tid, const Event& e);
  std::ostream& os_;
  bool first_ = true;
  bool finished_ = false;
};

/// Convenience: one process, then finish.
void write_chrome_json(std::ostream& os,
                       const std::vector<const Recorder*>& recorders,
                       const std::string& process_name = "ddr");

}  // namespace trace

// --- instrumentation macros -------------------------------------------------
//
// All instrumentation in minimpi/ddr goes through these, so DDR_TRACE_DISABLED
// removes every site at compile time (ISSUE: "compiled out to no-ops when
// disabled"). When enabled, each site costs one thread-local load + branch
// while no recorder is installed.

#ifndef DDR_TRACE_DISABLED
#define DDR_TRACE_SPAN(var, ...) ::trace::Span var(__VA_ARGS__)
#define DDR_TRACE_INSTANT(...) ::trace::instant(__VA_ARGS__)
#define DDR_TRACE_COUNTER(...) ::trace::counter(__VA_ARGS__)
#else
#define DDR_TRACE_SPAN(var, ...) \
  [[maybe_unused]] ::trace::NoopSpan var(__VA_ARGS__)
#define DDR_TRACE_INSTANT(...) static_cast<void>(0)
#define DDR_TRACE_COUNTER(...) static_cast<void>(0)
#endif
