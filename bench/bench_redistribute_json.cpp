// Machine-readable redistribute() micro-benchmark.
//
// Runs the hot path the paper's use case B executes every timestep — a
// strided 3D multi-chunk redistribution, a 2D rows-to-quadrants one, a
// broadcast-shaped slab allgather, plus the two workload-suite shapes of
// src/workloads (the slab -> y-pencil FFT transpose and a tiny-message
// SPMD resharding over 8 ranks, both carrying closed-form analytic byte
// accounting the bench gates against) — under six configurations:
//
//   legacy_alltoallw       recursive-walker pack path (plans disabled)
//   compiled_alltoallw     compiled segment plans, alltoallw backend
//   compiled_p2p           compiled plans, per-round point-to-point backend
//   compiled_p2p_fused     compiled plans, per-peer fused p2p backend
//   compiled_p2p_pipelined compiled plans, the same lane program as fused
//                          (the planner's tie-break prefers this name)
//   automatic              ddr::Planner picks the backend at setup()
//                          (Backend::automatic); the bench exits
//                          non-zero unless its median lands within 5% (plus
//                          a 0.010 ms noise floor) of the best hand-picked
//                          config on EVERY case — the planner's exit gate
//
// then compares peak staging on the broadcast case: the fused backend
// stages every lane at once, the collective-sequence lowering under a
// peak_staging_bytes budget fences the same bytes into waves; the bench
// exits non-zero unless the measured pool high-water mark at least halves,
//
// then measures elastic resize (Redistributor::resize_rebalance) on the
// strided3d z-slab shape — growing 8 -> 12 and shrinking 16 -> 8 — and
// reports the planner's bytes-moved column against the naive full
// re-scatter (the movement-minimizing headline: moved must stay well under
// naive),
//
// then sweeps rank counts (4/8/16/64) under the simnet Cooley link model,
// comparing the flat exchange against the topology-aware two-level one by
// VIRTUAL makespan (max per-rank clock delta over a fixed number of
// redistributions) — wall time on this 1-core host says nothing about
// cluster behaviour, the charged clocks do,
//
// then runs the "mixed" block: the 8-rank shifted-window halo shape under
// the Cooley model (2 ranks/node, so every rank has self, intra-node and
// inter-node lanes at once), judging fused / pipelined / collective /
// hybrid / automatic by virtual makespan under a peak-staging budget. Exit
// gates: the hybrid composition must land within 5% of the best
// budget-respecting single backend (the collective wave lowering — fused
// and pipelined ignore the budget and run as the unbudgeted reference),
// and automatic under the staging budget must resolve to hybrid,
//
// and the "amortize" block: multi-step pencil runs under
// Backend::automatic, reporting setup cost and first-step wall separately
// from the steady-state per-step median, against two re-planning
// baselines — a fresh PencilTimestepper per step (decide-per-step) and a
// fresh timestepper per step resolving through one shared ddr::PlanCache
// (decide-once, replayed). Exit gate: steady-state median <= 0.75 x the
// decide-per-step median — the plan-reuse amortization headline.
//
// Emits BENCH_redistribute.json (schema: EXPERIMENTS.md) with median and
// p95 per-call wall time, bytes moved, messages posted per call, and the
// steady-state staging-pool heap-allocation count. The process exits
// non-zero if any steady-state redistribute() performed a staging heap
// allocation — CI runs this binary as the zero-allocation gate of the data
// path.
//
// Environment: DDR_BENCH_REPS  (timed calls per config, default 60),
//              DDR_BENCH_OUT   (output path, default BENCH_redistribute.json),
//              DDR_BENCH_CASES (comma-separated case-name filter; when set,
//                               only matching cases run and the resize /
//                               peak-staging / ranks-sweep blocks are
//                               skipped — the CI smoke mode. The pseudo-case
//                               names "mixed" and "amortize" select those
//                               blocks alone, gates included).

#include <algorithm>
#include <chrono>
#include <memory>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "ddr/ddr.hpp"
#include "minimpi/minimpi.hpp"
#include "simnet/models.hpp"
#include "trace/trace.hpp"
#include "workloads/workloads.hpp"

namespace {

constexpr int kWarmup = 5;

struct CaseSetup {
  std::string name;
  int nranks = 0;
  // Per-rank layout factory.
  ddr::OwnedLayout (*owned)(int rank) = nullptr;
  ddr::Chunk (*needed)(int rank) = nullptr;
};

ddr::OwnedLayout strided3d_owned(int rank) {
  // 64^3 float domain, 8 round-robin z-slabs per rank of 4: rank r owns
  // slabs r, r+4, r+8, ... (8 rounds).
  constexpr int kSide = 64, kRanks = 4, kSlabs = 8;
  constexpr int slab_z = kSide / (kRanks * kSlabs);
  ddr::OwnedLayout own;
  for (int c = 0; c < kSlabs; ++c)
    own.push_back(
        ddr::Chunk::d3(kSide, kSide, slab_z, 0, 0, (rank + kRanks * c) * slab_z));
  return own;
}
ddr::Chunk strided3d_needed(int rank) {
  // One brick of a 2x2x1 grid: strided in x and y against the slabs.
  constexpr int kSide = 64;
  return ddr::Chunk::d3(kSide / 2, kSide / 2, kSide, (rank % 2) * kSide / 2,
                        (rank / 2) * kSide / 2, 0);
}

ddr::OwnedLayout rows2d_owned(int rank) {
  // The paper's E1 shape scaled up: 128x128 floats, each of 4 ranks owns two
  // 128-wide row bands.
  return {ddr::Chunk::d2(128, 16, 0, 16 * rank),
          ddr::Chunk::d2(128, 16, 0, 16 * (rank + 4))};
}
ddr::Chunk rows2d_needed(int rank) {
  return ddr::Chunk::d2(64, 64, 64 * (rank % 2), 64 * (rank / 2));
}

ddr::OwnedLayout bcast3d_owned(int rank) {
  // Broadcast shape: 4 ranks own one contiguous z-slab of a 64^3 float
  // domain each, and every rank needs the whole domain (an allgather). One
  // round, 12 fused lanes of 256 KB — the peak-staging stress case.
  constexpr int kSide = 64, kRanks = 4;
  constexpr int slab = kSide / kRanks;
  return {ddr::Chunk::d3(kSide, kSide, slab, 0, 0, slab * rank)};
}
ddr::Chunk bcast3d_needed(int) {
  constexpr int kSide = 64;
  return ddr::Chunk::d3(kSide, kSide, kSide, 0, 0, 0);
}

// The workload-suite cases (src/workloads): each carries closed-form
// analytic accounting that the bench gates against the measured
// MappingStats and the traced bytes — three independent derivations of the
// same exchange.

/// The slab -> y-pencil transpose of a 64^3 float FFT over 4 ranks (2x2
/// process grid): the first transpose a spectral solver runs every timestep.
const workloads::PencilTranspose& pencil_gen() {
  static const workloads::PencilTranspose gen(
      workloads::PencilParams{64, 64, 64, 4, sizeof(float)});
  return gen;
}
ddr::OwnedLayout pencil_owned(int rank) {
  return {pencil_gen().chunk(workloads::Stage::slab, rank)};
}
ddr::Chunk pencil_needed(int rank) {
  return pencil_gen().chunk(workloads::Stage::pencil_y, rank);
}

/// SPMD resharding in the tiny-message / high-lane-count regime: a 32^3
/// float tensor moves from x tiled over an 8-long mesh to (y, z) tiled over
/// a 2x4 mesh — every destination shard intersects every source shard, 56
/// cross-rank lanes of 2 KB each.
const workloads::ReshardSuite& reshard_suite() {
  static const workloads::ReshardSuite suite = [] {
    workloads::ReshardParams p;
    p.ndims = 3;
    p.dims = {32, 32, 32};
    p.elem_size = sizeof(float);
    p.src.mesh = {8, 1, 1};
    p.src.tile = {0, -1, -1};  // x across the 8-long mesh axis
    p.dst.mesh = {2, 4, 1};
    p.dst.tile = {-1, 0, 1};  // y across 2, z across 4
    return workloads::ReshardSuite(p);
  }();
  return suite;
}
ddr::OwnedLayout reshard_owned(int rank) {
  const auto& p = reshard_suite().params();
  return {workloads::ReshardSuite::chunk(p.src, p.ndims, p.dims, rank)};
}
ddr::Chunk reshard_needed(int rank) {
  const auto& p = reshard_suite().params();
  return workloads::ReshardSuite::chunk(p.dst, p.ndims, p.dims, rank);
}

struct ConfigResult {
  std::string name;
  /// For the "automatic" config: the backend ddr::Planner resolved to.
  std::string planned_backend;
  double median_ms = 0.0;
  double p95_ms = 0.0;
  double messages_per_call = 0.0;
  std::uint64_t staging_heap_allocs_steady = 0;
  std::uint64_t staging_acquires_steady = 0;
  // One traced redistribute() call, run after the timed window (all ranks
  // summed). With tracing compiled out (DDR_TRACE=OFF) all zeros/true.
  std::uint64_t trace_events = 0;
  std::uint64_t trace_data_msgs = 0;
  std::int64_t trace_send_bytes = 0;
  bool trace_spans_balanced = true;
};

struct CaseResult {
  std::string name;
  int nranks = 0;
  int rounds = 0;
  std::int64_t network_bytes_per_call = 0;
  std::int64_t self_bytes_per_call = 0;
  /// Closed-form accounting for the workload-suite cases (pencil, reshard);
  /// has_analytic gates the analytic == measured == traced byte check.
  bool has_analytic = false;
  workloads::Accounting analytic;
  std::vector<ConfigResult> configs;
  // Planner exit gate: automatic's median vs the best hand-picked config
  // (ablation configs excluded — see main).
  std::string best_config;
  double best_median_ms = 0.0;
  double automatic_median_ms = 0.0;
  bool automatic_within_tolerance = true;
};

int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atoi(v) : fallback;
}

/// DDR_BENCH_CASES filter: unset/empty runs everything; otherwise a
/// comma-separated list of case names to run (the CI smoke mode).
bool case_enabled(const std::string& name) {
  const char* v = std::getenv("DDR_BENCH_CASES");
  if (v == nullptr || *v == '\0') return true;
  const std::string s(v);
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t comma = s.find(',', pos);
    const std::size_t end = comma == std::string::npos ? s.size() : comma;
    if (s.substr(pos, end - pos) == name) return true;
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return false;
}

ConfigResult run_config(const CaseSetup& cs, const std::string& cfg_name,
                        bool plan_enabled, ddr::Backend backend, int reps,
                        CaseResult& out_case) {
  ConfigResult res;
  res.name = cfg_name;
  mpi::Datatype::set_plan_enabled(plan_enabled);

  std::vector<double> times_ms;
  std::uint64_t msgs_delta = 0;
  std::uint64_t allocs_delta = 0;
  std::uint64_t acquires_delta = 0;
  const auto nr = static_cast<std::size_t>(cs.nranks);
  std::vector<std::uint64_t> tr_events(nr, 0), tr_msgs(nr, 0);
  std::vector<std::int64_t> tr_bytes(nr, 0);
  std::vector<char> tr_balanced(nr, 1);

  mpi::run(cs.nranks, [&](mpi::Comm& comm) {
    const int r = comm.rank();
    ddr::Redistributor rd(comm, sizeof(float));
    ddr::SetupOptions opts;
    opts.backend = backend;
    // Measure only the data path, not the precondition allreduce.
    opts.collective_error_agreement = false;
    rd.setup(cs.owned(r), cs.needed(r), opts);
    if (r == 0) {
      out_case.rounds = rd.rounds();
      out_case.network_bytes_per_call = rd.stats().network_bytes;
      out_case.self_bytes_per_call = rd.stats().self_bytes;
      if (backend == ddr::Backend::automatic)
        res.planned_backend = ddr::backend_name(rd.effective_backend());
    }

    std::vector<float> src(rd.owned_bytes() / sizeof(float), 1.0f);
    std::vector<float> dst(rd.needed_bytes() / sizeof(float));
    const auto src_b = std::as_bytes(std::span<const float>(src));
    const auto dst_b = std::as_writable_bytes(std::span<float>(dst));

    for (int i = 0; i < kWarmup; ++i) {
      comm.barrier();
      rd.redistribute(src_b, dst_b);
    }

    // Steady state starts here: the staging pool has seen every buffer size.
    comm.barrier();
    const mpi::StagingStats s0 = comm.staging_stats();
    const std::uint64_t m0 = comm.messages_posted();
    for (int i = 0; i < reps; ++i) {
      comm.barrier();
      const auto t0 = std::chrono::steady_clock::now();
      rd.redistribute(src_b, dst_b);
      const auto t1 = std::chrono::steady_clock::now();
      if (r == 0)
        times_ms.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
    comm.barrier();
    if (r == 0) {
      const mpi::StagingStats s1 = comm.staging_stats();
      // Per-iteration barriers post p*ceil(log2 p) messages each; subtract
      // them (plus the closing fence) so the count reflects redistribute().
      int log2p = 0;
      while ((1 << log2p) < cs.nranks) ++log2p;
      const std::uint64_t barrier_msgs =
          static_cast<std::uint64_t>(cs.nranks) *
          static_cast<std::uint64_t>(log2p) *
          static_cast<std::uint64_t>(reps + 1);
      const std::uint64_t total = comm.messages_posted() - m0;
      msgs_delta = total > barrier_msgs ? total - barrier_msgs : 0;
      allocs_delta = s1.heap_allocations - s0.heap_allocations;
      acquires_delta = s1.acquires - s0.acquires;
    }
    // Fence so the steady-state counter snapshot above cannot see the traced
    // call's staging traffic, then run one traced call for the JSON "trace"
    // block.
    comm.barrier();
    const auto ri = static_cast<std::size_t>(r);
    trace::Recorder rec(r);
    rd.trace_sink(&rec);
    rd.redistribute(src_b, dst_b);
    rd.trace_sink(nullptr);
    tr_events[ri] = rec.events().size();
    tr_msgs[ri] = static_cast<std::uint64_t>(
        trace::count_events(rec.events(), "ddr.msg.send",
                            trace::Phase::instant));
    tr_bytes[ri] = trace::total_bytes(rec.events(), "ddr.msg.send");
    tr_balanced[ri] = trace::spans_balanced(rec.events()) ? 1 : 0;
  });

  std::sort(times_ms.begin(), times_ms.end());
  res.median_ms = times_ms[times_ms.size() / 2];
  res.p95_ms = times_ms[static_cast<std::size_t>(
      static_cast<double>(times_ms.size()) * 0.95)];
  res.messages_per_call =
      static_cast<double>(msgs_delta) / static_cast<double>(reps);
  res.staging_heap_allocs_steady = allocs_delta;
  res.staging_acquires_steady = acquires_delta;
  for (std::size_t i = 0; i < nr; ++i) {
    res.trace_events += tr_events[i];
    res.trace_data_msgs += tr_msgs[i];
    res.trace_send_bytes += tr_bytes[i];
    if (tr_balanced[i] == 0) res.trace_spans_balanced = false;
  }

  std::printf("%-10s %-20s median %8.3f ms  p95 %8.3f ms  msgs/call %7.1f  "
              "steady heap allocs %llu\n",
              cs.name.c_str(), cfg_name.c_str(), res.median_ms, res.p95_ms,
              res.messages_per_call,
              static_cast<unsigned long long>(res.staging_heap_allocs_steady));
  return res;
}

// ---------------------------------------------------------------------------
// Planner exit gate. The per-config windows above run serially, so their
// medians carry machine-load drift that can exceed the 5% tolerance between
// backends whose true cost is equal (bcast3d's p2p vs fused flip order
// between runs). The gate therefore re-measures INTERLEAVED: one run sets
// up automatic plus every hand-picked backend side by side and rotates
// through them call by call, so every candidate samples the same load. The
// planner passes when its interleaved median lands within 5% (plus a
// 0.010 ms noise floor) of the best rival's. The gate judges the planner's
// CHOICE, so it also accepts via the rival that runs the same backend
// automatic resolved to (its twin): automatic and its twin execute identical
// code, and any gap between their medians is pure sampling noise.
bool run_planner_gate(const CaseSetup& cs, int reps, CaseResult& cr) {
  struct Rival {
    const char* name;
    ddr::Backend backend;
  };
  const Rival rivals[] = {
      {"compiled_alltoallw", ddr::Backend::alltoallw},
      {"compiled_p2p", ddr::Backend::point_to_point},
      {"compiled_p2p_fused", ddr::Backend::point_to_point_fused},
      {"compiled_p2p_pipelined", ddr::Backend::point_to_point_pipelined},
  };
  constexpr int kRivals = 4;
  std::vector<std::vector<double>> times(kRivals + 1);  // [kRivals] = automatic
  ddr::Backend resolved = ddr::Backend::automatic;

  mpi::run(cs.nranks, [&](mpi::Comm& comm) {
    const int r = comm.rank();
    std::vector<std::unique_ptr<ddr::Redistributor>> rds;
    for (int k = 0; k <= kRivals; ++k) {
      rds.push_back(std::make_unique<ddr::Redistributor>(comm, sizeof(float)));
      ddr::SetupOptions opts;
      opts.backend =
          k < kRivals ? rivals[k].backend : ddr::Backend::automatic;
      opts.collective_error_agreement = false;
      rds.back()->setup(cs.owned(r), cs.needed(r), opts);
    }
    if (r == 0) resolved = rds[kRivals]->effective_backend();
    std::vector<float> src(rds[0]->owned_bytes() / sizeof(float), 1.0f);
    std::vector<float> dst(rds[0]->needed_bytes() / sizeof(float));
    const auto src_b = std::as_bytes(std::span<const float>(src));
    const auto dst_b = std::as_writable_bytes(std::span<float>(dst));
    for (int k = 0; k <= kRivals; ++k) {
      comm.barrier();
      rds[static_cast<std::size_t>(k)]->redistribute(src_b, dst_b);  // warmup
    }
    for (int i = 0; i < reps; ++i)
      for (int k = 0; k <= kRivals; ++k) {
        comm.barrier();
        const auto t0 = std::chrono::steady_clock::now();
        rds[static_cast<std::size_t>(k)]->redistribute(src_b, dst_b);
        const auto t1 = std::chrono::steady_clock::now();
        if (r == 0)
          times[static_cast<std::size_t>(k)].push_back(
              std::chrono::duration<double, std::milli>(t1 - t0).count());
      }
  });

  const auto median = [](std::vector<double>& v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  cr.automatic_median_ms = median(times[kRivals]);
  cr.best_median_ms = 1e300;
  double twin_median_ms = 1e300;
  for (int k = 0; k < kRivals; ++k) {
    const double m = median(times[static_cast<std::size_t>(k)]);
    if (m < cr.best_median_ms) {
      cr.best_median_ms = m;
      cr.best_config = rivals[k].name;
    }
    if (rivals[k].backend == resolved) twin_median_ms = m;
  }
  const double judged = std::min(cr.automatic_median_ms, twin_median_ms);
  cr.automatic_within_tolerance = judged <= cr.best_median_ms * 1.05 + 0.010;
  std::printf("%-10s planner gate: automatic %.3f ms (chose %s, twin %.3f ms)"
              " vs best (%s) %.3f ms -> %s\n",
              cs.name.c_str(), cr.automatic_median_ms,
              ddr::backend_name(resolved), twin_median_ms,
              cr.best_config.c_str(), cr.best_median_ms,
              cr.automatic_within_tolerance ? "PASS" : "FAIL");
  return cr.automatic_within_tolerance;
}

// ---------------------------------------------------------------------------
// Elastic resize: bytes moved by the movement-minimizing planner vs the
// naive full re-scatter, on the strided3d z-slab shape.

struct ResizePoint {
  int from = 0;
  int to = 0;
  double wall_ms = 0.0;
  std::int64_t total_bytes = 0;
  std::int64_t kept_bytes = 0;
  std::int64_t moved_bytes = 0;
  std::int64_t naive_bytes = 0;
  // Offline propose_resize_layout comparison on the same shape: moved bytes
  // of the topology-blind proposal vs the node-aware one (2 ranks/node).
  // The node-aware permutation must never move MORE — its whole contract is
  // re-aiming donations at same-node receivers at unchanged volume.
  std::int64_t proposal_moved_flat = 0;
  std::int64_t proposal_moved_aware = 0;
};

/// M ranks own z-slabs of a 64^3 float domain; resize_rebalance(N) keeps
/// every surviving prefix byte in place and ships only the overflow, so
/// moved_bytes is the planner's cost and naive_bytes what a tear-down,
/// re-setup() and full re-scatter would ship.
ResizePoint run_resize_point(int from, int to) {
  const int side = 64;
  const int slab = side / from;
  ResizePoint rp;
  rp.from = from;
  rp.to = to;

  mpi::RunOptions opts;
  opts.max_ranks = std::max(from, to);
  opts.joiner_main = [](mpi::Comm& comm) {
    (void)ddr::Redistributor::resize_join(comm, sizeof(float));
  };
  mpi::run(
      from,
      [&](mpi::Comm& comm) {
        const int r = comm.rank();
        const ddr::OwnedLayout own{
            ddr::Chunk::d3(side, side, slab, 0, 0, slab * r)};
        std::vector<float> data(
            static_cast<std::size_t>(own[0].volume()), 1.0f);
        ddr::Redistributor rd(comm, sizeof(float));
        const auto t0 = std::chrono::steady_clock::now();
        const auto out = rd.resize_rebalance(
            to, own, std::as_bytes(std::span<const float>(data)));
        const auto t1 = std::chrono::steady_clock::now();
        if (r == 0) {
          if (!out.committed) {
            std::fprintf(stderr, "resize %d -> %d did not commit\n", from, to);
            std::exit(2);
          }
          rp.wall_ms =
              std::chrono::duration<double, std::milli>(t1 - t0).count();
          rp.total_bytes = out.stats.total_bytes;
          rp.kept_bytes = out.stats.kept_bytes;
          rp.moved_bytes = out.stats.moved_bytes;
          rp.naive_bytes = out.stats.naive_bytes;
        }
      },
      opts);

  // Satellite gate (offline, no runtime needed): the node-aware proposal on
  // this exact shape must move the same bytes as the flat one — preferring
  // intra-node receivers permutes the donation pool, never the quotas.
  std::vector<ddr::OwnedLayout> old_layout;
  for (int i = 0; i < from; ++i)
    old_layout.push_back({ddr::Chunk::d3(side, side, slab, 0, 0, slab * i)});
  std::vector<int> nodes(static_cast<std::size_t>(std::max(from, to)));
  for (std::size_t m = 0; m < nodes.size(); ++m)
    nodes[m] = static_cast<int>(m) / 2;
  const auto moved_of = [&](const std::vector<ddr::OwnedLayout>& proposed) {
    return ddr::plan_resize(old_layout, proposed, sizeof(float))
        .stats.moved_bytes;
  };
  rp.proposal_moved_flat =
      moved_of(ddr::propose_resize_layout(old_layout, to));
  rp.proposal_moved_aware =
      moved_of(ddr::propose_resize_layout(old_layout, to, &nodes));

  std::printf("resize     %2d -> %-2d             wall %8.3f ms  moved %lld "
              "of %lld bytes (naive %lld, node-aware proposal %lld)\n",
              from, to, rp.wall_ms, static_cast<long long>(rp.moved_bytes),
              static_cast<long long>(rp.total_bytes),
              static_cast<long long>(rp.naive_bytes),
              static_cast<long long>(rp.proposal_moved_aware));
  return rp;
}

// ---------------------------------------------------------------------------
// Peak staging: fused p2p vs the collective-sequence lowering under a
// peak_staging_bytes budget, on the broadcast-shaped case. Both move the
// identical bytes (test_planner pins byte-identity); the interesting number
// is the staging pool's high-water mark, which the budgeted wave fences
// must keep at a fraction of the fused all-at-once peak.

struct PeakPoint {
  std::size_t budget = 0;
  int waves = 0;
  std::int64_t network_bytes_per_call = 0;
  std::uint64_t peak_fused = 0;
  std::uint64_t peak_collective = 0;
  double fused_median_ms = 0.0;
  double collective_median_ms = 0.0;
};

PeakPoint run_peak_point(int reps) {
  const CaseSetup cs{"bcast3d", 4, bcast3d_owned, bcast3d_needed};
  PeakPoint pp;
  pp.budget = std::size_t{512} * 1024;  // vs 3 MB of lanes pool-wide

  const auto measure = [&](ddr::Backend b, std::size_t budget, double* med_ms,
                           std::uint64_t* peak) {
    std::vector<double> times_ms;
    mpi::run(cs.nranks, [&](mpi::Comm& comm) {
      const int r = comm.rank();
      ddr::Redistributor rd(comm, sizeof(float));
      ddr::SetupOptions opts;
      opts.backend = b;
      opts.peak_staging_bytes = budget;
      opts.collective_error_agreement = false;
      rd.setup(cs.owned(r), cs.needed(r), opts);
      if (r == 0) {
        pp.network_bytes_per_call = rd.stats().network_bytes;
        if (b == ddr::Backend::collective) pp.waves = rd.plan().waves;
      }
      std::vector<float> src(rd.owned_bytes() / sizeof(float), 1.0f);
      std::vector<float> dst(rd.needed_bytes() / sizeof(float));
      const auto src_b = std::as_bytes(std::span<const float>(src));
      const auto dst_b = std::as_writable_bytes(std::span<float>(dst));
      for (int i = 0; i < kWarmup; ++i) {
        comm.barrier();
        rd.redistribute(src_b, dst_b);
      }
      for (int i = 0; i < reps; ++i) {
        comm.barrier();
        const auto t0 = std::chrono::steady_clock::now();
        rd.redistribute(src_b, dst_b);
        const auto t1 = std::chrono::steady_clock::now();
        if (r == 0)
          times_ms.push_back(
              std::chrono::duration<double, std::milli>(t1 - t0).count());
      }
      comm.barrier();
      // The pool high-water mark is monotone over the communicator's life,
      // so the final snapshot is the exchange's true concurrent footprint.
      if (r == 0) *peak = comm.staging_stats().peak_live_bytes;
    });
    std::sort(times_ms.begin(), times_ms.end());
    *med_ms = times_ms[times_ms.size() / 2];
  };

  measure(ddr::Backend::point_to_point_fused, 0, &pp.fused_median_ms,
          &pp.peak_fused);
  measure(ddr::Backend::collective, pp.budget, &pp.collective_median_ms,
          &pp.peak_collective);
  std::printf("peak       bcast3d budget %zu    fused peak %llu B (%.3f ms)  "
              "collective peak %llu B in %d waves (%.3f ms)\n",
              pp.budget, static_cast<unsigned long long>(pp.peak_fused),
              pp.fused_median_ms,
              static_cast<unsigned long long>(pp.peak_collective), pp.waves,
              pp.collective_median_ms);
  return pp;
}

// ---------------------------------------------------------------------------
// Ranks sweep: flat vs two-level exchange under the Cooley link model, by
// virtual makespan.

/// The Cooley link costs with the node structure hidden: every transfer pays
/// the inter-node price and NetworkModel::node_of stays the identity, so the
/// two-level optimization never engages. The difference to the real
/// LinkModel under identical layouts is therefore exactly what topology
/// awareness buys.
class FlatModel final : public mpi::NetworkModel {
 public:
  explicit FlatModel(const simnet::LinkParams& p)
      : m_(p), far_(p.ranks_per_node) {}
  [[nodiscard]] double send_overhead(std::size_t b) const override {
    return m_.send_overhead(b);
  }
  [[nodiscard]] double transfer_time(std::size_t b, int, int) const override {
    return m_.transfer_time(b, 0, far_);  // ranks 0 and far_ never share a node
  }
  [[nodiscard]] double recv_overhead(std::size_t b) const override {
    return m_.recv_overhead(b);
  }

 private:
  simnet::LinkModel m_;
  int far_;
};

struct SweepPoint {
  int ranks = 0;
  int reps = 0;
  double flat_makespan_s = 0.0;
  double twolevel_makespan_s = 0.0;
  std::int64_t intra_lanes = 0;  ///< total fused intra-node send lanes
};

/// Shifted-window layout for n ranks (2 per node): a 32n x 32n float
/// domain split into n row bands of 32 rows, one per rank, so node k owns
/// the 64-row region [64k, 64k+64). Each rank needs a half-width window of
/// two band heights starting one band below its node's region top — the
/// sliding-window/halo shape — so (except at the domain edge) every node
/// pulls half its bytes from within the node and half from the next node
/// down. Lanes are tens to hundreds of KB: transfer time and per-byte
/// overheads, not per-message latency, dominate the charged cost, which is
/// the regime where routing intra-node lanes through shared memory pays.
SweepPoint run_sweep_point(int n, int reps) {
  const int side = 32 * n;
  const int band_h = 32;

  const auto run_with =
      [&](const mpi::NetworkModel* model) -> std::pair<double, std::int64_t> {
    std::vector<double> deltas(static_cast<std::size_t>(n), 0.0);
    std::vector<int> intra(static_cast<std::size_t>(n), 0);
    mpi::RunOptions opts;
    opts.network = model;
    mpi::run(
        n,
        [&](mpi::Comm& comm) {
          const int r = comm.rank();
          ddr::Redistributor rd(comm, sizeof(float));
          ddr::SetupOptions so;
          so.backend = ddr::Backend::point_to_point_fused;
          so.collective_error_agreement = false;
          const ddr::OwnedLayout own{
              ddr::Chunk::d2(side, band_h, 0, band_h * r)};
          const int node = r / 2;
          int y0 = 2 * band_h * node + band_h;
          if (y0 + 2 * band_h > side) y0 = side - 2 * band_h;  // domain edge
          const ddr::Chunk need = ddr::Chunk::d2(
              side / 2, 2 * band_h, (r % 2) * side / 2, y0);
          rd.setup(own, need, so);
          const auto ri = static_cast<std::size_t>(r);
          intra[ri] = rd.fused_lane_count(ddr::LaneClass::intra);
          std::vector<float> src(rd.owned_bytes() / sizeof(float), 1.0f);
          std::vector<float> dst(rd.needed_bytes() / sizeof(float));
          const auto src_b = std::as_bytes(std::span<const float>(src));
          const auto dst_b = std::as_writable_bytes(std::span<float>(dst));
          rd.redistribute(src_b, dst_b);  // warm the staging pool
          comm.barrier();
          const double c0 = comm.clock().now();
          for (int i = 0; i < reps; ++i) rd.redistribute(src_b, dst_b);
          deltas[ri] = comm.clock().now() - c0;
        },
        opts);
    double makespan = 0.0;
    std::int64_t lanes = 0;
    for (const double d : deltas) makespan = std::max(makespan, d);
    for (const int i : intra) lanes += i;
    return {makespan, lanes};
  };

  const simnet::LinkParams p = simnet::cooley_params();
  const simnet::LinkModel two_level(p);
  const FlatModel flat(p);
  SweepPoint sp;
  sp.ranks = n;
  sp.reps = reps;
  sp.flat_makespan_s = run_with(&flat).first;
  const auto [two_s, lanes] = run_with(&two_level);
  sp.twolevel_makespan_s = two_s;
  sp.intra_lanes = lanes;
  std::printf("sweep      ranks %3d            flat %9.3f ms  two-level "
              "%9.3f ms  intra lanes %lld\n",
              n, sp.flat_makespan_s * 1e3, sp.twolevel_makespan_s * 1e3,
              static_cast<long long>(sp.intra_lanes));
  return sp;
}

// ---------------------------------------------------------------------------
// Mixed-locality composition gate: the 8-rank shifted-window halo shape of
// run_sweep_point under the real Cooley model (2 ranks/node), where every
// rank carries self, intra-node and inter-node lanes at once — the shape
// Backend::hybrid exists for. Each candidate (fused / pipelined /
// collective / hybrid / automatic) runs the identical layout and is judged
// by VIRTUAL makespan — the same discipline as the ranks sweep, because
// wall time on this shared-memory host cannot see locality: every lane is
// a memcpy here, and the wave fences that bound staging cost real sync
// while buying nothing locally. The charged clocks price intra-node lanes
// at intra-node cost, which is the regime the composition targets.
//
// The comparison is constrained-vs-constrained: under a peak_staging_bytes
// budget the fused/pipelined backends are INFEASIBLE (they stage every
// lane at once — that is exactly what the budget forbids), so the single
// backend hybrid must beat is the collective wave lowering, the only other
// candidate that honors the budget. The unbudgeted fused/pipelined
// makespans are still measured and reported as the no-budget reference.
// Exit gates: hybrid's makespan lands within 5% of the budget-respecting
// best (in practice: hybrid must at least match collective, typically it
// is well below — the intra-node lanes it routes around the fences are
// pure profit), and automatic under the same budget resolves to hybrid.

struct MixedPoint {
  bool ran = false;
  int ranks = 0;
  std::size_t budget = 0;
  int hybrid_waves = 0;
  std::int64_t intra_lanes = 0;  ///< fused intra-node send lanes, all ranks
  std::string automatic_backend;
  double fused_makespan_s = 0.0;
  double pipelined_makespan_s = 0.0;
  double collective_makespan_s = 0.0;
  double hybrid_makespan_s = 0.0;
  double automatic_makespan_s = 0.0;
  std::string best_config;
  double best_makespan_s = 0.0;
  bool hybrid_within_tolerance = true;
  bool automatic_chose_hybrid = true;
};

MixedPoint run_mixed_point(int reps) {
  constexpr int kRanks = 8;
  const int side = 32 * kRanks;
  const int band_h = 32;
  MixedPoint mp;
  mp.ran = true;
  mp.ranks = kRanks;
  mp.budget = std::size_t{64} * 1024;

  struct Cfg {
    const char* name;
    ddr::Backend backend;
    bool budgeted;  ///< gets peak_staging_bytes (wave-lowering backends)
    double* out;
  };
  const Cfg cfgs[] = {
      {"compiled_p2p_fused", ddr::Backend::point_to_point_fused, false,
       &mp.fused_makespan_s},
      {"compiled_p2p_pipelined", ddr::Backend::point_to_point_pipelined,
       false, &mp.pipelined_makespan_s},
      {"collective", ddr::Backend::collective, true,
       &mp.collective_makespan_s},
      {"hybrid", ddr::Backend::hybrid, true, &mp.hybrid_makespan_s},
      {"automatic", ddr::Backend::automatic, true, &mp.automatic_makespan_s},
  };

  const simnet::LinkParams p = simnet::cooley_params();
  const simnet::LinkModel net(p);
  ddr::Backend resolved = ddr::Backend::automatic;
  std::vector<int> intra(kRanks, 0);
  for (const Cfg& cfg : cfgs) {
    std::vector<double> deltas(kRanks, 0.0);
    mpi::RunOptions opts;
    opts.network = &net;
    mpi::run(
        kRanks,
        [&](mpi::Comm& comm) {
          const int r = comm.rank();
          const ddr::OwnedLayout own{
              ddr::Chunk::d2(side, band_h, 0, band_h * r)};
          const int node = r / 2;
          int y0 = 2 * band_h * node + band_h;
          if (y0 + 2 * band_h > side) y0 = side - 2 * band_h;  // domain edge
          const ddr::Chunk need =
              ddr::Chunk::d2(side / 2, 2 * band_h, (r % 2) * side / 2, y0);
          ddr::Redistributor rd(comm, sizeof(float));
          ddr::SetupOptions so;
          so.backend = cfg.backend;
          if (cfg.budgeted) so.peak_staging_bytes = mp.budget;
          so.collective_error_agreement = false;
          rd.setup(own, need, so);
          if (r == 0 && cfg.backend == ddr::Backend::automatic)
            resolved = rd.effective_backend();
          if (cfg.backend == ddr::Backend::hybrid) {
            if (r == 0) mp.hybrid_waves = rd.plan().hybrid_waves;
            intra[static_cast<std::size_t>(r)] =
                rd.fused_lane_count(ddr::LaneClass::intra);
          }
          std::vector<float> src(rd.owned_bytes() / sizeof(float), 1.0f);
          std::vector<float> dst(rd.needed_bytes() / sizeof(float));
          const auto src_b = std::as_bytes(std::span<const float>(src));
          const auto dst_b = std::as_writable_bytes(std::span<float>(dst));
          rd.redistribute(src_b, dst_b);  // warm the staging pool
          comm.barrier();
          const double c0 = comm.clock().now();
          for (int i = 0; i < reps; ++i) rd.redistribute(src_b, dst_b);
          deltas[static_cast<std::size_t>(r)] = comm.clock().now() - c0;
        },
        opts);
    double makespan = 0.0;
    for (const double d : deltas) makespan = std::max(makespan, d);
    *cfg.out = makespan;
  }
  for (const int i : intra) mp.intra_lanes += i;
  mp.automatic_backend = ddr::backend_name(resolved);
  mp.automatic_chose_hybrid = resolved == ddr::Backend::hybrid;

  // The only other budget-respecting single backend is the collective wave
  // lowering; fused/pipelined run unbudgeted and are reference-only.
  mp.best_config = "collective";
  mp.best_makespan_s = mp.collective_makespan_s;
  mp.hybrid_within_tolerance =
      mp.hybrid_makespan_s <= mp.best_makespan_s * 1.05;
  std::printf("mixed      ranks %d budget %zu  hybrid %9.3f ms (%d inter "
              "wave(s), %lld intra lanes) vs budgeted best (%s) %9.3f ms "
              "(unbudgeted fused %9.3f ms), automatic chose %s -> %s\n",
              kRanks, mp.budget, mp.hybrid_makespan_s * 1e3, mp.hybrid_waves,
              static_cast<long long>(mp.intra_lanes), mp.best_config.c_str(),
              mp.best_makespan_s * 1e3, mp.fused_makespan_s * 1e3,
              mp.automatic_backend.c_str(),
              mp.hybrid_within_tolerance && mp.automatic_chose_hybrid
                  ? "PASS"
                  : "FAIL");
  return mp;
}

// ---------------------------------------------------------------------------
// Plan-reuse amortization: multi-step pencil runs under Backend::automatic.
// A real spectral solver pays setup once and steps thousands of times; the
// baseline it beats is deciding again every step. Three regimes:
//   steady          one persistent PencilTimestepper, per-step median
//   replan_per_step a fresh timestepper per step (construct + 1 step),
//                   embedded cache, so every step re-runs the cost model
//                   and recompiles all four transposes — decide-per-step
//   replan_cached   a fresh timestepper per step resolving through ONE
//                   shared ddr::PlanCache — decide-once, replayed; isolates
//                   how much of the replan bill the cache alone recovers
// Exit gate: steady <= 0.75 x replan_per_step.

struct AmortizePoint {
  bool ran = false;
  int nranks = 0;
  int grid = 0;
  int steps = 0;  ///< timed steady-state steps
  int iters = 0;  ///< fresh-instance iterations per replan regime
  std::string planned_backend;
  double setup_ms = 0.0;       ///< persistent construction (4 setups)
  double first_step_ms = 0.0;  ///< construction + first step, cold
  double steady_median_ms = 0.0;
  double replan_per_step_median_ms = 0.0;
  double replan_cached_median_ms = 0.0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  bool amortized = true;
};

AmortizePoint run_amortize_point(int reps) {
  AmortizePoint ap;
  ap.ran = true;
  workloads::PencilParams pp{64, 64, 64, 4, sizeof(float)};
  ap.nranks = pp.nranks;
  ap.grid = pp.nx;
  ap.steps = reps;
  // Each replan iteration pays 4 full setups; cap the loop so the block
  // stays a few seconds.
  ap.iters = std::min(reps, 20);

  std::vector<double> steady, replan, cached;
  mpi::run(pp.nranks, [&](mpi::Comm& comm) {
    const int r = comm.rank();
    ddr::SetupOptions so;
    so.backend = ddr::Backend::automatic;
    so.collective_error_agreement = false;

    // Steady: pay construction once, then step repeatedly.
    comm.barrier();
    const auto c0 = std::chrono::steady_clock::now();
    workloads::PencilTimestepper ts(comm, pp, so);
    const auto c1 = std::chrono::steady_clock::now();
    std::vector<float> data(ts.slab_bytes() / sizeof(float), 1.0f);
    const auto bytes = std::as_writable_bytes(std::span<float>(data));
    ts.run(1, bytes);
    const auto c2 = std::chrono::steady_clock::now();
    if (r == 0) {
      ap.setup_ms =
          std::chrono::duration<double, std::milli>(c1 - c0).count();
      ap.first_step_ms =
          std::chrono::duration<double, std::milli>(c2 - c0).count();
      ap.planned_backend = ddr::backend_name(ts.transpose(0).effective_backend());
    }
    for (int i = 0; i < kWarmup; ++i) ts.run(1, bytes);
    for (int i = 0; i < reps; ++i) {
      comm.barrier();
      const auto t0 = std::chrono::steady_clock::now();
      ts.run(1, bytes);
      const auto t1 = std::chrono::steady_clock::now();
      if (r == 0)
        steady.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
    }

    // Decide-per-step: a fresh chain every step, embedded (cold) cache.
    for (int i = 0; i < ap.iters; ++i) {
      comm.barrier();
      const auto t0 = std::chrono::steady_clock::now();
      workloads::PencilTimestepper fresh(comm, pp, so);
      fresh.run(1, bytes);
      const auto t1 = std::chrono::steady_clock::now();
      if (r == 0)
        replan.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
    }

    // Decide-once: fresh chains resolving through one shared cache. The
    // priming instance eats the 4 misses; every timed instance replays.
    ddr::PlanCache cache;
    ddr::SetupOptions soc = so;
    soc.plan_cache = &cache;
    {
      workloads::PencilTimestepper prime(comm, pp, soc);
      prime.run(1, bytes);
    }
    for (int i = 0; i < ap.iters; ++i) {
      comm.barrier();
      const auto t0 = std::chrono::steady_clock::now();
      workloads::PencilTimestepper fresh(comm, pp, soc);
      fresh.run(1, bytes);
      const auto t1 = std::chrono::steady_clock::now();
      if (r == 0)
        cached.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
    if (r == 0) {
      ap.cache_hits = cache.stats().hits;
      ap.cache_misses = cache.stats().misses;
    }
  });

  const auto median = [](std::vector<double>& v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  ap.steady_median_ms = median(steady);
  ap.replan_per_step_median_ms = median(replan);
  ap.replan_cached_median_ms = median(cached);
  ap.amortized = ap.steady_median_ms <= 0.75 * ap.replan_per_step_median_ms;
  std::printf("amortize   pencil %d^3/%d (%s)  setup %.3f ms  first step "
              "%.3f ms  steady %.3f ms  replan/step %.3f ms  replan+cache "
              "%.3f ms -> %s\n",
              ap.grid, ap.nranks, ap.planned_backend.c_str(), ap.setup_ms,
              ap.first_step_ms, ap.steady_median_ms,
              ap.replan_per_step_median_ms, ap.replan_cached_median_ms,
              ap.amortized ? "PASS" : "FAIL");
  return ap;
}

void write_json(const std::string& path, int reps,
                const std::vector<CaseResult>& cases,
                const std::vector<ResizePoint>& resize,
                const PeakPoint& peak,
                const std::vector<SweepPoint>& sweep,
                const MixedPoint& mixed, const AmortizePoint& amortize) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(2);
  }
  std::fprintf(f, "{\n  \"bench\": \"redistribute\",\n  \"reps\": %d,\n"
                  "  \"cases\": [\n", reps);
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const CaseResult& cr = cases[c];
    std::fprintf(f,
                 "    {\n      \"name\": \"%s\",\n      \"ranks\": %d,\n"
                 "      \"rounds\": %d,\n"
                 "      \"network_bytes_per_call\": %lld,\n"
                 "      \"self_bytes_per_call\": %lld,\n",
                 cr.name.c_str(), cr.nranks, cr.rounds,
                 static_cast<long long>(cr.network_bytes_per_call),
                 static_cast<long long>(cr.self_bytes_per_call));
    if (cr.has_analytic)
      std::fprintf(f,
                   "      \"analytic\": {\"network_bytes\": %lld, "
                   "\"self_bytes\": %lld, \"total_bytes\": %lld, "
                   "\"messages\": %lld, \"rounds\": %d},\n",
                   static_cast<long long>(cr.analytic.network_bytes),
                   static_cast<long long>(cr.analytic.self_bytes),
                   static_cast<long long>(cr.analytic.total_bytes),
                   static_cast<long long>(cr.analytic.messages),
                   cr.analytic.rounds);
    std::fprintf(f, "      \"configs\": [\n");
    for (std::size_t k = 0; k < cr.configs.size(); ++k) {
      const ConfigResult& cf = cr.configs[k];
      if (!cf.planned_backend.empty())
        std::fprintf(f, "        {\"name\": \"%s\", \"planned_backend\": "
                        "\"%s\", \"median_ms\": %.6f, ",
                     cf.name.c_str(), cf.planned_backend.c_str(),
                     cf.median_ms);
      else
        std::fprintf(f, "        {\"name\": \"%s\", \"median_ms\": %.6f, ",
                     cf.name.c_str(), cf.median_ms);
      std::fprintf(f,
                   "\"p95_ms\": %.6f, \"messages_per_call\": %.2f, "
                   "\"staging_acquires_steady\": %llu, "
                   "\"staging_heap_allocs_steady\": %llu, "
                   "\"trace\": {\"events\": %llu, \"data_msgs\": %llu, "
                   "\"send_bytes\": %lld, \"spans_balanced\": %s}}%s\n",
                   cf.p95_ms, cf.messages_per_call,
                   static_cast<unsigned long long>(cf.staging_acquires_steady),
                   static_cast<unsigned long long>(
                       cf.staging_heap_allocs_steady),
                   static_cast<unsigned long long>(cf.trace_events),
                   static_cast<unsigned long long>(cf.trace_data_msgs),
                   static_cast<long long>(cf.trace_send_bytes),
                   cf.trace_spans_balanced ? "true" : "false",
                   k + 1 < cr.configs.size() ? "," : "");
    }
    std::fprintf(f,
                 "      ],\n      \"planner\": {\"automatic_median_ms\": "
                 "%.6f, \"best_config\": \"%s\", \"best_median_ms\": %.6f, "
                 "\"within_tolerance\": %s}\n    }%s\n",
                 cr.automatic_median_ms, cr.best_config.c_str(),
                 cr.best_median_ms,
                 cr.automatic_within_tolerance ? "true" : "false",
                 c + 1 < cases.size() ? "," : "");
  }
  // Every block below is optional (skipped blocks are simply absent): a
  // filtered smoke run carries only what it measured.
  std::fprintf(f, "  ]");
  if (peak.budget != 0)
    std::fprintf(f,
                 ",\n  \"peak_staging\": {\"case\": \"bcast3d\", "
                 "\"budget_bytes\": %zu, \"waves\": %d, "
                 "\"network_bytes_per_call\": %lld, \"fused_peak_bytes\": "
                 "%llu, \"collective_peak_bytes\": %llu, "
                 "\"fused_median_ms\": %.6f, \"collective_median_ms\": %.6f}",
                 peak.budget, peak.waves,
                 static_cast<long long>(peak.network_bytes_per_call),
                 static_cast<unsigned long long>(peak.peak_fused),
                 static_cast<unsigned long long>(peak.peak_collective),
                 peak.fused_median_ms, peak.collective_median_ms);
  if (!resize.empty()) {
    std::fprintf(f, ",\n  \"resize\": [\n");
    for (std::size_t i = 0; i < resize.size(); ++i) {
      const ResizePoint& rp = resize[i];
      std::fprintf(f,
                   "    {\"from\": %d, \"to\": %d, \"wall_ms\": %.6f, "
                   "\"total_bytes\": %lld, \"kept_bytes\": %lld, "
                   "\"moved_bytes\": %lld, \"naive_bytes\": %lld, "
                   "\"proposal_moved_flat\": %lld, "
                   "\"proposal_moved_node_aware\": %lld}%s\n",
                   rp.from, rp.to, rp.wall_ms,
                   static_cast<long long>(rp.total_bytes),
                   static_cast<long long>(rp.kept_bytes),
                   static_cast<long long>(rp.moved_bytes),
                   static_cast<long long>(rp.naive_bytes),
                   static_cast<long long>(rp.proposal_moved_flat),
                   static_cast<long long>(rp.proposal_moved_aware),
                   i + 1 < resize.size() ? "," : "");
    }
    std::fprintf(f, "  ]");
  }
  if (!sweep.empty()) {
    std::fprintf(f, ",\n  \"ranks_sweep\": [\n");
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const SweepPoint& sp = sweep[i];
      std::fprintf(f,
                   "    {\"ranks\": %d, \"redistributions\": %d, "
                   "\"flat_makespan_s\": %.6f, \"twolevel_makespan_s\": %.6f, "
                   "\"intra_lanes\": %lld}%s\n",
                   sp.ranks, sp.reps, sp.flat_makespan_s,
                   sp.twolevel_makespan_s,
                   static_cast<long long>(sp.intra_lanes),
                   i + 1 < sweep.size() ? "," : "");
    }
    std::fprintf(f, "  ]");
  }
  if (mixed.ran)
    std::fprintf(f,
                 ",\n  \"mixed\": {\"ranks\": %d, \"budget_bytes\": %zu, "
                 "\"hybrid_waves\": %d, \"intra_lanes\": %lld, "
                 "\"fused_makespan_s\": %.6f, \"pipelined_makespan_s\": "
                 "%.6f, \"collective_makespan_s\": %.6f, "
                 "\"hybrid_makespan_s\": %.6f, \"automatic_makespan_s\": "
                 "%.6f, \"automatic_backend\": \"%s\", \"best_config\": "
                 "\"%s\", \"best_makespan_s\": %.6f, \"within_tolerance\": "
                 "%s}",
                 mixed.ranks, mixed.budget, mixed.hybrid_waves,
                 static_cast<long long>(mixed.intra_lanes),
                 mixed.fused_makespan_s, mixed.pipelined_makespan_s,
                 mixed.collective_makespan_s, mixed.hybrid_makespan_s,
                 mixed.automatic_makespan_s, mixed.automatic_backend.c_str(),
                 mixed.best_config.c_str(), mixed.best_makespan_s,
                 mixed.hybrid_within_tolerance && mixed.automatic_chose_hybrid
                     ? "true"
                     : "false");
  if (amortize.ran)
    std::fprintf(f,
                 ",\n  \"amortize\": {\"case\": \"pencil\", \"grid\": %d, "
                 "\"ranks\": %d, \"steps\": %d, \"replan_iters\": %d, "
                 "\"planned_backend\": \"%s\", \"setup_ms\": %.6f, "
                 "\"first_step_ms\": %.6f, \"steady_median_ms\": %.6f, "
                 "\"replan_per_step_median_ms\": %.6f, "
                 "\"replan_cached_median_ms\": %.6f, \"cache_hits\": %llu, "
                 "\"cache_misses\": %llu, \"amortized\": %s}",
                 amortize.grid, amortize.nranks, amortize.steps,
                 amortize.iters, amortize.planned_backend.c_str(),
                 amortize.setup_ms, amortize.first_step_ms,
                 amortize.steady_median_ms,
                 amortize.replan_per_step_median_ms,
                 amortize.replan_cached_median_ms,
                 static_cast<unsigned long long>(amortize.cache_hits),
                 static_cast<unsigned long long>(amortize.cache_misses),
                 amortize.amortized ? "true" : "false");
  std::fprintf(f, "\n}\n");
  std::fclose(f);
}

}  // namespace

int main() {
  const int reps = env_int("DDR_BENCH_REPS", 60);
  const char* out_env = std::getenv("DDR_BENCH_OUT");
  const std::string out = out_env != nullptr ? out_env
                                             : "BENCH_redistribute.json";

  const CaseSetup cases_setup[] = {
      {"strided3d", 4, strided3d_owned, strided3d_needed},
      {"rows2d", 4, rows2d_owned, rows2d_needed},
      {"bcast3d", 4, bcast3d_owned, bcast3d_needed},
      {"pencil", 4, pencil_owned, pencil_needed},
      {"reshard", 8, reshard_owned, reshard_needed},
  };
  const bool full_run = std::getenv("DDR_BENCH_CASES") == nullptr ||
                        *std::getenv("DDR_BENCH_CASES") == '\0';

  std::vector<CaseResult> results;
  bool alloc_clean = true;
  bool planner_competitive = true;
  bool accounting_exact = true;
  for (const CaseSetup& cs : cases_setup) {
    if (!case_enabled(cs.name)) continue;
    CaseResult cr;
    cr.name = cs.name;
    cr.nranks = cs.nranks;
    if (cs.name == "pencil") {
      cr.has_analytic = true;
      cr.analytic = pencil_gen().accounting(workloads::Stage::slab,
                                            workloads::Stage::pencil_y);
    } else if (cs.name == "reshard") {
      cr.has_analytic = true;
      cr.analytic = reshard_suite().accounting();
    }
    cr.configs.push_back(run_config(cs, "legacy_alltoallw", false,
                                    ddr::Backend::alltoallw, reps, cr));
    cr.configs.push_back(run_config(cs, "compiled_alltoallw", true,
                                    ddr::Backend::alltoallw, reps, cr));
    cr.configs.push_back(run_config(cs, "compiled_p2p", true,
                                    ddr::Backend::point_to_point, reps, cr));
    cr.configs.push_back(run_config(cs, "compiled_p2p_fused", true,
                                    ddr::Backend::point_to_point_fused, reps,
                                    cr));
    cr.configs.push_back(run_config(cs, "compiled_p2p_pipelined", true,
                                    ddr::Backend::point_to_point_pipelined,
                                    reps, cr));
    cr.configs.push_back(run_config(cs, "automatic", true,
                                    ddr::Backend::automatic, reps, cr));
    for (const ConfigResult& cf : cr.configs)
      if (cf.staging_heap_allocs_steady != 0) alloc_clean = false;

    // Workload-accounting exit gate: the closed-form accounting, the
    // mapping machinery's MappingStats and the traced bytes of one call
    // must agree EXACTLY, on every config that traced anything.
    if (cr.has_analytic) {
      if (cr.network_bytes_per_call != cr.analytic.network_bytes ||
          cr.self_bytes_per_call != cr.analytic.self_bytes) {
        std::fprintf(stderr,
                     "%s: analytic accounting (network %lld, self %lld) != "
                     "MappingStats (network %lld, self %lld)\n",
                     cs.name.c_str(),
                     static_cast<long long>(cr.analytic.network_bytes),
                     static_cast<long long>(cr.analytic.self_bytes),
                     static_cast<long long>(cr.network_bytes_per_call),
                     static_cast<long long>(cr.self_bytes_per_call));
        accounting_exact = false;
      }
      for (const ConfigResult& cf : cr.configs)
        if (cf.trace_events != 0 &&
            cf.trace_send_bytes != cr.analytic.network_bytes) {
          std::fprintf(stderr,
                       "%s/%s: traced %lld bytes, analytic %lld\n",
                       cs.name.c_str(), cf.name.c_str(),
                       static_cast<long long>(cf.trace_send_bytes),
                       static_cast<long long>(cr.analytic.network_bytes));
          accounting_exact = false;
        }
    }

    if (!run_planner_gate(cs, reps, cr)) planner_competitive = false;
    results.push_back(std::move(cr));
  }
  mpi::Datatype::set_plan_enabled(true);

  std::vector<ResizePoint> resize;
  bool resize_minimizing = true;
  bool resize_node_aware_ok = true;
  PeakPoint peak;
  bool peak_reduced = true;
  std::vector<SweepPoint> sweep;
  if (full_run) {
    resize.push_back(run_resize_point(8, 12));
    resize.push_back(run_resize_point(16, 8));
    for (const ResizePoint& rp : resize) {
      if (rp.moved_bytes * 2 > rp.naive_bytes) resize_minimizing = false;
      if (rp.proposal_moved_aware > rp.proposal_moved_flat)
        resize_node_aware_ok = false;
    }

    peak = run_peak_point(std::min(reps, 20));
    peak_reduced = peak.peak_collective * 2 <= peak.peak_fused;

    for (const int n : {4, 8, 16, 64}) sweep.push_back(run_sweep_point(n, 10));
  }

  MixedPoint mixed;
  if (full_run || case_enabled("mixed"))
    mixed = run_mixed_point(std::min(reps, 30));
  AmortizePoint amortize;
  if (full_run || case_enabled("amortize"))
    amortize = run_amortize_point(std::min(reps, 30));

  write_json(out, reps, results, resize, peak, sweep, mixed, amortize);
  std::printf("wrote %s\n", out.c_str());

  if (!planner_competitive) {
    std::fprintf(stderr,
                 "FAIL: the automatic planner's median exceeded the best "
                 "hand-picked backend by more than 5%% + 0.010 ms on some "
                 "case (see the planner blocks)\n");
    return 1;
  }

  if (!peak_reduced) {
    std::fprintf(stderr,
                 "FAIL: the budgeted collective sequence did not at least "
                 "halve the fused backend's measured peak staging (see the "
                 "peak_staging block)\n");
    return 1;
  }

  if (!resize_minimizing) {
    std::fprintf(stderr,
                 "FAIL: a resize moved more than half of what the naive "
                 "re-scatter would (see the resize block)\n");
    return 1;
  }

  if (!resize_node_aware_ok) {
    std::fprintf(stderr,
                 "FAIL: the node-aware resize proposal moved MORE bytes than "
                 "the topology-blind one on a resize shape — the donation "
                 "permutation regressed total movement (see the resize "
                 "block)\n");
    return 1;
  }

  if (mixed.ran && !(mixed.hybrid_within_tolerance &&
                     mixed.automatic_chose_hybrid)) {
    std::fprintf(stderr,
                 "FAIL: the hybrid composition missed the mixed-locality "
                 "gate — either its charged makespan exceeded the best "
                 "budget-respecting single backend's by more than 5%%, or "
                 "automatic under the staging budget resolved to %s instead "
                 "of hybrid (see the mixed block)\n",
                 mixed.automatic_backend.c_str());
    return 1;
  }

  if (amortize.ran && !amortize.amortized) {
    std::fprintf(stderr,
                 "FAIL: steady-state pencil stepping (%.3f ms) did not land "
                 "at or below 0.75x the decide-per-step median (%.3f ms) — "
                 "plan reuse is not amortizing setup (see the amortize "
                 "block)\n",
                 amortize.steady_median_ms,
                 amortize.replan_per_step_median_ms);
    return 1;
  }

  if (!alloc_clean) {
    std::fprintf(stderr,
                 "FAIL: steady-state redistribute() allocated staging "
                 "buffers on the heap (see staging_heap_allocs_steady)\n");
    return 1;
  }

  if (!accounting_exact) {
    std::fprintf(stderr,
                 "FAIL: a workload case's closed-form analytic accounting "
                 "disagreed with the measured MappingStats or the traced "
                 "bytes (see the analytic blocks)\n");
    return 1;
  }
  return 0;
}
