// ddrinfo — inspect a DDR redistribution layout without running it.
//
// Reads a layout description (see ddr/textio.hpp for the format) from a file
// or stdin, validates the paper's send-side contract, and prints the
// communication schedule: rounds, per-rank/per-round data volumes (the
// Table III quantities), peer counts, and optionally every transfer.
//
// Usage:
//   ddrinfo [-t] [-e] [--validate] [--cost] [--plan] [--budget BYTES]
//           [--ranks-per-node N] [--trace out.json] [layout.txt]
//     -t          list every (sender -> receiver) transfer
//     -e          echo the normalized layout back (round-trip check)
//     --validate  check the layout against the paper's send-side contract
//                 and print rank/chunk detail for every violation; exits
//                 nonzero when the contract does not hold
//     --cost      compile every rank's transfer plans and print per-rank
//                 message counts, payload bytes, compiled plan segment and
//                 run-compressed quad totals for the plain per-round p2p
//                 backend and the fused per-peer backend side by side, plus
//                 the lane program's per-rank receive-window depth,
//                 each fused lane's locality class (self/intra/inter), and
//                 the planner's per-candidate self/intra/inter byte split
//                 (the same ddr::Planner numbers --plan decides from, so
//                 the two views reconcile by construction)
//     --plan      run the cost-model planner (ddr::Planner) over the layout
//                 and print its decision — chosen backend, collective shape,
//                 wave schedule — plus a per-candidate table of
//                 predicted vs MEASURED cost: each candidate backend is
//                 actually executed under the threaded runtime and its
//                 median wall-clock (or virtual makespan when a link model
//                 is installed via --ranks-per-node > 1) and measured peak
//                 staging are printed next to the predictions
//     --budget BYTES
//                 peak-staging budget handed to the planner and to every
//                 measured run (SetupOptions::peak_staging_bytes): bounds
//                 the collective-sequence wave payloads and marks
//                 over-budget candidates infeasible
//     --ranks-per-node N
//                 node topology for the --cost locality classes and the
//                 --plan cost model: consecutive ranks share a node in
//                 groups of N (the blocked placement simnet::LinkModel
//                 models). Default 1: every rank is its own node, so every
//                 non-self lane is inter-node and --plan prices with the
//                 calibrated software constants. With N > 1 a Cooley-preset
//                 simnet::LinkModel drives both the planner and the
//                 measured runs' virtual clocks.
//     --trace F   actually run one redistribute() per backend (alltoallw,
//                 p2p, fused, pipelined) under the threaded runtime with
//                 tracing on, write the merged Chrome-trace JSON to F (load
//                 it at https://ui.perfetto.dev), and print per-backend
//                 message and byte totals (comparable to --cost)
//     --workload pencil|reshard
//                 generate the layout from the src/workloads suite instead
//                 of reading a file: `pencil` emits the slab -> y-pencil FFT
//                 transpose pair, `reshard` a seeded random SPMD
//                 sharding -> sharding change. Composes with every mode
//                 above (--cost/--plan/--trace/--validate/-e/-t); with -e
//                 the echoed fixture is prefixed by '#' comment lines
//                 carrying the workload's closed-form analytic accounting,
//                 so the emitted file stays parseable and self-describing.
//     --grid XxYxZ   workload grid / tensor extents     (default 16x16x16)
//     --nranks N     workload rank count                (default 4)
//     --seed S       reshard sampler seed               (default 1)
//
// Example input (the paper's E1):
//   ndims 2
//   elem 4
//   rank own 8x1@0,0 own 8x1@0,4 need 4x4@0,0
//   rank own 8x1@0,1 own 8x1@0,5 need 4x4@4,0
//   rank own 8x1@0,2 own 8x1@0,6 need 4x4@0,4
//   rank own 8x1@0,3 own 8x1@0,7 need 4x4@4,4

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <vector>

#include "ddr/ddr.hpp"
#include "ddr/planner.hpp"
#include "ddr/textio.hpp"
#include "minimpi/runtime.hpp"
#include "simnet/models.hpp"
#include "trace/trace.hpp"
#include "workloads/workloads.hpp"

namespace {

void print_usage() {
  std::fprintf(stderr,
               "usage: ddrinfo [-t] [-e] [--validate] [--cost] [--plan] "
               "[--budget BYTES] [--ranks-per-node N] [--trace out.json] "
               "[--workload pencil|reshard [--grid XxYxZ] [--nranks N] "
               "[--seed S]] [layout.txt]\n");
}

/// Builds the LayoutSpec for --workload NAME and the '#' comment header the
/// -e fixture emission carries (one string, newline-terminated lines).
ddr::LayoutSpec make_workload(const std::string& name, int gx, int gy, int gz,
                              int nranks, unsigned seed, std::string* header) {
  ddr::LayoutSpec spec;
  spec.ndims = 3;
  spec.elem_size = sizeof(float);
  char line[256];
  if (name == "pencil") {
    const workloads::PencilTranspose gen(
        workloads::PencilParams{gx, gy, gz, nranks, sizeof(float)});
    spec.layout = gen.transpose_layout(workloads::Stage::slab,
                                       workloads::Stage::pencil_y);
    const workloads::Accounting a =
        gen.accounting(workloads::Stage::slab, workloads::Stage::pencil_y);
    std::snprintf(line, sizeof(line),
                  "# workload pencil %dx%dx%d over %d ranks (process grid "
                  "%dx%d): slab -> pencil_y\n",
                  gx, gy, gz, nranks, gen.p1(), gen.p2());
    *header = line;
    std::snprintf(line, sizeof(line),
                  "# analytic: network %lld B, self %lld B, messages %lld, "
                  "rounds %d\n",
                  static_cast<long long>(a.network_bytes),
                  static_cast<long long>(a.self_bytes),
                  static_cast<long long>(a.messages), a.rounds);
    *header += line;
    return spec;
  }
  if (name == "reshard") {
    workloads::ReshardSampler sampler(seed, nranks, 3, {gx, gy, gz},
                                      sizeof(float));
    const workloads::ReshardParams p = sampler.next();
    const workloads::ReshardSuite suite(p);
    spec.layout = suite.layout();
    const workloads::Accounting a = suite.accounting();
    std::snprintf(line, sizeof(line),
                  "# workload reshard %dx%dx%d over %d ranks, seed %u\n", gx,
                  gy, gz, nranks, seed);
    *header = line;
    std::snprintf(line, sizeof(line), "# src: %s\n# dst: %s\n",
                  p.src.describe(p.ndims).c_str(),
                  p.dst.describe(p.ndims).c_str());
    *header += line;
    std::snprintf(line, sizeof(line),
                  "# analytic: network %lld B, self %lld B, messages %lld, "
                  "rounds %d\n",
                  static_cast<long long>(a.network_bytes),
                  static_cast<long long>(a.self_bytes),
                  static_cast<long long>(a.messages), a.rounds);
    *header += line;
    return spec;
  }
  throw ddr::Error("unknown --workload '" + name +
                   "' (expected pencil or reshard)");
}

const char* shape_name(ddr::CollectiveShape s) {
  switch (s) {
    case ddr::CollectiveShape::none:
      return "none";
    case ddr::CollectiveShape::allgather:
      return "allgather";
    case ddr::CollectiveShape::scatter:
      return "scatter";
    case ddr::CollectiveShape::gather:
      return "gather";
  }
  return "unknown";
}

/// Detailed check of the paper's send-side contract: owned chunks must be
/// mutually exclusive and complete, and every needed chunk must be
/// satisfiable from the owned side. Prints one line per violation with the
/// ranks and chunk indices involved; returns the process exit code.
int run_validate(const ddr::LayoutSpec& spec) {
  const ddr::GlobalLayout& layout = spec.layout;
  const ddr::Box domain = layout.domain();
  std::printf("layout: %d ranks, %dD, %zu-byte elements\n", layout.nranks(),
              spec.ndims, spec.elem_size);
  std::printf("domain: %s (%lld elements)\n", domain.describe().c_str(),
              static_cast<long long>(domain.volume()));

  std::int64_t owned_volume = 0;
  for (int r = 0; r < layout.nranks(); ++r) {
    std::int64_t ov = 0, nv = 0;
    for (const ddr::Chunk& c : layout.owned[static_cast<std::size_t>(r)])
      ov += c.volume();
    for (const ddr::Chunk& c : layout.needed[static_cast<std::size_t>(r)])
      nv += c.volume();
    owned_volume += ov;
    std::printf("rank %d: owns %zu chunk(s) (%lld elements), needs %zu "
                "chunk(s) (%lld elements)\n",
                r, layout.owned[static_cast<std::size_t>(r)].size(),
                static_cast<long long>(ov),
                layout.needed[static_cast<std::size_t>(r)].size(),
                static_cast<long long>(nv));
  }

  // Mutual exclusivity: no two owned chunks anywhere may share an element.
  int overlaps = 0;
  for (int a = 0; a < layout.nranks(); ++a) {
    const auto& achunks = layout.owned[static_cast<std::size_t>(a)];
    for (std::size_t i = 0; i < achunks.size(); ++i) {
      for (int b = a; b < layout.nranks(); ++b) {
        const auto& bchunks = layout.owned[static_cast<std::size_t>(b)];
        for (std::size_t j = (b == a ? i + 1 : 0); j < bchunks.size(); ++j) {
          const ddr::Box shared =
              ddr::intersect(achunks[i].box(), bchunks[j].box());
          if (shared.volume() == 0) continue;
          ++overlaps;
          std::printf("overlap: rank %d own #%zu %s and rank %d own #%zu %s "
                      "share %s (%lld elements)\n",
                      a, i, achunks[i].describe().c_str(), b, j,
                      bchunks[j].describe().c_str(), shared.describe().c_str(),
                      static_cast<long long>(shared.volume()));
        }
      }
    }
  }

  // Completeness: with no overlaps, the owned volumes must sum to exactly
  // the domain volume or some element has no owner.
  const std::int64_t missing =
      overlaps == 0 ? domain.volume() - owned_volume : 0;
  if (missing > 0)
    std::printf("hole: owned chunks cover %lld of the domain's %lld elements "
                "(%lld have no owner)\n",
                static_cast<long long>(owned_volume),
                static_cast<long long>(domain.volume()),
                static_cast<long long>(missing));

  // Satisfiability: a needed chunk reaching outside every owned chunk can
  // never be filled by the exchange.
  int unsatisfiable = 0;
  for (int r = 0; r < layout.nranks(); ++r) {
    const auto& nchunks = layout.needed[static_cast<std::size_t>(r)];
    for (std::size_t j = 0; j < nchunks.size(); ++j) {
      std::int64_t covered = 0;
      for (const auto& rank_chunks : layout.owned)
        for (const ddr::Chunk& o : rank_chunks)
          covered += ddr::intersect(nchunks[j].box(), o.box()).volume();
      // With an exclusive owned side `covered` counts each element once.
      // An overlapping owned side can double-count and mask a gap here,
      // but that layout already failed the exclusivity check above.
      covered = covered < nchunks[j].volume() ? covered : nchunks[j].volume();
      if (covered >= nchunks[j].volume()) continue;
      ++unsatisfiable;
      std::printf("unsatisfiable: rank %d need #%zu %s — %lld of %lld "
                  "elements lie outside every owned chunk\n",
                  r, j, nchunks[j].describe().c_str(),
                  static_cast<long long>(nchunks[j].volume() - covered),
                  static_cast<long long>(nchunks[j].volume()));
    }
  }

  if (overlaps == 0 && missing == 0 && unsatisfiable == 0) {
    std::printf("validate: PASS (send-side contract holds)\n");
    return 0;
  }
  std::printf("validate: FAIL (%d overlap(s), %s, %d unsatisfiable need(s))\n",
              overlaps, missing > 0 ? "holes present" : "no holes",
              unsatisfiable);
  return 1;
}

/// Compiles every rank's transfer plans (exactly what Redistributor::setup
/// builds) and prints what one redistribute() call costs each rank under the
/// plain per-round p2p backend versus the fused per-peer backend: messages
/// posted, payload bytes, total compiled plan segments (contiguous runs
/// copied per call — see Datatype::plan_segment_count), and total
/// run-compressed plan quads (descriptors stored == copy-train kernel calls
/// per call — see Datatype::plan_quad_count). The trailing column is the
/// lane program's receive-window depth: how many per-peer lane receives the
/// fused and pipelined presets post up front (every round stitched per
/// peer) before any data moves.
/// After the table, each fused lane's locality class under a
/// `ranks_per_node`-blocked topology.
int run_cost(const ddr::LayoutSpec& spec, int ranks_per_node) {
  const ddr::GlobalLayout& layout = spec.layout;
  std::printf("layout: %d ranks, %dD, %zu-byte elements\n", layout.nranks(),
              spec.ndims, spec.elem_size);

  struct Cost {
    std::int64_t messages = 0;
    std::int64_t bytes = 0;
    std::int64_t segments = 0;
    std::int64_t quads = 0;
  };
  Cost plain_total, fused_total;
  std::int64_t depth_total = 0;
  std::printf("\nper-rank send cost (one redistribute() call):\n");
  std::printf("  %-5s | %-35s | %-35s | %s\n", "",
              "plain p2p (per round x peer)", "fused p2p (one msg per peer)",
              "lanes");
  std::printf("  %-5s | %8s %10s %8s %6s | %8s %10s %8s %6s | %6s\n", "rank",
              "msgs", "bytes", "segs", "quads", "msgs", "bytes", "segs",
              "quads", "depth");
  for (int r = 0; r < layout.nranks(); ++r) {
    const ddr::DataMapping m =
        ddr::build_mapping(layout, r, spec.elem_size);
    Cost plain, fused;
    std::int64_t depth = 0;
    for (const ddr::RoundPlan& rp : m.rounds) {
      for (std::size_t q = 0; q < rp.sendcounts.size(); ++q) {
        if (rp.sendcounts[q] <= 0) continue;
        const auto n = static_cast<std::int64_t>(rp.sendcounts[q]);
        if (static_cast<int>(q) != r) {
          plain.messages += 1;
          plain.bytes += n * static_cast<std::int64_t>(rp.sendtypes[q].size());
        }
        plain.segments +=
            n * static_cast<std::int64_t>(rp.sendtypes[q].plan_segment_count());
        plain.quads +=
            n * static_cast<std::int64_t>(rp.sendtypes[q].plan_quad_count());
      }
    }
    // Lane program receive window: one fused lane per peer this rank
    // receives from, all posted before the first send.
    for (const ddr::PeerLane& lane : m.fused_recv)
      if (lane.peer != r) ++depth;
    for (const ddr::PeerLane& lane : m.fused_send) {
      if (lane.peer != r) {
        fused.messages += 1;
        fused.bytes += lane.bytes;
      }
      fused.segments +=
          static_cast<std::int64_t>(lane.type.plan_segment_count());
      fused.quads += static_cast<std::int64_t>(lane.type.plan_quad_count());
    }
    std::printf(
        "  %-5d | %8lld %10lld %8lld %6lld | %8lld %10lld %8lld %6lld | "
        "%6lld\n",
        r, static_cast<long long>(plain.messages),
        static_cast<long long>(plain.bytes),
        static_cast<long long>(plain.segments),
        static_cast<long long>(plain.quads),
        static_cast<long long>(fused.messages),
        static_cast<long long>(fused.bytes),
        static_cast<long long>(fused.segments),
        static_cast<long long>(fused.quads), static_cast<long long>(depth));
    plain_total.messages += plain.messages;
    plain_total.bytes += plain.bytes;
    plain_total.segments += plain.segments;
    plain_total.quads += plain.quads;
    fused_total.messages += fused.messages;
    fused_total.bytes += fused.bytes;
    fused_total.segments += fused.segments;
    fused_total.quads += fused.quads;
    depth_total += depth;
  }
  std::printf(
      "  %-5s | %8lld %10lld %8lld %6lld | %8lld %10lld %8lld %6lld | "
      "%6lld\n",
      "total", static_cast<long long>(plain_total.messages),
      static_cast<long long>(plain_total.bytes),
      static_cast<long long>(plain_total.segments),
      static_cast<long long>(plain_total.quads),
      static_cast<long long>(fused_total.messages),
      static_cast<long long>(fused_total.bytes),
      static_cast<long long>(fused_total.segments),
      static_cast<long long>(fused_total.quads),
      static_cast<long long>(depth_total));
  std::printf("\nsegment totals count contiguous runs copied per pack "
              "(plan_segment_count); quad totals count run-compressed "
              "descriptors stored == copy-train kernel calls "
              "(plan_quad_count); depth is the lane program's up-front "
              "receive window; self lanes move zero-copy (no message) on all "
              "backends.\n");

  // Fused lane locality under a blocked topology: self lanes never message,
  // intra-node lanes move zero-copy through shared memory on the fused and
  // pipelined backends (two tiny control messages replace the payload), and
  // only inter-node lanes pack and pay the link.
  std::printf("\nfused lane locality (ranks_per_node=%d):\n", ranks_per_node);
  for (int r = 0; r < layout.nranks(); ++r) {
    const ddr::DataMapping m = ddr::build_mapping(layout, r, spec.elem_size);
    std::printf("  rank %d:", r);
    bool any = false;
    for (const ddr::PeerLane& lane : m.fused_send) {
      const char* cls = lane.peer == r ? "self"
                        : lane.peer / ranks_per_node == r / ranks_per_node
                            ? "intra"
                            : "inter";
      std::printf("%s ->%d %s%s", any ? "," : "", lane.peer, cls,
                  std::strcmp(cls, "inter") != 0 ? " (zero-copy)" : "");
      any = true;
    }
    std::printf("%s\n", any ? "" : " (no send lanes)");
  }

  // Planner's per-candidate byte split under the same blocked topology as
  // the locality section above. --cost's static accounting and --plan's
  // decision come from the same ddr::Planner call, so the self/intra/inter
  // partition printed here is exactly what the planner priced.
  simnet::LinkParams lp = simnet::cooley_params();
  lp.ranks_per_node = ranks_per_node;
  const simnet::LinkModel lm(lp);
  const ddr::PlanDecision d = ddr::Planner::decide(
      layout, spec.elem_size, ranks_per_node > 1 ? &lm : nullptr, 0);
  std::printf("\ncandidate byte split (ranks_per_node=%d):\n", ranks_per_node);
  std::printf("  %-26s %6s %10s %10s %10s %12s\n", "backend", "msgs", "self B",
              "intra B", "inter B", "pred peak B");
  for (const ddr::CandidateCost& c : d.candidates)
    std::printf("  %c %-24s %6lld %10lld %10lld %10lld %12zu\n",
                c.backend == d.backend ? '*' : ' ',
                ddr::backend_name(c.backend),
                static_cast<long long>(c.messages),
                static_cast<long long>(c.self_bytes),
                static_cast<long long>(c.intra_node_bytes),
                static_cast<long long>(c.inter_node_bytes),
                c.predicted_peak_staging);
  std::printf("  * = the backend --plan chooses here (shape %s); intra-node "
              "bytes move zero-copy on the fused flavours, so only inter-node "
              "bytes are packed and pay the link\n",
              shape_name(d.shape));
  return 0;
}

/// --plan: runs the cost-model planner over the layout, prints its decision,
/// then EXECUTES every candidate backend under the threaded runtime to put a
/// measured number next to each prediction. Without --ranks-per-node the
/// measurement is median host wall-clock per call (compare rankings, not
/// magnitudes — the predictions use the calibrated software constants); with
/// --ranks-per-node N > 1 a Cooley-preset simnet::LinkModel is installed and
/// both columns live in the same regime: predicted model cost vs the virtual
/// makespan the model's clocks actually charged. The measured peak column is
/// the staging pool's high-water mark (mpi::StagingStats::peak_live_bytes),
/// the quantity a --budget bounds.
int run_plan(const ddr::LayoutSpec& spec, int ranks_per_node,
             std::size_t budget) {
  const ddr::GlobalLayout& layout = spec.layout;
  const int nranks = layout.nranks();
  std::printf("layout: %d ranks, %dD, %zu-byte elements\n", nranks, spec.ndims,
              spec.elem_size);

  simnet::LinkParams lp = simnet::cooley_params();
  lp.ranks_per_node = ranks_per_node;
  const simnet::LinkModel lm(lp);
  const mpi::NetworkModel* net = ranks_per_node > 1 ? &lm : nullptr;

  const ddr::PlanDecision d =
      ddr::Planner::decide(layout, spec.elem_size, net, budget);

  if (net != nullptr)
    std::printf("\nplan (cooley link model, ranks_per_node=%d):\n",
                ranks_per_node);
  else
    std::printf("\nplan (software-regime constants; every rank its own "
                "node):\n");
  std::printf("  chosen backend   : %s\n", ddr::backend_name(d.backend));
  std::printf("  collective shape : %s\n", shape_name(d.shape));
  if (budget > 0)
    std::printf("  staging budget   : %zu B -> %d wave(s)\n", budget, d.waves);
  else
    std::printf("  staging budget   : unlimited -> %d wave(s)\n", d.waves);
  std::printf("  predicted        : %.3f ms/call, peak staging %zu B\n",
              d.predicted_s * 1e3, d.predicted_peak_staging);

  // The per-peer-class partition of the fused lane set and the lowering the
  // hybrid composition gives each class (self lanes count ranks with self
  // traffic; intra lanes ride the zero-copy pointer publication; inter
  // lanes run as the budgeted wave sequence).
  std::printf("\nper-peer-class partition (hybrid lowering, %d inter "
              "wave(s)):\n",
              d.hybrid_waves);
  std::printf("  %-6s %6s %12s %9s  %s\n", "class", "lanes", "bytes",
              "pred ms", "lowering");
  const char* cls_names[] = {"self", "intra", "inter"};
  for (std::size_t i = 0; i < d.class_plans.size() && i < 3; ++i) {
    const ddr::ClassPlan& cp = d.class_plans[i];
    std::printf("  %-6s %6lld %12lld %9.3f  %s\n", cls_names[i],
                static_cast<long long>(cp.lanes),
                static_cast<long long>(cp.bytes), cp.predicted_s * 1e3,
                cp.lowering);
  }

  const int reps = 15;
  struct Measured {
    double ms = 0.0;
    std::uint64_t peak = 0;
  };
  auto measure = [&](ddr::Backend b) {
    Measured out;
    std::vector<double> wall_ms;
    std::vector<double> vdelta(static_cast<std::size_t>(nranks), 0.0);
    mpi::RunOptions ro;
    ro.network = net;
    mpi::run(
        nranks,
        [&](mpi::Comm& comm) {
          const auto ri = static_cast<std::size_t>(comm.rank());
          ddr::Redistributor rd(comm, spec.elem_size);
          ddr::SetupOptions opt;
          opt.backend = b;
          opt.peak_staging_bytes = budget;
          opt.collective_error_agreement = false;
          rd.setup(layout.owned[ri], layout.needed[ri], opt);
          std::vector<std::byte> owned(rd.owned_bytes());
          std::vector<std::byte> needed(rd.needed_bytes());
          comm.barrier();
          rd.redistribute(owned, needed);  // warm the staging pool
          comm.barrier();
          const double c0 = comm.clock().now();
          for (int i = 0; i < reps; ++i) {
            comm.barrier();
            const auto t0 = std::chrono::steady_clock::now();
            rd.redistribute(owned, needed);
            const auto t1 = std::chrono::steady_clock::now();
            if (ri == 0)
              wall_ms.push_back(
                  std::chrono::duration<double, std::milli>(t1 - t0).count());
          }
          vdelta[ri] = comm.clock().now() - c0;
          comm.barrier();
          if (ri == 0) out.peak = comm.staging_stats().peak_live_bytes;
        },
        ro);
    if (net != nullptr) {
      // Virtual makespan per call (inter-rep barriers included): the same
      // quantity the model's clocks charge, directly comparable to the
      // planner's prediction under the same model.
      double mk = 0.0;
      for (const double x : vdelta) mk = std::max(mk, x);
      out.ms = mk / reps * 1e3;
    } else {
      std::sort(wall_ms.begin(), wall_ms.end());
      out.ms = wall_ms[wall_ms.size() / 2];
    }
    return out;
  };

  std::printf("\ncandidates (measured = %s over %d calls; peak = staging-pool "
              "high-water bytes):\n",
              net != nullptr ? "virtual makespan" : "median wall-clock", reps);
  std::printf("  %-26s %9s %9s %6s %10s %10s %12s %12s\n", "backend",
              "pred ms", "meas ms", "msgs", "inter B", "intra B", "pred peak",
              "meas peak");
  for (const ddr::CandidateCost& c : d.candidates) {
    const Measured m = measure(c.backend);
    std::printf("  %c %-24s %9.3f %9.3f %6lld %10lld %10lld %12zu %12llu%s\n",
                c.backend == d.backend ? '*' : ' ',
                ddr::backend_name(c.backend), c.predicted_s * 1e3, m.ms,
                static_cast<long long>(c.messages),
                static_cast<long long>(c.inter_node_bytes),
                static_cast<long long>(c.intra_node_bytes),
                c.predicted_peak_staging,
                static_cast<unsigned long long>(m.peak),
                c.feasible ? "" : "  (over budget)");
  }
  std::printf("\n* = chosen backend. Without a link model the predictions use "
              "calibrated software constants while measurements are host "
              "wall-clock: compare the ordering, not the magnitudes.\n");
  return 0;
}

/// Runs one traced setup() + redistribute() per backend under the threaded
/// runtime, merges every rank's event stream into one Chrome-trace JSON
/// (one trace "process" per backend, one thread row per rank), and prints
/// per-backend message/byte totals so the trace can be cross-checked against
/// the static --cost numbers.
int run_trace(const ddr::LayoutSpec& spec, const char* out_path) {
  const ddr::GlobalLayout& layout = spec.layout;
  const int nranks = layout.nranks();
  std::printf("layout: %d ranks, %dD, %zu-byte elements\n", nranks, spec.ndims,
              spec.elem_size);

  struct BackendRun {
    const char* name;
    ddr::Backend backend;
  };
  const BackendRun backends[] = {
      {"alltoallw", ddr::Backend::alltoallw},
      {"p2p", ddr::Backend::point_to_point},
      {"fused", ddr::Backend::point_to_point_fused},
      {"pipelined", ddr::Backend::point_to_point_pipelined},
  };

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "ddrinfo: cannot write %s\n", out_path);
    return 1;
  }
  trace::ChromeTraceWriter writer(out);

  std::printf("\ntraced redistribute() (one call per backend):\n");
  std::printf("  %-10s %8s %12s %8s\n", "backend", "msgs", "bytes", "events");
  int pid = 0;
  for (const BackendRun& b : backends) {
    std::vector<trace::Recorder> recorders;
    recorders.reserve(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) recorders.emplace_back(r);

    mpi::run(nranks, [&](mpi::Comm& comm) {
      const auto ri = static_cast<std::size_t>(comm.rank());
      ddr::Redistributor rd(comm, spec.elem_size);
      rd.trace_sink(&recorders[ri]);
      ddr::SetupOptions opt;
      opt.backend = b.backend;
      rd.setup(layout.owned[ri], layout.needed[ri], opt);
      std::vector<std::byte> owned(rd.owned_bytes());
      std::vector<std::byte> needed(rd.needed_bytes());
      rd.redistribute(owned, needed);
    });

    std::int64_t msgs = 0, bytes = 0;
    std::size_t events = 0;
    std::vector<const trace::Recorder*> recs;
    for (const trace::Recorder& r : recorders) {
      msgs += static_cast<std::int64_t>(trace::count_events(
          r.events(), "ddr.msg.send", trace::Phase::instant));
      bytes += trace::total_bytes(r.events(), "ddr.msg.send");
      events += r.events().size();
      recs.push_back(&r);
    }
    writer.add_process(pid++, std::string("ddr ") + b.name, recs);
    std::printf("  %-10s %8lld %12lld %8zu\n", b.name,
                static_cast<long long>(msgs), static_cast<long long>(bytes),
                events);
  }
  writer.finish();
  std::printf("\ntrace written to %s (load at https://ui.perfetto.dev)\n",
              out_path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool list_transfers = false;
  bool echo = false;
  bool validate = false;
  bool cost = false;
  bool plan = false;
  std::size_t budget = 0;
  int ranks_per_node = 1;
  const char* trace_path = nullptr;
  const char* path = nullptr;
  const char* workload = nullptr;
  int grid[3] = {16, 16, 16};
  int wl_ranks = 4;
  unsigned seed = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "-t") == 0) {
      list_transfers = true;
    } else if (std::strcmp(argv[i], "-e") == 0) {
      echo = true;
    } else if (std::strcmp(argv[i], "--validate") == 0) {
      validate = true;
    } else if (std::strcmp(argv[i], "--cost") == 0) {
      cost = true;
    } else if (std::strcmp(argv[i], "--plan") == 0) {
      plan = true;
    } else if (std::strcmp(argv[i], "--budget") == 0) {
      if (i + 1 >= argc) {
        print_usage();
        return 2;
      }
      char* end = nullptr;
      budget = std::strtoull(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0') {
        print_usage();
        return 2;
      }
    } else if (std::strcmp(argv[i], "--ranks-per-node") == 0) {
      if (i + 1 >= argc || (ranks_per_node = std::atoi(argv[++i])) < 1) {
        print_usage();
        return 2;
      }
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      if (i + 1 >= argc) {
        print_usage();
        return 2;
      }
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--workload") == 0) {
      if (i + 1 >= argc) {
        print_usage();
        return 2;
      }
      workload = argv[++i];
    } else if (std::strcmp(argv[i], "--grid") == 0) {
      if (i + 1 >= argc ||
          std::sscanf(argv[++i], "%dx%dx%d", &grid[0], &grid[1], &grid[2]) !=
              3 ||
          grid[0] < 1 || grid[1] < 1 || grid[2] < 1) {
        print_usage();
        return 2;
      }
    } else if (std::strcmp(argv[i], "--nranks") == 0) {
      if (i + 1 >= argc || (wl_ranks = std::atoi(argv[++i])) < 1) {
        print_usage();
        return 2;
      }
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      if (i + 1 >= argc) {
        print_usage();
        return 2;
      }
      seed = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (argv[i][0] == '-') {
      print_usage();
      return 2;
    } else {
      path = argv[i];
    }
  }

  ddr::LayoutSpec spec;
  std::string workload_header;
  try {
    if (workload != nullptr) {
      spec = make_workload(workload, grid[0], grid[1], grid[2], wl_ranks,
                           seed, &workload_header);
    } else if (path != nullptr) {
      std::ifstream in(path);
      if (!in) {
        std::fprintf(stderr, "ddrinfo: cannot open %s\n", path);
        return 1;
      }
      spec = ddr::parse_layout(in);
    } else {
      spec = ddr::parse_layout(std::cin);
    }
  } catch (const ddr::Error& e) {
    std::fprintf(stderr, "ddrinfo: %s\n", e.what());
    return 1;
  }

  if (echo) {
    std::fputs(workload_header.c_str(), stdout);
    std::fputs(ddr::format_layout(spec).c_str(), stdout);
    return 0;
  }
  if (!workload_header.empty()) std::fputs(workload_header.c_str(), stdout);

  if (validate) return run_validate(spec);

  if (cost) return run_cost(spec, ranks_per_node);

  if (plan) {
    try {
      return run_plan(spec, ranks_per_node, budget);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ddrinfo: %s\n", e.what());
      return 1;
    }
  }

  if (trace_path != nullptr) {
    try {
      return run_trace(spec, trace_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ddrinfo: %s\n", e.what());
      return 1;
    }
  }

  const ddr::GlobalLayout& layout = spec.layout;
  std::printf("layout: %d ranks, %dD, %zu-byte elements\n", layout.nranks(),
              spec.ndims, spec.elem_size);
  std::printf("domain: %s (%lld elements)\n", layout.domain().describe().c_str(),
              static_cast<long long>(layout.domain().volume()));

  const ddr::LayoutValidation v = ddr::validate_owned(layout);
  if (v.ok()) {
    std::printf("owned side: OK (mutually exclusive and complete)\n");
  } else {
    std::printf("owned side: INVALID — %s\n", v.detail.c_str());
  }

  const ddr::MappingStats s = ddr::compute_stats(layout, spec.elem_size);
  std::printf("\nschedule:\n");
  std::printf("  alltoallw rounds        : %d\n", s.rounds);
  std::printf("  bytes staying local     : %lld\n",
              static_cast<long long>(s.self_bytes));
  std::printf("  bytes crossing ranks    : %lld\n",
              static_cast<long long>(s.network_bytes));
  std::printf("  mean sent/rank          : %.1f B\n",
              s.mean_bytes_sent_per_rank);
  std::printf("  mean sent/rank/round    : %.1f B\n",
              s.mean_bytes_sent_per_rank_per_round);
  std::printf("  max sent by a rank in a round: %lld B\n",
              static_cast<long long>(s.max_bytes_sent_in_round));
  std::printf("  mean send peers/rank    : %.2f (of %d)\n", s.mean_send_peers,
              layout.nranks() - 1);
  std::printf("  cross-rank transfers    : %lld (dense lanes: %lld)\n",
              static_cast<long long>(s.transfer_count),
              static_cast<long long>(layout.nranks()) *
                  (layout.nranks() - 1) * s.rounds);

  if (list_transfers) {
    std::printf("\ntransfers (round: sender -> receiver region bytes):\n");
    for (const ddr::Transfer& t :
         ddr::enumerate_transfers(layout, spec.elem_size)) {
      std::printf("  r%d: %d -> %d%s %s %lld B%s\n", t.round, t.sender,
                  t.receiver,
                  t.needed_index > 0
                      ? (" (need#" + std::to_string(t.needed_index) + ")").c_str()
                      : "",
                  t.region.describe().c_str(),
                  static_cast<long long>(t.bytes),
                  t.sender == t.receiver ? " [local]" : "");
    }
  }
  return 0;
}
