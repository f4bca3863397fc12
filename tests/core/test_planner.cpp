// ddr::Planner tests: golden PlanDecision pins for the bench fixtures (the
// planner must reproduce the measured winners), the collective-sequence wave
// scheduler, the budget-forced collective lowering, and property tests that
// the lowered allgather/scatter wave sequence is byte-identical to plain
// point-to-point on random layouts while keeping the staging pool's peak
// under the requested budget.

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <span>
#include <vector>

#include "ddr/ddr.hpp"
#include "ddr/planner.hpp"
#include "minimpi/minimpi.hpp"
#include "simnet/models.hpp"
#include "test_util.hpp"

namespace {

using ddr::Backend;
using ddr::Box;
using ddr::Chunk;
using ddr_test::box_to_chunk;
using ddr_test::fill_chunk;
using ddr_test::oracle_value;
using ddr_test::random_partition;
using ddr_test::random_subbox;

// The JSON bench's strided3d case: 4 ranks, 64^3 floats, 8 interleaved
// z-slabs per rank, gathered into 2x2x1 bricks — 96 plain messages vs 12
// fused 64 KB lanes. Measured: fused (== pipelined) < p2p.
ddr::GlobalLayout strided3d_layout() {
  const int side = 64, nranks = 4, slabs = 8;
  ddr::GlobalLayout layout;
  for (int r = 0; r < nranks; ++r) {
    ddr::OwnedLayout own;
    for (int c = 0; c < slabs; ++c)
      own.push_back(Chunk::d3(side, side, 2, 0, 0, (r + nranks * c) * 2));
    layout.owned.push_back(own);
    layout.needed.push_back(
        {Chunk::d3(32, 32, side, (r % 2) * 32, (r / 2) * 32, 0)});
  }
  return layout;
}

// The JSON bench's rows2d case: 4 ranks, two 128x16 row blocks each,
// gathered into 64x64 quadrants — 12 plain messages AND 12 fused 16 KB
// lanes, so fusion saves nothing. Measured: plain p2p wins.
ddr::GlobalLayout rows2d_layout() {
  ddr::GlobalLayout layout;
  for (int r = 0; r < 4; ++r) {
    layout.owned.push_back({Chunk::d2(128, 16, 0, 16 * r),
                            Chunk::d2(128, 16, 0, 16 * (r + 4))});
    layout.needed.push_back(
        {Chunk::d2(64, 64, 64 * (r % 2), 64 * (r / 2))});
  }
  return layout;
}

// Broadcast shape: every rank needs the identical full domain, so the
// exchange is an allgather of the per-rank z-slabs.
ddr::GlobalLayout bcast3d_layout(int side) {
  const int nranks = 4;
  const int slab = side / nranks;
  ddr::GlobalLayout layout;
  for (int r = 0; r < nranks; ++r) {
    layout.owned.push_back({Chunk::d3(side, side, slab, 0, 0, slab * r)});
    layout.needed.push_back({Chunk::d3(side, side, side, 0, 0, 0)});
  }
  return layout;
}

TEST(PlannerGolden, Strided3dPicksPipelined) {
  const ddr::GlobalLayout layout = strided3d_layout();
  const ddr::PlanDecision d =
      ddr::Planner::decide(layout, sizeof(float), nullptr, 0);
  EXPECT_EQ(d.backend, Backend::point_to_point_pipelined);
  EXPECT_EQ(d.shape, ddr::CollectiveShape::none);
  EXPECT_EQ(d.waves, 1);
  // Packing is always serial on the rank thread.
  EXPECT_EQ(d.pack_threads, 0);
  ASSERT_EQ(d.candidates.size(), 6u);
  for (const ddr::CandidateCost& c : d.candidates) {
    // Without a NetworkModel every peer is a different node: hybrid has no
    // intra lanes to exploit and is marked infeasible; every other backend
    // stays feasible and the decision is identical to the pre-hybrid one.
    if (c.backend == Backend::hybrid)
      EXPECT_FALSE(c.feasible);
    else
      EXPECT_TRUE(c.feasible) << ddr::backend_name(c.backend);
    EXPECT_EQ(c.inter_node_bytes, 786432) << ddr::backend_name(c.backend);
    EXPECT_EQ(c.intra_node_bytes, 0) << ddr::backend_name(c.backend);
  }
}

TEST(PlannerGolden, Rows2dPicksPlainP2p) {
  const ddr::PlanDecision d =
      ddr::Planner::decide(rows2d_layout(), sizeof(float), nullptr, 0);
  EXPECT_EQ(d.backend, Backend::point_to_point);
  EXPECT_EQ(d.pack_threads, 0);
  EXPECT_EQ(d.shape, ddr::CollectiveShape::none);
}

TEST(PlannerGolden, BroadcastShapeDetectedAsAllgather) {
  const ddr::PlanDecision d =
      ddr::Planner::decide(bcast3d_layout(32), sizeof(float), nullptr, 0);
  EXPECT_EQ(d.shape, ddr::CollectiveShape::allgather);
}

TEST(PlannerGolden, ScatterAndGatherShapes) {
  // One owner feeding per-rank slices: scatter. The transpose: gather.
  ddr::GlobalLayout scatter;
  scatter.owned = {{Chunk::d1(16, 0)}, {}, {}, {}};
  for (int r = 0; r < 4; ++r)
    scatter.needed.push_back({Chunk::d1(4, 4 * r)});
  EXPECT_EQ(ddr::Planner::decide(scatter, 4, nullptr, 0).shape,
            ddr::CollectiveShape::scatter);

  ddr::GlobalLayout gather;
  for (int r = 0; r < 4; ++r) {
    gather.owned.push_back({Chunk::d1(4, 4 * r)});
    gather.needed.push_back(r == 0 ? ddr::NeededLayout{Chunk::d1(16, 0)}
                                   : ddr::NeededLayout{});
  }
  EXPECT_EQ(ddr::Planner::decide(gather, 4, nullptr, 0).shape,
            ddr::CollectiveShape::gather);
}

TEST(PlannerGolden, ResizeSlabLayoutIsDeterministic) {
  // A resize-shaped exchange (4 old z-slab owners feeding 6 new ones,
  // joiners owning nothing yet): the decision must be identical across
  // repeated evaluations — it is what every rank independently derives.
  const int m = 4, n = 6;
  std::vector<ddr::OwnedLayout> old_owned;
  for (int r = 0; r < m; ++r)
    old_owned.push_back({Chunk::d3(48, 48, 12, 0, 0, 12 * r)});
  const std::vector<ddr::OwnedLayout> proposed =
      ddr::propose_resize_layout(old_owned, n);
  ddr::GlobalLayout layout;
  for (int r = 0; r < n; ++r) {
    layout.owned.push_back(r < m ? old_owned[static_cast<std::size_t>(r)]
                                 : ddr::OwnedLayout{});
    layout.needed.push_back(proposed[static_cast<std::size_t>(r)]);
  }
  const ddr::PlanDecision a =
      ddr::Planner::decide(layout, sizeof(float), nullptr, 0);
  const ddr::PlanDecision b =
      ddr::Planner::decide(layout, sizeof(float), nullptr, 0);
  EXPECT_EQ(a.backend, b.backend);
  EXPECT_EQ(a.pack_threads, b.pack_threads);
  EXPECT_EQ(a.waves, b.waves);
  ASSERT_EQ(a.candidates.size(), b.candidates.size());
  for (std::size_t i = 0; i < a.candidates.size(); ++i)
    EXPECT_DOUBLE_EQ(a.candidates[i].predicted_s, b.candidates[i].predicted_s);
}

TEST(PlannerGolden, LinkModelSplitsIntraNodeBytes) {
  // Under a two-ranks-per-node model, strided3d's lane to the node
  // neighbour leaves the inter-node byte count: the planner must price it
  // as zero-copy intra traffic, not link traffic.
  simnet::LinkParams p = simnet::cooley_params();
  p.ranks_per_node = 2;
  const simnet::LinkModel model(p);
  const ddr::PlanDecision d =
      ddr::Planner::decide(strided3d_layout(), sizeof(float), &model, 0);
  ASSERT_FALSE(d.candidates.empty());
  EXPECT_EQ(d.candidates[0].inter_node_bytes + d.candidates[0].intra_node_bytes,
            786432);
  EXPECT_GT(d.candidates[0].intra_node_bytes, 0);
}

TEST(PlannerWaves, BudgetPartitionsLanes) {
  std::vector<ddr::CollectiveLane> lanes = {
      {0, 1, 100, 0}, {0, 2, 100, 0}, {0, 3, 100, 0}};
  // No budget: one wave.
  EXPECT_EQ(ddr::assign_collective_waves(lanes, 0), 1);
  for (const ddr::CollectiveLane& l : lanes) EXPECT_EQ(l.wave, 0);
  // 150 B fits one 100 B lane per wave.
  EXPECT_EQ(ddr::assign_collective_waves(lanes, 150), 3);
  EXPECT_EQ(lanes[0].wave, 0);
  EXPECT_EQ(lanes[1].wave, 1);
  EXPECT_EQ(lanes[2].wave, 2);
  // 200 B fits two.
  EXPECT_EQ(ddr::assign_collective_waves(lanes, 200), 2);
  // A budget below the largest lane is floored at the largest lane: every
  // lane still gets scheduled, one per wave.
  EXPECT_EQ(ddr::assign_collective_waves(lanes, 1), 3);
  // Every wave's payload stays within max(budget, largest lane).
  std::mt19937 rng(515151);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<ddr::CollectiveLane> rnd;
    const int n = 1 + static_cast<int>(rng() % 12);
    for (int i = 0; i < n; ++i)
      rnd.push_back({0, i + 1, 1 + static_cast<std::int64_t>(rng() % 5000), 0});
    const std::size_t budget = 1 + rng() % 8000;
    std::int64_t largest = 0;
    for (const ddr::CollectiveLane& l : rnd)
      largest = std::max(largest, l.bytes);
    const std::int64_t eff =
        std::max(largest, static_cast<std::int64_t>(budget));
    const int waves = ddr::assign_collective_waves(rnd, budget);
    std::vector<std::int64_t> per_wave(static_cast<std::size_t>(waves), 0);
    for (const ddr::CollectiveLane& l : rnd) {
      ASSERT_GE(l.wave, 0);
      ASSERT_LT(l.wave, waves);
      per_wave[static_cast<std::size_t>(l.wave)] += l.bytes;
    }
    for (const std::int64_t w : per_wave) EXPECT_LE(w, eff) << "trial " << trial;
  }
}

TEST(PlannerBudget, TightBudgetForcesCollective) {
  // 200000 B is below every fused-pool candidate's 786432 B peak, so only
  // the wave-fenced collective sequence stays feasible and must be chosen,
  // with its waves sized to the budget.
  const ddr::PlanDecision d =
      ddr::Planner::decide(strided3d_layout(), sizeof(float), nullptr, 200000);
  EXPECT_EQ(d.backend, Backend::collective);
  EXPECT_EQ(d.waves, 4);
  EXPECT_LE(d.predicted_peak_staging, 200000u);
  for (const ddr::CandidateCost& c : d.candidates) {
    if (c.backend == Backend::collective || c.backend == Backend::alltoallw)
      EXPECT_TRUE(c.feasible) << ddr::backend_name(c.backend);
    else
      EXPECT_FALSE(c.feasible) << ddr::backend_name(c.backend);
  }
}

// Runs one redistribute() for `backend` over `layout` with oracle-filled
// owned data, returns every rank's needed buffer concatenated (for
// byte-identity checks) and the staging pool's peak via *peak_out.
std::vector<std::vector<std::byte>> run_backend(
    const ddr::GlobalLayout& layout, Backend backend, std::size_t budget,
    std::uint64_t* peak_out = nullptr) {
  const int nranks = layout.nranks();
  std::vector<std::vector<std::byte>> out(static_cast<std::size_t>(nranks));
  std::uint64_t peak = 0;
  mpi::run(nranks, [&](mpi::Comm& comm) {
    const auto rank = static_cast<std::size_t>(comm.rank());
    ddr::Redistributor rd(comm, sizeof(float));
    ddr::SetupOptions opts;
    opts.backend = backend;
    opts.peak_staging_bytes = budget;
    rd.setup(layout.owned[rank], layout.needed[rank], opts);

    std::vector<float> own_data;
    for (const auto& c : layout.owned[rank]) {
      const auto v = fill_chunk(c);
      own_data.insert(own_data.end(), v.begin(), v.end());
    }
    out[rank].resize(rd.needed_bytes());
    rd.redistribute(std::as_bytes(std::span<const float>(own_data)),
                    std::span<std::byte>(out[rank]));
    comm.barrier();
    if (rank == 0) peak = comm.staging_stats().peak_live_bytes;
  });
  if (peak_out != nullptr) *peak_out = peak;
  return out;
}

TEST(PlannerProperty, CollectiveByteIdenticalToP2pUnderBudget) {
  // On random layouts, the wave-fenced collective lowering must deliver
  // exactly the bytes plain point-to-point delivers, and the pool's peak
  // live bytes must respect max(budget, largest lane) plus control-message
  // slack.
  std::mt19937 rng(818181);
  for (int trial = 0; trial < 6; ++trial) {
    const int nranks = 3 + static_cast<int>(rng() % 4);
    Box domain;
    domain.ndims = 2 + trial % 2;
    for (int k = 0; k < domain.ndims; ++k) {
      domain.lo[static_cast<std::size_t>(k)] = 0;
      domain.hi[static_cast<std::size_t>(k)] = 8 + static_cast<int>(rng() % 16);
    }
    const auto boxes = random_partition(domain, nranks * 2, rng);
    ddr::GlobalLayout layout;
    layout.owned.resize(static_cast<std::size_t>(nranks));
    for (std::size_t i = 0; i < boxes.size(); ++i)
      layout.owned[i % static_cast<std::size_t>(nranks)].push_back(
          box_to_chunk(boxes[i]));
    for (int r = 0; r < nranks; ++r)
      layout.needed.push_back({box_to_chunk(random_subbox(domain, rng))});

    std::vector<ddr::CollectiveLane> lanes =
        ddr::collective_lanes(layout, sizeof(float));
    std::int64_t total = 0, largest = 0;
    for (const ddr::CollectiveLane& l : lanes) {
      total += l.bytes;
      largest = std::max(largest, l.bytes);
    }
    // A budget around a third of the traffic forces several waves.
    const auto budget = static_cast<std::size_t>(std::max<std::int64_t>(
        1, total / 3));
    const std::int64_t eff =
        std::max(largest, static_cast<std::int64_t>(budget));

    const auto want = run_backend(layout, Backend::point_to_point, 0);
    std::uint64_t peak = 0;
    const auto got = run_backend(layout, Backend::collective, budget, &peak);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t r = 0; r < got.size(); ++r) {
      ASSERT_EQ(got[r].size(), want[r].size()) << "rank " << r;
      EXPECT_EQ(std::memcmp(got[r].data(), want[r].data(), got[r].size()), 0)
          << "trial " << trial << " rank " << r;
    }
    if (!lanes.empty()) {
      EXPECT_LE(peak, static_cast<std::uint64_t>(eff) + 4096)
          << "trial " << trial << " budget " << budget;
    }
  }
}

TEST(PlannerProperty, AllgatherLoweringCutsPeakStagingAtEqualBytes) {
  // The acceptance case: a broadcast-shaped exchange moves the same bytes
  // under fused p2p and under the collective sequence, but the budgeted
  // wave fences keep the pool's concurrent footprint at a fraction of the
  // fused all-at-once peak.
  const ddr::GlobalLayout layout = bcast3d_layout(32);
  const ddr::PlanDecision d =
      ddr::Planner::decide(layout, sizeof(float), nullptr, 0);
  EXPECT_EQ(d.shape, ddr::CollectiveShape::allgather);

  // 12 lanes x 32 KB: fused stages all 384 KB at once; a 64 KB budget
  // fences the sequence into waves of two lanes.
  const std::size_t budget = 64 * 1024;
  std::uint64_t peak_fused = 0, peak_coll = 0;
  const auto a =
      run_backend(layout, Backend::point_to_point_fused, 0, &peak_fused);
  const auto b = run_backend(layout, Backend::collective, budget, &peak_coll);
  for (std::size_t r = 0; r < a.size(); ++r)
    EXPECT_EQ(std::memcmp(a[r].data(), b[r].data(), a[r].size()), 0);
  EXPECT_LE(peak_coll, budget + 4096);
  EXPECT_LT(peak_coll * 2, peak_fused)
      << "collective lowering should at least halve the staging peak here";
}

TEST(PlannerProperty, AutomaticMatchesOracleAndExposesPlan) {
  // Backend::automatic resolves at setup() and must stay oracle-correct on
  // random layouts; the resolved decision is exposed through plan() and
  // effective_backend().
  std::mt19937 rng(929292);
  for (int trial = 0; trial < 5; ++trial) {
    const int nranks = 3 + static_cast<int>(rng() % 4);
    Box domain;
    domain.ndims = 1 + trial % 3;
    for (int k = 0; k < domain.ndims; ++k) {
      domain.lo[static_cast<std::size_t>(k)] = 0;
      domain.hi[static_cast<std::size_t>(k)] = 6 + static_cast<int>(rng() % 18);
    }
    const auto boxes = random_partition(domain, nranks * 2, rng);
    std::vector<ddr::OwnedLayout> owned(static_cast<std::size_t>(nranks));
    for (std::size_t i = 0; i < boxes.size(); ++i)
      owned[i % static_cast<std::size_t>(nranks)].push_back(
          box_to_chunk(boxes[i]));
    std::vector<Chunk> needed;
    for (int r = 0; r < nranks; ++r)
      needed.push_back(box_to_chunk(random_subbox(domain, rng)));

    mpi::run(nranks, [&](mpi::Comm& comm) {
      const auto rank = static_cast<std::size_t>(comm.rank());
      ddr::Redistributor rd(comm, sizeof(float));
      ddr::SetupOptions opts;
      opts.backend = Backend::automatic;
      rd.setup(owned[rank], needed[rank], opts);
      EXPECT_EQ(rd.effective_backend(), rd.plan().backend);
      EXPECT_NE(rd.plan().backend, Backend::automatic);
      EXPECT_EQ(rd.plan().candidates.size(), 6u);

      std::vector<float> own_data;
      for (const auto& c : owned[rank]) {
        const auto v = fill_chunk(c);
        own_data.insert(own_data.end(), v.begin(), v.end());
      }
      std::vector<float> need_data(
          static_cast<std::size_t>(needed[rank].volume()), -1.0f);
      rd.redistribute(std::as_bytes(std::span<const float>(own_data)),
                      std::as_writable_bytes(std::span<float>(need_data)));

      const Chunk& c = needed[rank];
      const auto dim = [&](int d) {
        return d < c.ndims ? c.dims[static_cast<std::size_t>(d)] : 1;
      };
      const auto off = [&](int d) {
        return d < c.ndims ? c.offsets[static_cast<std::size_t>(d)] : 0;
      };
      std::size_t i = 0;
      for (int z = 0; z < dim(2); ++z)
        for (int y = 0; y < dim(1); ++y)
          for (int x = 0; x < dim(0); ++x) {
            ASSERT_EQ(need_data[i],
                      oracle_value(x + off(0), y + off(1), z + off(2)))
                << "trial " << trial << " rank " << comm.rank();
            ++i;
          }
    });
  }
}

// run_backend under a NetworkModel: same contract, but the rank threads run
// with `net` installed so same_node()/node_of() see a multi-rank-per-node
// topology (what the hybrid composition needs to have intra lanes at all).
std::vector<std::vector<std::byte>> run_backend_net(
    const ddr::GlobalLayout& layout, Backend backend, std::size_t budget,
    const mpi::NetworkModel* net, std::uint64_t* peak_out = nullptr) {
  const int nranks = layout.nranks();
  std::vector<std::vector<std::byte>> out(static_cast<std::size_t>(nranks));
  std::uint64_t peak = 0;
  mpi::RunOptions ropts;
  ropts.network = net;
  mpi::run(
      nranks,
      [&](mpi::Comm& comm) {
        const auto rank = static_cast<std::size_t>(comm.rank());
        ddr::Redistributor rd(comm, sizeof(float));
        ddr::SetupOptions opts;
        opts.backend = backend;
        opts.peak_staging_bytes = budget;
        rd.setup(layout.owned[rank], layout.needed[rank], opts);

        std::vector<float> own_data;
        for (const auto& c : layout.owned[rank]) {
          const auto v = fill_chunk(c);
          own_data.insert(own_data.end(), v.begin(), v.end());
        }
        out[rank].resize(rd.needed_bytes());
        rd.redistribute(std::as_bytes(std::span<const float>(own_data)),
                        std::span<std::byte>(out[rank]));
        comm.barrier();
        if (rank == 0) peak = comm.staging_stats().peak_live_bytes;
      },
      ropts);
  if (peak_out != nullptr) *peak_out = peak;
  return out;
}

TEST(PlannerHybrid, InfeasibleWithoutTopology) {
  // No NetworkModel -> every non-self peer is a different node -> the hybrid
  // composition has nothing to compose and must be priced infeasible, so no
  // flat-topology decision ever changes because hybrid exists.
  for (const ddr::GlobalLayout& layout :
       {strided3d_layout(), rows2d_layout(), bcast3d_layout(32)}) {
    const ddr::PlanDecision d =
        ddr::Planner::decide(layout, sizeof(float), nullptr, 0);
    bool saw_hybrid = false;
    for (const ddr::CandidateCost& c : d.candidates)
      if (c.backend == Backend::hybrid) {
        saw_hybrid = true;
        EXPECT_FALSE(c.feasible);
      }
    EXPECT_TRUE(saw_hybrid);
    EXPECT_NE(d.backend, Backend::hybrid);
    // The per-class partition is still reported: everything lands in self
    // or inter, intra stays empty.
    ASSERT_EQ(d.class_plans.size(), 3u);
    EXPECT_EQ(d.class_plans[1].cls, ddr::LaneClass::intra);
    EXPECT_EQ(d.class_plans[1].lanes, 0);
    EXPECT_EQ(d.class_plans[1].bytes, 0);
  }
}

TEST(PlannerHybrid, CompositeDecisionUnderTwoRanksPerNode) {
  // Two ranks per node on strided3d: the fused lane set splits across all
  // three classes and the decision must expose a consistent composite —
  // class rows in self/intra/inter order, bytes partitioning the total
  // payload, the documented lowering per class, and an inter-only wave
  // count no larger than the all-lane collective one.
  simnet::LinkParams p = simnet::cooley_params();
  p.ranks_per_node = 2;
  const simnet::LinkModel model(p);
  const ddr::PlanDecision d = ddr::Planner::decide(
      strided3d_layout(), sizeof(float), &model, 200000);
  const ddr::CandidateCost* hybrid = nullptr;
  for (const ddr::CandidateCost& c : d.candidates)
    if (c.backend == Backend::hybrid) hybrid = &c;
  ASSERT_NE(hybrid, nullptr);
  EXPECT_TRUE(hybrid->feasible);

  ASSERT_EQ(d.class_plans.size(), 3u);
  EXPECT_EQ(d.class_plans[0].cls, ddr::LaneClass::self);
  EXPECT_EQ(d.class_plans[1].cls, ddr::LaneClass::intra);
  EXPECT_EQ(d.class_plans[2].cls, ddr::LaneClass::inter);
  EXPECT_STREQ(d.class_plans[0].lowering, "copy_regions");
  EXPECT_STREQ(d.class_plans[1].lowering, "ptr_publish");
  EXPECT_STREQ(d.class_plans[2].lowering, "collective_waves");
  EXPECT_GT(d.class_plans[1].lanes, 0);
  EXPECT_GT(d.class_plans[2].lanes, 0);
  // Each rank's gathered brick covers its own interleaved slabs too: 64 KB
  // of self traffic per rank, 256 KB across the communicator. Self + intra
  // + inter partition the full 64^3 float payload.
  EXPECT_EQ(d.class_plans[0].bytes, 262144);
  EXPECT_EQ(d.class_plans[0].bytes + d.class_plans[1].bytes +
                d.class_plans[2].bytes,
            1048576);
  // The intra/inter rows partition the non-self payload exactly as the
  // candidate table's locality split does.
  EXPECT_EQ(d.class_plans[1].bytes, hybrid->intra_node_bytes);
  EXPECT_EQ(d.class_plans[2].bytes, hybrid->inter_node_bytes);
  EXPECT_GE(d.hybrid_waves, 1);
  EXPECT_LE(d.hybrid_waves, d.waves);
}

TEST(PlannerHybrid, AutomaticUnderBudgetPicksHybrid) {
  // The selection story: under a staging budget that rules out the
  // fused-pool backends, mixed locality makes hybrid beat the all-lane
  // collective sequence — its intra bytes move zero-copy (no pack, no
  // staging, no budget pressure), so it needs fewer fence waves and prices
  // below collective. This is the case the mixed-locality bench gates.
  simnet::LinkParams p = simnet::cooley_params();
  p.ranks_per_node = 2;
  const simnet::LinkModel model(p);
  const ddr::PlanDecision d = ddr::Planner::decide(
      strided3d_layout(), sizeof(float), &model, 200000);
  EXPECT_EQ(d.backend, Backend::hybrid);
  double hybrid_s = 0.0, coll_s = 0.0;
  for (const ddr::CandidateCost& c : d.candidates) {
    if (c.backend == Backend::hybrid) hybrid_s = c.predicted_s;
    if (c.backend == Backend::collective) coll_s = c.predicted_s;
  }
  EXPECT_LT(hybrid_s, coll_s);
}

TEST(PlannerHybrid, ByteIdenticalToFusedOnBenchCases) {
  // The correctness contract: forced hybrid delivers exactly the bytes the
  // fused path delivers on every bench-fixture layout, over a simulated
  // two-ranks-per-node topology, with and without a multi-wave budget.
  simnet::LinkParams p = simnet::cooley_params();
  p.ranks_per_node = 2;
  const simnet::LinkModel model(p);
  for (const ddr::GlobalLayout& layout :
       {strided3d_layout(), rows2d_layout(), bcast3d_layout(32)}) {
    const auto want =
        run_backend_net(layout, Backend::point_to_point_fused, 0, &model);
    for (const std::size_t budget : {std::size_t{0}, std::size_t{65536}}) {
      std::uint64_t peak = 0;
      const auto got =
          run_backend_net(layout, Backend::hybrid, budget, &model, &peak);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t r = 0; r < got.size(); ++r) {
        ASSERT_EQ(got[r].size(), want[r].size()) << "rank " << r;
        EXPECT_EQ(std::memcmp(got[r].data(), want[r].data(), got[r].size()),
                  0)
            << "budget " << budget << " rank " << r;
      }
      if (budget != 0) {
        // Only the inter lanes stage; the budget plus pointer-message slack
        // bounds the pool even though the intra bytes exceed it.
        EXPECT_LE(peak, budget + 4096) << "budget " << budget;
      }
    }
  }
}

TEST(PlannerHybrid, CrossRankCompositeAgreement) {
  // Protocol consistency for the composite decision: every rank must
  // resolve the identical backend, wave counts and per-class partition —
  // a divergent composite would deadlock the mixed execution paths.
  simnet::LinkParams p = simnet::cooley_params();
  p.ranks_per_node = 2;
  const simnet::LinkModel model(p);
  const ddr::GlobalLayout layout = strided3d_layout();
  const int nranks = layout.nranks();
  std::vector<ddr::PlanDecision> plans(static_cast<std::size_t>(nranks));
  mpi::RunOptions ropts;
  ropts.network = &model;
  mpi::run(
      nranks,
      [&](mpi::Comm& comm) {
        const auto rank = static_cast<std::size_t>(comm.rank());
        ddr::Redistributor rd(comm, sizeof(float));
        ddr::SetupOptions opts;
        opts.backend = Backend::automatic;
        opts.peak_staging_bytes = 200000;
        rd.setup(layout.owned[rank], layout.needed[rank], opts);
        plans[rank] = rd.plan();
        EXPECT_EQ(rd.effective_backend(), rd.plan().backend);
      },
      ropts);
  for (int r = 1; r < nranks; ++r) {
    const auto& a = plans[0];
    const auto& b = plans[static_cast<std::size_t>(r)];
    EXPECT_EQ(a.backend, b.backend) << "rank " << r;
    EXPECT_EQ(a.waves, b.waves) << "rank " << r;
    EXPECT_EQ(a.hybrid_waves, b.hybrid_waves) << "rank " << r;
    ASSERT_EQ(a.class_plans.size(), b.class_plans.size());
    for (std::size_t i = 0; i < a.class_plans.size(); ++i) {
      EXPECT_EQ(a.class_plans[i].lanes, b.class_plans[i].lanes);
      EXPECT_EQ(a.class_plans[i].bytes, b.class_plans[i].bytes);
      EXPECT_DOUBLE_EQ(a.class_plans[i].predicted_s,
                       b.class_plans[i].predicted_s);
      EXPECT_STREQ(a.class_plans[i].lowering, b.class_plans[i].lowering);
    }
  }
}

TEST(PlannerProperty, AutomaticAgreesAcrossRanksOnStrided3d) {
  // The protocol-consistency invariant: every rank must resolve automatic
  // to the same backend and the same wave schedule (here under a budget
  // that forces the collective sequence), and the exchange must complete —
  // a rank-divergent decision would deadlock or corrupt data.
  const ddr::GlobalLayout layout = strided3d_layout();
  const auto want = run_backend(layout, Backend::point_to_point, 0);
  std::uint64_t peak = 0;
  const auto got = run_backend(layout, Backend::automatic, 200000, &peak);
  for (std::size_t r = 0; r < got.size(); ++r)
    EXPECT_EQ(std::memcmp(got[r].data(), want[r].data(), got[r].size()), 0)
        << "rank " << r;
  EXPECT_LE(peak, 200000u + 4096u);
}

}  // namespace
