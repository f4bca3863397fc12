// Golden-trace conformance for the paper's E1 layout: asserts the exact
// per-rank event structure (span nesting, per-round message instants, keys)
// that one redistribute() call records under each backend, and that the
// structure is deterministic across repeated runs. The trace schema is a
// public contract (DESIGN.md §9): these tests are what "stable" means.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "ddr/ddr.hpp"
#include "minimpi/minimpi.hpp"
#include "trace/trace.hpp"

namespace {

constexpr int kRanks = 4;

ddr::OwnedLayout e1_owned(int rank) {
  return {ddr::Chunk::d2(8, 1, 0, rank), ddr::Chunk::d2(8, 1, 0, rank + 4)};
}

ddr::Chunk e1_needed(int rank) {
  return ddr::Chunk::d2(4, 4, 4 * (rank % 2), 4 * (rank / 2));
}

struct TracedRun {
  std::vector<std::string> structure;            // per rank
  std::vector<std::vector<trace::Event>> events; // per rank
  int rounds = 0;
};

/// One setup() + redistribute() on E1 with per-rank recorders attached;
/// recorders are cleared after setup so the captured stream is exactly one
/// redistribute() call. Precondition agreement is off: its allreduce uses
/// comm-wide collectives whose event count depends only on rank count, but
/// the golden strings are simpler without it.
TracedRun run_e1(ddr::Backend backend, std::size_t budget = 0) {
  TracedRun out;
  std::vector<trace::Recorder> recs;
  recs.reserve(kRanks);
  for (int r = 0; r < kRanks; ++r) recs.emplace_back(r);
  int rounds = 0;

  mpi::run(kRanks, [&](mpi::Comm& comm) {
    const int r = comm.rank();
    ddr::Redistributor rd(comm, sizeof(float));
    rd.trace_sink(&recs[static_cast<std::size_t>(r)]);
    ddr::SetupOptions opt;
    opt.backend = backend;
    opt.collective_error_agreement = false;
    opt.peak_staging_bytes = budget;
    rd.setup(e1_owned(r), e1_needed(r), opt);
    recs[static_cast<std::size_t>(r)].clear();
    if (r == 0) rounds = rd.rounds();

    std::vector<float> src(rd.owned_bytes() / sizeof(float), 1.0f);
    std::vector<float> dst(rd.needed_bytes() / sizeof(float));
    rd.redistribute(std::as_bytes(std::span<const float>(src)),
                    std::as_writable_bytes(std::span<float>(dst)));
  });

  out.rounds = rounds;
  for (const trace::Recorder& r : recs) {
    EXPECT_EQ(r.open_spans(), 0u);
    EXPECT_TRUE(trace::spans_balanced(r.events()));
    out.structure.push_back(trace::structure_string(r.events()));
    out.events.push_back(r.events());
  }
  return out;
}

/// E1 ground truth: every rank sends 16 bytes to each of its 3 peers (12
/// messages, 192 bytes network-wide) and keeps 16 bytes local via the
/// zero-copy self lane.
void check_e1_bytes(const TracedRun& run) {
  for (int r = 0; r < kRanks; ++r) {
    const auto& ev = run.events[static_cast<std::size_t>(r)];
    const auto sent = trace::bytes_by_peer(ev, "ddr.msg.send");
    const auto recvd = trace::bytes_by_peer(ev, "ddr.msg.recv");
    ASSERT_EQ(sent.size(), 3u) << "rank " << r;
    ASSERT_EQ(recvd.size(), 3u) << "rank " << r;
    for (int q = 0; q < kRanks; ++q) {
      if (q == r) {
        EXPECT_FALSE(sent.contains(q)) << "self lane sent as message";
        EXPECT_FALSE(recvd.contains(q)) << "self lane received as message";
      } else {
        EXPECT_EQ(sent.at(q), 16) << "rank " << r << " -> " << q;
        EXPECT_EQ(recvd.at(q), 16) << "rank " << r << " <- " << q;
      }
    }
    // The self lane shows up as exactly one zero-copy region copy instead.
    EXPECT_EQ(trace::count_events(ev, "mpi.copy_regions", trace::Phase::begin),
              1u)
        << "rank " << r;
  }
}

// The JSON bench's strided3d case: 64^3 float domain, 4 ranks, 8 round-robin
// z-slabs of height 2 per rank; every rank needs one 32x32x64 brick. 8
// rounds, fusing to one 64 KiB lane per peer pair per direction.
ddr::OwnedLayout strided3d_owned(int rank) {
  constexpr int kSide = 64, kRanks = 4, kSlabs = 8;
  constexpr int slab_z = kSide / (kRanks * kSlabs);
  ddr::OwnedLayout own;
  for (int c = 0; c < kSlabs; ++c)
    own.push_back(ddr::Chunk::d3(kSide, kSide, slab_z, 0, 0,
                                 (rank + kRanks * c) * slab_z));
  return own;
}

ddr::Chunk strided3d_needed(int rank) {
  constexpr int kSide = 64;
  return ddr::Chunk::d3(kSide / 2, kSide / 2, kSide, (rank % 2) * kSide / 2,
                        (rank / 2) * kSide / 2, 0);
}

/// Like run_e1 but on the strided3d layout (the bench case the planner
/// resolves to the lane program, 8 rounds deep).
TracedRun run_strided3d(ddr::Backend backend) {
  TracedRun out;
  std::vector<trace::Recorder> recs;
  recs.reserve(kRanks);
  for (int r = 0; r < kRanks; ++r) recs.emplace_back(r);
  int rounds = 0;

  mpi::run(kRanks, [&](mpi::Comm& comm) {
    const int r = comm.rank();
    ddr::Redistributor rd(comm, sizeof(float));
    rd.trace_sink(&recs[static_cast<std::size_t>(r)]);
    ddr::SetupOptions opt;
    opt.backend = backend;
    opt.collective_error_agreement = false;
    rd.setup(strided3d_owned(r), strided3d_needed(r), opt);
    recs[static_cast<std::size_t>(r)].clear();
    if (r == 0) rounds = rd.rounds();

    std::vector<float> src(rd.owned_bytes() / sizeof(float), 1.0f);
    std::vector<float> dst(rd.needed_bytes() / sizeof(float));
    rd.redistribute(std::as_bytes(std::span<const float>(src)),
                    std::as_writable_bytes(std::span<float>(dst)));
  });

  out.rounds = rounds;
  for (const trace::Recorder& r : recs) {
    EXPECT_EQ(r.open_spans(), 0u);
    EXPECT_TRUE(trace::spans_balanced(r.events()));
    out.structure.push_back(trace::structure_string(r.events()));
    out.events.push_back(r.events());
  }
  return out;
}

/// Checks the span skeleton of one lane-program run: one ddr.exchange.lanes
/// span whose value is the wave count, one ddr.wave and one ddr.wait_all per
/// wave, no ddr.round spans (the lanes stitch every round), and message
/// instants with round=-1 (the lane spans every round).
void check_lane_program(const TracedRun& run, int waves) {
  for (int r = 0; r < kRanks; ++r) {
    const auto& ev = run.events[static_cast<std::size_t>(r)];
    int lanes_spans = 0;
    for (const trace::Event& e : ev) {
      const std::string name = e.name;
      if (name == "ddr.exchange.lanes" && e.phase == trace::Phase::begin) {
        ++lanes_spans;
        EXPECT_EQ(e.keys.value, waves) << "rank " << r;
      }
      if (name == "ddr.msg.send" || name == "ddr.msg.recv") {
        EXPECT_EQ(e.keys.round, -1) << "rank " << r;
      }
    }
    EXPECT_EQ(lanes_spans, 1) << "rank " << r;
    EXPECT_EQ(trace::count_events(ev, "ddr.wave", trace::Phase::begin),
              static_cast<std::size_t>(waves))
        << "rank " << r;
    EXPECT_EQ(trace::count_events(ev, "ddr.wait_all", trace::Phase::begin),
              static_cast<std::size_t>(waves))
        << "rank " << r;
    EXPECT_EQ(trace::count_events(ev, "ddr.round", trace::Phase::begin), 0u)
        << "rank " << r;
  }
}

}  // namespace

TEST(TraceGolden, AlltoallwRoundSpansMatchSchedule) {
  const TracedRun run = run_e1(ddr::Backend::alltoallw);
  EXPECT_EQ(run.rounds, 2);
  for (int r = 0; r < kRanks; ++r) {
    const auto& ev = run.events[static_cast<std::size_t>(r)];
    EXPECT_EQ(trace::count_events(ev, "ddr.redistribute", trace::Phase::begin),
              1u);
    // One ddr.round span per alltoallw round (== max chunks per rank, §III-C).
    EXPECT_EQ(trace::count_events(ev, "ddr.round", trace::Phase::begin), 2u);
    EXPECT_EQ(trace::count_events(ev, "mpi.alltoallw", trace::Phase::begin),
              2u);
  }
  check_e1_bytes(run);
}

TEST(TraceGolden, P2pRoundSpansMatchSchedule) {
  const TracedRun run = run_e1(ddr::Backend::point_to_point);
  for (int r = 0; r < kRanks; ++r) {
    const auto& ev = run.events[static_cast<std::size_t>(r)];
    EXPECT_EQ(trace::count_events(ev, "ddr.round", trace::Phase::begin), 2u);
    EXPECT_EQ(trace::count_events(ev, "ddr.wait_all", trace::Phase::begin),
              1u);
    EXPECT_EQ(trace::count_events(ev, "mpi.alltoallw", trace::Phase::begin),
              0u);
  }
  check_e1_bytes(run);
}

TEST(TraceGolden, FusedEmitsOnePerPeerLane) {
  const TracedRun run = run_e1(ddr::Backend::point_to_point_fused);
  check_lane_program(run, 1);
  for (int r = 0; r < kRanks; ++r) {
    const auto& ev = run.events[static_cast<std::size_t>(r)];
    // One message per peer lane each way: 3 peers.
    EXPECT_EQ(trace::count_events(ev, "ddr.msg.send", trace::Phase::instant),
              3u);
    EXPECT_EQ(trace::count_events(ev, "ddr.msg.recv", trace::Phase::instant),
              3u);
  }
  check_e1_bytes(run);
}

TEST(TraceGolden, StructureDeterministicAcrossRuns) {
  for (const ddr::Backend b :
       {ddr::Backend::alltoallw, ddr::Backend::point_to_point,
        ddr::Backend::point_to_point_fused,
        ddr::Backend::point_to_point_pipelined, ddr::Backend::collective}) {
    // E1's lanes are 16 B each, so a 64 B budget splits the collective
    // preset's 12 lanes into several fenced waves.
    const std::size_t budget = b == ddr::Backend::collective ? 64 : 0;
    const TracedRun a = run_e1(b, budget);
    const TracedRun c = run_e1(b, budget);
    if (b == ddr::Backend::collective) {
      EXPECT_GE(trace::count_events(a.events[0], "ddr.wave",
                                    trace::Phase::begin),
                2u);
    }
    for (int r = 0; r < kRanks; ++r)
      EXPECT_EQ(a.structure[static_cast<std::size_t>(r)],
                c.structure[static_cast<std::size_t>(r)])
          << "backend " << static_cast<int>(b) << " rank " << r;
  }
}

TEST(TraceGolden, AlltoallwRank0ExactStructure) {
  // The full golden string for rank 0 under the alltoallw backend — pinned
  // character for character. Rank 0 owns rows y=0 (round 0) and y=4
  // (round 1) and needs the x:0-3,y:0-3 quadrant: round 0 receives rows
  // y=1..3 from ranks 1-3 and sends the x:4-7 half of row 0 to rank 1;
  // round 1 sends halves of row 4 to ranks 2 and 3. The self lane (x:0-3 of
  // row 0) moves as a zero-copy region copy inside the collective.
  const TracedRun run = run_e1(ddr::Backend::alltoallw);
  const std::string expected =
      "ddr.redistribute\n"
      "  ddr.round [round=0]\n"
      "    - ddr.msg.recv [round=0,peer=1,bytes=16]\n"
      "    - ddr.msg.send [round=0,peer=1,bytes=16]\n"
      "    - ddr.msg.recv [round=0,peer=2,bytes=16]\n"
      "    - ddr.msg.recv [round=0,peer=3,bytes=16]\n"
      "    mpi.alltoallw\n"
      "      mpi.copy_regions [bytes=16]\n"
      "      - mpi.staging.acquire [bytes=16]\n"
      "      - mpi.staging.release [bytes=16]\n"
      "      - mpi.staging.release [bytes=16]\n"
      "      - mpi.staging.release [bytes=16]\n"
      "  ddr.round [round=1]\n"
      "    - ddr.msg.send [round=1,peer=2,bytes=16]\n"
      "    - ddr.msg.send [round=1,peer=3,bytes=16]\n"
      "    mpi.alltoallw\n"
      "      - mpi.staging.acquire [bytes=16]\n"
      "      - mpi.staging.acquire [bytes=16]\n";
  EXPECT_EQ(run.structure[0], expected);
}

TEST(TraceGolden, PipelinedRunsFusedLaneProgram) {
  // Pipelined and fused are presets of one lane program: same spans, same
  // posting order (every receive of the wave, then every send, then the
  // self lane), character for character on every rank.
  const TracedRun run = run_e1(ddr::Backend::point_to_point_pipelined);
  const TracedRun fused = run_e1(ddr::Backend::point_to_point_fused);
  EXPECT_EQ(run.rounds, 2);
  check_lane_program(run, 1);
  for (int r = 0; r < kRanks; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    EXPECT_EQ(run.structure[ri], fused.structure[ri]) << "rank " << r;
    EXPECT_EQ(trace::count_events(run.events[ri], "ddr.self",
                                  trace::Phase::begin),
              1u);
  }
  const std::string expected_prefix =
      "ddr.redistribute\n"
      "  ddr.exchange.lanes\n"
      "    ddr.wave [round=0]\n"
      "      - ddr.msg.recv [peer=1,bytes=16]\n"
      "      - ddr.msg.recv [peer=2,bytes=16]\n"
      "      - ddr.msg.recv [peer=3,bytes=16]\n"
      "      - ddr.msg.send [peer=1,bytes=16]\n";
  EXPECT_EQ(run.structure[0].substr(0, expected_prefix.size()),
            expected_prefix);
  check_e1_bytes(run);
}

TEST(TraceGolden, PipelinedStrided3dConservesBytes) {
  // Pairwise byte conservation on the 8-round strided3d layout, where each
  // peer's 8 rounds fuse into one lane.
  const TracedRun run = run_strided3d(ddr::Backend::point_to_point_pipelined);
  EXPECT_EQ(run.rounds, 8);
  check_lane_program(run, 1);
  std::vector<std::map<std::int64_t, std::int64_t>> sent(kRanks),
      recvd(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    const auto& ev = run.events[static_cast<std::size_t>(r)];
    EXPECT_EQ(trace::count_events(ev, "ddr.msg.send", trace::Phase::instant),
              3u);
    EXPECT_EQ(trace::count_events(ev, "ddr.msg.recv", trace::Phase::instant),
              3u);
    sent[static_cast<std::size_t>(r)] = trace::bytes_by_peer(ev, "ddr.msg.send");
    recvd[static_cast<std::size_t>(r)] =
        trace::bytes_by_peer(ev, "ddr.msg.recv");
    // Each rank ships 3/4 of its 64x64x64/4 float slab set to peers.
    EXPECT_EQ(trace::total_bytes(ev, "ddr.msg.send"), 196608);
  }
  for (int r = 0; r < kRanks; ++r)
    for (int q = 0; q < kRanks; ++q) {
      if (q == r) continue;
      EXPECT_EQ(sent[static_cast<std::size_t>(r)].at(q),
                recvd[static_cast<std::size_t>(q)].at(r))
          << "bytes " << r << " -> " << q;
    }
}
