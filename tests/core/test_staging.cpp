// A Redistributor's staging reservation: setup() replaces its ledger entry
// rather than adding to the pool, destruction and a communicator change
// drop it, a move hands it over, and four Redistributors sharing one
// communicator redistribute without a staging heap allocation from their
// first call on.

#include <gtest/gtest.h>

#include <array>
#include <span>
#include <utility>
#include <vector>

#include "ddr/ddr.hpp"
#include "minimpi/minimpi.hpp"
#include "test_util.hpp"

namespace {

using ddr::Backend;
using ddr::Chunk;
using mpi::Comm;

constexpr int kRanks = 4;
constexpr int kN = 32;

/// Rank r's quarter of the kN^3 domain, sliced along `axis`.
Chunk slab(int axis, int rank) {
  std::array<int, 3> dims{kN, kN, kN}, offs{0, 0, 0};
  dims[static_cast<std::size_t>(axis)] = kN / kRanks;
  offs[static_cast<std::size_t>(axis)] = rank * (kN / kRanks);
  return Chunk::d3(dims[0], dims[1], dims[2], offs[0], offs[1], offs[2]);
}

ddr::SetupOptions with(Backend b) {
  ddr::SetupOptions o;
  o.backend = b;
  return o;
}

/// Every rank's staging counters, read between two fences so no rank is
/// mid-setup or mid-exchange while they are sampled.
mpi::StagingStats fenced_stats(const Comm& comm) {
  comm.barrier();
  const mpi::StagingStats s = comm.staging_stats();
  comm.barrier();
  return s;
}

TEST(RedistributorStaging, ResetupReplacesTheEntryAndDestructionDropsIt) {
  mpi::run(kRanks, [](Comm& comm) {
    const int r = comm.rank();
    // Point-to-point reserves every non-self round payload, so the ledger
    // total over all ranks is exactly the mapping's network bytes.
    {
      ddr::Redistributor rd(comm, sizeof(float));
      rd.setup({slab(2, r)}, slab(0, r), with(Backend::point_to_point));
      const std::int64_t a = rd.stats().network_bytes;
      EXPECT_EQ(fenced_stats(comm).reserved_bytes,
                static_cast<std::uint64_t>(a));

      // A layout that moves every byte replaces, not adds to, the entry.
      rd.setup({slab(2, r)}, slab(2, (r + 1) % kRanks),
               with(Backend::point_to_point));
      const std::int64_t b = rd.stats().network_bytes;
      ASSERT_NE(a, b);
      EXPECT_EQ(fenced_stats(comm).reserved_bytes,
                static_cast<std::uint64_t>(b));

      for (int i = 0; i < 20; ++i)
        rd.setup({slab(2, r)}, slab(0, r), with(Backend::point_to_point));
      const mpi::StagingStats s = fenced_stats(comm);
      EXPECT_EQ(s.reserved_bytes, static_cast<std::uint64_t>(a));
      EXPECT_LE(s.retained_bytes, 2 * static_cast<std::uint64_t>(b));
    }
    EXPECT_EQ(fenced_stats(comm).reserved_bytes, 0u);
  });
}

TEST(RedistributorStaging, MoveHandsTheEntryOver) {
  mpi::run(kRanks, [](Comm& comm) {
    const int r = comm.rank();
    std::vector<ddr::Redistributor> held;
    {
      ddr::Redistributor rd(comm, sizeof(float));
      rd.setup({slab(2, r)}, slab(0, r), with(Backend::point_to_point_fused));
      held.push_back(std::move(rd));
    }
    const mpi::StagingStats s = fenced_stats(comm);
    EXPECT_GT(s.reserved_bytes, 0u);

    // The moved-to Redistributor still runs allocation-free.
    const std::vector<float> src = ddr_test::fill_chunk(slab(2, r));
    const std::vector<float> want = ddr_test::fill_chunk(slab(0, r));
    std::vector<float> dst(want.size());
    held.front().redistribute(std::as_bytes(std::span<const float>(src)),
                              std::as_writable_bytes(std::span<float>(dst)));
    EXPECT_EQ(dst, want);
    EXPECT_EQ(fenced_stats(comm).heap_allocations, s.heap_allocations);

    held.clear();
    EXPECT_EQ(fenced_stats(comm).reserved_bytes, 0u);
  });
}

TEST(RedistributorStaging, RebuildMovesTheEntryToTheNewCommunicator) {
  mpi::run(kRanks, [](Comm& comm) {
    const int r = comm.rank();
    ddr::Redistributor rd(comm, sizeof(float));
    rd.setup({slab(2, r)}, slab(0, r), with(Backend::point_to_point));
    const auto bytes = static_cast<std::uint64_t>(rd.stats().network_bytes);
    EXPECT_EQ(fenced_stats(comm).reserved_bytes, bytes);

    const Comm other = comm.dup();
    rd.rebuild(other, {slab(2, r)}, slab(0, r), with(Backend::point_to_point));
    EXPECT_EQ(fenced_stats(comm).reserved_bytes, 0u);
    EXPECT_EQ(fenced_stats(other).reserved_bytes, bytes);
  });
}

TEST(RedistributorStaging, FourOnOneCommAllocationFreeFromTheFirstCall) {
  // A transpose chain in the PencilTimestepper mould: four Redistributors
  // on one communicator, each with its own backend, set up back to back.
  // Their reservations together must cover every call from the first one.
  mpi::run(kRanks, [](Comm& comm) {
    const int r = comm.rank();
    const std::array<int, 5> axes{2, 0, 1, 0, 2};
    const std::array<Backend, 4> backends{
        Backend::point_to_point_fused, Backend::point_to_point,
        Backend::alltoallw, Backend::automatic};
    std::vector<ddr::Redistributor> chain;
    for (std::size_t i = 0; i < backends.size(); ++i) {
      chain.emplace_back(comm, sizeof(float));
      chain.back().setup({slab(axes[i], r)}, slab(axes[i + 1], r),
                         with(backends[i]));
    }
    const std::vector<float> start = ddr_test::fill_chunk(slab(2, r));
    std::vector<float> a = start, b;
    const mpi::StagingStats s0 = fenced_stats(comm);
    for (int step = 0; step < 3; ++step) {
      for (const ddr::Redistributor& rd : chain) {
        b.assign(rd.needed_bytes() / sizeof(float), 0.0f);
        rd.redistribute(std::as_bytes(std::span<const float>(a)),
                        std::as_writable_bytes(std::span<float>(b)));
        std::swap(a, b);
      }
    }
    const mpi::StagingStats s1 = fenced_stats(comm);
    EXPECT_EQ(a, start);
    EXPECT_EQ(s1.heap_allocations - s0.heap_allocations, 0u);
    EXPECT_GT(s1.acquires, s0.acquires);
  });
}

}  // namespace
