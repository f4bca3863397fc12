// Staging-pool reservation tests: a reservation replaces its holder's
// previous one instead of adding to it, handles drop their ledger entry on
// reset, destruction and rebinding, concurrent reservations cover the union
// of the ranks' working sets, and the pool's byte budget caps deposits.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "minimpi/minimpi.hpp"

namespace {

using mpi::Comm;
using mpi::StagingReservation;

std::uint64_t sum(const std::vector<std::size_t>& sizes) {
  return std::accumulate(sizes.begin(), sizes.end(), std::uint64_t{0});
}

TEST(Staging, SameSizesUnderOneKeyDoNotGrowThePool) {
  mpi::run(1, [](Comm& comm) {
    const std::vector<std::size_t> sizes{4096, 1000, 1000, 64, 70000};
    StagingReservation r;
    comm.reserve_staging(r, sizes);
    const mpi::StagingStats first = comm.staging_stats();
    EXPECT_EQ(first.reserved_bytes, sum(sizes));
    EXPECT_GE(first.retained_bytes, sum(sizes));
    for (int i = 0; i < 50; ++i) comm.reserve_staging(r, sizes);
    const mpi::StagingStats later = comm.staging_stats();
    EXPECT_EQ(later.retained_bytes, first.retained_bytes);
    EXPECT_EQ(later.reserved_bytes, sum(sizes));
  });
}

TEST(Staging, ReservationReplacesItsPreviousSizes) {
  mpi::run(1, [](Comm& comm) {
    StagingReservation r;
    comm.reserve_staging(r, {1000});
    comm.reserve_staging(r, {500, 500});
    const mpi::StagingStats s = comm.staging_stats();
    EXPECT_EQ(s.reserved_bytes, 1000u);
    // One 500 claims the 1000-byte buffer; only the other one is new.
    EXPECT_EQ(s.retained_bytes, 1500u);
    // Shrinking the claim deposits nothing: the free list already covers it.
    comm.reserve_staging(r, {200});
    EXPECT_EQ(comm.staging_stats().reserved_bytes, 200u);
    EXPECT_EQ(comm.staging_stats().retained_bytes, 1500u);
  });
}

TEST(Staging, ResetAndDestructionDropTheEntryButKeepTheBuffers) {
  mpi::run(1, [](Comm& comm) {
    StagingReservation a;
    comm.reserve_staging(a, {3000});
    {
      StagingReservation b;
      comm.reserve_staging(b, {2000});
      EXPECT_EQ(comm.staging_stats().reserved_bytes, 5000u);
    }
    EXPECT_EQ(comm.staging_stats().reserved_bytes, 3000u);
    a.reset();
    a.reset();  // a second reset has nothing left to drop
    const mpi::StagingStats s = comm.staging_stats();
    EXPECT_EQ(s.reserved_bytes, 0u);
    EXPECT_EQ(s.retained_bytes, 5000u);
    // A fresh claim is met by the buffers the dropped ones left behind.
    StagingReservation c;
    comm.reserve_staging(c, {2500, 1500});
    EXPECT_EQ(comm.staging_stats().retained_bytes, 5000u);
  });
}

TEST(Staging, MoveTransfersTheEntry) {
  mpi::run(1, [](Comm& comm) {
    StagingReservation a;
    comm.reserve_staging(a, {800});
    StagingReservation b(std::move(a));
    // A moved-from handle owns nothing: resetting it leaves b's entry.
    a.reset();  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(comm.staging_stats().reserved_bytes, 800u);
    StagingReservation c;
    comm.reserve_staging(c, {100});
    c = std::move(b);  // c's own entry goes, b's moves in
    EXPECT_EQ(comm.staging_stats().reserved_bytes, 800u);
    comm.reserve_staging(c, {900});
    EXPECT_EQ(comm.staging_stats().reserved_bytes, 900u);
  });
}

TEST(Staging, ReservingOnAnotherCommunicatorLeavesTheFirstLedger) {
  mpi::run(2, [](Comm& comm) {
    const Comm other = comm.dup();
    StagingReservation r;
    comm.reserve_staging(r, {1024});
    comm.barrier();
    EXPECT_EQ(comm.staging_stats().reserved_bytes, 2048u);
    comm.barrier();
    other.reserve_staging(r, {1024});
    comm.barrier();
    EXPECT_EQ(comm.staging_stats().reserved_bytes, 0u);
    EXPECT_EQ(other.staging_stats().reserved_bytes, 2048u);
    comm.barrier();  // both handles live until both ranks have looked
  });
}

TEST(Staging, ReservingNeverTouchesLiveBytes) {
  mpi::run(1, [](Comm& comm) {
    StagingReservation r;
    comm.reserve_staging(r, {1 << 20, 4096});
    const mpi::StagingStats s = comm.staging_stats();
    EXPECT_EQ(s.live_bytes, 0u);
    EXPECT_EQ(s.peak_live_bytes, 0u);
    EXPECT_EQ(s.acquires, 0u);
    EXPECT_EQ(s.heap_allocations, 0u);
  });
}

TEST(Staging, DepositsStopAtThePoolBudget) {
  mpi::run(1, [](Comm& comm) {
    constexpr std::size_t kBig = std::size_t{40} << 20;
    StagingReservation r;
    comm.reserve_staging(r, {kBig, kBig});
    const mpi::StagingStats s = comm.staging_stats();
    EXPECT_EQ(s.reserved_bytes, 2 * kBig);
    EXPECT_EQ(s.retained_bytes, kBig);  // the second would pass 64 MB
  });
}

TEST(Staging, ConcurrentReservationsCoverTheUnionOfWorkingSets) {
  // Each rank reserves a different send set with no fence before it, so
  // the reservations race; then every rank posts its whole set at once
  // before receiving anything. The pool must cover all four sets together.
  constexpr int kRanks = 4;
  constexpr int kRuns = 20;
  std::atomic<std::uint64_t> allocs{0};
  for (int run = 0; run < kRuns; ++run) {
    mpi::run(kRanks, [&](Comm& comm) {
      const int me = comm.rank();
      std::vector<std::size_t> sizes;
      for (int k = 0; k < 6; ++k)
        sizes.push_back(static_cast<std::size_t>(1000 * (me + 1) + 333 * k));
      StagingReservation r;
      comm.reserve_staging(r, sizes);
      comm.barrier();
      mpi::StagingStats s0;
      if (me == 0) s0 = comm.staging_stats();
      comm.barrier();

      const int to = (me + 1) % kRanks;
      const int from = (me + kRanks - 1) % kRanks;
      std::vector<std::vector<std::byte>> out, in;
      for (const std::size_t n : sizes)
        out.emplace_back(n, static_cast<std::byte>(me));
      for (std::size_t k = 0; k < sizes.size(); ++k) {
        const auto tag = static_cast<int>(k);
        (void)comm.isend(out[k].data(), out[k].size(),
                         mpi::Datatype::bytes(1), to, tag);
      }
      comm.barrier();  // every payload is live before any is received
      std::vector<std::size_t> theirs;
      for (int k = 0; k < 6; ++k)
        theirs.push_back(static_cast<std::size_t>(1000 * (from + 1) + 333 * k));
      for (std::size_t k = 0; k < theirs.size(); ++k) {
        in.emplace_back(theirs[k]);
        comm.recv(in.back().data(), theirs[k], mpi::Datatype::bytes(1), from,
                  static_cast<int>(k));
        EXPECT_EQ(in.back().front(), static_cast<std::byte>(from));
      }
      comm.barrier();
      if (me == 0) {
        const mpi::StagingStats s1 = comm.staging_stats();
        allocs += s1.heap_allocations - s0.heap_allocations;
        EXPECT_EQ(s1.reserved_bytes, s0.reserved_bytes);
      }
      comm.barrier();  // every reservation lives until rank 0 has looked
    });
  }
  EXPECT_EQ(allocs.load(), 0u);
}

}  // namespace
