// Property tests of the compiled segment plan: for randomly generated
// datatype trees (all constructors, including zero-size edge cases) and for
// strided byte trains read from misaligned bases, the plan-driven
// pack/unpack must be byte-identical to the legacy recursive walker, and
// copy_regions must equal a legacy-walker pack-then-unpack.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "minimpi/minimpi.hpp"

namespace {

using mpi::Datatype;

/// RAII toggle of the global plan switch (tests must not leak a disabled
/// plan path into other tests of this binary).
class PlanToggle {
 public:
  explicit PlanToggle(bool enabled) { Datatype::set_plan_enabled(enabled); }
  ~PlanToggle() { Datatype::set_plan_enabled(true); }
};

/// Builds a random datatype tree of the given depth. Sizes are kept small so
/// a full random suite stays fast, but every constructor is reachable,
/// including zero-count/zero-length degenerate forms.
Datatype random_type(std::mt19937& rng, int depth) {
  std::uniform_int_distribution<int> kind_dist(0, depth <= 0 ? 0 : 6);
  std::uniform_int_distribution<int> small(1, 3);
  std::uniform_int_distribution<int> tiny(0, 2);
  switch (kind_dist(rng)) {
    case 0:
      return Datatype::bytes(static_cast<std::size_t>(
          std::uniform_int_distribution<int>(0, 5)(rng)));
    case 1:
      return Datatype::contiguous(static_cast<std::size_t>(tiny(rng)),
                                  random_type(rng, depth - 1));
    case 2: {
      const Datatype inner = random_type(rng, depth - 1);
      const int count = small(rng);
      const int blocklen = small(rng);
      // Non-overlapping: stride (in inner elements) >= blocklen.
      const int stride = blocklen + tiny(rng);
      return Datatype::vector(static_cast<std::size_t>(count),
                              static_cast<std::size_t>(blocklen), stride,
                              inner);
    }
    case 3: {
      const Datatype inner = random_type(rng, depth - 1);
      const int count = small(rng);
      const int blocklen = small(rng);
      const auto stride_bytes = static_cast<std::ptrdiff_t>(
          static_cast<std::size_t>(blocklen) * inner.extent() +
          static_cast<std::size_t>(tiny(rng)));
      return Datatype::hvector(static_cast<std::size_t>(count),
                               static_cast<std::size_t>(blocklen),
                               stride_bytes, inner);
    }
    case 4: {
      const Datatype inner = random_type(rng, depth - 1);
      const int ndims = std::uniform_int_distribution<int>(1, 3)(rng);
      std::vector<int> sizes, subsizes, starts;
      for (int d = 0; d < ndims; ++d) {
        const int n = std::uniform_int_distribution<int>(1, 4)(rng);
        const int sub = std::uniform_int_distribution<int>(0, n)(rng);
        const int start =
            std::uniform_int_distribution<int>(0, n - sub)(rng);
        sizes.push_back(n);
        subsizes.push_back(sub);
        starts.push_back(start);
      }
      const mpi::Order order =
          tiny(rng) == 0 ? mpi::Order::fortran : mpi::Order::c;
      return Datatype::subarray(sizes, subsizes, starts, inner, order);
    }
    case 5: {
      const int nblocks = small(rng);
      std::vector<int> blocklens;
      std::vector<std::ptrdiff_t> displs;
      std::vector<Datatype> types;
      std::ptrdiff_t cursor = 0;
      for (int b = 0; b < nblocks; ++b) {
        const Datatype t = random_type(rng, depth - 1);
        const int len = tiny(rng);
        cursor += tiny(rng);  // random gap
        blocklens.push_back(len);
        displs.push_back(cursor);
        types.push_back(t);
        cursor += static_cast<std::ptrdiff_t>(
            static_cast<std::size_t>(len) * t.extent());
      }
      return Datatype::strukt(blocklens, displs, types);
    }
    default: {
      const Datatype inner = random_type(rng, depth - 1);
      const int nblocks = small(rng);
      std::vector<int> blocklens, displs;
      int cursor = 0;
      for (int b = 0; b < nblocks; ++b) {
        const int len = tiny(rng);
        cursor += tiny(rng);
        blocklens.push_back(len);
        displs.push_back(cursor);
        cursor += len;
      }
      return Datatype::indexed(blocklens, displs, inner);
    }
  }
}

std::vector<std::byte> random_bytes(std::mt19937& rng, std::size_t n) {
  std::vector<std::byte> v(n);
  std::uniform_int_distribution<int> d(0, 255);
  for (auto& b : v) b = static_cast<std::byte>(d(rng));
  return v;
}

/// Run lengths of the strided byte trains: every fixed-size specialization
/// of the copy train (1/2/4/8/12/16 B), its neighbours, and odd lengths of
/// the generic memcpy loop up to 100 B.
constexpr std::size_t kTrainLengths[] = {1,  2,  3,  5,  7,  12, 13, 16, 17,
                                         23, 31, 32, 33, 63, 64, 65, 100};

/// 7 runs of `len` bytes with 3-byte gaps between them.
Datatype byte_train(std::size_t len) {
  return Datatype::hvector(7, 1, static_cast<std::ptrdiff_t>(len + 3),
                           Datatype::bytes(len));
}

/// Packs `count` elements of `t` from `src` with the plan and with the
/// legacy walker; a guard byte after the packed stream must stay untouched.
void expect_pack_matches_legacy(const Datatype& t, const std::byte* src,
                                std::size_t count, const std::string& what) {
  std::vector<std::byte> via_plan(count * t.size() + 1, std::byte{0xAA});
  std::vector<std::byte> via_legacy = via_plan;
  {
    PlanToggle on(true);
    t.pack(src, count, via_plan.data());
  }
  {
    PlanToggle off(false);
    t.pack(src, count, via_legacy.data());
  }
  ASSERT_EQ(via_plan, via_legacy) << what << ": " << t.describe();
}

/// Unpacks `count` elements of `t` to offset `misalign` of a pre-filled
/// buffer with a 16-byte guard band after the extent, with the plan and
/// with the legacy walker. Holes and the guard band must keep their
/// previous contents identically on both paths.
void expect_unpack_matches_legacy(const Datatype& t,
                                  const std::vector<std::byte>& packed,
                                  std::size_t count, std::size_t misalign,
                                  const std::string& what) {
  std::vector<std::byte> via_plan(count * t.extent() + misalign + 16,
                                  std::byte{0x5C});
  std::vector<std::byte> via_legacy = via_plan;
  {
    PlanToggle on(true);
    t.unpack(packed.data(), count, via_plan.data() + misalign);
  }
  {
    PlanToggle off(false);
    t.unpack(packed.data(), count, via_legacy.data() + misalign);
  }
  ASSERT_EQ(via_plan, via_legacy) << what << ": " << t.describe();
}

TEST(DatatypePlan, PackMatchesLegacyWalkerOnRandomTrees) {
  std::mt19937 rng(20170406);  // the paper's conference date
  for (int trial = 0; trial < 300; ++trial) {
    const Datatype t = random_type(rng, 3);
    const std::size_t count =
        static_cast<std::size_t>(std::uniform_int_distribution<int>(0, 3)(rng));
    const std::vector<std::byte> src =
        random_bytes(rng, count * t.extent() + 16);
    expect_pack_matches_legacy(t, src.data(), count,
                               "trial " + std::to_string(trial));
  }
  // Byte trains gathered from every base alignment 0..7.
  for (const std::size_t len : kTrainLengths) {
    const Datatype t = byte_train(len);
    for (std::size_t mis = 0; mis < 8; ++mis) {
      const std::vector<std::byte> buf = random_bytes(rng, t.extent() + mis);
      expect_pack_matches_legacy(t, buf.data() + mis, 1,
                                 "len " + std::to_string(len) + " misalign " +
                                     std::to_string(mis));
    }
  }
}

TEST(DatatypePlan, UnpackMatchesLegacyWalkerOnRandomTrees) {
  std::mt19937 rng(424242);
  for (int trial = 0; trial < 300; ++trial) {
    const Datatype t = random_type(rng, 3);
    const std::size_t count =
        static_cast<std::size_t>(std::uniform_int_distribution<int>(0, 3)(rng));
    const std::vector<std::byte> packed = random_bytes(rng, count * t.size());
    expect_unpack_matches_legacy(t, packed, count, 0,
                                 "trial " + std::to_string(trial));
  }
  // Byte trains scattered to every base alignment 0..7.
  for (const std::size_t len : kTrainLengths) {
    const Datatype t = byte_train(len);
    const std::vector<std::byte> packed = random_bytes(rng, t.size());
    for (std::size_t mis = 0; mis < 8; ++mis)
      expect_unpack_matches_legacy(t, packed, 1, mis,
                                   "len " + std::to_string(len) +
                                       " misalign " + std::to_string(mis));
  }
}

TEST(DatatypePlan, ForEachSegmentCoversSizeBytesInPackedOrder) {
  // Whatever the plan does to segment granularity, the runs of one element
  // must be disjoint, in increasing offset order when coalesced, and sum to
  // size() bytes — for both paths.
  std::mt19937 rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const Datatype t = random_type(rng, 3);
    for (const bool enabled : {true, false}) {
      PlanToggle toggle(enabled);
      std::size_t total = 0;
      t.for_each_segment(1, [&](std::size_t, std::size_t len) {
        total += len;
      });
      ASSERT_EQ(total, t.size())
          << "plan=" << enabled << " trial " << trial << ": " << t.describe();
    }
  }
}

TEST(DatatypePlan, PlanSegmentCountCoalescesAdjacentRuns) {
  // vector(4, 1, 1, bytes(2)) is 4 adjacent 2-byte blocks: one run.
  const Datatype t = Datatype::vector(4, 1, 1, Datatype::bytes(2));
  EXPECT_EQ(t.plan_segment_count(), 1u);
  // With stride 2 the blocks are separated: 4 runs.
  const Datatype s = Datatype::vector(4, 1, 2, Datatype::bytes(2));
  EXPECT_EQ(s.plan_segment_count(), 4u);
}

TEST(DatatypePlan, FullBoxSubarrayIsContiguous) {
  // The satellite fix: a sub-box equal to the whole array must keep the
  // memcpy fast path.
  const std::vector<int> sizes{4, 3};
  const std::vector<int> zeros{0, 0};
  const Datatype full = Datatype::subarray(sizes, sizes, zeros,
                                           Datatype::bytes(4));
  EXPECT_TRUE(full.contiguous());
  EXPECT_EQ(full.plan_segment_count(), 1u);

  const std::vector<int> sub{4, 2};
  const Datatype partial = Datatype::subarray(sizes, sub, zeros,
                                              Datatype::bytes(4));
  EXPECT_FALSE(partial.contiguous());
}

/// copy_regions(a -> b) with the plan must produce exactly what a
/// legacy-walker pack(a) followed by unpack(b) produces; a guard band after
/// b's extent must stay untouched.
void expect_copy_regions_matches_legacy(const Datatype& a, std::size_t na,
                                        const Datatype& b, std::size_t nb,
                                        std::mt19937& rng) {
  const std::vector<std::byte> src = random_bytes(rng, na * a.extent());
  std::vector<std::byte> via_copy(nb * b.extent() + 8, std::byte{0x11});
  std::vector<std::byte> via_packed = via_copy;

  mpi::copy_regions(a, src.data(), na, b, via_copy.data(), nb);

  PlanToggle off(false);
  std::vector<std::byte> dense(na * a.size());
  a.pack(src.data(), na, dense.data());
  b.unpack(dense.data(), nb, via_packed.data());

  ASSERT_EQ(via_copy, via_packed)
      << "a=" << a.describe() << " b=" << b.describe();
}

TEST(DatatypePlan, CopyRegionsMatchesPackUnpackOnRandomTreePairs) {
  // Any pair of types describing the same number of data bytes.
  std::mt19937 rng(1717);
  int tested = 0;
  for (int trial = 0; trial < 600 && tested < 120; ++trial) {
    const Datatype a = random_type(rng, 3);
    const Datatype b = random_type(rng, 3);
    if (a.size() == 0 || b.size() == 0) continue;
    // Counts making the byte totals equal: na * a.size() == nb * b.size().
    const std::size_t lcm = std::lcm(a.size(), b.size());
    const std::size_t na = lcm / a.size();
    const std::size_t nb = lcm / b.size();
    if (na > 16 || nb > 16) continue;
    ++tested;
    expect_copy_regions_matches_legacy(a, na, b, nb, rng);
  }
  ASSERT_GE(tested, 50) << "random generator produced too few usable pairs";
  // One element of each of two independent layouts (zero-size ones
  // included); a destination whose size differs becomes a dense run of the
  // source's size, which exercises the one-sided-contiguous path.
  for (int trial = 0; trial < 60; ++trial) {
    const Datatype a = random_type(rng, 3);
    Datatype b = random_type(rng, 3);
    if (b.size() != a.size()) b = Datatype::bytes(a.size());
    expect_copy_regions_matches_legacy(a, 1, b, 1, rng);
  }
}

TEST(DatatypePlan, CopyRegionsZeroBytesIsANoop) {
  const Datatype z = Datatype::bytes(0);
  mpi::copy_regions(z, nullptr, 4, z, nullptr, 2);  // must not crash
}

TEST(DatatypePlan, CopyRegionsRejectsMismatchedByteCounts) {
  const Datatype a = Datatype::bytes(4);
  const Datatype b = Datatype::bytes(3);
  std::vector<std::byte> src(4), dst(3);
  EXPECT_THROW(mpi::copy_regions(a, src.data(), 1, b, dst.data(), 1),
               mpi::Error);
}

TEST(DatatypePlan, QuadCountNeverExceedsSegmentCountOnRandomTrees) {
  // Run compression is lossless bookkeeping: plan_segment_count() stays the
  // number of memcpy runs the legacy walker would make (coalesced), while
  // plan_quad_count() is the stored footprint — never larger, since every
  // quad covers >= 1 run.
  std::mt19937 rng(31337);
  for (int trial = 0; trial < 300; ++trial) {
    const Datatype t = random_type(rng, 3);
    EXPECT_LE(t.plan_quad_count(), t.plan_segment_count())
        << "trial " << trial << ": " << t.describe();

    // Cross-check plan_segment_count() against the coalesced run count the
    // plan-driven walker actually executes.
    std::size_t runs = 0;
    PlanToggle on(true);
    t.for_each_segment(1, [&](std::size_t, std::size_t) { ++runs; });
    EXPECT_EQ(runs, t.plan_segment_count())
        << "trial " << trial << ": " << t.describe();
  }
}

TEST(DatatypePlan, QuadsCompressStridedSubarrayAtLeast4x) {
  // The acceptance bar: a strided3d-style subarray (a 32x32x64 brick of a
  // 64^3 float array) has 2048 equal-length equal-stride rows per element;
  // run compression must store them at least 4x smaller. The actual ratio is
  // 32x (64 quads: one per z-plane, each counting 32 rows).
  const std::vector<int> sizes{64, 64, 64};
  const std::vector<int> sub{32, 32, 64};
  const std::vector<int> starts{0, 0, 0};
  const Datatype brick =
      Datatype::subarray(sizes, sub, starts, Datatype::bytes(4),
                         mpi::Order::fortran);
  EXPECT_EQ(brick.plan_segment_count(), 2048u);
  EXPECT_EQ(brick.plan_quad_count(), 64u);
  EXPECT_GE(brick.plan_segment_count() / brick.plan_quad_count(), 4u);
}

TEST(DatatypePlan, SingleRunLanesStoreOneQuadPerRun) {
  // Degenerate trains (no two consecutive equal-length runs with a common
  // stride) fall back to one quad per run — compression never grows a plan.
  const Datatype t = Datatype::vector(4, 1, 2, Datatype::bytes(2));
  EXPECT_EQ(t.plan_quad_count(), 1u);  // 4 runs, one 4-count quad
  const Datatype c = Datatype::vector(4, 1, 1, Datatype::bytes(2));
  EXPECT_EQ(c.plan_quad_count(), 1u);  // fully coalesced: 1 run, 1 quad
}

TEST(DatatypePlan, PrecompileIsIdempotentAndThreadSafeToReuse) {
  const Datatype t = Datatype::vector(3, 1, 2, Datatype::bytes(8));
  t.precompile();
  const std::size_t n1 = t.plan_segment_count();
  t.precompile();
  EXPECT_EQ(t.plan_segment_count(), n1);
  EXPECT_EQ(n1, 3u);
}

}  // namespace
