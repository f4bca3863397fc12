// Unit and property tests for minimpi derived datatypes: size/extent
// accounting, segment flattening, and pack/unpack roundtrips for every
// constructor.

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <random>
#include <vector>

#include "minimpi/datatype.hpp"

using mpi::Datatype;
using mpi::Order;

namespace {

std::vector<std::byte> iota_bytes(std::size_t n) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::byte>(i & 0xff);
  return v;
}

// Collects (offset, len) segments of one element.
std::vector<std::pair<std::size_t, std::size_t>> segments(const Datatype& t,
                                                          std::size_t count = 1) {
  std::vector<std::pair<std::size_t, std::size_t>> segs;
  t.for_each_segment(count, [&](std::size_t off, std::size_t len) {
    segs.emplace_back(off, len);
  });
  return segs;
}

TEST(Datatype, BytesBasics) {
  const Datatype t = Datatype::bytes(12);
  EXPECT_EQ(t.size(), 12u);
  EXPECT_EQ(t.extent(), 12u);
  EXPECT_TRUE(t.contiguous());
}

TEST(Datatype, NamedOf) {
  EXPECT_EQ(Datatype::of<float>().size(), sizeof(float));
  EXPECT_EQ(Datatype::of<double>().extent(), sizeof(double));
  EXPECT_TRUE(Datatype::of<int>().contiguous());
}

TEST(Datatype, DefaultIsZeroSized) {
  const Datatype t;
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.extent(), 0u);
  // The shared empty node describes the same type as an explicit zero-byte
  // one.
  EXPECT_EQ(t.contiguous(), Datatype::bytes(0).contiguous());
}

TEST(Datatype, ContiguousOfFloat) {
  const Datatype t = Datatype::contiguous(5, Datatype::of<float>());
  EXPECT_EQ(t.size(), 20u);
  EXPECT_EQ(t.extent(), 20u);
  EXPECT_TRUE(t.contiguous());
  const auto segs = segments(t);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0], std::make_pair(std::size_t{0}, std::size_t{20}));
}

TEST(Datatype, VectorSizeExtentAndSegments) {
  // 3 blocks of 2 floats, stride 4 floats: |XX..|XX..|XX|
  const Datatype t = Datatype::vector(3, 2, 4, Datatype::of<float>());
  EXPECT_EQ(t.size(), 3 * 2 * sizeof(float));
  EXPECT_EQ(t.extent(), (2 * 4 + 2) * sizeof(float));
  EXPECT_FALSE(t.contiguous());
  const auto segs = segments(t);
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_EQ(segs[0], std::make_pair(std::size_t{0}, std::size_t{8}));
  EXPECT_EQ(segs[1], std::make_pair(std::size_t{16}, std::size_t{8}));
  EXPECT_EQ(segs[2], std::make_pair(std::size_t{32}, std::size_t{8}));
}

TEST(Datatype, VectorWithUnitStrideIsContiguous) {
  const Datatype t = Datatype::vector(4, 1, 1, Datatype::of<int>());
  EXPECT_TRUE(t.contiguous());
  EXPECT_EQ(t.size(), t.extent());
}

TEST(Datatype, HvectorStrideBytes) {
  const Datatype t = Datatype::hvector(2, 3, 100, Datatype::bytes(1));
  EXPECT_EQ(t.size(), 6u);
  EXPECT_EQ(t.extent(), 103u);
  const auto segs = segments(t);
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[1].first, 100u);
}

TEST(Datatype, NegativeHvectorStrideRejected) {
  EXPECT_THROW(Datatype::hvector(3, 1, -8, Datatype::of<double>()),
               mpi::Error);
}

TEST(Datatype, Subarray2DOrderC) {
  // 4x6 array of bytes, 2x3 sub-box at (1,2); Order::c => last dim fastest.
  const int sizes[] = {4, 6}, subsizes[] = {2, 3}, starts[] = {1, 2};
  const Datatype t =
      Datatype::subarray(sizes, subsizes, starts, Datatype::bytes(1));
  EXPECT_EQ(t.size(), 6u);
  EXPECT_EQ(t.extent(), 24u);
  const auto segs = segments(t);
  ASSERT_EQ(segs.size(), 2u);  // two rows of 3
  EXPECT_EQ(segs[0], std::make_pair(std::size_t{1 * 6 + 2}, std::size_t{3}));
  EXPECT_EQ(segs[1], std::make_pair(std::size_t{2 * 6 + 2}, std::size_t{3}));
}

TEST(Datatype, Subarray2DOrderFortranMatchesTransposedC) {
  // Fortran order: FIRST index fastest. A [x,y] description in Fortran order
  // equals a [y,x] description in C order.
  const int f_sizes[] = {6, 4}, f_sub[] = {3, 2}, f_starts[] = {2, 1};
  const Datatype ft = Datatype::subarray(f_sizes, f_sub, f_starts,
                                         Datatype::bytes(1), Order::fortran);
  const int c_sizes[] = {4, 6}, c_sub[] = {2, 3}, c_starts[] = {1, 2};
  const Datatype ct =
      Datatype::subarray(c_sizes, c_sub, c_starts, Datatype::bytes(1));
  EXPECT_EQ(segments(ft), segments(ct));
}

TEST(Datatype, Subarray1D) {
  const int sizes[] = {10}, subsizes[] = {4}, starts[] = {3};
  const Datatype t =
      Datatype::subarray(sizes, subsizes, starts, Datatype::of<float>());
  EXPECT_EQ(t.size(), 16u);
  EXPECT_EQ(t.extent(), 40u);
  const auto segs = segments(t);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0], std::make_pair(std::size_t{12}, std::size_t{16}));
}

TEST(Datatype, Subarray3DSegmentCount) {
  const int sizes[] = {4, 5, 6}, subsizes[] = {2, 3, 4}, starts[] = {1, 1, 1};
  const Datatype t =
      Datatype::subarray(sizes, subsizes, starts, Datatype::bytes(2));
  EXPECT_EQ(t.size(), 2u * 3u * 4u * 2u);
  // One segment per (i, j) pair of the two outer dimensions.
  EXPECT_EQ(segments(t).size(), 2u * 3u);
}

TEST(Datatype, SubarrayEmptyBoxEmitsNothing) {
  const int sizes[] = {4, 4}, subsizes[] = {0, 2}, starts[] = {0, 0};
  const Datatype t =
      Datatype::subarray(sizes, subsizes, starts, Datatype::bytes(1));
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(segments(t).empty());
}

TEST(Datatype, SubarrayValidation) {
  const int sizes[] = {4, 4};
  {
    const int sub[] = {5, 1}, st[] = {0, 0};
    EXPECT_THROW(Datatype::subarray(sizes, sub, st, Datatype::bytes(1)),
                 mpi::Error);
  }
  {
    const int sub[] = {2, 2}, st[] = {3, 0};
    EXPECT_THROW(Datatype::subarray(sizes, sub, st, Datatype::bytes(1)),
                 mpi::Error);
  }
  {
    const int sub[] = {2, 2}, st[] = {-1, 0};
    EXPECT_THROW(Datatype::subarray(sizes, sub, st, Datatype::bytes(1)),
                 mpi::Error);
  }
}

TEST(Datatype, StructLayout) {
  // block 0: 2 floats at 0; block 1: 1 double at 16.
  const int blocklens[] = {2, 1};
  const std::ptrdiff_t displs[] = {0, 16};
  const Datatype types[] = {Datatype::of<float>(), Datatype::of<double>()};
  const Datatype t = Datatype::strukt(blocklens, displs, types);
  EXPECT_EQ(t.size(), 2 * sizeof(float) + sizeof(double));
  EXPECT_EQ(t.extent(), 24u);
  const auto segs = segments(t);
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0], std::make_pair(std::size_t{0}, std::size_t{8}));
  EXPECT_EQ(segs[1], std::make_pair(std::size_t{16}, std::size_t{8}));
}

TEST(Datatype, ResizedChangesExtentOnly) {
  const Datatype t = Datatype::resized(Datatype::of<float>(), 16);
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.extent(), 16u);
  const auto segs = segments(t, 2);
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[1].first, 16u);  // second element starts one extent later
}

TEST(Datatype, PackUnpackVectorRoundtrip) {
  const Datatype t = Datatype::vector(3, 2, 4, Datatype::of<float>());
  const auto src = iota_bytes(t.extent());
  std::vector<std::byte> packed(t.size());
  t.pack(src.data(), 1, packed.data());
  std::vector<std::byte> dst(t.extent(), std::byte{0xee});
  t.unpack(packed.data(), 1, dst.data());
  // Every byte covered by the type must roundtrip; holes stay untouched.
  t.for_each_segment(1, [&](std::size_t off, std::size_t len) {
    EXPECT_EQ(std::memcmp(dst.data() + off, src.data() + off, len), 0);
  });
}

TEST(Datatype, PackedOrderIsSegmentOrder) {
  const int sizes[] = {3, 4}, subsizes[] = {2, 2}, starts[] = {1, 1};
  const Datatype t =
      Datatype::subarray(sizes, subsizes, starts, Datatype::bytes(1));
  const auto src = iota_bytes(t.extent());
  std::vector<std::byte> packed(t.size());
  t.pack(src.data(), 1, packed.data());
  // Row 1 cols 1-2 then row 2 cols 1-2 of a 3x4 byte array.
  EXPECT_EQ(packed[0], src[1 * 4 + 1]);
  EXPECT_EQ(packed[1], src[1 * 4 + 2]);
  EXPECT_EQ(packed[2], src[2 * 4 + 1]);
  EXPECT_EQ(packed[3], src[2 * 4 + 2]);
}

TEST(Datatype, MultiElementPackUsesExtentStride) {
  const Datatype t = Datatype::vector(2, 1, 2, Datatype::bytes(1));
  // One element: bytes {0, 2}; extent 3. Two elements: {0,2, 3,5}.
  const auto src = iota_bytes(2 * t.extent());
  std::vector<std::byte> packed(2 * t.size());
  t.pack(src.data(), 2, packed.data());
  EXPECT_EQ(packed[0], src[0]);
  EXPECT_EQ(packed[1], src[2]);
  EXPECT_EQ(packed[2], src[3]);
  EXPECT_EQ(packed[3], src[5]);
}

// --- property sweep: random subarrays roundtrip ----------------------------

struct SubarrayCase {
  int ndims;
  unsigned seed;
};

class SubarrayRoundtrip : public ::testing::TestWithParam<SubarrayCase> {};

TEST_P(SubarrayRoundtrip, PackUnpackIdentity) {
  const auto [ndims, seed] = GetParam();
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> dim_dist(1, 9);
  for (int iter = 0; iter < 25; ++iter) {
    std::vector<int> sizes(static_cast<std::size_t>(ndims));
    std::vector<int> sub(static_cast<std::size_t>(ndims));
    std::vector<int> starts(static_cast<std::size_t>(ndims));
    for (int d = 0; d < ndims; ++d) {
      const auto k = static_cast<std::size_t>(d);
      sizes[k] = dim_dist(rng);
      sub[k] = std::uniform_int_distribution<int>(0, sizes[k])(rng);
      starts[k] = std::uniform_int_distribution<int>(0, sizes[k] - sub[k])(rng);
    }
    const std::size_t elem = 1 + static_cast<std::size_t>(iter % 4);
    const Datatype t =
        Datatype::subarray(sizes, sub, starts, Datatype::bytes(elem));

    const auto src = iota_bytes(t.extent());
    std::vector<std::byte> packed(t.size(), std::byte{0});
    t.pack(src.data(), 1, packed.data());
    std::vector<std::byte> dst(t.extent(), std::byte{0xAA});
    t.unpack(packed.data(), 1, dst.data());

    std::size_t covered = 0;
    t.for_each_segment(1, [&](std::size_t off, std::size_t len) {
      EXPECT_EQ(std::memcmp(dst.data() + off, src.data() + off, len), 0)
          << "ndims=" << ndims << " iter=" << iter;
      covered += len;
    });
    EXPECT_EQ(covered, t.size());
    // Bytes outside the sub-box must be untouched.
    std::vector<bool> in_box(t.extent(), false);
    t.for_each_segment(1, [&](std::size_t off, std::size_t len) {
      for (std::size_t i = off; i < off + len; ++i) in_box[i] = true;
    });
    for (std::size_t i = 0; i < dst.size(); ++i) {
      if (!in_box[i]) {
        EXPECT_EQ(dst[i], std::byte{0xAA}) << "hole at " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Dims, SubarrayRoundtrip,
    ::testing::Values(SubarrayCase{1, 11}, SubarrayCase{2, 22},
                      SubarrayCase{3, 33}, SubarrayCase{4, 44}),
    [](const auto& info) {
      return "ndims" + std::to_string(info.param.ndims);
    });

TEST(Datatype, IndexedLayout) {
  // Blocks of 2 and 3 floats at element displacements 1 and 5.
  const int blocklens[] = {2, 3};
  const int displs[] = {1, 5};
  const Datatype t = Datatype::indexed(blocklens, displs, Datatype::of<float>());
  EXPECT_EQ(t.size(), 5 * sizeof(float));
  EXPECT_EQ(t.extent(), 8 * sizeof(float));
  const auto segs = segments(t);
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0], std::make_pair(std::size_t{4}, std::size_t{8}));
  EXPECT_EQ(segs[1], std::make_pair(std::size_t{20}, std::size_t{12}));
}

TEST(Datatype, IndexedBlockUniformLengths) {
  const int displs[] = {0, 4, 9};
  const Datatype t =
      Datatype::indexed_block(2, displs, Datatype::bytes(1));
  EXPECT_EQ(t.size(), 6u);
  EXPECT_EQ(t.extent(), 11u);
  const auto segs = segments(t);
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_EQ(segs[2], std::make_pair(std::size_t{9}, std::size_t{2}));
}

TEST(Datatype, IndexedPackUnpackRoundtrip) {
  const int blocklens[] = {1, 2, 1};
  const int displs[] = {6, 2, 0};  // out-of-order displacements are legal
  const Datatype t = Datatype::indexed(blocklens, displs, Datatype::bytes(2));
  const auto src = iota_bytes(t.extent());
  std::vector<std::byte> packed(t.size());
  t.pack(src.data(), 1, packed.data());
  // Packed order follows block order: displ 6, then 2-3, then 0.
  EXPECT_EQ(packed[0], src[12]);
  EXPECT_EQ(packed[2], src[4]);
  EXPECT_EQ(packed[6], src[0]);
  std::vector<std::byte> dst(t.extent(), std::byte{0xCC});
  t.unpack(packed.data(), 1, dst.data());
  t.for_each_segment(1, [&](std::size_t off, std::size_t len) {
    EXPECT_EQ(std::memcmp(dst.data() + off, src.data() + off, len), 0);
  });
}

TEST(Datatype, IndexedValidation) {
  const int blocklens[] = {1, 2};
  const int displs[] = {0};
  EXPECT_THROW(Datatype::indexed(blocklens, displs, Datatype::bytes(1)),
               mpi::Error);
}

// --- nested constructor combinations ----------------------------------------

TEST(Datatype, ContiguousOfSubarray) {
  // Three consecutive 2x2 corners of 4x4 byte tiles.
  const int sizes[] = {4, 4}, sub[] = {2, 2}, st[] = {0, 0};
  const Datatype tile = Datatype::subarray(sizes, sub, st, Datatype::bytes(1));
  const Datatype t = Datatype::contiguous(3, tile);
  EXPECT_EQ(t.size(), 12u);
  EXPECT_EQ(t.extent(), 48u);
  const auto segs = segments(t);
  ASSERT_EQ(segs.size(), 6u);  // 2 rows per tile x 3 tiles
  EXPECT_EQ(segs[2].first, 16u);  // second tile starts one tile-extent later
}

TEST(Datatype, VectorOfSubarray) {
  // Two 1x2 boxes from 2x4 tiles, tiles strided 2 apart.
  const int sizes[] = {2, 4}, sub[] = {1, 2}, st[] = {1, 1};
  const Datatype tile = Datatype::subarray(sizes, sub, st, Datatype::bytes(1));
  const Datatype t = Datatype::vector(2, 1, 2, tile);
  EXPECT_EQ(t.size(), 4u);
  const auto segs = segments(t);
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0], std::make_pair(std::size_t{5}, std::size_t{2}));
  EXPECT_EQ(segs[1], std::make_pair(std::size_t{21}, std::size_t{2}));
}

TEST(Datatype, SubarrayOfVectorInner) {
  // Inner element is itself non-contiguous: every other byte of 4.
  const Datatype inner = Datatype::vector(2, 1, 2, Datatype::bytes(1));
  EXPECT_EQ(inner.size(), 2u);
  EXPECT_EQ(inner.extent(), 3u);
  const int sizes[] = {3}, sub[] = {2}, st[] = {1};
  const Datatype t = Datatype::subarray(sizes, sub, st, inner);
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.extent(), 9u);
  const auto segs = segments(t);
  // Two inner elements covering bytes {3, 5} and {6, 8}: the second run of
  // the first element touches the first run of the second, so the compiled
  // plan coalesces them into one 2-byte run.
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_EQ(segs[0], std::make_pair(std::size_t{3}, std::size_t{1}));
  EXPECT_EQ(segs[1], std::make_pair(std::size_t{5}, std::size_t{2}));
  EXPECT_EQ(segs[2], std::make_pair(std::size_t{8}, std::size_t{1}));
}

TEST(Datatype, StructOfStructs) {
  const int bl1[] = {1};
  const std::ptrdiff_t d1[] = {2};
  const Datatype innermost[] = {Datatype::bytes(3)};
  const Datatype mid = Datatype::strukt(bl1, d1, innermost);  // 3 B at +2
  const int bl2[] = {1, 1};
  const std::ptrdiff_t d2[] = {0, 10};
  const Datatype two[] = {mid, mid};
  const Datatype t = Datatype::strukt(bl2, d2, two);
  EXPECT_EQ(t.size(), 6u);
  EXPECT_EQ(t.extent(), 15u);
  const auto segs = segments(t);
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0], std::make_pair(std::size_t{2}, std::size_t{3}));
  EXPECT_EQ(segs[1], std::make_pair(std::size_t{12}, std::size_t{3}));
}

TEST(Datatype, NestedRoundtripProperty) {
  // Pack/unpack identity for a deliberately gnarly nesting.
  std::mt19937 rng(4096);
  const Datatype inner = Datatype::vector(3, 2, 3, Datatype::bytes(2));
  const int sizes[] = {4, 3}, sub[] = {2, 2}, st[] = {1, 0};
  const Datatype mid = Datatype::subarray(sizes, sub, st, inner);
  const Datatype t = Datatype::contiguous(2, mid);

  std::vector<std::byte> src(t.extent());
  for (auto& b : src) b = static_cast<std::byte>(rng() & 0xff);
  std::vector<std::byte> packed(t.size());
  t.pack(src.data(), 1, packed.data());
  std::vector<std::byte> dst(t.extent(), std::byte{0x11});
  t.unpack(packed.data(), 1, dst.data());
  std::size_t covered = 0;
  t.for_each_segment(1, [&](std::size_t off, std::size_t len) {
    EXPECT_EQ(std::memcmp(dst.data() + off, src.data() + off, len), 0);
    covered += len;
  });
  EXPECT_EQ(covered, t.size());
}

TEST(Datatype, DescribeMentionsShape) {
  const int sizes[] = {4, 6}, subsizes[] = {2, 3}, starts[] = {1, 2};
  const Datatype t =
      Datatype::subarray(sizes, subsizes, starts, Datatype::bytes(1));
  const std::string d = t.describe();
  EXPECT_NE(d.find("subarray"), std::string::npos);
  EXPECT_NE(d.find("[4,6]"), std::string::npos);
}

}  // namespace
