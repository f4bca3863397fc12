// Topology-aware two-level exchange: with a simnet::LinkModel installed
// (consecutive ranks share a node), the fused and pipelined backends must
// classify lanes self/intra/inter, move the intra-node lanes zero-copy
// through shared memory, and still produce bit-identical results. The 20x
// loops run under TSan in CI, which is what proves the pointer-publish/ack
// protocol race-free.

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <vector>

#include "ddr/ddr.hpp"
#include "minimpi/minimpi.hpp"
#include "simnet/models.hpp"
#include "test_util.hpp"

namespace {

using ddr::Backend;
using ddr::Chunk;
using ddr::LaneClass;
using ddr::Redistributor;
using ddr_test::fill_chunk;
using ddr_test::oracle_value;

std::span<const std::byte> cbytes_of(const std::vector<float>& v) {
  return std::as_bytes(std::span<const float>(v));
}
std::span<std::byte> bytes_of(std::vector<float>& v) {
  return std::as_writable_bytes(std::span<float>(v));
}

void expect_oracle(const std::vector<float>& need, const Chunk& c) {
  std::size_t i = 0;
  const auto dim = [&](int d) {
    return d < c.ndims ? c.dims[static_cast<std::size_t>(d)] : 1;
  };
  const auto off = [&](int d) {
    return d < c.ndims ? c.offsets[static_cast<std::size_t>(d)] : 0;
  };
  for (int z = 0; z < dim(2); ++z)
    for (int y = 0; y < dim(1); ++y)
      for (int x = 0; x < dim(0); ++x) {
        EXPECT_EQ(need[i], oracle_value(x + off(0), y + off(1), z + off(2)))
            << "at local (" << x << "," << y << "," << z << ")";
        ++i;
      }
}

simnet::LinkParams two_per_node() {
  simnet::LinkParams p;
  p.ranks_per_node = 2;
  return p;
}

/// E1 with 4 ranks and ranks_per_node=2: ranks {0,1} and {2,3} pair up, so
/// every rank has exactly one self lane, one intra lane and two inter lanes.
void run_e1(Backend backend, const mpi::RunOptions& opts, int repeats) {
  mpi::run(
      4,
      [&](mpi::Comm& comm) {
        const int rank = comm.rank();
        Redistributor r(comm, sizeof(float));
        const ddr::OwnedLayout own{Chunk::d2(8, 1, 0, rank),
                                   Chunk::d2(8, 1, 0, rank + 4)};
        const Chunk need = Chunk::d2(4, 4, 4 * (rank % 2), 4 * (rank / 2));
        ddr::SetupOptions sopts;
        sopts.backend = backend;
        r.setup(own, need, sopts);

        if (opts.network != nullptr) {
          EXPECT_TRUE(comm.same_node(rank ^ 1));
          EXPECT_FALSE(comm.same_node(rank ^ 2));
          EXPECT_EQ(r.fused_lane_count(LaneClass::self), 1);
          EXPECT_EQ(r.fused_lane_count(LaneClass::intra), 1);
          EXPECT_EQ(r.fused_lane_count(LaneClass::inter), 2);
        } else {
          EXPECT_EQ(r.fused_lane_count(LaneClass::intra), 0);
          EXPECT_EQ(r.fused_lane_count(LaneClass::inter), 3);
        }

        std::vector<float> own_data;
        for (const auto& c : own) {
          const auto v = fill_chunk(c);
          own_data.insert(own_data.end(), v.begin(), v.end());
        }
        std::vector<float> need_data(
            static_cast<std::size_t>(need.volume()), -1);
        for (int i = 0; i < repeats; ++i) {
          std::fill(need_data.begin(), need_data.end(), -1.0f);
          r.redistribute(cbytes_of(own_data), bytes_of(need_data));
          expect_oracle(need_data, need);
        }
      },
      opts);
}

class TwoLevelBackends : public ::testing::TestWithParam<Backend> {};

TEST_P(TwoLevelBackends, IntraNodeLanesGoZeroCopy) {
  const simnet::LinkModel model(two_per_node());
  mpi::RunOptions opts;
  opts.network = &model;
  run_e1(GetParam(), opts, /*repeats=*/20);
}

TEST_P(TwoLevelBackends, FlatWithoutModelAllLanesInter) {
  run_e1(GetParam(), {}, /*repeats=*/20);
}

INSTANTIATE_TEST_SUITE_P(Exchange, TwoLevelBackends,
                         ::testing::Values(
                             Backend::point_to_point_fused,
                             Backend::point_to_point_pipelined),
                         [](const auto& info) {
                           return info.param == Backend::point_to_point_fused
                                      ? "fused"
                                      : "pipelined";
                         });

// The per-round backends never see intra lanes (classification only drives
// fused/pipelined), but must stay correct under a topology model.
TEST(TwoLevel, PerRoundBackendsUnaffectedByTopology) {
  const simnet::LinkModel model(two_per_node());
  mpi::RunOptions opts;
  opts.network = &model;
  run_e1(Backend::alltoallw, opts, 1);
  run_e1(Backend::point_to_point, opts, 1);
}

}  // namespace
