// rebalance: 4 ranks own 8 drifting z-slabs each of a 64^3 float domain
// (slab i belongs to rank i % 4, thicknesses drawn from the seed and drifting
// op by op) and need fixed 2x2x1 bricks. One op constructs a Redistributor,
// runs setup() with Backend::point_to_point and redistribute() once; the
// bricks are checked against the global-index fill.

#include <array>
#include <cmath>
#include <cstring>
#include <memory>
#include <random>
#include <span>
#include <vector>

#include "ddr/ddr.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

constexpr int kRanks = 4;
constexpr int kN = 64;
constexpr int kSlabsPerRank = 8;
constexpr int kSlabs = kRanks * kSlabsPerRank;

/// z-extent of each of the kSlabs slabs, in z order.
using Slabs = std::array<int, kSlabs>;

/// Seeded drifting slab thicknesses: every slab gets one plane plus a share
/// of the remaining planes by weights 1 + 0.8 sin(phase + speed * op), with
/// per-slab phases and speeds drawn from the seed (largest-remainder
/// rounding, so the thicknesses always sum to kN). Closed-form in the op, so
/// each op's layout is computed in its untimed prepare().
class Drift {
 public:
  explicit Drift(std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> phase(0.0, 6.283185307179586);
    std::uniform_real_distribution<double> speed(0.05, 0.6);
    for (int i = 0; i < kSlabs; ++i) {
      ph_[static_cast<std::size_t>(i)] = phase(rng);
      sp_[static_cast<std::size_t>(i)] = speed(rng);
    }
  }

  [[nodiscard]] Slabs at(std::int64_t op) const {
    std::array<double, kSlabs> w{};
    double total = 0;
    for (std::size_t i = 0; i < w.size(); ++i) {
      w[i] = 1.0 + 0.8 * std::sin(ph_[i] + sp_[i] * static_cast<double>(op));
      total += w[i];
    }
    Slabs s{};
    const int extra = kN - kSlabs;
    int given = 0;
    std::array<double, kSlabs> rem{};
    for (std::size_t i = 0; i < w.size(); ++i) {
      const double share = extra * w[i] / total;
      s[i] = 1 + static_cast<int>(share);
      rem[i] = share - std::floor(share);
      given += s[i] - 1;
    }
    for (; given < extra; ++given) {
      std::size_t best = 0;
      for (std::size_t i = 1; i < rem.size(); ++i)
        if (rem[i] > rem[best]) best = i;
      ++s[best];
      rem[best] = -1;
    }
    return s;
  }

 private:
  std::array<double, kSlabs> ph_{}, sp_{};
};

ddr::OwnedLayout owned_of(const Slabs& s, int rank) {
  ddr::OwnedLayout own;
  int z = 0;
  for (int i = 0; i < kSlabs; ++i) {
    const int t = s[static_cast<std::size_t>(i)];
    if (i % kRanks == rank) own.push_back(ddr::Chunk::d3(kN, kN, t, 0, 0, z));
    z += t;
  }
  return own;
}

ddr::Chunk brick_of(int rank) {
  const int h = kN / 2;
  return ddr::Chunk::d3(h, h, kN, h * (rank % 2), h * (rank / 2), 0);
}

/// The global-index fill: a seeded bijection of the linear index onto
/// floats exactly representable (< 2^24).
float fill_value(std::uint64_t seed, std::int64_t x, std::int64_t y,
                 std::int64_t z) {
  const std::uint64_t g = static_cast<std::uint64_t>(x + kN * (y + kN * z));
  return static_cast<float>((g * 2654435761ULL + seed) & 0xFFFFFFULL);
}

void fill_chunk(std::uint64_t seed, const ddr::Chunk& c, float* out) {
  for (int z = 0; z < c.dims[2]; ++z)
    for (int y = 0; y < c.dims[1]; ++y)
      for (int x = 0; x < c.dims[0]; ++x)
        *out++ = fill_value(seed, c.offsets[0] + x, c.offsets[1] + y,
                            c.offsets[2] + z);
}

ddr::GlobalLayout global_layout(const Slabs& s) {
  ddr::GlobalLayout g;
  for (int r = 0; r < kRanks; ++r) {
    g.owned.push_back(owned_of(s, r));
    g.needed.push_back({brick_of(r)});
  }
  return g;
}

bool same_stats(const ddr::MappingStats& a, const ddr::MappingStats& b) {
  return a.network_bytes == b.network_bytes && a.self_bytes == b.self_bytes &&
         a.transfer_count == b.transfer_count && a.rounds == b.rounds;
}

/// Filled by rank 0; read once the ranks have joined.
struct Shared {
  const Drift* drift = nullptr;
  ddr::MappingStats expected;  ///< compute_stats of the first layout
  double predicted_s = 0;      ///< planner's point_to_point price, last op
  int pack_threads = 0;
};

class RebalanceRank final : public RankWork {
 public:
  RebalanceRank(const mpi::Comm& comm, std::uint64_t seed, Shared& shared)
      : comm_(comm), seed_(seed), shared_(shared) {
    const ddr::Chunk b = brick_of(comm.rank());
    expected_.resize(static_cast<std::size_t>(b.volume()));
    fill_chunk(seed, b, expected_.data());
    needed_.resize(expected_.size());
  }

  void setup(trace::Recorder* rec) override {
    ddr::Redistributor rd(comm_, sizeof(float));
    rd.trace_sink(rec);
    rd.setup(owned_of(layout(0), comm_.rank()), brick_of(comm_.rank()),
             options());
  }

  void prepare(std::int64_t op) override {
    owned_ = owned_of(layout(op), comm_.rank());
    std::size_t n = 0;
    for (const ddr::Chunk& c : owned_)
      n += static_cast<std::size_t>(c.volume());
    data_.resize(n);
    float* p = data_.data();
    for (const ddr::Chunk& c : owned_) {
      fill_chunk(seed_, c, p);
      p += c.volume();
    }
    std::memset(needed_.data(), 0xFF, needed_.size() * sizeof(float));
  }

  void op(std::int64_t, OpMeasure& m, trace::Recorder* rec) override {
    ddr::Redistributor rd(comm_, sizeof(float));
    rd.trace_sink(rec);
    double t = now_s();
    rd.setup(owned_, brick_of(comm_.rank()), options());
    m.laps[kLapDdrSetup] = (now_s() - t) * 1e3;
    t = now_s();
    rd.redistribute(std::as_bytes(std::span<const float>(data_)),
                    std::as_writable_bytes(std::span<float>(needed_)));
    m.laps[kLapDdrRedistribute] = (now_s() - t) * 1e3;
    stats_ok_ = same_stats(rd.stats(), shared_.expected);
    if (comm_.rank() == 0) {
      shared_.pack_threads = rd.plan().pack_threads;
      for (const ddr::CandidateCost& c : rd.plan().candidates)
        if (c.backend == ddr::Backend::point_to_point)
          shared_.predicted_s = c.predicted_s;
    }
  }

  bool verify(std::int64_t) override {
    return stats_ok_ && std::memcmp(needed_.data(), expected_.data(),
                                    needed_.size() * sizeof(float)) == 0;
  }

 private:
  Slabs layout(std::int64_t op) const { return shared_.drift->at(op); }
  static ddr::SetupOptions options() {
    ddr::SetupOptions o;
    o.backend = ddr::Backend::point_to_point;
    return o;
  }

  mpi::Comm comm_;
  std::uint64_t seed_;
  Shared& shared_;
  ddr::OwnedLayout owned_;
  std::vector<float> data_, needed_, expected_;
  bool stats_ok_ = false;
};

}  // namespace

Report run_rebalance(const Args& args) {
  // Point-to-point is an explicit backend: the planner's pack_threads is
  // never applied, so the ranks are the only threads.
  require_thread_budget("rebalance", kRanks, 0);

  const Drift drift(args.seed);
  Shared shared;
  shared.drift = &drift;
  shared.expected =
      ddr::compute_stats(global_layout(drift.at(0)), sizeof(float));
  // Every slab meets every brick in the same proportion, so the schedule
  // statistics are the same for every layout; a sample of the ops a run
  // reaches confirms it.
  Report r;
  for (std::int64_t op = 1; op < (std::int64_t{1} << 16); op += 97) {
    const ddr::GlobalLayout g = global_layout(drift.at(op));
    if (same_stats(ddr::compute_stats(g, sizeof(float)), shared.expected))
      continue;
    r.checks_ok = false;
    r.notes.push_back("schedule statistics differ between layouts");
    break;
  }

  LockstepConfig cfg;
  cfg.nranks = kRanks;
  cfg.window_s = args.seconds;
  cfg.trace = args.trace;
  const Timeline tl = run_lockstep(cfg, [&](const mpi::Comm& comm) {
    return std::make_unique<RebalanceRank>(comm, args.seed, shared);
  });

  count_ops(tl, r);
  if (!args.trace) {
    end_to_end(tl, Throughput::busy, r);
    return r;
  }

  common_layers(tl, r);
  const double setup_ms = lap_ms(tl, kLapDdrSetup);
  const double redistribute_ms = lap_ms(tl, kLapDdrRedistribute);
  r.metrics["ddr.setup_ms"] = setup_ms;
  r.metrics["ddr.redistribute_ms"] = redistribute_ms;
  r.metrics["ddr.network_bytes_per_op"] =
      static_cast<double>(shared.expected.network_bytes);
  r.metrics["ddr.self_bytes_per_op"] =
      static_cast<double>(shared.expected.self_bytes);
  r.metrics["ddr.transfers_per_op"] =
      static_cast<double>(shared.expected.transfer_count);
  r.metrics["ddr.rounds"] = shared.expected.rounds;
  r.metrics["mpi.pack_threads"] = shared.pack_threads;
  if (redistribute_ms > 0)
    r.metrics["planner.predicted_over_measured"] =
        shared.predicted_s * 1e3 / redistribute_ms;
  closure(
      tl, false,
      [](const OpLayers& o) {
        return o.laps[kLapDdrSetup] + o.laps[kLapDdrRedistribute];
      },
      r);
  return r;
}

}  // namespace pb
