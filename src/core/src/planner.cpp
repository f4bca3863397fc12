#include "ddr/planner.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "ddr/mapping.hpp"

namespace ddr {

namespace {

// --- software-regime cost constants ------------------------------------------
// Used when no NetworkModel is installed (the wall-clock bench regime):
// calibrated against BENCH_redistribute.json on the reference host so the
// argmin over candidates reproduces the measured winners (plain p2p on
// low-round small exchanges, the fused flavours when fusion collapses the
// message count, pipelined over fused when the receive window overlaps).
// Absolute values matter less than ratios — the planner compares candidates,
// it does not forecast wall time.

/// Post + match + drain cost of one mailbox message.
constexpr double kMsgOverheadS = 1.5e-6;
/// Pack + mailbox copy + unpack cost per payload byte.
constexpr double kByteCostS = 4.0e-10;
/// Extra type-walk cost of one stitched fused lane (deeper plan than the
/// per-round subarrays it replaces).
constexpr double kLaneStitchS = 4.0e-7;
/// Per-peer-per-round loop cost of the dense alltoallw walk.
constexpr double kRoundSyncS = 3.0e-7;
/// One hop of the dissemination barrier fencing a collective-sequence wave.
constexpr double kBarrierHopS = 1.5e-6;
/// Plan-walk cost per stored quad (local predicted_s refinement only).
constexpr double kQuadWalkS = 5.0e-9;
/// Fraction of the smaller of pack/unpack byte cost the pipelined backend
/// hides behind the receive window.
constexpr double kPipelineOverlap = 0.5;
/// The pipelined backend earns that overlap credit only when some lane
/// carries at least this many bytes: below it the per-lane spans dominate
/// and the receive window hides nothing.
constexpr std::int64_t kPipelineOverlapMinLaneBytes = 32 * 1024;
/// Zero-copy intra-node lanes still pay one copy_regions pass.
constexpr double kIntraByteCostS = 2.0e-10;

/// Per-(sender, receiver) aggregation of the exchange, plus per-rank and
/// per-round totals — everything the candidate costs are computed from.
struct Aggregates {
  int nranks = 0;
  int rounds = 0;
  std::vector<CollectiveLane> lanes;  ///< non-self, (sender, receiver) order
  std::vector<bool> lane_inter;       ///< parallel to lanes
  std::int64_t self_bytes = 0;
  std::int64_t total_bytes = 0;       ///< non-self payload bytes
  std::int64_t inter_bytes = 0;
  std::int64_t intra_bytes = 0;
  std::int64_t pieces = 0;            ///< non-self (round, pair) transfers
  std::int64_t max_lane_bytes = 0;
  std::vector<std::int64_t> round_bytes;  ///< non-self bytes per round
  // Per-rank splits (index: comm rank).
  std::vector<std::int64_t> pieces_out, pieces_in;
  std::vector<std::int64_t> lanes_out, lanes_in;
  std::vector<std::int64_t> bytes_out, bytes_in;
  std::vector<std::int64_t> intra_lanes_out, intra_lanes_in;
  std::vector<std::int64_t> self_bytes_rank;
};

int to_world(int comm_rank, const std::vector<int>* world_ranks) {
  return world_ranks != nullptr
             ? (*world_ranks)[static_cast<std::size_t>(comm_rank)]
             : comm_rank;
}

Aggregates aggregate(const GlobalLayout& layout, std::size_t elem_size,
                     const mpi::NetworkModel* net,
                     const std::vector<int>* world_ranks) {
  Aggregates a;
  a.nranks = static_cast<int>(layout.owned.size());
  for (const OwnedLayout& o : layout.owned)
    a.rounds = std::max(a.rounds, static_cast<int>(o.size()));
  const auto p = static_cast<std::size_t>(a.nranks);
  a.round_bytes.assign(static_cast<std::size_t>(a.rounds), 0);
  a.pieces_out.assign(p, 0);
  a.pieces_in.assign(p, 0);
  a.lanes_out.assign(p, 0);
  a.lanes_in.assign(p, 0);
  a.bytes_out.assign(p, 0);
  a.bytes_in.assign(p, 0);
  a.intra_lanes_out.assign(p, 0);
  a.intra_lanes_in.assign(p, 0);
  a.self_bytes_rank.assign(p, 0);

  auto node_of = [&](int rank) {
    if (net == nullptr) return rank;  // every rank its own node
    return net->node_of(to_world(rank, world_ranks));
  };

  std::map<std::pair<int, int>, std::pair<std::int64_t, std::int64_t>> pair_agg;
  for (const Transfer& t : enumerate_transfers(layout, elem_size)) {
    if (t.sender == t.receiver) {
      a.self_bytes += t.bytes;
      a.self_bytes_rank[static_cast<std::size_t>(t.sender)] += t.bytes;
      continue;
    }
    auto& [bytes, pieces] = pair_agg[{t.sender, t.receiver}];
    bytes += t.bytes;
    ++pieces;
    a.round_bytes[static_cast<std::size_t>(t.round)] += t.bytes;
  }

  for (const auto& [key, agg] : pair_agg) {
    const auto [s, r] = key;
    const auto [bytes, pieces] = agg;
    const bool intra = net != nullptr && node_of(s) == node_of(r);
    a.lanes.push_back({s, r, bytes, 0});
    a.lane_inter.push_back(!intra);
    a.total_bytes += bytes;
    a.pieces += pieces;
    a.max_lane_bytes = std::max(a.max_lane_bytes, bytes);
    const auto si = static_cast<std::size_t>(s);
    const auto ri = static_cast<std::size_t>(r);
    a.pieces_out[si] += pieces;
    a.pieces_in[ri] += pieces;
    ++a.lanes_out[si];
    ++a.lanes_in[ri];
    a.bytes_out[si] += bytes;
    a.bytes_in[ri] += bytes;
    if (intra) {
      a.intra_bytes += bytes;
      ++a.intra_lanes_out[si];
      ++a.intra_lanes_in[ri];
    } else {
      a.inter_bytes += bytes;
    }
  }
  return a;
}

/// Cost of one message between comm ranks under the active regime.
struct Pricer {
  const mpi::NetworkModel* net;
  const std::vector<int>* world_ranks;

  [[nodiscard]] double send_side(std::int64_t bytes) const {
    if (net != nullptr)
      return net->send_overhead(static_cast<std::size_t>(bytes));
    return kMsgOverheadS + static_cast<double>(bytes) * kByteCostS;
  }
  [[nodiscard]] double recv_side(std::int64_t bytes, int src, int dst) const {
    if (net != nullptr)
      return net->transfer_time(static_cast<std::size_t>(bytes),
                                to_world(src, world_ranks),
                                to_world(dst, world_ranks)) +
             net->recv_overhead(static_cast<std::size_t>(bytes));
    return kMsgOverheadS + static_cast<double>(bytes) * kByteCostS;
  }
};

double max_of(const std::vector<double>& v) {
  double m = 0.0;
  for (const double x : v) m = std::max(m, x);
  return m;
}

CollectiveShape detect_shape(const GlobalLayout& layout,
                             const Aggregates& a) {
  if (a.lanes.empty()) return CollectiveShape::none;
  // Broadcast shape: every rank declared the identical needed chunk set, so
  // each sender's packed lane stream is identical for every receiver and the
  // exchange is an allgather.
  bool identical_needs = layout.needed.size() >= 2;
  const NeededLayout& first = layout.needed.front();
  for (const NeededLayout& n : layout.needed) {
    if (n.size() != first.size()) {
      identical_needs = false;
      break;
    }
    for (std::size_t i = 0; i < n.size(); ++i)
      if (!(n[i] == first[i])) {
        identical_needs = false;
        break;
      }
    if (!identical_needs) break;
  }
  if (identical_needs) return CollectiveShape::allgather;
  int sender = a.lanes.front().sender;
  int receiver = a.lanes.front().receiver;
  bool one_sender = true;
  bool one_receiver = true;
  for (const CollectiveLane& l : a.lanes) {
    one_sender = one_sender && l.sender == sender;
    one_receiver = one_receiver && l.receiver == receiver;
  }
  if (one_sender) return CollectiveShape::scatter;
  if (one_receiver) return CollectiveShape::gather;
  return CollectiveShape::none;
}

}  // namespace

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::alltoallw:
      return "alltoallw";
    case Backend::point_to_point:
      return "point_to_point";
    case Backend::point_to_point_fused:
      return "point_to_point_fused";
    case Backend::point_to_point_pipelined:
      return "point_to_point_pipelined";
    case Backend::collective:
      return "collective";
    case Backend::hybrid:
      return "hybrid";
    case Backend::automatic:
      return "automatic";
  }
  return "unknown";
}

std::vector<CollectiveLane> collective_lanes(const GlobalLayout& layout,
                                             std::size_t elem_size) {
  std::map<std::pair<int, int>, std::int64_t> pair_bytes;
  for (const Transfer& t : enumerate_transfers(layout, elem_size)) {
    if (t.sender == t.receiver) continue;
    pair_bytes[{t.sender, t.receiver}] += t.bytes;
  }
  std::vector<CollectiveLane> lanes;
  lanes.reserve(pair_bytes.size());
  for (const auto& [key, bytes] : pair_bytes)
    lanes.push_back({key.first, key.second, bytes, 0});
  return lanes;
}

std::vector<CollectiveLane> hybrid_inter_lanes(
    const GlobalLayout& layout, std::size_t elem_size,
    const mpi::NetworkModel* net, const std::vector<int>* world_ranks) {
  std::vector<CollectiveLane> lanes = collective_lanes(layout, elem_size);
  if (net == nullptr) return lanes;  // every rank its own node: all inter
  std::erase_if(lanes, [&](const CollectiveLane& l) {
    return net->node_of(to_world(l.sender, world_ranks)) ==
           net->node_of(to_world(l.receiver, world_ranks));
  });
  return lanes;
}

int assign_collective_waves(std::vector<CollectiveLane>& lanes,
                            std::size_t peak_staging_bytes) {
  if (lanes.empty()) return 1;
  if (peak_staging_bytes == 0) {
    for (CollectiveLane& l : lanes) l.wave = 0;
    return 1;
  }
  std::int64_t largest = 0;
  for (const CollectiveLane& l : lanes) largest = std::max(largest, l.bytes);
  // The budget is floored at the largest lane: a lane is packed as one
  // payload, so no schedule can push the peak below it.
  const std::int64_t eff =
      std::max(largest, static_cast<std::int64_t>(peak_staging_bytes));
  int wave = 0;
  std::int64_t acc = 0;
  for (CollectiveLane& l : lanes) {
    if (acc > 0 && acc + l.bytes > eff) {
      ++wave;
      acc = 0;
    }
    l.wave = wave;
    acc += l.bytes;
  }
  return wave + 1;
}

PlanDecision Planner::decide(const GlobalLayout& layout, std::size_t elem_size,
                             const mpi::NetworkModel* net,
                             std::size_t peak_staging_bytes,
                             const DataMapping* local_mapping,
                             const std::vector<int>* world_ranks) {
  const Aggregates a = aggregate(layout, elem_size, net, world_ranks);
  const Pricer price{net, world_ranks};
  const auto p = static_cast<std::size_t>(a.nranks);

  PlanDecision d;
  d.shape = detect_shape(layout, a);

  // Wave schedule of the collective-sequence lowering (also reported when
  // another backend wins, so --plan can show the budget's effect).
  std::vector<CollectiveLane> waves_lanes = a.lanes;
  d.waves = assign_collective_waves(waves_lanes, peak_staging_bytes);
  std::int64_t max_wave_bytes = 0;
  {
    std::vector<std::int64_t> per_wave(static_cast<std::size_t>(d.waves), 0);
    for (const CollectiveLane& l : waves_lanes)
      per_wave[static_cast<std::size_t>(l.wave)] += l.bytes;
    for (const std::int64_t b : per_wave)
      max_wave_bytes = std::max(max_wave_bytes, b);
  }

  // Hybrid's inter-node-only wave schedule: the intra lanes it excludes stop
  // competing for the budget, so hybrid_waves <= waves.
  std::vector<CollectiveLane> hybrid_lanes;
  std::int64_t intra_lane_count = 0;
  for (std::size_t i = 0; i < a.lanes.size(); ++i) {
    if (a.lane_inter[i])
      hybrid_lanes.push_back(a.lanes[i]);
    else
      ++intra_lane_count;
  }
  const auto inter_lane_count = static_cast<std::int64_t>(hybrid_lanes.size());
  d.hybrid_waves = assign_collective_waves(hybrid_lanes, peak_staging_bytes);
  std::int64_t max_hybrid_wave_bytes = 0;
  {
    std::vector<std::int64_t> per_wave(
        static_cast<std::size_t>(d.hybrid_waves), 0);
    for (const CollectiveLane& l : hybrid_lanes)
      per_wave[static_cast<std::size_t>(l.wave)] += l.bytes;
    for (const std::int64_t b : per_wave)
      max_hybrid_wave_bytes = std::max(max_hybrid_wave_bytes, b);
  }

  // Per-rank cost of the plain per-(round, pair) schedule: p2p and
  // alltoallw move the same pieces; they differ in loop structure only.
  std::vector<double> plain(p, 0.0);
  std::vector<double> fused_fixed(p, 0.0);
  std::vector<double> fused_bytes_out(p, 0.0), fused_bytes_in(p, 0.0);
  for (std::size_t i = 0; i < a.lanes.size(); ++i) {
    const CollectiveLane& l = a.lanes[i];
    const auto si = static_cast<std::size_t>(l.sender);
    const auto ri = static_cast<std::size_t>(l.receiver);
    const bool inter = a.lane_inter[i];
    if (inter) {
      fused_fixed[si] += price.send_side(0) + kLaneStitchS;
      fused_fixed[ri] += kLaneStitchS;
      fused_bytes_out[si] += price.send_side(l.bytes) - price.send_side(0);
      fused_bytes_in[ri] += price.recv_side(l.bytes, l.sender, l.receiver);
    } else {
      // Zero-copy intra-node lane: two control messages and one
      // copy_regions pass, no packed payload.
      const double ctrl = price.send_side(0) + price.recv_side(0, l.sender,
                                                               l.receiver);
      fused_fixed[si] += ctrl;
      fused_fixed[ri] += ctrl +
                         static_cast<double>(l.bytes) * kIntraByteCostS;
    }
  }
  // Plain pieces: every (round, pair) transfer is its own message.
  for (const Transfer& t : enumerate_transfers(layout, elem_size)) {
    if (t.sender == t.receiver) continue;
    plain[static_cast<std::size_t>(t.sender)] += price.send_side(t.bytes);
    plain[static_cast<std::size_t>(t.receiver)] +=
        price.recv_side(t.bytes, t.sender, t.receiver);
  }

  auto add_candidate = [&](Backend b, double predicted, std::int64_t msgs,
                           std::size_t peak) {
    CandidateCost c;
    c.backend = b;
    c.predicted_s = predicted;
    c.messages = msgs;
    c.inter_node_bytes = a.inter_bytes;
    c.intra_node_bytes = a.intra_bytes;
    c.self_bytes = a.self_bytes;
    c.predicted_peak_staging = peak;
    c.feasible = peak_staging_bytes == 0 ||
                 peak <= peak_staging_bytes ||
                 b == Backend::collective;
    // Hybrid's waves enforce the budget like collective's, but with zero
    // intra-node lanes it degenerates to the plain collective sequence —
    // nothing composite is left to win on, so it is marked infeasible and
    // every single-backend golden decision is preserved.
    if (b == Backend::hybrid) c.feasible = intra_lane_count > 0;
    d.candidates.push_back(c);
  };

  // alltoallw: dense per-round pairwise walk on top of the plain pieces.
  {
    std::vector<double> cost = plain;
    const double loop = static_cast<double>(a.rounds) *
                        static_cast<double>(a.nranks) * kRoundSyncS;
    for (double& x : cost) x += loop;
    std::int64_t peak = 0;
    for (const std::int64_t b : a.round_bytes) peak = std::max(peak, b);
    add_candidate(Backend::alltoallw, max_of(cost), a.pieces,
                  static_cast<std::size_t>(peak));
  }
  // point_to_point: the plain pieces, all rounds posted at once.
  add_candidate(Backend::point_to_point, max_of(plain), a.pieces,
                static_cast<std::size_t>(a.total_bytes));

  // fused: one message per inter-node lane.
  std::int64_t fused_msgs = 0;
  std::int64_t fused_peak = 0;
  for (std::size_t i = 0; i < a.lanes.size(); ++i)
    if (a.lane_inter[i]) {
      ++fused_msgs;
      fused_peak += a.lanes[i].bytes;
    } else {
      fused_msgs += 2;  // pointer publish + ack
      fused_peak += static_cast<std::int64_t>(sizeof(std::uintptr_t));
    }
  std::vector<double> fused(p, 0.0);
  for (std::size_t r = 0; r < p; ++r)
    fused[r] = fused_fixed[r] + fused_bytes_out[r] + fused_bytes_in[r];
  add_candidate(Backend::point_to_point_fused, max_of(fused), fused_msgs,
                static_cast<std::size_t>(fused_peak));

  // pipelined: fused minus the pack/unpack overlap the receive window hides.
  // Small lanes see no benefit — the per-lane spans dominate — so the credit
  // is gated on a minimum lane size. It is also gated on
  // fusion actually collapsing messages (pieces > lanes): in a single-round
  // exchange the fused lane set IS the plain message set, the stitched types
  // buy nothing, and measured medians put plain p2p ahead (bcast3d).
  {
    std::vector<double> cost = fused;
    if (a.max_lane_bytes >= kPipelineOverlapMinLaneBytes &&
        a.pieces > static_cast<std::int64_t>(a.lanes.size()))
      for (std::size_t r = 0; r < p; ++r)
        if (a.lanes_in[r] >= 2)
          cost[r] -= kPipelineOverlap *
                     std::min(fused_bytes_out[r], fused_bytes_in[r]);
    add_candidate(Backend::point_to_point_pipelined, max_of(cost), fused_msgs,
                  static_cast<std::size_t>(fused_peak));
  }

  // collective sequence: every non-self lane packed and sent exactly once
  // (intra lanes included — waves fence the pool, zero-copy does not
  // compose with them), one barrier per wave.
  {
    std::vector<double> cost(p, 0.0);
    for (const CollectiveLane& l : a.lanes) {
      const auto si = static_cast<std::size_t>(l.sender);
      const auto ri = static_cast<std::size_t>(l.receiver);
      cost[si] += price.send_side(l.bytes) + kLaneStitchS;
      cost[ri] += price.recv_side(l.bytes, l.sender, l.receiver) +
                  kLaneStitchS;
    }
    const double fence =
        static_cast<double>(d.waves) *
        (std::ceil(std::log2(std::max(2, a.nranks))) * 2.0 * kBarrierHopS);
    for (double& x : cost) x += fence;
    add_candidate(Backend::collective, max_of(cost),
                  static_cast<std::int64_t>(a.lanes.size()),
                  static_cast<std::size_t>(max_wave_bytes));
  }

  // hybrid: per-peer-class composition. Self lanes copy in place, intra
  // lanes keep the fused flavours' ptr-publish zero-copy path (two control
  // messages, one copy_regions pass), and only the inter lanes run through
  // the fenced wave sequence — over hybrid_waves, not waves, because the
  // intra bytes no longer compete for the budget. The per-class makespans
  // are kept for class_plans below.
  std::vector<double> hybrid_intra(p, 0.0), hybrid_inter(p, 0.0);
  {
    for (std::size_t i = 0; i < a.lanes.size(); ++i) {
      const CollectiveLane& l = a.lanes[i];
      const auto si = static_cast<std::size_t>(l.sender);
      const auto ri = static_cast<std::size_t>(l.receiver);
      if (a.lane_inter[i]) {
        hybrid_inter[si] += price.send_side(l.bytes) + kLaneStitchS;
        hybrid_inter[ri] += price.recv_side(l.bytes, l.sender, l.receiver) +
                            kLaneStitchS;
      } else {
        const double ctrl = price.send_side(0) + price.recv_side(0, l.sender,
                                                                 l.receiver);
        hybrid_intra[si] += ctrl;
        hybrid_intra[ri] += ctrl +
                            static_cast<double>(l.bytes) * kIntraByteCostS;
      }
    }
    const double fence =
        static_cast<double>(d.hybrid_waves) *
        (std::ceil(std::log2(std::max(2, a.nranks))) * 2.0 * kBarrierHopS);
    for (double& x : hybrid_inter) x += fence;
    std::vector<double> cost(p, 0.0);
    for (std::size_t r = 0; r < p; ++r)
      cost[r] = hybrid_intra[r] + hybrid_inter[r];
    // Peak: the largest inter wave's staged payloads plus the intra lanes'
    // published pointers.
    const std::int64_t peak =
        max_hybrid_wave_bytes +
        intra_lane_count * static_cast<std::int64_t>(sizeof(std::uintptr_t));
    add_candidate(Backend::hybrid, max_of(cost),
                  inter_lane_count + 2 * intra_lane_count,
                  static_cast<std::size_t>(peak));
  }

  // The per-peer-class partition with the lowering hybrid composes per
  // class — global aggregates only, so identical on every rank.
  {
    std::int64_t self_lanes = 0;
    double self_cost = 0.0;
    for (std::size_t r = 0; r < p; ++r) {
      if (a.self_bytes_rank[r] > 0) ++self_lanes;
      self_cost = std::max(
          self_cost, static_cast<double>(a.self_bytes_rank[r]) *
                         kIntraByteCostS);
    }
    d.class_plans = {
        {LaneClass::self, self_lanes, a.self_bytes, self_cost,
         "copy_regions"},
        {LaneClass::intra, intra_lane_count, a.intra_bytes,
         max_of(hybrid_intra), "ptr_publish"},
        {LaneClass::inter, inter_lane_count, a.inter_bytes,
         max_of(hybrid_inter), "collective_waves"},
    };
  }

  // Selection: among budget-feasible candidates, the smallest predicted
  // cost wins; ties (within 0.1%) go to the earlier entry of the preference
  // order, which ranks simpler machinery first.
  const Backend preference[] = {
      Backend::point_to_point,       Backend::point_to_point_pipelined,
      Backend::point_to_point_fused, Backend::hybrid,
      Backend::alltoallw,            Backend::collective};
  const CandidateCost* best = nullptr;
  for (const Backend b : preference) {
    for (const CandidateCost& c : d.candidates) {
      if (c.backend != b || !c.feasible) continue;
      if (best == nullptr || c.predicted_s < best->predicted_s * 0.999)
        best = &c;
    }
  }
  d.backend = best->backend;
  d.predicted_s = best->predicted_s;
  d.predicted_peak_staging = best->predicted_peak_staging;
  d.staging_prewarm_bytes = best->predicted_peak_staging;

  // Local refinement: this rank's compiled fused-lane plans tell us the
  // actual quad/segment walk pack and unpack execute. Consumed for the
  // reported prediction and the prewarm size only — never for the backend
  // choice, which must be identical on every rank.
  if (local_mapping != nullptr) {
    for (const PeerLane& l : local_mapping->fused_send) {
      d.local_plan_quads +=
          static_cast<std::int64_t>(l.type.plan_quad_count());
      d.local_plan_segments +=
          static_cast<std::int64_t>(l.type.plan_segment_count());
    }
    for (const PeerLane& l : local_mapping->fused_recv) {
      d.local_plan_quads +=
          static_cast<std::int64_t>(l.type.plan_quad_count());
      d.local_plan_segments +=
          static_cast<std::int64_t>(l.type.plan_segment_count());
    }
    d.predicted_s += static_cast<double>(d.local_plan_quads) * kQuadWalkS;
    // Prewarm what THIS rank stages concurrently under the chosen backend.
    std::int64_t prewarm = 0;
    const int me = local_mapping->rank;
    for (const PeerLane& l : local_mapping->fused_send)
      if (l.peer != me) prewarm += l.bytes;
    d.staging_prewarm_bytes = static_cast<std::size_t>(prewarm);
  }

  return d;
}

}  // namespace ddr
