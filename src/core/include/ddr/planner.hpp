#pragma once

/// \file planner.hpp
/// Cost-model-driven backend planning (ROADMAP item 2).
///
/// The bench snapshot shows no single backend dominates: fused p2p wins
/// strided multi-round exchanges and plain p2p wins small low-round ones.
/// ddr::Planner replaces the manual Backend choice: at setup() time it
/// consumes the redistribution's compiled-plan statistics — transfer counts,
/// per-lane bytes, round structure, the self/intra-node/inter-node split
/// under the installed mpi::NetworkModel, and (when available) the local
/// mapping's plan_quad_count/plan_segment_count — and emits a PlanDecision:
/// the backend to run, the staging prewarm size, and the wave schedule of
/// the collective-sequence lowering under a caller-settable peak-staging
/// budget (the memory-efficient redistribution axis of Rink et al.,
/// arXiv:2112.01075).
///
/// Everything the decision depends on is GLOBAL knowledge (the allgathered
/// layout and the run-wide NetworkModel), so every rank derives the
/// identical decision with no extra communication — the same discipline that
/// keeps build_mapping() protocol-consistent.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ddr/layout.hpp"
#include "minimpi/sim.hpp"

namespace ddr {

struct DataMapping;

/// How redistribute() moves the data.
enum class Backend {
  /// MPI_Alltoallw with subarray datatypes, one call per round — the
  /// algorithm the paper describes (§III-C).
  alltoallw,
  /// Direct nonblocking send/recv per non-empty transfer — the paper's
  /// future-work optimization for sparse mappings (§V).
  point_to_point,
  /// Point-to-point with every peer's per-round lanes fused into ONE
  /// struct-typed message, cutting the message count from rounds x peers to
  /// peers. One preset of the lane program (Redistributor::execute_lanes)
  /// that also runs point_to_point_pipelined, collective and hybrid: every
  /// receive is posted before any lane is packed, the self lane is a
  /// copy_regions, intra-node lanes (under a NetworkModel) move zero-copy
  /// through a published owned-buffer pointer, and receives complete in
  /// posting order. Under an active FaultModel the lane presets are gated
  /// off: the reliable retry protocol re-requests individual (round, peer)
  /// transfers, so redistribute() falls back to the per-round
  /// point-to-point path (see Redistributor::effective_backend).
  point_to_point_fused,
  /// The same lane program as point_to_point_fused, byte for byte and span
  /// for span; kept as its own value so existing requests and planner
  /// candidates stay valid. Priced identically to fused, and preferred on a
  /// tie.
  point_to_point_pipelined,
  /// The lane program with every non-self lane packed (intra-node lanes
  /// too) and the lanes split into waves, each closed by a barrier, whose
  /// total payload is bounded by SetupOptions::peak_staging_bytes, so the
  /// staging pool's peak live bytes stay under the budget no matter how much
  /// data the exchange moves. Trades wall time (one barrier per wave) for
  /// peak staging — the memory-efficient redistribution axis. Broadcast- and
  /// scatter-shaped exchanges (see CollectiveShape) lower to an
  /// allgather/scatter wave sequence naturally. Gated to the reliable
  /// per-round path under an active FaultModel, like the fused flavours.
  collective,
  /// Hybrid per-peer-class composition: the fused lane set is partitioned by
  /// LaneClass under NetworkModel::node_of and each class gets the lowering
  /// that wins for it — self lanes stay copy_regions zero-copy, intra-node
  /// lanes go through the ptr-publish zero-copy path (two control messages,
  /// no packed payload, no staging beyond the pointer), and ONLY the
  /// inter-node lanes move in the lane program's fenced waves, whose
  /// per-wave payload respects SetupOptions::peak_staging_bytes. Compared to
  /// Backend::collective the intra-node bytes never pack, never stage, and
  /// never count against the budget, so the same budget needs fewer fences.
  /// Only meaningful under an installed NetworkModel with mixed locality:
  /// with zero intra-node lanes it degenerates to the collective sequence
  /// and the planner marks it infeasible. Gated to the reliable per-round
  /// path under an active FaultModel, like the fused flavours.
  hybrid,
  /// Let ddr::Planner choose: setup() runs the cost model over every
  /// candidate above and redistribute() executes the winner (see
  /// Redistributor::plan() for the decision and per-candidate predictions).
  automatic,
};

/// Locality class of a fused per-peer lane under the installed
/// mpi::NetworkModel — the partition Backend::hybrid composes lowerings
/// over (self lanes copy in place, intra-node lanes publish a pointer,
/// inter-node lanes pack and pay the link).
enum class LaneClass { self, intra, inter };

/// Collective shape detected on the src->dst sharding pair (drives the
/// explain output and documents which classic collective the wave sequence
/// of Backend::collective corresponds to).
enum class CollectiveShape {
  /// No special structure; the wave sequence is a generic bounded scatter
  /// sequence over the fused lanes.
  none,
  /// Every rank needs the identical chunk set (broadcast shape): the lane
  /// streams per sender are identical for every receiver and the sequence
  /// is an allgather executed as one scatter wave per sender.
  allgather,
  /// A single rank feeds everyone (scatter shape).
  scatter,
  /// A single rank drains everyone (gather / reduce-scatter shape).
  gather,
};

/// One directed non-self lane of the exchange: everything rank `sender`
/// sends rank `receiver`, all rounds fused (the unit Backend::collective
/// schedules). Derived identically on every rank from the global layout.
struct CollectiveLane {
  int sender = -1;
  int receiver = -1;
  std::int64_t bytes = 0;  ///< packed payload size of the lane
  int wave = 0;            ///< fence group assigned by the wave planner
};

/// Enumerates the directed non-self lanes of `layout` in (sender, receiver)
/// order with their packed payload sizes. Deterministic global knowledge.
[[nodiscard]] std::vector<CollectiveLane> collective_lanes(
    const GlobalLayout& layout, std::size_t elem_size);

/// Partitions `lanes` into fenced waves whose per-wave payload total stays
/// within `peak_staging_bytes` (0 = unlimited -> one wave). The budget is
/// floored at the largest single lane — a lane is the smallest schedulable
/// unit, so no budget can push the peak below it. Fills each lane's `wave`
/// (greedy, in the deterministic lane order) and returns the wave count.
int assign_collective_waves(std::vector<CollectiveLane>& lanes,
                            std::size_t peak_staging_bytes);

/// The inter-node subset of collective_lanes() under `net`'s node map — the
/// lanes Backend::hybrid runs through the fenced wave sequence (its intra
/// lanes move zero-copy and are not scheduled). With net == nullptr every
/// rank is its own node and this equals collective_lanes(). Deterministic
/// global knowledge; `world_ranks` maps communicator ranks to world ranks
/// as in Planner::decide.
[[nodiscard]] std::vector<CollectiveLane> hybrid_inter_lanes(
    const GlobalLayout& layout, std::size_t elem_size,
    const mpi::NetworkModel* net,
    const std::vector<int>* world_ranks = nullptr);

/// One evaluated backend candidate: the predicted cost and footprint the
/// planner compared (ddrinfo --plan prints these against measured numbers).
struct CandidateCost {
  Backend backend = Backend::point_to_point;
  /// Predicted makespan of one redistribute() call, in seconds: the max
  /// over ranks of modeled per-rank cost (NetworkModel-derived when a model
  /// is installed, calibrated software constants otherwise).
  double predicted_s = 0.0;
  std::int64_t messages = 0;          ///< data messages posted per call
  std::int64_t inter_node_bytes = 0;  ///< payload bytes crossing nodes
  std::int64_t intra_node_bytes = 0;  ///< payload bytes staying on-node
  std::int64_t self_bytes = 0;        ///< bytes that never leave the rank
  /// Predicted pool-wide peak of concurrently live staging bytes.
  std::size_t predicted_peak_staging = 0;
  /// False when a peak_staging_bytes budget is set and this candidate's
  /// predicted peak exceeds it (the planner then may not choose it).
  bool feasible = true;
};

/// Per-peer-class row of a decision: how many fused lanes fall in the class,
/// the payload bytes they carry, the lowering the hybrid composition gives
/// them, and the predicted per-class makespan contribution. Derived from
/// global aggregates only, so identical on every rank (the cross-rank
/// agreement contract extends to composite decisions).
struct ClassPlan {
  LaneClass cls = LaneClass::self;
  std::int64_t lanes = 0;       ///< fused lanes in this class (self: ranks
                                ///< with self traffic)
  std::int64_t bytes = 0;       ///< payload bytes the class carries
  double predicted_s = 0.0;     ///< predicted makespan of this class alone
  const char* lowering = "";    ///< "copy_regions" / "ptr_publish" /
                                ///< "collective_waves"
};

/// The planner's verdict, identical on every rank of the communicator.
struct PlanDecision {
  Backend backend = Backend::point_to_point;
  /// Always 0: packing is serial on the rank thread. Kept only so existing
  /// readers of the field (the perfbench pencil_fft and rebalance workloads)
  /// still compile and report it.
  int pack_threads = 0;
  /// Staging bytes setup() prewarms for the chosen backend (the predicted
  /// peak concurrent payload set).
  std::size_t staging_prewarm_bytes = 0;
  /// Predicted pool-wide peak staging of the chosen backend.
  std::size_t predicted_peak_staging = 0;
  /// Predicted makespan of the chosen backend (see CandidateCost).
  double predicted_s = 0.0;
  /// Detected collective shape of the sharding pair.
  CollectiveShape shape = CollectiveShape::none;
  /// Wave count of the collective-sequence lowering under the budget (1
  /// when no budget is set).
  int waves = 1;
  /// Wave count of Backend::hybrid's inter-node-only wave sequence under
  /// the same budget (<= waves: the intra lanes it excludes stop competing
  /// for the budget). 1 when no budget is set or no inter lanes exist.
  int hybrid_waves = 1;
  /// The self/intra/inter partition of the fused lane set, in that order
  /// (always 3 entries), with the lowering Backend::hybrid composes per
  /// class. Populated from global aggregates on every decision.
  std::vector<ClassPlan> class_plans;
  /// Stored quads / memcpy segments of this rank's compiled fused lane
  /// plans (0 when decide() ran without a local mapping). Consumed for the
  /// local pack-walk refinement of predicted_s; never for the backend
  /// choice, which must stay rank-independent.
  std::int64_t local_plan_quads = 0;
  std::int64_t local_plan_segments = 0;
  /// Every candidate evaluated, in evaluation order (ddrinfo --plan).
  std::vector<CandidateCost> candidates;
};

/// Cost-model-driven backend planner (see file comment).
class Planner {
 public:
  /// Derives the plan for `layout`. Deterministic and rank-independent in
  /// everything that must be protocol-consistent (the backend and the wave
  /// schedule); `local_mapping`, when given, only refines
  /// this rank's predicted_s with its compiled-plan quad/segment counts and
  /// sizes the staging prewarm to this rank's lanes.
  ///
  /// \param net                the run's NetworkModel (nullptr = cost-free
  ///                           run; all non-self lanes count as inter-node
  ///                           and calibrated software constants price them)
  /// \param peak_staging_bytes staging budget (SetupOptions), 0 = unlimited
  /// \param world_ranks        world rank per COMMUNICATOR rank (for
  ///                           sub-communicators whose ranks are not world
  ///                           ranks — Redistributor derives it via
  ///                           Comm::world_rank). nullptr: comm ranks ARE
  ///                           world ranks.
  [[nodiscard]] static PlanDecision decide(const GlobalLayout& layout,
                                           std::size_t elem_size,
                                           const mpi::NetworkModel* net,
                                           std::size_t peak_staging_bytes,
                                           const DataMapping* local_mapping =
                                               nullptr,
                                           const std::vector<int>* world_ranks =
                                               nullptr);
};

/// Human-readable backend name ("alltoallw", "point_to_point", ...), for
/// explain output and test diagnostics.
[[nodiscard]] const char* backend_name(Backend b);

}  // namespace ddr
