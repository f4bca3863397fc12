#pragma once

/// \file redistributor.hpp
/// The modern C++ face of the DDR library.
///
/// Mirrors the paper's three-call workflow:
///   1. construct a Redistributor (DDR_NewDataDescriptor),
///   2. setup() with what this rank owns and needs (DDR_SetupDataMapping),
///   3. redistribute() as often as the data changes (DDR_ReorganizeData).
///
/// Example (the paper's E1, per rank):
/// \code
///   ddr::Redistributor r(comm, sizeof(float));
///   ddr::OwnedLayout own{ddr::Chunk::d2(8, 1, 0, rank),
///                        ddr::Chunk::d2(8, 1, 0, rank + 4)};
///   ddr::Chunk need = ddr::Chunk::d2(4, 4, 4 * (rank % 2), 4 * (rank / 2));
///   r.setup(own, need);
///   r.redistribute(std::as_bytes(std::span(data_own)),
///                  std::as_writable_bytes(std::span(data_need)));
/// \endcode

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "ddr/mapping.hpp"
#include "ddr/plan_cache.hpp"
#include "ddr/planner.hpp"
#include "ddr/resize_plan.hpp"
#include "minimpi/comm.hpp"
#include "trace/trace.hpp"

namespace ddr {

// Backend (how redistribute() moves the data) and LaneClass (the self/
// intra/inter locality partition of the fused lanes, derived at setup()
// time from the installed NetworkModel's node mapping via
// mpi::Comm::same_node) live in ddr/planner.hpp, next to the planner that
// chooses between backends and composes lowerings per lane class. Without a
// network model every rank is its own node, so all non-self lanes are inter
// and behaviour is exactly the flat exchange.

/// What rebuild() may do on its own when ranks have died.
enum class RebuildPolicy {
  /// The application drives recovery: it shrinks the communicator itself and
  /// calls rebuild(comm, ...) with the survivors' declarations.
  manual,
  /// rebuild(owned, needed) — the comm-less overloads — is allowed to heal
  /// the communicator itself: it calls mpi::Comm::shrink() (excluding the
  /// ranks the runtime reported dead) and re-runs setup() on the survivors
  /// in one step.
  auto_shrink,
};

/// Options for the transactional elastic resize
/// (Redistributor::resize_rebalance / Redistributor::resize_join).
struct ResizeOptions {
  /// How many times the resize protocol restarts (rendezvous -> plan ->
  /// transfer -> commit) after a rollback before giving up with an error.
  int max_attempts = 4;

  /// Test seam: invoked on every member at the start of each protocol phase
  /// with the phase name ("rendezvous", "plan", "transfer", "commit").
  /// Fault-injection tests use it to arm a kill at a precise phase; leave
  /// empty otherwise.
  std::function<void(const char*)> phase_hook;
};

/// Result of one elastic resize, per member (see resize_rebalance()).
struct ResizeOutcome {
  /// The post-resize communicator. Invalid (`!comm.valid()`) when this
  /// member retired — a tail rank of a committed shrink, or a joiner whose
  /// grow rolled back.
  mpi::Comm comm;
  /// This member's chunks under the committed layout (empty when retired).
  OwnedLayout owned;
  /// The data for `owned`, chunks packed consecutively. Populated from the
  /// staging buffer only at the commit point, so a rolled-back attempt never
  /// leaks partial transfers.
  std::vector<std::byte> data;
  /// Planner cost model of the committed attempt (identical on all members).
  ResizePlanStats stats;
  /// True once an attempt committed. False only for a rolled-back joiner
  /// (its slot is retired; the surviving members retry without it) — the
  /// members that initiated the resize either commit or throw.
  bool committed = false;
  /// True when this member is no longer part of the resized run.
  bool retired = false;
  int attempts = 0;   ///< protocol attempts consumed (>= 1)
  int rollbacks = 0;  ///< attempts that rolled back
};

/// Options controlling setup behaviour.
struct SetupOptions {
  /// Validate the paper's send-side contract (owned chunks mutually
  /// exclusive and complete). Costs O(total_chunks^2) box intersections at
  /// setup time; throws ddr-flavoured mpi::Error when violated.
  bool validate_owned_layout = true;

  Backend backend = Backend::alltoallw;

  /// Fail-safe collective error contract: before any data moves, setup() and
  /// redistribute() agree on per-rank precondition failures via a cheap
  /// allreduce, so EVERY rank throws the same descriptive ddr::Error (naming
  /// the failing rank) instead of one rank throwing while the others hang in
  /// a half-entered collective. Disable only when every rank's preconditions
  /// are known to be checked identically already.
  bool collective_error_agreement = true;

  /// Point-to-point backend under fault injection: how many times a missing
  /// transfer is re-requested before the receiving rank gives up and fails
  /// the run (collective abort). Each attempt re-posts the transfer on the
  /// sending side, so a run under a lossy-link FaultModel completes
  /// bit-identically whenever every transfer survives within the cap.
  int max_transfer_attempts = 8;

  /// Whether the comm-less rebuild(owned, needed) overloads may shrink the
  /// communicator themselves when ranks have died (see RebuildPolicy).
  RebuildPolicy rebuild_policy = RebuildPolicy::manual;

  /// Peak-staging budget in bytes, 0 = unlimited. Consumed three ways:
  ///  * Backend::collective schedules its fenced waves so no wave's total
  ///    payload exceeds the budget (floored at the largest single lane —
  ///    the smallest schedulable unit);
  ///  * Backend::hybrid does the same, but only over its inter-node lanes
  ///    (its intra lanes move zero-copy and never stage);
  ///  * Backend::automatic treats candidates whose predicted peak staging
  ///    exceeds the budget as infeasible, falling back to the collective
  ///    sequence (always feasible) when nothing else fits.
  std::size_t peak_staging_bytes = 0;

  /// Optional execution-plan cache (not owned; one instance PER RANK — see
  /// plan_cache.hpp). When set, setup() resolves the plan through the cache:
  /// a fingerprint hit replays the stored PlanDecision and skips the global
  /// cost-model pass, a miss decides and stores. The Redistributor records
  /// the cache's plan_epoch; rebuild() and a committed resize_rebalance()
  /// invalidate the cache, and a redistribute() under a stale epoch throws
  /// a descriptive ddr::Error on every rank (stale-plan reuse is an error,
  /// never a silently wrong answer).
  PlanCache* plan_cache = nullptr;
};

/// Per-rank redistribution engine.
///
/// Thread-compatible: one Redistributor per rank thread; redistribute() is
/// collective over the communicator given at construction. Move-only: it
/// holds a staging reservation (mpi::StagingReservation), which a copy
/// could only share, leaving two executors covered by one send set.
class Redistributor {
 public:
  /// \param comm       communicator spanning all participating ranks
  /// \param elem_size  bytes per domain element (the paper's 4th descriptor
  ///                   parameter; the element MPI type collapses to its size)
  Redistributor(mpi::Comm comm, std::size_t elem_size);

  /// Collective. Declares what this rank owns (any number of chunks, packed
  /// consecutively in the source buffer) and the one chunk it needs.
  /// Gathers every rank's declaration and computes the geometric mapping.
  void setup(const OwnedLayout& owned, const Chunk& needed,
             const SetupOptions& options = {});

  /// Collective. Extension of the paper's interface (§V future work,
  /// "support for more data patterns"): this rank needs SEVERAL chunks,
  /// packed consecutively in the destination buffer in the given order.
  /// Needed chunks may overlap each other and other ranks' needs.
  void setup(const OwnedLayout& owned, const NeededLayout& needed,
             const SetupOptions& options = {});

  /// Collective. Moves the data: `owned_data` must hold owned_bytes(),
  /// `needed_data` must hold needed_bytes(). Repeatable on fresh data
  /// without re-running setup (paper §III-C).
  void redistribute(std::span<const std::byte> owned_data,
                    std::span<std::byte> needed_data) const;

  /// Collective over `comm` (typically the shrunk communicator after the
  /// deadlock watchdog reported dead ranks — see mpi::Comm::shrink()).
  /// Replaces this Redistributor's communicator and re-runs setup() with the
  /// survivors' declarations, so redistribution can continue with the
  /// remaining ranks after a failure.
  void rebuild(mpi::Comm comm, const OwnedLayout& owned,
               const NeededLayout& needed, const SetupOptions& options = {});

  /// Single-needed-chunk convenience overload of rebuild().
  void rebuild(mpi::Comm comm, const OwnedLayout& owned, const Chunk& needed,
               const SetupOptions& options = {});

  /// Collective over the survivors. Self-healing rebuild: shrinks the
  /// current communicator (excluding the ranks the runtime reported dead)
  /// and re-runs setup() with this rank's post-failure declarations, reusing
  /// the options from the previous setup(). Requires
  /// SetupOptions::rebuild_policy == RebuildPolicy::auto_shrink — the
  /// one-call recovery path examples/failover_rebalance.cpp demonstrates.
  void rebuild(const OwnedLayout& owned, const NeededLayout& needed);

  /// Single-needed-chunk convenience overload of the self-healing rebuild().
  void rebuild(const OwnedLayout& owned, const Chunk& needed);

  /// Collective over the current communicator (joiners participate via
  /// resize_join()). Elastically resizes the run from M = comm().size()
  /// members to `new_size` and rebalances the data with minimal movement:
  ///
  ///   1. rendezvous — heal the communicator (shrink around any dead ranks),
  ///      then grow it (mpi::Comm::resize activates dormant ranks, which
  ///      enter through RunOptions::joiner_main and must call resize_join)
  ///      when new_size exceeds the live member count;
  ///   2. plan — allgather every member's old chunks and derive the
  ///      movement-minimizing balanced layout (propose_resize_layout;
  ///      deterministic, so no negotiation round-trips);
  ///   3. transfer — run the old->new diff as an incremental redistribution
  ///      into a private staging buffer (data each member keeps moves via
  ///      the self lane and never touches the network);
  ///   4. commit — a ULFM-style mpi::Comm::agree decides atomically: commit
  ///      publishes the staging buffer as ResizeOutcome::data, rollback
  ///      discards it, shrinks around the casualty, retires the joiners of
  ///      the failed attempt, and retries (bounded by
  ///      ResizeOptions::max_attempts).
  ///
  /// A member that dies mid-resize therefore never leaves the survivors
  /// with a partially-applied layout: before the commit decision every
  /// member still holds exactly its old data, after it exactly its new.
  /// Death AFTER the commit decision is an ordinary post-resize failure
  /// (handled like any other, e.g. with the auto_shrink rebuild).
  ///
  /// When growing, `new_size` is clamped to the live member count plus
  /// mpi::Comm::spawnable_ranks(). On return this Redistributor's
  /// communicator is the resized one and the mapping is stale
  /// (is_setup() == false): continue with setup() on the new layout.
  ///
  /// \param new_size    desired member count (>= 1)
  /// \param owned       this rank's current chunks (the pre-resize layout;
  ///                    need not match the last setup())
  /// \param owned_data  the data for `owned`, chunks packed consecutively
  [[nodiscard]] ResizeOutcome resize_rebalance(int new_size,
                                               const OwnedLayout& owned,
                                               std::span<const std::byte> owned_data,
                                               const ResizeOptions& options = {});

  /// The joiner half of resize_rebalance(): a rank activated by the grow
  /// (RunOptions::joiner_main) calls this with the communicator it was
  /// handed. Participates in plan/transfer/commit with an empty old layout.
  /// On commit the outcome carries the joiner's share of the data; on
  /// rollback the joiner retires (retired == true, invalid comm) and the
  /// surviving members retry with freshly spawned ranks.
  [[nodiscard]] static ResizeOutcome resize_join(const mpi::Comm& comm,
                                                 std::size_t elem_size,
                                                 const ResizeOptions& options = {});

  /// Bytes this rank's concatenated owned chunks occupy.
  [[nodiscard]] std::size_t owned_bytes() const { return mapping_.owned_bytes; }

  /// Bytes this rank's needed chunk occupies.
  [[nodiscard]] std::size_t needed_bytes() const {
    return mapping_.needed_bytes;
  }

  /// Number of alltoallw rounds (== max chunks owned by any rank).
  [[nodiscard]] int rounds() const {
    return static_cast<int>(mapping_.rounds.size());
  }

  /// Schedule statistics of the current mapping (Table III numbers).
  [[nodiscard]] const MappingStats& stats() const { return stats_; }

  /// The global layout gathered during setup (diagnostics and tests).
  [[nodiscard]] const GlobalLayout& global_layout() const { return layout_; }

  [[nodiscard]] bool is_setup() const { return setup_done_; }

  [[nodiscard]] const mpi::Comm& comm() const { return comm_; }

  /// The backend redistribute() actually runs. Differs from the requested
  /// one in two cases: Backend::automatic resolves to the planner's choice
  /// at setup() time (see plan()), and the fused flavours (fused, pipelined,
  /// collective, hybrid) under an active FaultModel degrade to
  /// point_to_point (whose reliable per-round retry protocol handles
  /// message loss; fused messages cannot be re-requested per round).
  [[nodiscard]] Backend effective_backend() const;

  /// The planner's decision for the current mapping. Populated by every
  /// setup() (so --plan style diagnostics can compare any requested backend
  /// against the prediction), authoritative when the requested backend is
  /// Backend::automatic.
  [[nodiscard]] const PlanDecision& plan() const { return plan_; }

  /// Number of this rank's fused SEND lanes in the given locality class
  /// (see LaneClass; counts follow the node mapping the NetworkModel
  /// installed at setup() time). Diagnostics and tests.
  [[nodiscard]] int fused_lane_count(LaneClass cls) const;

  /// Attaches a trace recorder: while set, setup() and redistribute() record
  /// their phase spans and per-message instants into `rec` (see
  /// trace/trace.hpp for the event schema). The recorder is installed for the
  /// duration of each call, so minimpi-level events (collectives, staging
  /// pool, datatype compilation) land in the same stream. Pass nullptr to
  /// detach. When no sink is set, calls record into the thread's ambient
  /// trace::current() recorder, if any.
  void trace_sink(trace::Recorder* rec) noexcept { trace_ = rec; }
  [[nodiscard]] trace::Recorder* trace_sink() const noexcept { return trace_; }

 private:
  /// The communication-free tail of setup(): layout_ (and options_, comm_,
  /// elem_size_) are already in place; derives mapping_, stats_, the lane
  /// classes, the tag budget and the staging prewarm. resize_rebalance()
  /// reuses it to compile the old->new transition layout directly — the
  /// transition has empty needed sides for retiring members, which the
  /// public setup() rejects by design.
  void finish_setup();

  /// One plan+transfer attempt of the resize protocol, collective over
  /// `tcomm` (old members and joiners alike). Allgathers the old per-member
  /// layouts, derives the balanced target layout for the first `new_members`
  /// ranks, and redistributes into a staging buffer. Communication failures
  /// are captured in ok/error instead of thrown — the commit vote turns
  /// them into a collective rollback.
  struct TransferResult {
    bool ok = false;
    OwnedLayout new_owned;        ///< this rank's chunks under the new layout
    std::vector<std::byte> data;  ///< staging buffer (the new chunks' bytes)
    ResizePlanStats stats;
    std::string error;            ///< diagnostic when !ok
  };
  static TransferResult resize_transfer(
      const mpi::Comm& tcomm, int new_members, std::size_t elem_size,
      const OwnedLayout& my_owned, std::span<const std::byte> owned_data,
      const std::function<void(const char*)>& phase_hook);

  /// The rollback rendezvous both halves of the protocol share: shrink
  /// `tcomm` around the casualties, count the surviving pre-resize members
  /// (they form a prefix, in order), and resize down to exactly them so the
  /// failed attempt's joiners retire. Returns the healed communicator
  /// (invalid on a retiring joiner).
  static mpi::Comm rollback_rendezvous(const mpi::Comm& tcomm, bool is_old);

  void execute_alltoallw(std::span<const std::byte> owned_data,
                         std::span<std::byte> needed_data) const;
  void execute_p2p(std::span<const std::byte> owned_data,
                   std::span<std::byte> needed_data) const;
  void execute_p2p_reliable(std::span<const std::byte> owned_data,
                            std::span<std::byte> needed_data) const;
  /// The fused, pipelined, collective and hybrid presets: runs program_
  /// (see LaneProgram).
  void execute_lanes(std::span<const std::byte> owned_data,
                     std::span<std::byte> needed_data) const;

  mpi::Comm comm_;
  std::size_t elem_size_;
  SetupOptions options_;
  bool setup_done_ = false;
  GlobalLayout layout_;
  DataMapping mapping_;
  MappingStats stats_;
  /// The planner's verdict for the current mapping (see plan()).
  PlanDecision plan_;
  /// What redistribute() dispatches on: the requested backend, or the
  /// planner's choice when the request was Backend::automatic. Identical on
  /// every rank — derived only from the allgathered layout and the run-wide
  /// NetworkModel.
  Backend resolved_backend_ = Backend::alltoallw;
  /// The cache plan_epoch this mapping's decision was resolved under (only
  /// meaningful when options_.plan_cache != nullptr; redistribute() rejects
  /// execution once the cache has been invalidated past it).
  std::uint64_t plan_cache_epoch_ = 0;
  /// Epoch counter for the reliable p2p protocol: every redistribute() call
  /// gets its own tag window so duplicated or re-sent messages from one call
  /// can never be mistaken for another call's traffic.
  mutable std::uint64_t p2p_epoch_ = 0;
  /// Request scratch reused across redistribute() calls so the steady-state
  /// p2p data path performs no heap allocation.
  mutable std::vector<mpi::Request> reqs_;
  /// This Redistributor's entry in comm_'s staging ledger: finish_setup()
  /// replaces it with the current plan's send set, and it is dropped with
  /// the mapping (destruction, a communicator change) so a re-planned or
  /// destroyed Redistributor no longer holds the pool to its old sizes.
  mpi::StagingReservation staging_;
  /// Locality class per fused send lane, parallel to mapping_.fused_send
  /// (computed at setup from mpi::Comm::same_node).
  std::vector<LaneClass> fused_send_class_;
  /// One entry per intra-node SENDING peer: everything the receiver needs to
  /// execute that peer's lane zero-copy — the sender-side lane (rebuilt
  /// deterministically with build_peer_send_lane, read through the pointer
  /// the sender publishes) and this rank's matching fused recv lane.
  struct IntraRecv {
    int peer = -1;
    std::ptrdiff_t peer_displ = 0;
    mpi::Datatype peer_type;     ///< sender's fused lane type
    std::ptrdiff_t my_displ = 0;
    mpi::Datatype my_type;       ///< this rank's fused recv lane type
    std::int64_t bytes = 0;
  };

  /// What execute_lanes() runs: the fused per-peer lanes of this rank,
  /// routed once at setup. finish_setup() builds it only when the resolved
  /// backend is one of the four lane presets; it is empty otherwise.
  ///
  ///   preset              packed lanes     intra lanes  waves        fence
  ///   fused, pipelined    inter only       zero-copy    1            none
  ///   collective          every non-self   packed       under budget barrier
  ///   hybrid              inter only       zero-copy    under budget barrier
  ///
  /// Waves come from assign_collective_waves() over collective_lanes() or
  /// hybrid_inter_lanes(), so a lane's wave matches on sender and receiver.
  struct LaneProgram {
    /// One packed lane: an index into mapping_.fused_send / fused_recv and
    /// the wave it moves in.
    struct Packed {
      std::size_t lane = 0;
      int wave = 0;
    };
    std::vector<Packed> sends, recvs;
    /// Zero-copy intra-node lanes: the fused_send indices this rank
    /// publishes its owned-buffer pointer on, and the lanes it copies out
    /// of its intra-node senders' buffers.
    std::vector<std::size_t> intra_sends;
    std::vector<IntraRecv> intra_recvs;
    /// The self lane's fused_send / fused_recv index, or -1.
    std::ptrdiff_t self_send = -1, self_recv = -1;
    int waves = 1;
    /// Whether a barrier closes every wave (collective, hybrid): it proves
    /// the wave's staging is back in the pool before the next wave packs.
    bool fenced = false;
  };
  LaneProgram program_;

  /// Optional per-Redistributor trace sink (see trace_sink()). Not owned.
  trace::Recorder* trace_ = nullptr;
};

}  // namespace ddr
