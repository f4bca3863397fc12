#pragma once

/// \file comm.hpp
/// Communicators, point-to-point messaging and collective operations.
///
/// A Comm is a lightweight per-rank handle (shared immutable communicator
/// state + this thread's rank). Each rank thread receives its world Comm from
/// mpi::run() and may derive further communicators with split()/dup().
///
/// Supported subset (chosen to cover everything the DDR library and the
/// paper's two use cases exercise):
///   * blocking send/recv with tag matching, any_source/any_tag wildcards
///   * buffered-eager isend (never blocks) and irecv + wait/test/waitall
///   * probe/iprobe
///   * barrier, bcast, reduce, allreduce, gather(v), allgather(v),
///     scatter(v), alltoall, alltoallv, alltoallw
///   * comm split/dup
///
/// Deviations from MPI, by design:
///   * sends are always buffered-eager (a send never blocks on the receiver);
///   * datatypes are mpi::Datatype values, not handles requiring commit;
///   * errors throw mpi::Error instead of returning codes.

#include <cstddef>
#include <memory>
#include <optional>
#include <utility>
#include <span>
#include <vector>

#include "minimpi/datatype.hpp"
#include "minimpi/error.hpp"
#include "minimpi/op.hpp"
#include "minimpi/sim.hpp"
#include "minimpi/status.hpp"

namespace mpi {

/// Exclusive upper bound of the user tag space: valid user tags are
/// [0, tag_upper_bound). The runtime reserves the headroom above for
/// internal use; libraries that derive tags from sequence numbers (e.g. one
/// tag per redistribution round) must check their highest tag stays below
/// this bound instead of silently wrapping or colliding.
inline constexpr int tag_upper_bound = 1 << 30;

namespace detail {
struct CommImpl;
struct World;
}  // namespace detail

class Comm;

namespace detail {
/// Internal factory used by the runtime (runtime.cpp) to hand each rank
/// thread its world communicator.
Comm make_comm(std::shared_ptr<CommImpl> impl, int rank);
}  // namespace detail

/// Handle to an in-flight nonblocking operation.
/// Sends in minimpi are buffered-eager so a send Request is born complete;
/// a recv Request completes in wait()/test().
class Request {
 public:
  Request() = default;

  /// Blocks until the operation completes; returns its Status.
  Status wait();

  /// Non-blocking completion check. Returns the Status when complete.
  std::optional<Status> test();

  [[nodiscard]] bool valid() const noexcept { return kind_ != Kind::invalid; }

 private:
  friend class Comm;
  enum class Kind { invalid, done_send, pending_recv };

  Kind kind_ = Kind::invalid;
  std::shared_ptr<detail::CommImpl> impl_;
  int rank_ = -1;  // receiving rank (for pending_recv)
  void* buf_ = nullptr;
  std::size_t count_ = 0;
  Datatype type_;
  int src_ = any_source;
  int tag_ = any_tag;
  Status done_status_{};
};

/// Counters of the per-communicator staging-buffer pool (see
/// Comm::staging_stats). `acquires` counts every staging buffer handed out;
/// `heap_allocations` counts how many of those had to touch the heap. In
/// steady state (same transfer repeated) heap_allocations stops growing —
/// benches and CI assert exactly that.
struct StagingStats {
  std::uint64_t acquires = 0;
  std::uint64_t heap_allocations = 0;
  /// Bytes currently handed out of the pool (acquired, not yet released).
  std::uint64_t live_bytes = 0;
  /// High-water mark of live_bytes over the communicator's lifetime. This is
  /// the exchange's true concurrent staging footprint — the quantity a
  /// peak-staging budget (ddr::SetupOptions::peak_staging_bytes) bounds and
  /// the number benches report per backend. Monotone: snapshot it before and
  /// after an operation to attribute a peak. Reserved buffers
  /// (Comm::reserve_staging) are planted in the free list without ever being
  /// live, so they do not inflate it.
  std::uint64_t peak_live_bytes = 0;
  /// Capacity held in the pool's free list right now: storage the pool owns
  /// but has not handed out. Bounded by the live reservations (plus what was
  /// in flight when they were made), not by the number of reservations.
  std::uint64_t retained_bytes = 0;
  /// Sum of every live reservation's sizes (Comm::reserve_staging), over all
  /// ranks of the communicator: the working set the free list is kept
  /// topped up to.
  std::uint64_t reserved_bytes = 0;
};

/// A standing claim on a communicator's staging pool, made and renewed
/// through Comm::reserve_staging. The pool keeps one ledger entry per live
/// reservation; reserving again through the same handle replaces its entry,
/// and destroying the handle (or reset()) drops it. Dropping never frees
/// storage: the buffers stay in the pool for the next reservation to claim.
/// Move-only; a move hands the entry to the target.
class StagingReservation {
 public:
  StagingReservation() = default;
  StagingReservation(StagingReservation&& other) noexcept;
  StagingReservation& operator=(StagingReservation&& other) noexcept;
  StagingReservation(const StagingReservation&) = delete;
  StagingReservation& operator=(const StagingReservation&) = delete;
  ~StagingReservation() { reset(); }

  /// Drops the ledger entry, if any.
  void reset() noexcept;

 private:
  friend class Comm;
  std::shared_ptr<detail::CommImpl> impl_;  ///< the pool's communicator
  std::uint64_t key_ = 0;                   ///< the ledger entry
};

/// Waits for every request; returns their statuses in order.
std::vector<Status> wait_all(std::span<Request> reqs);

/// Waits until at least one valid request completes; returns its index and
/// status (MPI_Waitany). Throws if no request in `reqs` is valid.
std::pair<std::size_t, Status> wait_any(std::span<Request> reqs);

/// Per-rank communicator handle.
class Comm {
 public:
  Comm() = default;

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const noexcept;

  /// This rank's simulated clock (see sim.hpp).
  [[nodiscard]] VirtualClock& clock() const;

  /// World rank of a rank in this communicator.
  [[nodiscard]] int world_rank(int rank_in_comm) const;

  // --- point-to-point -----------------------------------------------------

  /// Blocking standard send of `count` elements of `type` from `buf`.
  /// minimpi sends are buffered: this packs and enqueues, never blocking on
  /// the receiver.
  void send(const void* buf, std::size_t count, const Datatype& type, int dest,
            int tag) const;

  /// Blocking receive into `buf` (capacity: `count` elements of `type`).
  /// Throws ErrorClass::truncate if the matched message is larger.
  Status recv(void* buf, std::size_t count, const Datatype& type, int source,
              int tag) const;

  /// Nonblocking send (born complete; see class comment).
  Request isend(const void* buf, std::size_t count, const Datatype& type,
                int dest, int tag) const;

  /// Nonblocking receive; completes in wait()/test().
  Request irecv(void* buf, std::size_t count, const Datatype& type, int source,
                int tag) const;

  /// Combined send+recv (deadlock-free because sends are buffered).
  Status sendrecv(const void* sendbuf, std::size_t sendcount,
                  const Datatype& sendtype, int dest, int sendtag,
                  void* recvbuf, std::size_t recvcount,
                  const Datatype& recvtype, int source, int recvtag) const;

  /// Blocks until a matching message is available; does not consume it.
  Status probe(int source, int tag) const;

  /// Non-blocking probe.
  std::optional<Status> iprobe(int source, int tag) const;

  // --- collectives --------------------------------------------------------
  // All collectives must be called by every rank of the communicator in the
  // same order (standard MPI contract).

  void barrier() const;

  void bcast(void* buf, std::size_t count, const Datatype& type,
             int root) const;

  /// Element-wise reduction to `root`. `type` must be contiguous.
  void reduce(const void* sendbuf, void* recvbuf, std::size_t count,
              const Datatype& type, const Op& op, int root) const;

  void allreduce(const void* sendbuf, void* recvbuf, std::size_t count,
                 const Datatype& type, const Op& op) const;

  /// Inclusive prefix reduction: rank r receives op(x_0, ..., x_r)
  /// (MPI_Scan). `type` must be contiguous.
  void scan(const void* sendbuf, void* recvbuf, std::size_t count,
            const Datatype& type, const Op& op) const;

  /// Exclusive prefix reduction: rank r receives op(x_0, ..., x_{r-1});
  /// rank 0's recvbuf is left untouched (MPI_Exscan semantics).
  void exscan(const void* sendbuf, void* recvbuf, std::size_t count,
              const Datatype& type, const Op& op) const;

  void gather(const void* sendbuf, std::size_t sendcount,
              const Datatype& sendtype, void* recvbuf, std::size_t recvcount,
              const Datatype& recvtype, int root) const;

  void gatherv(const void* sendbuf, std::size_t sendcount,
               const Datatype& sendtype, void* recvbuf,
               std::span<const int> recvcounts, std::span<const int> displs,
               const Datatype& recvtype, int root) const;

  void allgather(const void* sendbuf, std::size_t sendcount,
                 const Datatype& sendtype, void* recvbuf,
                 std::size_t recvcount, const Datatype& recvtype) const;

  void allgatherv(const void* sendbuf, std::size_t sendcount,
                  const Datatype& sendtype, void* recvbuf,
                  std::span<const int> recvcounts, std::span<const int> displs,
                  const Datatype& recvtype) const;

  void scatter(const void* sendbuf, std::size_t sendcount,
               const Datatype& sendtype, void* recvbuf, std::size_t recvcount,
               const Datatype& recvtype, int root) const;

  void scatterv(const void* sendbuf, std::span<const int> sendcounts,
                std::span<const int> displs, const Datatype& sendtype,
                void* recvbuf, std::size_t recvcount, const Datatype& recvtype,
                int root) const;

  void alltoall(const void* sendbuf, std::size_t sendcount,
                const Datatype& sendtype, void* recvbuf, std::size_t recvcount,
                const Datatype& recvtype) const;

  void alltoallv(const void* sendbuf, std::span<const int> sendcounts,
                 std::span<const int> sdispls, const Datatype& sendtype,
                 void* recvbuf, std::span<const int> recvcounts,
                 std::span<const int> rdispls, const Datatype& recvtype) const;

  /// The fully general exchange DDR is built on: per-destination counts,
  /// BYTE displacements, and per-destination datatypes (MPI_Alltoallw).
  void alltoallw(const void* sendbuf, std::span<const int> sendcounts,
                 std::span<const std::ptrdiff_t> sdispls,
                 std::span<const Datatype> sendtypes, void* recvbuf,
                 std::span<const int> recvcounts,
                 std::span<const std::ptrdiff_t> rdispls,
                 std::span<const Datatype> recvtypes) const;

  // --- communicator management -------------------------------------------

  /// Partitions ranks by `color` (ranks passing the same color form a new
  /// communicator; color < 0 means "not a member" and yields an invalid
  /// Comm). Ranks are ordered by (key, rank).
  [[nodiscard]] Comm split(int color, int key) const;

  [[nodiscard]] Comm dup() const;

  // --- topology -------------------------------------------------------------

  /// True when `rank_in_comm` is mapped to the same node as this rank by the
  /// installed NetworkModel (NetworkModel::node_of). Without a network model
  /// every rank is its own node, so this is true only for the rank itself.
  [[nodiscard]] bool same_node(int rank_in_comm) const;

  /// The NetworkModel installed at mpi::run() time, or nullptr when the run
  /// is cost-free. Planners use it for cost and topology queries
  /// (send_overhead/transfer_time/recv_overhead/node_of); it is identical
  /// for every rank of the run, so decisions derived from it are
  /// protocol-consistent across the communicator.
  [[nodiscard]] const NetworkModel* network_model() const;

  // --- failure handling ----------------------------------------------------

  /// Ranks of this communicator killed by the FaultModel, in rank order.
  [[nodiscard]] std::vector<int> failed_ranks() const;

  /// Builds a new communicator over the surviving (non-killed) ranks,
  /// preserving their relative order (ULFM's MPI_Comm_shrink). Collective
  /// over the survivors only — it exchanges no messages, so it works even
  /// after a deadlock incident left this communicator's channels in a
  /// half-collective state. Survivors must not reuse `this` for collectives
  /// after an incident; they should continue on the shrunk communicator.
  [[nodiscard]] Comm shrink() const;

  /// True when a FaultModel is installed for this run (libraries use this to
  /// decide whether to engage retry protocols).
  [[nodiscard]] bool fault_injection_active() const;

  // --- elastic resize --------------------------------------------------------

  /// Elastic resize: builds a communicator of exactly `new_size` ranks.
  /// Collective over this communicator's LIVE members (like shrink(), it
  /// exchanges no messages, so it also serves as the recovery step after an
  /// incident). Growing claims dormant rank slots reserved by
  /// RunOptions::max_ranks and starts them in RunOptions::joiner_main on the
  /// child communicator; surviving members keep their relative order and
  /// occupy ranks [0, live), joiners follow. Shrinking keeps the first
  /// `new_size` survivors; a retired caller gets an INVALID Comm back
  /// (valid() == false) and must stop using the old communicator.
  ///
  /// Survivors racing a concurrent rank death retry the rendezvous
  /// internally (bounded, with backoff — "mpi.resize.retry" trace instants);
  /// growing past the remaining dormant capacity throws
  /// ErrorClass::invalid_argument on every member identically (see
  /// spawnable_ranks() to size requests).
  [[nodiscard]] Comm resize(int new_size) const;

  /// Dormant rank slots still claimable by resize() growth, run-wide.
  /// Racy by nature (another communicator may claim concurrently) but
  /// monotone non-increasing, so it is a safe upper bound.
  [[nodiscard]] int spawnable_ranks() const;

  /// Fault-tolerant agreement on a bit mask (ULFM's MPI_Comm_agree):
  /// collective over live members, returns the bitwise AND of every member's
  /// contribution, where a member that died before contributing counts as 0.
  /// Every survivor returns the SAME value, even when deaths race the call —
  /// this is the commit/abort primitive for transactional protocols (vote 1
  /// for commit; a unanimous 1 proves every member reached the vote).
  [[nodiscard]] std::uint32_t agree(std::uint32_t contribution) const;

  // --- instrumentation ------------------------------------------------------

  /// Snapshot of this communicator's staging-buffer pool counters.
  [[nodiscard]] StagingStats staging_stats() const;

  /// Total messages posted in this run so far (whole world, both channels).
  /// Diff across an operation to count the messages it posted.
  [[nodiscard]] std::uint64_t messages_posted() const;

  /// Stable id of the underlying communicator, used as the `comm` key on
  /// trace events. Identical on every rank of the communicator; the world
  /// communicator of a run is always id 0. (Ids of communicators created
  /// concurrently from different rank threads — split/dup/shrink — are
  /// unique but their assignment order is scheduling-dependent.)
  [[nodiscard]] std::uint64_t trace_id() const;

  /// Reserves staging for a payload set whose buffers may all be live at
  /// once, so a later operation covered by the live reservations never
  /// heap-allocates on the data path. `reservation` names the claim: its
  /// ledger entry becomes `sizes`, replacing what it held before (a handle
  /// bound to another communicator's pool leaves that ledger first). The
  /// pool then matches the sizes of every live reservation, on every rank,
  /// against its free list, largest first, each size claiming its own
  /// buffer, and deposits fresh storage only for the sizes nothing left
  /// fits — so reserving the same sizes again adds nothing, and the pool
  /// holds the union of the ranks' working sets rather than one copy per
  /// setup. The pool's byte budget caps the deposits. Reserving never
  /// touches StagingStats::live_bytes or peak_live_bytes. Callable from any
  /// rank; not collective.
  void reserve_staging(StagingReservation& reservation,
                       const std::vector<std::size_t>& sizes) const;

  /// Cooperative cancellation point for long non-blocking progress loops:
  /// services the FaultModel kill/stall hooks for this rank and throws any
  /// pending abort or deadlock error. Blocking receives do this implicitly.
  void checkpoint() const;

  [[nodiscard]] bool valid() const noexcept { return impl_ != nullptr; }

 private:
  friend Comm detail::make_comm(std::shared_ptr<detail::CommImpl>, int);

  Comm(std::shared_ptr<detail::CommImpl> impl, int rank)
      : impl_(std::move(impl)), rank_(rank) {}

  // Sends on the internal collective channel.
  void coll_send(const void* buf, std::size_t bytes, int dest, int tag) const;
  Status coll_recv(void* buf, std::size_t capacity, int src, int tag) const;
  [[nodiscard]] std::uint64_t next_coll_seq() const;

  std::shared_ptr<detail::CommImpl> impl_;
  int rank_ = -1;
};

}  // namespace mpi
