#include "ddr/redistributor.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <numeric>
#include <thread>

#include "ddr/error.hpp"

namespace ddr {

namespace {

/// Fixed-size wire format for one chunk (allgathered during setup).
struct ChunkWire {
  std::int32_t ndims = 0;
  std::array<std::int32_t, kMaxDims> dims{{1, 1, 1}};
  std::array<std::int32_t, kMaxDims> offsets{{0, 0, 0}};
};

ChunkWire to_wire(const Chunk& c) {
  ChunkWire w;
  w.ndims = c.ndims;
  for (int d = 0; d < kMaxDims; ++d) {
    const auto k = static_cast<std::size_t>(d);
    w.dims[k] = c.dims[k];
    w.offsets[k] = c.offsets[k];
  }
  return w;
}

Chunk from_wire(const ChunkWire& w) {
  Chunk c;
  c.ndims = w.ndims;
  for (int d = 0; d < kMaxDims; ++d) {
    const auto k = static_cast<std::size_t>(d);
    c.dims[k] = w.dims[k];
    c.offsets[k] = w.offsets[k];
  }
  return c;
}

// --- point-to-point tag space ------------------------------------------------
//
// The p2p backend derives tags from sequence numbers, so its tag use must be
// budgeted against mpi::tag_upper_bound (minimpi's documented user-tag
// ceiling) instead of silently wrapping into other traffic. Layout, with
// W = kP2pEpochWindow and R = rounds, for epoch e in [0, W):
//
//   done token (zero-byte)      : kP2pTagBase + e
//   retry request for round k   : kP2pTagBase + W*(1 + k)     + e
//   data message for round k    : kP2pTagBase + W*(1 + R + k) + e
//   fused lane message          : kP2pTagBase + W*(1 + 2R)    + e
//   intra-node pointer publish  : kP2pTagBase + W*(2 + 2R)    + e
//   intra-node copy ack         : kP2pTagBase + W*(3 + 2R)    + e
//
// Highest tag used: kP2pTagBase + W*(4 + 2R) - 1; setup() rejects mappings
// whose round count would exceed the ceiling. Epochs scope one
// redistribute() call's traffic: re-sent or duplicated messages of one call
// can never be mistaken for another call's (the window would have to wrap
// within W in-flight calls, and each call drains its window before and after
// use). The lane program (execute_lanes) needs only one data window
// regardless of the round or wave count, because each peer pair exchanges
// at most one fused lane message per epoch; every preset shares it.
// Intra-node lanes likewise exchange at most one pointer and one ack per
// peer pair per epoch, so the zero-copy path costs two windows regardless of
// the round count. Only the per-round data messages consume the per-round
// windows.

/// Tag base for the point-to-point backend, chosen high so it cannot collide
/// with typical application tags.
constexpr int kP2pTagBase = 0x2DD70;
/// Number of concurrent redistribute() epochs the tag space distinguishes.
constexpr int kP2pEpochWindow = 4096;

int p2p_done_tag(int epoch) { return kP2pTagBase + epoch; }
int p2p_retry_tag(int round, int epoch) {
  return kP2pTagBase + kP2pEpochWindow * (1 + round) + epoch;
}
int p2p_data_tag(int round, int nrounds, int epoch) {
  return kP2pTagBase + kP2pEpochWindow * (1 + nrounds + round) + epoch;
}
int p2p_lane_tag(int nrounds, int epoch) {
  return kP2pTagBase + kP2pEpochWindow * (1 + 2 * nrounds) + epoch;
}
int p2p_intra_ptr_tag(int nrounds, int epoch) {
  return kP2pTagBase + kP2pEpochWindow * (2 + 2 * nrounds) + epoch;
}
int p2p_intra_ack_tag(int nrounds, int epoch) {
  return kP2pTagBase + kP2pEpochWindow * (3 + 2 * nrounds) + epoch;
}

/// The backends execute_lanes() runs: presets of one lane program.
bool runs_lane_program(Backend b) {
  return b == Backend::point_to_point_fused ||
         b == Backend::point_to_point_pipelined || b == Backend::collective ||
         b == Backend::hybrid;
}

// --- fail-safe collective error agreement ------------------------------------
//
// Precondition failures detected by one rank (a short buffer, a bad local
// declaration) must not strand the other ranks inside a half-entered
// collective. Before any data moves, every rank contributes its local
// precondition verdict to an allreduce(max); if any rank failed, EVERY rank
// throws the same descriptive Error naming the failing rank.

enum PrecondCode : int {
  kPrecondOk = 0,
  kPrecondEmptyNeeded = 1,
  kPrecondMixedLocalDims = 2,
  kPrecondUnsupportedDims = 3,
  kPrecondNotSetup = 4,
  kPrecondOwnedBufferShort = 5,
  kPrecondNeededBufferShort = 6,
  kPrecondStalePlanEpoch = 7,
};

std::string precond_message(int code, int rank) {
  const std::string who = "rank " + std::to_string(rank);
  switch (code) {
    case kPrecondEmptyNeeded:
      return "setup: " + who + " declared no needed chunk (need at least one)";
    case kPrecondMixedLocalDims:
      return "setup: " + who +
             " declared owned and needed chunks of different dimensionality";
    case kPrecondUnsupportedDims:
      return "setup: " + who +
             " declared chunks outside the supported 1D/2D/3D range";
    case kPrecondNotSetup:
      return "redistribute: " + who + " has no mapping (call setup() first)";
    case kPrecondOwnedBufferShort:
      return "redistribute: " + who +
             "'s owned buffer is smaller than its layout requires";
    case kPrecondNeededBufferShort:
      return "redistribute: " + who +
             "'s needed buffer is smaller than its layout requires";
    case kPrecondStalePlanEpoch:
      return "redistribute: " + who +
             "'s plan was resolved under a plan-cache epoch that has since "
             "been invalidated (a rebuild or committed resize changed the "
             "run) — call setup() again before redistributing";
    default:
      return "precondition failure on " + who;
  }
}

/// Encodes (code, rank) so that allreduce(max) surfaces the worst failure
/// deterministically: any failure beats OK, higher codes beat lower, and the
/// highest failing rank breaks ties — identically on every rank.
std::int64_t encode_precond(int code, int rank) {
  if (code == kPrecondOk) return 0;
  return (static_cast<std::int64_t>(code) << 32) |
         static_cast<std::uint32_t>(rank);
}

/// Collective. Agrees on the worst precondition failure across the
/// communicator and throws the same Error on every rank if there is one.
void agree_preconditions(const mpi::Comm& comm, int code) {
  const std::int64_t mine = encode_precond(code, comm.rank());
  std::int64_t worst = 0;
  comm.allreduce(&mine, &worst, 1, mpi::Datatype::of<std::int64_t>(),
                 mpi::Op::max<std::int64_t>());
  if (worst == 0) return;
  const int worst_code = static_cast<int>(worst >> 32);
  const int worst_rank = static_cast<int>(worst & 0xffffffff);
  throw Error(precond_message(worst_code, worst_rank));
}

}  // namespace

Redistributor::Redistributor(mpi::Comm comm, std::size_t elem_size)
    : comm_(std::move(comm)), elem_size_(elem_size) {
  require(comm_.valid(), "Redistributor: invalid communicator");
  require(elem_size_ > 0, "Redistributor: element size must be positive");
}

void Redistributor::setup(const OwnedLayout& owned, const Chunk& needed,
                          const SetupOptions& options) {
  setup(owned, NeededLayout{needed}, options);
}

void Redistributor::setup(const OwnedLayout& owned, const NeededLayout& needed,
                          const SetupOptions& options) {
  const int p = comm_.size();
  options_ = options;
  // Route events to the attached sink for the duration of this call (or keep
  // the ambient recorder when no sink is set).
  trace::ScopedRecorder traced(trace_ != nullptr ? trace_ : trace::current());
  DDR_TRACE_SPAN(
      tspan, "ddr.setup",
      trace::Keys{.comm = static_cast<std::int64_t>(comm_.trace_id()),
                  .value = static_cast<std::int64_t>(options.backend)});

  // 0. Local preconditions. With collective_error_agreement the verdict is
  // agreed before anyone proceeds, so a single rank's bad declaration cannot
  // strand the others in the allgather below.
  int code = kPrecondOk;
  int nd = 0;
  if (needed.empty()) {
    code = kPrecondEmptyNeeded;
  } else {
    nd = needed.front().ndims;
    for (const auto& c : owned)
      if (c.ndims != nd) code = kPrecondMixedLocalDims;
    for (const auto& c : needed)
      if (c.ndims != nd) code = kPrecondMixedLocalDims;
    if (code == kPrecondOk && (nd < 1 || nd > kMaxDims))
      code = kPrecondUnsupportedDims;
  }
  if (options.collective_error_agreement) {
    agree_preconditions(comm_, code);
  } else {
    require(code == kPrecondOk, precond_message(code, comm_.rank()));
  }

  const mpi::Datatype wire = mpi::Datatype::bytes(sizeof(ChunkWire));
  const mpi::Datatype ints = mpi::Datatype::of<std::int32_t>();

  {
    DDR_TRACE_SPAN(xspan, "ddr.setup.exchange");

    // 1. Share how many chunks everyone owns and needs.
    const std::array<std::int32_t, 2> my_counts{
        static_cast<std::int32_t>(owned.size()),
        static_cast<std::int32_t>(needed.size())};
    std::vector<std::int32_t> counts(static_cast<std::size_t>(2 * p), 0);
    comm_.allgather(my_counts.data(), 2, ints, counts.data(), 2, ints);

    // 2. Share the chunk geometry itself (owned chunks then needed chunks).
    std::vector<int> recvcounts, displs;
    int total = 0;
    for (int r = 0; r < p; ++r) {
      const auto ri = static_cast<std::size_t>(r);
      const int n = counts[2 * ri] + counts[2 * ri + 1];
      recvcounts.push_back(n);
      displs.push_back(total);
      total += n;
    }
    std::vector<ChunkWire> mine;
    mine.reserve(owned.size() + needed.size());
    for (const auto& c : owned) mine.push_back(to_wire(c));
    for (const auto& c : needed) mine.push_back(to_wire(c));
    std::vector<ChunkWire> all(static_cast<std::size_t>(total));
    comm_.allgatherv(mine.data(), mine.size(), wire, all.data(), recvcounts,
                     displs, wire);

    // 3. Reassemble the global layout (identical on every rank).
    layout_ = GlobalLayout{};
    layout_.owned.resize(static_cast<std::size_t>(p));
    layout_.needed.resize(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
      const auto ri = static_cast<std::size_t>(r);
      int cursor = displs[ri];
      for (int k = 0; k < counts[2 * ri]; ++k)
        layout_.owned[ri].push_back(
            from_wire(all[static_cast<std::size_t>(cursor++)]));
      for (int k = 0; k < counts[2 * ri + 1]; ++k)
        layout_.needed[ri].push_back(
            from_wire(all[static_cast<std::size_t>(cursor++)]));
    }
  }

  // 4. Cross-rank dimensionality agreement. Every rank checked its own
  // declarations above, but mixed dimensionality ACROSS ranks would silently
  // produce a garbage GlobalLayout (a 1D box and a 2D box intersect
  // meaninglessly). The check runs on the allgathered layout, which is
  // identical everywhere, so all ranks throw the identical error.
  for (int r = 0; r < p; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    for (const auto& c : layout_.owned[ri])
      require(c.ndims == nd,
              "setup: rank " + std::to_string(r) + " declared " +
                  std::to_string(c.ndims) + "D chunks but rank " +
                  std::to_string(comm_.rank()) + " declared " +
                  std::to_string(nd) +
                  "D chunks — all ranks must use the same dimensionality");
    for (const auto& c : layout_.needed[ri])
      require(c.ndims == nd,
              "setup: rank " + std::to_string(r) + " declared " +
                  std::to_string(c.ndims) + "D chunks but rank " +
                  std::to_string(comm_.rank()) + " declared " +
                  std::to_string(nd) +
                  "D chunks — all ranks must use the same dimensionality");
  }

  finish_setup();
}

void Redistributor::finish_setup() {
  // 5. Enforce the paper's send-side contract if requested.
  if (options_.validate_owned_layout) {
    DDR_TRACE_SPAN(vspan, "ddr.setup.validate");
    const LayoutValidation v = validate_owned(layout_);
    require(v.ok(), "setup: owned layout violates the DDR contract — " +
                        v.detail);
  }

  // 6. Geometry -> per-round alltoallw plans and schedule statistics.
  mapping_ = build_mapping(layout_, comm_.rank(), elem_size_);
  stats_ = compute_stats(layout_, elem_size_);

  // 6b. Classify the fused lanes by locality (see LaneClass). Without a
  // NetworkModel same_node() is false for every peer, so every non-self
  // lane is inter and the lane program reduces to the flat exchange.
  auto classify = [&](int peer) {
    if (peer == mapping_.rank) return LaneClass::self;
    return comm_.same_node(peer) ? LaneClass::intra : LaneClass::inter;
  };
  fused_send_class_.clear();
  for (const PeerLane& l : mapping_.fused_send)
    fused_send_class_.push_back(classify(l.peer));
  std::vector<int> world_ranks(static_cast<std::size_t>(mapping_.nranks));
  for (int r = 0; r < mapping_.nranks; ++r)
    world_ranks[static_cast<std::size_t>(r)] = comm_.world_rank(r);

  // 6c. Plan. Every setup() runs the cost model — so plan() can always be
  // compared against a manually requested backend (ddrinfo --plan) — and
  // Backend::automatic resolves to its choice. Everything the resolution
  // depends on (the allgathered layout, the run-wide NetworkModel, the
  // world-rank node mapping) is identical on every rank, so the resolved
  // backend and wave schedule are protocol-consistent with no extra
  // communication. The local mapping only refines this rank's predicted_s
  // and prewarm size — never the backend choice.
  {
    DDR_TRACE_SPAN(dspan, "ddr.plan.decide");
    // Resolve through the execution-plan cache when one is attached: the
    // decision is a pure function of (layout, elem_size, budget, topology,
    // rank), so a fingerprint hit replays it exactly and skips the global
    // cost-model pass. Stored decisions were cross-rank identical when
    // decided, and every rank's cache sees the same deterministic
    // setup sequence, so hits preserve the agreement contract.
    bool cache_hit = false;
    std::uint64_t cache_key = 0;
    if (options_.plan_cache != nullptr) {
      std::vector<int> node_salt;
      if (const mpi::NetworkModel* net = comm_.network_model()) {
        node_salt.reserve(world_ranks.size());
        for (const int wr : world_ranks) node_salt.push_back(net->node_of(wr));
      }
      cache_key = PlanCache::fingerprint(layout_, elem_size_,
                                         options_.peak_staging_bytes,
                                         mapping_.rank, node_salt);
      if (const PlanDecision* hit = options_.plan_cache->lookup(cache_key)) {
        plan_ = *hit;
        cache_hit = true;
      }
      DDR_TRACE_INSTANT("ddr.plan.cache", {.value = cache_hit ? 1 : 0});
    }
    if (!cache_hit) {
      plan_ = Planner::decide(layout_, elem_size_, comm_.network_model(),
                              options_.peak_staging_bytes, &mapping_,
                              &world_ranks);
      if (options_.plan_cache != nullptr)
        options_.plan_cache->store(cache_key, plan_);
    }
    if (options_.plan_cache != nullptr)
      plan_cache_epoch_ = options_.plan_cache->epoch();
    resolved_backend_ = options_.backend == Backend::automatic
                            ? plan_.backend
                            : options_.backend;
    DDR_TRACE_INSTANT(
        "ddr.plan.decision",
        {.bytes = static_cast<std::int64_t>(plan_.predicted_peak_staging),
         .value = static_cast<std::int64_t>(resolved_backend_)});
  }

  // 6d. The lane program of the four lane presets (see LaneProgram): which
  // fused lanes pack and in which wave, which intra-node lanes go zero-copy
  // and whether a barrier fences each wave. Collective packs its intra lanes
  // too, since pointer publication does not compose with its budget's
  // staging accounting. The receiver of a zero-copy lane executes it by
  // reading the sender's owned buffer through the sender's own lane type,
  // rebuilt here from the allgathered layout with no extra communication.
  program_ = LaneProgram{};
  if (runs_lane_program(resolved_backend_)) {
    LaneProgram& pg = program_;
    const bool zero_copy = resolved_backend_ != Backend::collective;
    for (std::size_t i = 0; i < mapping_.fused_send.size(); ++i) {
      if (fused_send_class_[i] == LaneClass::self)
        pg.self_send = static_cast<std::ptrdiff_t>(i);
      else if (fused_send_class_[i] == LaneClass::intra && zero_copy)
        pg.intra_sends.push_back(i);
      else
        pg.sends.push_back({i, 0});
    }
    for (std::size_t i = 0; i < mapping_.fused_recv.size(); ++i) {
      const PeerLane& l = mapping_.fused_recv[i];
      const LaneClass cls = classify(l.peer);
      if (cls == LaneClass::self) {
        pg.self_recv = static_cast<std::ptrdiff_t>(i);
      } else if (cls == LaneClass::intra && zero_copy) {
        PeerLane peer_lane =
            build_peer_send_lane(layout_, l.peer, mapping_.rank, elem_size_);
        require(peer_lane.peer == mapping_.rank,
                "setup: internal error — intra-node recv lane from rank " +
                    std::to_string(l.peer) + " has no matching send lane");
        peer_lane.type.precompile();
        pg.intra_recvs.push_back({l.peer, peer_lane.displ,
                                  std::move(peer_lane.type), l.displ, l.type,
                                  l.bytes});
      } else {
        pg.recvs.push_back({i, 0});
      }
    }
    if (resolved_backend_ == Backend::collective ||
        resolved_backend_ == Backend::hybrid) {
      std::vector<CollectiveLane> lanes =
          resolved_backend_ == Backend::hybrid
              ? hybrid_inter_lanes(layout_, elem_size_, comm_.network_model(),
                                   &world_ranks)
              : collective_lanes(layout_, elem_size_);
      pg.waves = assign_collective_waves(lanes, options_.peak_staging_bytes);
      pg.fenced = true;
      std::vector<int> wave_to(world_ranks.size(), 0),
          wave_from(world_ranks.size(), 0);
      for (const CollectiveLane& l : lanes) {
        if (l.sender == mapping_.rank)
          wave_to[static_cast<std::size_t>(l.receiver)] = l.wave;
        if (l.receiver == mapping_.rank)
          wave_from[static_cast<std::size_t>(l.sender)] = l.wave;
      }
      for (LaneProgram::Packed& s : pg.sends)
        s.wave = wave_to[static_cast<std::size_t>(
            mapping_.fused_send[s.lane].peer)];
      for (LaneProgram::Packed& r : pg.recvs)
        r.wave = wave_from[static_cast<std::size_t>(
            mapping_.fused_recv[r.lane].peer)];
    }
  }

  // 7. Tag-space budget for the p2p backends (see the tag layout comment
  // above): identical on every rank because the round count derives from the
  // allgathered layout and the resolved backend from global knowledge only.
  // The lane windows are included in the budget for all p2p flavours, so
  // neither the lane <-> per-round fallback nor the planner's choice ever
  // changes whether a layout is accepted.
  if (resolved_backend_ != Backend::alltoallw) {
    const auto nrounds = static_cast<std::int64_t>(mapping_.rounds.size());
    const std::int64_t highest =
        kP2pTagBase +
        static_cast<std::int64_t>(kP2pEpochWindow) * (4 + 2 * nrounds) - 1;
    require(highest < mpi::tag_upper_bound,
            "setup: point-to-point backend needs " + std::to_string(nrounds) +
                " rounds, whose highest tag " + std::to_string(highest) +
                " exceeds the runtime tag ceiling (" +
                std::to_string(mpi::tag_upper_bound) +
                ") — use the alltoallw backend for this layout");
  }

  // 8. Reserve this rank's peak concurrent send set in the staging pool,
  // for the executor that will run (effective_backend()): every per-round
  // (or per-lane) payload can be in flight at once, since the executors
  // post all sends before draining any receive. Receivers reuse the
  // sender-acquired buffers, so once every rank has reserved its own send
  // sizes, steady-state redistribute() calls never heap-allocate staging
  // storage (the zero-allocation contract the JSON bench and CI assert).
  // The reservation replaces this Redistributor's previous one, so
  // re-running setup() does not grow the pool.
  DDR_TRACE_SPAN(rspan, "ddr.setup.reserve_staging");
  std::vector<std::size_t> send_bytes;
  if (runs_lane_program(resolved_backend_) && !comm_.fault_injection_active()) {
    // The lane program stages every packed send lane's payload (reserved in
    // full, so any wave schedule stays allocation-free) and an 8-byte
    // owned-buffer pointer per zero-copy intra lane (the ack is zero-byte,
    // poolless).
    for (const LaneProgram::Packed& l : program_.sends)
      send_bytes.push_back(mapping_.fused_send[l.lane].type.size());
    send_bytes.insert(send_bytes.end(), program_.intra_sends.size(),
                      sizeof(std::uintptr_t));
  } else {
    const auto self = static_cast<std::size_t>(mapping_.rank);
    for (const RoundPlan& rp : mapping_.rounds)
      for (std::size_t q = 0; q < rp.sendcounts.size(); ++q)
        if (rp.sendcounts[q] > 0 && q != self)
          send_bytes.push_back(static_cast<std::size_t>(rp.sendcounts[q]) *
                               rp.sendtypes[q].size());
  }
  comm_.reserve_staging(staging_, send_bytes);

  p2p_epoch_ = 0;
  setup_done_ = true;
}

void Redistributor::rebuild(mpi::Comm comm, const OwnedLayout& owned,
                            const NeededLayout& needed,
                            const SetupOptions& options) {
  require(comm.valid(), "rebuild: invalid communicator");
  // A rebuild changes what a correct plan looks like (new communicator, new
  // declarations): decisions cached before it may no longer be executed.
  // The subsequent setup() re-resolves under the bumped epoch.
  if (options_.plan_cache != nullptr) options_.plan_cache->invalidate();
  comm_ = std::move(comm);
  setup_done_ = false;
  staging_.reset();
  setup(owned, needed, options);
}

void Redistributor::rebuild(mpi::Comm comm, const OwnedLayout& owned,
                            const Chunk& needed, const SetupOptions& options) {
  rebuild(std::move(comm), owned, NeededLayout{needed}, options);
}

void Redistributor::rebuild(const OwnedLayout& owned,
                            const NeededLayout& needed) {
  require(options_.rebuild_policy == RebuildPolicy::auto_shrink,
          "rebuild: the comm-less overload heals the communicator itself, "
          "which needs SetupOptions::rebuild_policy == "
          "RebuildPolicy::auto_shrink — either opt in at setup() time or "
          "shrink the communicator yourself and call rebuild(comm, ...)");
  rebuild(comm_.shrink(), owned, needed, options_);
}

void Redistributor::rebuild(const OwnedLayout& owned, const Chunk& needed) {
  rebuild(owned, NeededLayout{needed});
}

// --- elastic resize ----------------------------------------------------------

Redistributor::TransferResult Redistributor::resize_transfer(
    const mpi::Comm& tcomm, int new_members, std::size_t elem_size,
    const OwnedLayout& my_owned, std::span<const std::byte> owned_data,
    const std::function<void(const char*)>& phase_hook) {
  TransferResult res;
  try {
    if (phase_hook) phase_hook("plan");
    const int p = tcomm.size();
    const int me = tcomm.rank();
    ResizePlan plan;
    {
      DDR_TRACE_SPAN(
          pspan, "ddr.resize.plan",
          trace::Keys{.comm = static_cast<std::int64_t>(tcomm.trace_id()),
                      .value = new_members});

      // Share how many chunks each member held before the resize, plus its
      // element size (one header allgather; joiners contribute zero chunks).
      const mpi::Datatype i64 = mpi::Datatype::of<std::int64_t>();
      const std::array<std::int64_t, 2> my_hdr{
          static_cast<std::int64_t>(my_owned.size()),
          static_cast<std::int64_t>(elem_size)};
      std::vector<std::int64_t> hdrs(static_cast<std::size_t>(2 * p), 0);
      tcomm.allgather(my_hdr.data(), 2, i64, hdrs.data(), 2, i64);

      std::vector<int> recvcounts, displs;
      int total = 0;
      for (int r = 0; r < p; ++r) {
        const auto ri = static_cast<std::size_t>(r);
        require(hdrs[2 * ri + 1] == static_cast<std::int64_t>(elem_size),
                "resize: rank " + std::to_string(r) + " declared " +
                    std::to_string(hdrs[2 * ri + 1]) +
                    "-byte elements but rank " + std::to_string(me) +
                    " declared " + std::to_string(elem_size) +
                    " — all members must agree on the element size");
        recvcounts.push_back(static_cast<int>(hdrs[2 * ri]));
        displs.push_back(total);
        total += recvcounts.back();
      }

      // Share the chunk geometry itself.
      const mpi::Datatype wire = mpi::Datatype::bytes(sizeof(ChunkWire));
      std::vector<ChunkWire> mine;
      mine.reserve(my_owned.size());
      for (const Chunk& c : my_owned) mine.push_back(to_wire(c));
      std::vector<ChunkWire> all(static_cast<std::size_t>(total));
      ChunkWire none{};  // non-null buffer stand-in for empty contributions
      tcomm.allgatherv(mine.empty() ? &none : mine.data(), mine.size(), wire,
                       all.empty() ? &none : all.data(), recvcounts, displs,
                       wire);
      std::vector<OwnedLayout> old_owned(static_cast<std::size_t>(p));
      for (int r = 0; r < p; ++r) {
        const auto ri = static_cast<std::size_t>(r);
        int cursor = displs[ri];
        for (int k = 0; k < recvcounts[ri]; ++k)
          old_owned[ri].push_back(
              from_wire(all[static_cast<std::size_t>(cursor++)]));
      }

      // Every member derives the identical balanced target layout and the
      // identical old->new transition — no negotiation messages. Under a
      // NetworkModel the proposal is node-aware: donated bytes prefer
      // receivers on the donor's node, so the transfer's moved bytes lean
      // intra-node (zero-copy under the fused/hybrid executors) without
      // changing how many bytes move. The node map derives from the shared
      // model + world-rank mapping, so it is identical on every member.
      std::vector<int> member_node;
      if (const mpi::NetworkModel* net = tcomm.network_model()) {
        member_node.reserve(static_cast<std::size_t>(p));
        for (int r = 0; r < p; ++r)
          member_node.push_back(net->node_of(tcomm.world_rank(r)));
      }
      std::vector<OwnedLayout> proposed = propose_resize_layout(
          old_owned, new_members,
          member_node.empty() ? nullptr : &member_node);
      plan = plan_resize(old_owned, proposed, elem_size);
      res.stats = plan.stats;
      if (me < new_members)
        res.new_owned = std::move(proposed[static_cast<std::size_t>(me)]);
    }

    if (phase_hook) phase_hook("transfer");
    {
      DDR_TRACE_SPAN(
          xspan, "ddr.resize.transfer",
          trace::Keys{.comm = static_cast<std::int64_t>(tcomm.trace_id()),
                      .bytes = plan.stats.moved_bytes});
      // Compile the transition with the regular quad machinery and run it
      // into a private staging buffer; the data a member keeps moves through
      // the self lane (copy_regions, no message). The transition has empty
      // needed sides for retiring members and — after a rolled-back attempt
      // in which a data-holding member died — an owned side with holes, so
      // the public setup() preconditions are skipped on purpose. Under an
      // active FaultModel redistribute() degrades to the reliable per-round
      // protocol, which fails fast when a peer dies mid-exchange.
      Redistributor trans(tcomm, elem_size);
      trans.options_.backend = Backend::point_to_point;
      trans.options_.validate_owned_layout = false;
      trans.options_.collective_error_agreement = false;
      trans.layout_ = plan.transition;
      trans.finish_setup();
      res.data.resize(trans.needed_bytes());
      trans.redistribute(owned_data, std::span<std::byte>(res.data));
    }
    res.ok = true;
  } catch (const std::runtime_error& e) {
    // Both mpi::Error and ddr::Error. Captured, not rethrown: the commit
    // vote below turns a one-member failure into a collective rollback
    // instead of a one-sided abort. (The runtime's kill signal is not an
    // exception type and unwinds through untouched.)
    res.ok = false;
    res.error = e.what();
  }
  return res;
}

mpi::Comm Redistributor::rollback_rendezvous(const mpi::Comm& tcomm,
                                             bool is_old) {
  DDR_TRACE_INSTANT("ddr.resize.rollback",
                    {.comm = static_cast<std::int64_t>(tcomm.trace_id())});
  // Heal around the casualty of the failed attempt, then retire the
  // attempt's joiners: the surviving pre-resize members form a prefix of the
  // healed communicator (resize() placed them before the joiners and
  // shrink() preserves order), so resizing down to their count keeps exactly
  // them — and their data never moved, so the pre-resize state is intact.
  mpi::Comm healed = tcomm.shrink();
  const int mine = is_old ? 1 : 0;
  int n_old = 0;
  healed.allreduce(&mine, &n_old, 1, mpi::Datatype::of<int>(),
                   mpi::Op::sum<int>());
  require(n_old >= 1,
          "resize: every pre-resize member died mid-resize — the data is "
          "lost and there is no layout to roll back to");
  if (healed.size() == n_old) return healed;
  return healed.resize(n_old);
}

ResizeOutcome Redistributor::resize_rebalance(int new_size,
                                              const OwnedLayout& owned,
                                              std::span<const std::byte> owned_data,
                                              const ResizeOptions& options) {
  require(new_size >= 1, "resize_rebalance: new size must be at least 1");
  require(options.max_attempts >= 1,
          "resize_rebalance: max_attempts must be at least 1");
  trace::ScopedRecorder traced(trace_ != nullptr ? trace_ : trace::current());
  DDR_TRACE_SPAN(tspan, "ddr.resize",
                 trace::Keys{.comm = static_cast<std::int64_t>(comm_.trace_id()),
                             .value = new_size});

  ResizeOutcome out;
  mpi::Comm cur = comm_;
  for (int attempt = 1;; ++attempt) {
    out.attempts = attempt;
    if (options.phase_hook) options.phase_hook("rendezvous");
    // Heal around any already-dead ranks; the fresh child communicator also
    // gives the transfer a pristine tag space. Growing activates dormant
    // ranks, which enter resize_join() through RunOptions::joiner_main.
    mpi::Comm base = cur.shrink();
    const int live = base.size();
    int target = new_size;
    if (target > live) target = std::min(target, live + base.spawnable_ranks());
    mpi::Comm tcomm = target > live ? base.resize(target) : base;

    TransferResult t = resize_transfer(tcomm, target, elem_size_, owned,
                                       owned_data, options.phase_hook);

    if (options.phase_hook) options.phase_hook("commit");
    bool committed = false;
    {
      DDR_TRACE_SPAN(
          cspan, "ddr.resize.commit",
          trace::Keys{.comm = static_cast<std::int64_t>(tcomm.trace_id()),
                      .value = t.ok ? 1 : 0});
      // The commit point. agree() proves every member reached the vote and
      // voted yes — a member that died anywhere before this line forces 0 on
      // every survivor, so no member can apply a layout another rolled back.
      committed = (tcomm.agree(t.ok ? 1u : 0u) & 1u) == 1u;
    }

    if (committed) {
      // A committed shrink still has its retiring members in tcomm; the
      // resize retires them (they observe retired == true). A grow already
      // has exactly the target membership.
      mpi::Comm final_comm =
          tcomm.size() == target ? std::move(tcomm) : tcomm.resize(target);
      comm_ = final_comm;
      setup_done_ = false;  // the old mapping does not span the new comm
      staging_.reset();
      // A committed resize changes the run's membership: every plan cached
      // before it is void. Holders of the old epoch fail fast on their next
      // redistribute() instead of executing a plan for the wrong world.
      if (options_.plan_cache != nullptr) options_.plan_cache->invalidate();
      out.retired = !final_comm.valid();
      out.comm = std::move(final_comm);
      out.owned = std::move(t.new_owned);
      out.data = std::move(t.data);
      out.stats = t.stats;
      out.committed = true;
      return out;
    }

    ++out.rollbacks;
    cur = rollback_rendezvous(tcomm, /*is_old=*/true);
    comm_ = cur;
    staging_.reset();
    require(attempt < options.max_attempts,
            "resize_rebalance: no attempt committed after " +
                std::to_string(attempt) + " attempt(s) — last failure: " +
                (t.error.empty() ? std::string("a peer voted to roll back")
                                 : t.error));
    DDR_TRACE_INSTANT("ddr.resize.retry", {.value = attempt});
  }
}

ResizeOutcome Redistributor::resize_join(const mpi::Comm& comm,
                                         std::size_t elem_size,
                                         const ResizeOptions& options) {
  require(comm.valid(), "resize_join: invalid communicator");
  require(elem_size > 0, "resize_join: element size must be positive");
  DDR_TRACE_SPAN(tspan, "ddr.resize",
                 trace::Keys{.comm = static_cast<std::int64_t>(comm.trace_id()),
                             .value = comm.size()});

  ResizeOutcome out;
  out.attempts = 1;
  TransferResult t = resize_transfer(comm, comm.size(), elem_size,
                                     OwnedLayout{}, {}, options.phase_hook);

  if (options.phase_hook) options.phase_hook("commit");
  bool committed = false;
  {
    DDR_TRACE_SPAN(
        cspan, "ddr.resize.commit",
        trace::Keys{.comm = static_cast<std::int64_t>(comm.trace_id()),
                    .value = t.ok ? 1 : 0});
    committed = (comm.agree(t.ok ? 1u : 0u) & 1u) == 1u;
  }

  if (committed) {
    out.comm = comm;
    out.owned = std::move(t.new_owned);
    out.data = std::move(t.data);
    out.stats = t.stats;
    out.committed = true;
    return out;
  }

  // A rolled-back joiner retires: it never held data, and the surviving
  // pre-resize members retry with freshly spawned ranks.
  ++out.rollbacks;
  out.comm = rollback_rendezvous(comm, /*is_old=*/false);
  out.retired = !out.comm.valid();
  return out;
}

void Redistributor::redistribute(std::span<const std::byte> owned_data,
                                 std::span<std::byte> needed_data) const {
  trace::ScopedRecorder traced(trace_ != nullptr ? trace_ : trace::current());
  DDR_TRACE_SPAN(
      tspan, "ddr.redistribute",
      trace::Keys{.comm = static_cast<std::int64_t>(comm_.trace_id())});
  int code = kPrecondOk;
  if (!setup_done_)
    code = kPrecondNotSetup;
  else if (options_.plan_cache != nullptr &&
           options_.plan_cache->epoch() != plan_cache_epoch_)
    code = kPrecondStalePlanEpoch;
  else if (owned_data.size() < mapping_.owned_bytes)
    code = kPrecondOwnedBufferShort;
  else if (needed_data.size() < mapping_.needed_bytes)
    code = kPrecondNeededBufferShort;

  if (options_.collective_error_agreement) {
    agree_preconditions(comm_, code);
  } else {
    require(code == kPrecondOk, precond_message(code, comm_.rank()));
  }

  if (resolved_backend_ == Backend::alltoallw) {
    execute_alltoallw(owned_data, needed_data);
  } else if (comm_.fault_injection_active()) {
    // All p2p flavours degrade to the reliable per-round protocol here: its
    // unit of retry is one (round, peer) transfer, which a fused lane cannot
    // be re-requested as, and the lane program's blocking waits and wave
    // fences assume lossless delivery.
    execute_p2p_reliable(owned_data, needed_data);
  } else if (runs_lane_program(resolved_backend_)) {
    execute_lanes(owned_data, needed_data);
  } else {
    execute_p2p(owned_data, needed_data);
  }
}

Backend Redistributor::effective_backend() const {
  if (runs_lane_program(resolved_backend_) && comm_.fault_injection_active())
    return Backend::point_to_point;
  return setup_done_ ? resolved_backend_ : options_.backend;
}

void Redistributor::execute_alltoallw(std::span<const std::byte> owned_data,
                                      std::span<std::byte> needed_data) const {
  // One MPI_Alltoallw per round; the number of rounds equals the maximum
  // number of chunks owned by any one process (paper §III-C).
  const auto self = static_cast<std::size_t>(mapping_.rank);
  const int nrounds = static_cast<int>(mapping_.rounds.size());
  for (int k = 0; k < nrounds; ++k) {
    const RoundPlan& rp = mapping_.rounds[static_cast<std::size_t>(k)];
    DDR_TRACE_SPAN(rspan, "ddr.round", trace::Keys{.round = k});
    // Per-lane message instants for the logical (non-self, non-empty)
    // transfers this round moves, mirroring the p2p backends so per-round
    // message counts are comparable across all three.
    for (int q = 0; q < mapping_.nranks; ++q) {
      const auto qi = static_cast<std::size_t>(q);
      if (rp.recvcounts[qi] > 0 && qi != self)
        DDR_TRACE_INSTANT(
            "ddr.msg.recv",
            {.round = k,
             .peer = q,
             .bytes = static_cast<std::int64_t>(
                 static_cast<std::size_t>(rp.recvcounts[qi]) *
                 rp.recvtypes[qi].size())});
      if (rp.sendcounts[qi] > 0 && qi != self)
        DDR_TRACE_INSTANT(
            "ddr.msg.send",
            {.round = k,
             .peer = q,
             .bytes = static_cast<std::int64_t>(
                 static_cast<std::size_t>(rp.sendcounts[qi]) *
                 rp.sendtypes[qi].size())});
    }
    comm_.alltoallw(owned_data.data(), rp.sendcounts, rp.sdispls, rp.sendtypes,
                    needed_data.data(), rp.recvcounts, rp.rdispls,
                    rp.recvtypes);
  }
}

void Redistributor::execute_p2p(std::span<const std::byte> owned_data,
                                std::span<std::byte> needed_data) const {
  // The paper's future-work optimization (§V): skip the dense collective and
  // exchange only the non-empty transfers with direct sends/receives. The
  // self lane skips the mailbox entirely (copy_regions, no staging buffer).
  const int nrounds = static_cast<int>(mapping_.rounds.size());
  const int epoch = static_cast<int>(p2p_epoch_++ % kP2pEpochWindow);
  const auto self = static_cast<std::size_t>(mapping_.rank);
  reqs_.clear();
  // One pass per round: post that round's receives and sends and handle its
  // self lane. Posting order across rounds is irrelevant for correctness
  // (sends are buffered-eager and a receive only registers interest), so the
  // rounds can be walked once instead of once per operation kind.
  for (int k = 0; k < nrounds; ++k) {
    const RoundPlan& rp = mapping_.rounds[static_cast<std::size_t>(k)];
    const int tag = p2p_data_tag(k, nrounds, epoch);
    DDR_TRACE_SPAN(rspan, "ddr.round", trace::Keys{.round = k});
    for (int q = 0; q < mapping_.nranks; ++q) {
      const auto qi = static_cast<std::size_t>(q);
      if (rp.recvcounts[qi] > 0 && qi != self) {
        DDR_TRACE_INSTANT(
            "ddr.msg.recv",
            {.round = k,
             .peer = q,
             .bytes = static_cast<std::int64_t>(
                 static_cast<std::size_t>(rp.recvcounts[qi]) *
                 rp.recvtypes[qi].size())});
        reqs_.push_back(comm_.irecv(needed_data.data() + rp.rdispls[qi], 1,
                                    rp.recvtypes[qi], q, tag));
      }
    }
    for (int q = 0; q < mapping_.nranks; ++q) {
      const auto qi = static_cast<std::size_t>(q);
      if (rp.sendcounts[qi] > 0 && qi != self) {
        DDR_TRACE_INSTANT(
            "ddr.msg.send",
            {.round = k,
             .peer = q,
             .bytes = static_cast<std::int64_t>(
                 static_cast<std::size_t>(rp.sendcounts[qi]) *
                 rp.sendtypes[qi].size())});
        reqs_.push_back(comm_.isend(owned_data.data() + rp.sdispls[qi], 1,
                                    rp.sendtypes[qi], q, tag));
      }
    }
    if (rp.sendcounts[self] > 0 && rp.recvcounts[self] > 0)
      mpi::copy_regions(rp.sendtypes[self], owned_data.data() + rp.sdispls[self],
                        1, rp.recvtypes[self],
                        needed_data.data() + rp.rdispls[self], 1);
  }
  {
    // One wait per request rather than mpi::wait_all, whose returned status
    // vector would be a heap allocation per call.
    DDR_TRACE_SPAN(wspan, "ddr.wait_all");
    for (mpi::Request& r : reqs_) r.wait();
  }
  reqs_.clear();
}

int Redistributor::fused_lane_count(LaneClass cls) const {
  int n = 0;
  for (const LaneClass c : fused_send_class_)
    if (c == cls) ++n;
  return n;
}

void Redistributor::execute_lanes(std::span<const std::byte> owned_data,
                                  std::span<std::byte> needed_data) const {
  // One message per packed fused lane, moved in fenced or unfenced waves;
  // intra-node lanes move zero-copy through shared memory and the self lane
  // via copy_regions (see LaneProgram for the per-preset routing).
  //
  // Deadlock freedom: sends and pointer publications are buffered-eager and
  // never block. Every rank publishes its pointers before its first blocking
  // receive, and posts all of wave w's sends before it waits on any of wave
  // w's receives, so every message a rank waits on has already been sent or
  // will be sent by a rank that is not itself waiting on this one. The
  // receiver's copy of an intra lane orders before its ack, and the sender
  // waits for its acks last, so it cannot return (and let the caller
  // overwrite its owned buffer) while a peer still reads it.
  const LaneProgram& pg = program_;
  const int nrounds = static_cast<int>(mapping_.rounds.size());
  const int epoch = static_cast<int>(p2p_epoch_++ % kP2pEpochWindow);
  const int tag = p2p_lane_tag(nrounds, epoch);
  const int ptr_tag = p2p_intra_ptr_tag(nrounds, epoch);
  const int ack_tag = p2p_intra_ack_tag(nrounds, epoch);
  DDR_TRACE_SPAN(espan, "ddr.exchange.lanes", trace::Keys{.value = pg.waves});

  const auto owned_ptr = reinterpret_cast<std::uintptr_t>(owned_data.data());
  for (const std::size_t i : pg.intra_sends) {
    const PeerLane& l = mapping_.fused_send[i];
    DDR_TRACE_INSTANT("ddr.intra.publish", {.peer = l.peer, .bytes = l.bytes});
    comm_.send(&owned_ptr, 1, mpi::Datatype::of<std::uintptr_t>(), l.peer,
               ptr_tag);
  }

  for (int w = 0; w < pg.waves; ++w) {
    DDR_TRACE_SPAN(wspan, "ddr.wave", trace::Keys{.round = w});
    // Fused lanes span every round: message instants carry round=-1.
    reqs_.clear();
    for (const LaneProgram::Packed& r : pg.recvs) {
      if (r.wave != w) continue;
      const PeerLane& l = mapping_.fused_recv[r.lane];
      DDR_TRACE_INSTANT("ddr.msg.recv", {.peer = l.peer, .bytes = l.bytes});
      reqs_.push_back(comm_.irecv(needed_data.data() + l.displ, 1, l.type,
                                  l.peer, tag));
    }
    for (const LaneProgram::Packed& s : pg.sends) {
      if (s.wave != w) continue;
      const PeerLane& l = mapping_.fused_send[s.lane];
      DDR_TRACE_INSTANT("ddr.msg.send", {.peer = l.peer, .bytes = l.bytes});
      // Buffered-eager: the request is born complete, nothing to wait on.
      comm_.isend(owned_data.data() + l.displ, 1, l.type, l.peer, tag);
    }

    if (w == 0) {
      // The local work overlaps wave 0's messages in flight. The fused send
      // and recv self lanes cover the same bytes in the same (round,
      // needed-index) order, so they map onto each other directly.
      if (pg.self_send >= 0 && pg.self_recv >= 0) {
        DDR_TRACE_SPAN(sspan, "ddr.self");
        const PeerLane& s = mapping_.fused_send[static_cast<std::size_t>(
            pg.self_send)];
        const PeerLane& r = mapping_.fused_recv[static_cast<std::size_t>(
            pg.self_recv)];
        mpi::copy_regions(s.type, owned_data.data() + s.displ, 1, r.type,
                          needed_data.data() + r.displ, 1);
      }
      if (!pg.intra_recvs.empty()) {
        DDR_TRACE_SPAN(ispan, "ddr.intra",
                       trace::Keys{.value = static_cast<std::int64_t>(
                                       pg.intra_recvs.size())});
        for (const IntraRecv& ir : pg.intra_recvs) {
          // The mailbox handoff orders the sender's writes of its owned
          // buffer before this read (they happen-before the pointer
          // message), and the ack orders this copy before the sender
          // returns: that pair makes the shared-memory read race-free.
          std::uintptr_t ptr = 0;
          comm_.recv(&ptr, 1, mpi::Datatype::of<std::uintptr_t>(), ir.peer,
                     ptr_tag);
          {
            DDR_TRACE_SPAN(cspan, "ddr.intra.copy",
                           trace::Keys{.peer = ir.peer, .bytes = ir.bytes});
            mpi::copy_regions(
                ir.peer_type,
                reinterpret_cast<const std::byte*>(ptr) + ir.peer_displ, 1,
                ir.my_type, needed_data.data() + ir.my_displ, 1);
          }
          comm_.send(nullptr, 0, mpi::Datatype::bytes(1), ir.peer, ack_tag);
        }
      }
    }

    {
      // Complete in posting order with blocking waits; each wait unpacks
      // and returns its payload to the staging pool.
      DDR_TRACE_SPAN(aspan, "ddr.wait_all");
      std::size_t next = 0;
      for (const LaneProgram::Packed& r : pg.recvs) {
        if (r.wave != w) continue;
        const PeerLane& l = mapping_.fused_recv[r.lane];
        const mpi::Status st = reqs_[next++].wait();
        if (st.bytes != static_cast<std::size_t>(l.bytes))
          throw mpi::Error(mpi::ErrorClass::truncate,
                           "redistribute: lane from rank " +
                               std::to_string(l.peer) + " delivered " +
                               std::to_string(st.bytes) + " bytes, expected " +
                               std::to_string(l.bytes));
      }
    }
    // The fence proves every wave-w payload is back in the pool before any
    // wave-(w+1) payload is packed: the peak-staging budget's guarantee.
    if (pg.fenced) comm_.barrier();
  }
  reqs_.clear();

  for (const std::size_t i : pg.intra_sends)
    comm_.recv(nullptr, 0, mpi::Datatype::bytes(1),
               mapping_.fused_send[i].peer, ack_tag);
}

void Redistributor::execute_p2p_reliable(
    std::span<const std::byte> owned_data,
    std::span<std::byte> needed_data) const {
  // Reliable variant of the p2p exchange, engaged when a FaultModel is
  // installed (Comm::fault_injection_active). The data plane may drop,
  // duplicate or delay messages; the protocol completes bit-identically
  // anyway, or fails the run collectively after a bounded number of retries.
  //
  //  * Receiver-driven retry: a receiver that sees no progress for
  //    kRetryTimeout re-requests each still-missing transfer from its sender
  //    (zero-byte message whose tag encodes the round); the sender re-posts
  //    the data. Lost retry requests are themselves retried by the next
  //    timeout. SetupOptions::max_transfer_attempts bounds the requests per
  //    transfer; exhaustion throws, which aborts the run collectively.
  //  * Termination: when a receiver holds everything it expects from sender
  //    q, it sends q a zero-byte "done" token. A rank exits the exchange
  //    when it has all its data AND holds done tokens from every rank it
  //    sends to — before that it keeps servicing retry requests, so no
  //    receiver can be stranded by a sender that finished early. Control
  //    messages are zero-byte: fault plans model them on a lossless control
  //    lane (see simnet::RandomFaultParams::spare_empty_messages).
  //  * Cleanup: a barrier (reliable collective channel) fences the epoch,
  //    then each rank drains its epoch tags, removing duplicated data copies
  //    and stale control messages so no later call can see them.
  using steady = std::chrono::steady_clock;
  constexpr auto kRetryTimeout = std::chrono::milliseconds(20);
  constexpr auto kPollInterval = std::chrono::microseconds(200);

  const int nrounds = static_cast<int>(mapping_.rounds.size());
  const int epoch = static_cast<int>(p2p_epoch_++ % kP2pEpochWindow);
  const mpi::Datatype byte = mpi::Datatype::bytes(1);
  // Retry timing makes this path's event stream nondeterministic, so it is
  // outside the golden-trace contract; the span still closes on unwind when
  // retries are exhausted, keeping traces well-formed across failures.
  DDR_TRACE_SPAN(espan, "ddr.exchange.reliable");

  auto drain_epoch = [&] {
    auto drain_tag = [&](int tag) {
      while (auto s = comm_.iprobe(mpi::any_source, tag)) {
        std::vector<std::byte> junk(s->bytes);
        comm_.recv(junk.data(), junk.size(), byte, s->source, tag);
      }
    };
    drain_tag(p2p_done_tag(epoch));
    for (int k = 0; k < nrounds; ++k) {
      drain_tag(p2p_retry_tag(k, epoch));
      drain_tag(p2p_data_tag(k, nrounds, epoch));
    }
  };

  // The window only wraps after kP2pEpochWindow calls; clear anything a
  // long-past call could have left in this epoch's slots.
  drain_epoch();

  // Expected incoming transfers, their pending receives, and retry budgets.
  struct PendingRecv {
    int round = 0;
    int peer = -1;
    int attempts = 0;
    mpi::Request req;
  };
  std::vector<PendingRecv> pending;
  std::vector<int> missing_from(static_cast<std::size_t>(mapping_.nranks), 0);
  for (int k = 0; k < nrounds; ++k) {
    const RoundPlan& rp = mapping_.rounds[static_cast<std::size_t>(k)];
    for (int q = 0; q < mapping_.nranks; ++q) {
      const auto qi = static_cast<std::size_t>(q);
      if (rp.recvcounts[qi] <= 0) continue;
      PendingRecv pr;
      pr.round = k;
      pr.peer = q;
      pr.req = comm_.irecv(needed_data.data() + rp.rdispls[qi], 1,
                           rp.recvtypes[qi], q, p2p_data_tag(k, nrounds, epoch));
      pending.push_back(std::move(pr));
      ++missing_from[qi];
    }
  }

  auto send_data = [&](int round, int dest) {
    const RoundPlan& rp = mapping_.rounds[static_cast<std::size_t>(round)];
    const auto di = static_cast<std::size_t>(dest);
    DDR_TRACE_INSTANT(
        "ddr.msg.send",
        {.round = round,
         .peer = dest,
         .bytes = static_cast<std::int64_t>(
             static_cast<std::size_t>(rp.sendcounts[di]) *
             rp.sendtypes[di].size())});
    comm_.send(owned_data.data() + rp.sdispls[di], 1, rp.sendtypes[di], dest,
               p2p_data_tag(round, nrounds, epoch));
  };

  // Ranks this rank sends to: each owes us a done token before we may leave
  // (we are their retry server until then).
  std::vector<bool> awaiting_done(static_cast<std::size_t>(mapping_.nranks),
                                  false);
  int ndone_awaited = 0;
  for (int q = 0; q < mapping_.nranks; ++q) {
    const auto qi = static_cast<std::size_t>(q);
    bool sends_to_q = false;
    for (int k = 0; k < nrounds; ++k)
      if (mapping_.rounds[static_cast<std::size_t>(k)].sendcounts[qi] > 0)
        sends_to_q = true;
    if (sends_to_q) {
      awaiting_done[qi] = true;
      ++ndone_awaited;
    }
  }

  // Initial transmission.
  for (int k = 0; k < nrounds; ++k) {
    const RoundPlan& rp = mapping_.rounds[static_cast<std::size_t>(k)];
    for (int q = 0; q < mapping_.nranks; ++q)
      if (rp.sendcounts[static_cast<std::size_t>(q)] > 0) send_data(k, q);
  }

  steady::time_point last_progress = steady::now();
  std::size_t npending = pending.size();
  while (npending > 0 || ndone_awaited > 0) {
    bool progressed = false;

    // 1. Complete arrived transfers; notify a sender once it owes us nothing.
    for (auto& pr : pending) {
      if (!pr.req.valid()) continue;
      if (pr.req.test()) {
        progressed = true;
        --npending;
        const auto qi = static_cast<std::size_t>(pr.peer);
        DDR_TRACE_INSTANT(
            "ddr.msg.recv",
            {.round = pr.round,
             .peer = pr.peer,
             .bytes = static_cast<std::int64_t>(
                 static_cast<std::size_t>(
                     mapping_.rounds[static_cast<std::size_t>(pr.round)]
                         .recvcounts[qi]) *
                 mapping_.rounds[static_cast<std::size_t>(pr.round)]
                     .recvtypes[qi]
                     .size())});
        if (--missing_from[qi] == 0)
          comm_.send(nullptr, 0, byte, pr.peer, p2p_done_tag(epoch));
      }
    }

    // 2. Serve retry requests: re-post the requested transfer.
    for (int k = 0; k < nrounds; ++k) {
      const int rtag = p2p_retry_tag(k, epoch);
      while (auto s = comm_.iprobe(mpi::any_source, rtag)) {
        comm_.recv(nullptr, 0, byte, s->source, rtag);
        const RoundPlan& rp = mapping_.rounds[static_cast<std::size_t>(k)];
        if (rp.sendcounts[static_cast<std::size_t>(s->source)] > 0) {
          DDR_TRACE_INSTANT("ddr.retry.resend", {.round = k, .peer = s->source});
          send_data(k, s->source);
        }
        progressed = true;
      }
    }

    // 3. Collect done tokens from the ranks we send to.
    while (auto s = comm_.iprobe(mpi::any_source, p2p_done_tag(epoch))) {
      comm_.recv(nullptr, 0, byte, s->source, p2p_done_tag(epoch));
      const auto si = static_cast<std::size_t>(s->source);
      if (awaiting_done[si]) {
        awaiting_done[si] = false;
        --ndone_awaited;
        progressed = true;
      }
    }

    // 4. On stall, re-request every still-missing transfer (bounded), and
    // write off ranks the FaultModel killed: a dead sender will never
    // deliver (fail fast instead of exhausting retries into the void) and a
    // dead receiver will never need our retry service nor send its token.
    if (progressed) {
      last_progress = steady::now();
    } else if (steady::now() - last_progress > kRetryTimeout) {
      const std::vector<int> failed = comm_.failed_ranks();
      auto is_dead = [&](int r) {
        return std::find(failed.begin(), failed.end(), r) != failed.end();
      };
      for (int q = 0; q < mapping_.nranks; ++q) {
        const auto qi = static_cast<std::size_t>(q);
        if (awaiting_done[qi] && is_dead(q)) {
          awaiting_done[qi] = false;
          --ndone_awaited;
        }
      }
      // A receiver that gives up must not strand its live senders: they sit
      // in this same poll loop awaiting our done token, and a polling rank
      // never registers as blocked, so the deadlock watchdog could never
      // fire for them. Hand every sender still owed a token its done before
      // throwing — they drain into the epoch barrier (which IS
      // watchdog-covered) and the failure surfaces through this rank's
      // exception instead of a silent hang.
      auto abort_exchange = [&](const std::string& msg) {
        for (int q = 0; q < mapping_.nranks; ++q) {
          const auto qi = static_cast<std::size_t>(q);
          if (missing_from[qi] > 0 && !is_dead(q))
            comm_.send(nullptr, 0, byte, q, p2p_done_tag(epoch));
        }
        require(false, msg);
      };
      for (auto& pr : pending) {
        if (!pr.req.valid()) continue;
        if (is_dead(pr.peer))
          abort_exchange(
              "redistribute: rank " + std::to_string(pr.peer) +
              " was killed before delivering round " +
              std::to_string(pr.round) + " to rank " +
              std::to_string(comm_.rank()) +
              " — shrink the communicator and rebuild the mapping "
              "(rebuild(owned, needed) does both in one call under "
              "SetupOptions::rebuild_policy == RebuildPolicy::"
              "auto_shrink)");
        ++pr.attempts;
        if (pr.attempts > options_.max_transfer_attempts)
          abort_exchange(
              "redistribute: transfer (round " + std::to_string(pr.round) +
              " from rank " + std::to_string(pr.peer) + " to rank " +
              std::to_string(comm_.rank()) + ") still missing after " +
              std::to_string(pr.attempts) + " attempts — aborting the exchange");
        DDR_TRACE_INSTANT("ddr.retry.request",
                          {.round = pr.round,
                           .peer = pr.peer,
                           .value = pr.attempts});
        comm_.send(nullptr, 0, byte, pr.peer, p2p_retry_tag(pr.round, epoch));
      }
      last_progress = steady::now();
    }

    // Stay responsive to kill/abort/deadlock while looping, and yield the
    // core (ranks are threads of one process) instead of spinning.
    comm_.checkpoint();
    std::this_thread::sleep_for(kPollInterval);
  }

  // Fence the epoch on the reliable collective channel, then remove this
  // epoch's leftovers (duplicated data copies, redundant retry requests and
  // done tokens). After the barrier no rank can send into this epoch again,
  // so the drain is complete.
  comm_.barrier();
  drain_epoch();
}

}  // namespace ddr
