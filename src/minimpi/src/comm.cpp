#include "minimpi/comm.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <cstring>
#include <numeric>

#include "impl.hpp"

namespace mpi {

using detail::CommImpl;
using detail::Mailbox;
using detail::Message;
using detail::World;

namespace detail {

void World::abort_all() { aborted.store(true, std::memory_order_release); }

void World::mark_dead(int world_rank) {
  dead[static_cast<std::size_t>(world_rank)].store(true,
                                                   std::memory_order_release);
  running[static_cast<std::size_t>(world_rank)].store(
      false, std::memory_order_release);
  gone.fetch_add(1, std::memory_order_release);
  // The live set shrank: nudge the progress clock so blocked waiters
  // re-evaluate the all-live-blocked condition promptly.
  note_progress();
}

void World::declare_deadlock(int declaring_world_rank) {
  std::lock_guard lk(deadlock_m);
  // A rank that has not yet consumed the previous incident is about to wake,
  // throw, and unblock (recovery typically follows) — the world is not
  // truly stuck, so hold off a new incident until every running rank has
  // caught up. Without this, fast survivors that recover onto a shrunk
  // communicator and block there can be re-thrown at while a slow survivor
  // is still draining the previous incident.
  const std::uint64_t g = deadlock_gen.load(std::memory_order_acquire);
  for (int r = 0; r < size; ++r) {
    const auto k = static_cast<std::size_t>(r);
    if (running[k].load(std::memory_order_acquire) &&
        deadlock_ack[k].load(std::memory_order_acquire) < g)
      return;
  }
  // Only the first declarer of an incident bumps the generation; a rank with
  // an unconsumed incident pending would have thrown before getting here.
  std::uint64_t expected =
      deadlock_ack[static_cast<std::size_t>(declaring_world_rank)].load(
          std::memory_order_acquire);
  if (!deadlock_gen.compare_exchange_strong(expected, expected + 1))
    return;  // another blocked rank declared this incident first

  std::string dead_list;
  int ndead = 0;
  for (int r = 0; r < size; ++r)
    if (dead[static_cast<std::size_t>(r)].load(std::memory_order_acquire)) {
      if (ndead++ > 0) dead_list += ",";
      dead_list += std::to_string(r);
    }
  const int ngone = gone.load(std::memory_order_acquire);
  // Name every live rank's wait site: "3:recv@17" is a rank stuck in a
  // receive for tag 17, "0:shrink"/"2:agree" are ranks parked in agreements
  // (they consume incidents and retry; receives throw).
  std::string sites;
  for (int r = 0; r < size; ++r) {
    const auto k = static_cast<std::size_t>(r);
    if (!running[k].load(std::memory_order_acquire)) continue;
    const char* site = blocked_at[k].load(std::memory_order_acquire);
    if (!sites.empty()) sites += ", ";
    sites += std::to_string(r) + ":" + (site != nullptr ? site : "running");
    const int tag = blocked_tag[k].load(std::memory_order_acquire);
    if (site != nullptr && tag >= 0) sites += "@" + std::to_string(tag);
  }
  deadlock_detail =
      "minimpi: deadlock detected — all " + std::to_string(size - ngone) +
      " live rank(s) blocked with no messages in flight (" +
      std::to_string(ndead) +
      (ndead == 1 ? " rank dead" : " ranks dead") +
      (ndead > 0 ? ": [" + dead_list + "]" : "") + ", " +
      std::to_string(ngone - ndead) + " finished; blocked at: " + sites + ")";
}

void World::throw_if_deadlocked(int world_rank) {
  const std::uint64_t g = deadlock_gen.load(std::memory_order_acquire);
  const auto k = static_cast<std::size_t>(world_rank);
  if (g <= deadlock_ack[k].load(std::memory_order_acquire)) return;
  deadlock_ack[k].store(g, std::memory_order_release);
  std::string what;
  {
    std::lock_guard lk(deadlock_m);
    what = deadlock_detail;
  }
  throw Error(ErrorClass::deadlock, what);
}

CommImpl::CommImpl(std::shared_ptr<World> w, std::vector<int> group_world_ranks)
    : world(std::move(w)),
      group(std::move(group_world_ranks)),
      size(static_cast<int>(group.size())),
      trace_id(world->next_comm_id.fetch_add(1, std::memory_order_relaxed)),
      coll_seq(group.size(), 0),
      split_seq(group.size(), 0),
      shrink_seq(group.size(), 0),
      resize_seq(group.size(), 0),
      agree_seq(group.size(), 0) {
  user_box.reserve(group.size());
  coll_box.reserve(group.size());
  for (std::size_t i = 0; i < group.size(); ++i) {
    user_box.push_back(std::make_unique<Mailbox>());
    coll_box.push_back(std::make_unique<Mailbox>());
  }
}

Comm make_comm(std::shared_ptr<CommImpl> impl, int rank) {
  return Comm(std::move(impl), rank);
}

}  // namespace detail

namespace {

constexpr auto kAbortPollInterval = std::chrono::milliseconds(5);

[[noreturn]] void throw_aborted() {
  throw Error(ErrorClass::internal,
              "minimpi: run aborted because another rank threw");
}

bool matches(const Message& m, int src, int tag) {
  return (src == any_source || m.src == src) &&
         (tag == any_tag || m.tag == tag);
}

void post(World& w, Mailbox& box, Message&& msg) {
  {
    std::lock_guard lk(box.m);
    box.q.push_back(std::move(msg));
  }
  w.messages_posted.fetch_add(1, std::memory_order_relaxed);
  w.note_progress();
  box.cv.notify_all();
}

/// Kill/stall checkpoint, run at MPI entry points on the rank's own thread.
void fault_checkpoint(World& w, int my_world) {
  if (w.fault == nullptr) return;
  VirtualClock& clk = w.clocks[static_cast<std::size_t>(my_world)];
  const double stall = w.fault->stall_s(my_world, clk.now());
  if (stall > 0.0) clk.advance(stall);
  if (w.fault->should_kill(my_world, clk.now())) throw detail::RankKilled{};
}

/// Registers this rank thread as blocked for the watchdog, exception-safely.
/// `where` (a static string) and `tag` label the wait in World::blocked_at /
/// blocked_tag so a deadlock incident can name every stuck rank's site.
class BlockGuard {
 public:
  BlockGuard(World& w, int my_world, const char* where, int tag = -1)
      : w_(w),
        k_(static_cast<std::size_t>(my_world)),
        where_(where),
        tag_(tag) {}
  ~BlockGuard() {
    if (on_) {
      w_.blocked_at[k_].store(nullptr, std::memory_order_release);
      w_.blocked.fetch_sub(1, std::memory_order_release);
    }
  }
  void enter() {
    if (!on_) {
      w_.blocked_at[k_].store(where_, std::memory_order_release);
      w_.blocked_tag[k_].store(tag_, std::memory_order_release);
      w_.blocked.fetch_add(1, std::memory_order_release);
      on_ = true;
    }
  }
  BlockGuard(const BlockGuard&) = delete;
  BlockGuard& operator=(const BlockGuard&) = delete;

 private:
  World& w_;
  std::size_t k_;
  const char* where_;
  int tag_;
  bool on_ = false;
};

/// Blocks until a message matching (src, tag) is available and removes it.
///
/// Doubles as the deadlock watchdog: every waiter tracks the global progress
/// counter, and when ALL live ranks are blocked while no message has been
/// posted or matched for the grace period, the run provably can never make
/// progress again (only rank threads post messages). The first waiter to
/// observe that declares an incident and every blocked rank throws
/// ErrorClass::deadlock instead of hanging the process.
Message take(Mailbox& box, World& w, int my_world, int src, int tag) {
  using steady = std::chrono::steady_clock;
  BlockGuard guard(w, my_world, "recv", tag);
  std::uint64_t seen_progress = w.progress.load(std::memory_order_acquire);
  steady::time_point stable_since = steady::now();
  std::unique_lock lk(box.m);
  for (;;) {
    for (auto it = box.q.begin(); it != box.q.end(); ++it) {
      if (matches(*it, src, tag)) {
        Message m = std::move(*it);
        box.q.erase(it);
        w.note_progress();
        return m;
      }
    }
    w.throw_if_deadlocked(my_world);
    if (w.aborted.load(std::memory_order_acquire)) throw_aborted();
    if (w.fault != nullptr &&
        w.fault->should_kill(
            my_world, w.clocks[static_cast<std::size_t>(my_world)].now()))
      throw detail::RankKilled{};
    guard.enter();
    if (w.deadlock_grace_s > 0.0) {
      const std::uint64_t p = w.progress.load(std::memory_order_acquire);
      if (p != seen_progress) {
        seen_progress = p;
        stable_since = steady::now();
      } else if (w.all_live_blocked() &&
                 std::chrono::duration<double>(steady::now() - stable_since)
                         .count() > w.deadlock_grace_s) {
        w.declare_deadlock(my_world);
        continue;  // throw_if_deadlocked fires on the next iteration
      }
    }
    box.cv.wait_for(lk, kAbortPollInterval);
  }
}

/// Non-blocking variant of take().
std::optional<Message> try_take(Mailbox& box, int src, int tag) {
  std::lock_guard lk(box.m);
  for (auto it = box.q.begin(); it != box.q.end(); ++it) {
    if (matches(*it, src, tag)) {
      Message m = std::move(*it);
      box.q.erase(it);
      return m;
    }
  }
  return std::nullopt;
}

/// Sends a pre-packed payload: charges the sender clock, stamps the
/// departure time, and lets the FaultModel (if any) decide the message fate.
void send_packed(const CommImpl& impl, int my_rank, std::vector<std::byte> payload,
                 int dest, int tag, bool collective) {
  World& w = *impl.world;
  if (w.aborted.load(std::memory_order_acquire)) throw_aborted();
  const int src_world = impl.group[static_cast<std::size_t>(my_rank)];
  const int dst_world = impl.group[static_cast<std::size_t>(dest)];
  fault_checkpoint(w, src_world);
  const std::size_t bytes = payload.size();
  VirtualClock& clk = w.clocks[static_cast<std::size_t>(src_world)];
  if (w.network != nullptr) clk.advance(w.network->send_overhead(bytes));
  Message msg;
  msg.src = my_rank;
  msg.tag = tag;
  msg.payload = std::move(payload);
  msg.depart_vtime = clk.now();
  int copies = 1;
  if (w.fault != nullptr) {
    const MsgFate fate = w.fault->on_message(
        {src_world, dst_world, tag, bytes, collective, clk.now()});
    if (fate.drop) {
      DDR_TRACE_INSTANT("mpi.fault.drop",
                        {.peer = dest,
                         .bytes = static_cast<std::int64_t>(bytes)});
      return;  // lost on the wire; nobody learns of it
    }
    if (fate.delay_s > 0.0)
      DDR_TRACE_INSTANT("mpi.fault.delay",
                        {.peer = dest,
                         .bytes = static_cast<std::int64_t>(bytes)});
    if (fate.extra_copies > 0)
      DDR_TRACE_INSTANT("mpi.fault.duplicate",
                        {.peer = dest,
                         .bytes = static_cast<std::int64_t>(bytes),
                         .value = fate.extra_copies});
    msg.depart_vtime += std::max(0.0, fate.delay_s);
    copies += std::max(0, fate.extra_copies);
  }
  Mailbox& box = collective ? *impl.coll_box[static_cast<std::size_t>(dest)]
                            : *impl.user_box[static_cast<std::size_t>(dest)];
  for (int c = 1; c < copies; ++c) post(w, box, Message(msg));
  post(w, box, std::move(msg));
}

/// Charges the receiver clock for a matched message.
void charge_recv(const CommImpl& impl, int my_rank, const Message& msg) {
  World& w = *impl.world;
  VirtualClock& clk =
      w.clocks[static_cast<std::size_t>(impl.group[static_cast<std::size_t>(my_rank)])];
  if (w.network != nullptr) {
    const int src_world = impl.group[static_cast<std::size_t>(msg.src)];
    const int dst_world = impl.group[static_cast<std::size_t>(my_rank)];
    clk.sync_to(msg.depart_vtime +
                w.network->transfer_time(msg.payload.size(), src_world, dst_world));
    clk.advance(w.network->recv_overhead(msg.payload.size()));
  } else {
    // Even without a cost model, preserve causality of the virtual clocks.
    clk.sync_to(msg.depart_vtime);
  }
}

/// Completes a matched receive: charges the receiver clock, checks that the
/// payload is a whole number of receive-type elements that fits the buffer,
/// unpacks it and returns the payload to the staging pool. Every receive path
/// (Comm::recv, Request::wait, Request::test) completes through here.
Status complete_recv(const CommImpl& impl, int my_rank, Message msg, void* buf,
                     std::size_t count, const Datatype& type) {
  charge_recv(impl, my_rank, msg);
  const std::size_t capacity = count * type.size();
  require(msg.payload.size() <= capacity, ErrorClass::truncate,
          "recv: message (" + std::to_string(msg.payload.size()) +
              " B) larger than receive buffer (" + std::to_string(capacity) +
              " B)");
  std::size_t elems = 0;
  if (type.size() > 0) {
    require(msg.payload.size() % type.size() == 0, ErrorClass::truncate,
            "recv: message is not a whole number of receive-type elements");
    elems = msg.payload.size() / type.size();
  } else {
    require(msg.payload.empty(), ErrorClass::truncate,
            "recv: non-empty message matched a zero-size receive type");
  }
  if (elems > 0) type.unpack(msg.payload.data(), elems, static_cast<std::byte*>(buf));
  const Status st{msg.src, msg.tag, msg.payload.size()};
  impl.staging.release(std::move(msg.payload));
  return st;
}

/// Shared blocking-receive implementation (used by Comm::recv and
/// Request::wait).
Status do_recv(const CommImpl& impl, int my_rank, void* buf, std::size_t count,
               const Datatype& type, int src, int tag, bool collective) {
  Mailbox& box = collective ? *impl.coll_box[static_cast<std::size_t>(my_rank)]
                            : *impl.user_box[static_cast<std::size_t>(my_rank)];
  const int my_world = impl.group[static_cast<std::size_t>(my_rank)];
  fault_checkpoint(*impl.world, my_world);
  return complete_recv(impl, my_rank, take(box, *impl.world, my_world, src, tag),
                       buf, count, type);
}

std::vector<std::byte> pack_elements(const CommImpl& impl, const void* buf,
                                     std::size_t count, const Datatype& type) {
  std::vector<std::byte> payload = impl.staging.acquire(count * type.size());
  if (!payload.empty())
    type.pack(static_cast<const std::byte*>(buf), count, payload.data());
  return payload;
}

/// Collective tag from a 64-bit sequence number.
int coll_tag(std::uint64_t seq) { return static_cast<int>(seq & 0x3fffffffu); }

void check_rank(const CommImpl& impl, int r, const char* what) {
  require(r >= 0 && r < impl.size, ErrorClass::invalid_rank,
          std::string(what) + ": rank " + std::to_string(r) +
              " outside communicator of size " + std::to_string(impl.size));
}

}  // namespace

// --- Comm basics -----------------------------------------------------------

int Comm::size() const noexcept { return impl_ ? impl_->size : 0; }

VirtualClock& Comm::clock() const {
  require(valid(), ErrorClass::invalid_comm, "clock: invalid communicator");
  return impl_->world
      ->clocks[static_cast<std::size_t>(impl_->group[static_cast<std::size_t>(rank_)])];
}

int Comm::world_rank(int rank_in_comm) const {
  require(valid(), ErrorClass::invalid_comm, "world_rank: invalid communicator");
  check_rank(*impl_, rank_in_comm, "world_rank");
  return impl_->group[static_cast<std::size_t>(rank_in_comm)];
}

std::uint64_t Comm::next_coll_seq() const {
  return impl_->coll_seq[static_cast<std::size_t>(rank_)]++;
}

// --- point-to-point --------------------------------------------------------

void Comm::send(const void* buf, std::size_t count, const Datatype& type,
                int dest, int tag) const {
  require(valid(), ErrorClass::invalid_comm, "send: invalid communicator");
  check_rank(*impl_, dest, "send");
  require(tag >= 0, ErrorClass::invalid_tag, "send: tag must be >= 0");
  require(tag < tag_upper_bound, ErrorClass::invalid_tag,
          "send: tag " + std::to_string(tag) +
              " exceeds the runtime tag ceiling (tag_upper_bound = " +
              std::to_string(tag_upper_bound) + ")");
  send_packed(*impl_, rank_, pack_elements(*impl_, buf, count, type), dest, tag,
              /*collective=*/false);
}

Status Comm::recv(void* buf, std::size_t count, const Datatype& type,
                  int source, int tag) const {
  require(valid(), ErrorClass::invalid_comm, "recv: invalid communicator");
  if (source != any_source) check_rank(*impl_, source, "recv");
  require((tag >= 0 && tag < tag_upper_bound) || tag == any_tag,
          ErrorClass::invalid_tag,
          "recv: tag must be in [0, tag_upper_bound) or any_tag");
  return do_recv(*impl_, rank_, buf, count, type, source, tag,
                 /*collective=*/false);
}

Request Comm::isend(const void* buf, std::size_t count, const Datatype& type,
                    int dest, int tag) const {
  // minimpi sends are buffered-eager, so an isend is complete on return.
  send(buf, count, type, dest, tag);
  Request r;
  r.kind_ = Request::Kind::done_send;
  r.done_status_ = Status{rank_, tag, count * type.size()};
  return r;
}

Request Comm::irecv(void* buf, std::size_t count, const Datatype& type,
                    int source, int tag) const {
  require(valid(), ErrorClass::invalid_comm, "irecv: invalid communicator");
  if (source != any_source) check_rank(*impl_, source, "irecv");
  Request r;
  r.kind_ = Request::Kind::pending_recv;
  r.impl_ = impl_;
  r.rank_ = rank_;
  r.buf_ = buf;
  r.count_ = count;
  r.type_ = type;
  r.src_ = source;
  r.tag_ = tag;
  return r;
}

Status Comm::sendrecv(const void* sendbuf, std::size_t sendcount,
                      const Datatype& sendtype, int dest, int sendtag,
                      void* recvbuf, std::size_t recvcount,
                      const Datatype& recvtype, int source,
                      int recvtag) const {
  send(sendbuf, sendcount, sendtype, dest, sendtag);
  return recv(recvbuf, recvcount, recvtype, source, recvtag);
}

Status Comm::probe(int source, int tag) const {
  require(valid(), ErrorClass::invalid_comm, "probe: invalid communicator");
  using steady = std::chrono::steady_clock;
  World& w = *impl_->world;
  const int my_world = impl_->group[static_cast<std::size_t>(rank_)];
  fault_checkpoint(w, my_world);
  Mailbox& box = *impl_->user_box[static_cast<std::size_t>(rank_)];
  BlockGuard guard(w, my_world, "probe", tag);
  std::uint64_t seen_progress = w.progress.load(std::memory_order_acquire);
  steady::time_point stable_since = steady::now();
  std::unique_lock lk(box.m);
  for (;;) {
    for (const auto& m : box.q)
      if (matches(m, source, tag)) return Status{m.src, m.tag, m.payload.size()};
    w.throw_if_deadlocked(my_world);
    if (w.aborted.load(std::memory_order_acquire)) throw_aborted();
    guard.enter();
    if (w.deadlock_grace_s > 0.0) {
      const std::uint64_t p = w.progress.load(std::memory_order_acquire);
      if (p != seen_progress) {
        seen_progress = p;
        stable_since = steady::now();
      } else if (w.all_live_blocked() &&
                 std::chrono::duration<double>(steady::now() - stable_since)
                         .count() > w.deadlock_grace_s) {
        w.declare_deadlock(my_world);
        continue;
      }
    }
    box.cv.wait_for(lk, kAbortPollInterval);
  }
}

std::optional<Status> Comm::iprobe(int source, int tag) const {
  require(valid(), ErrorClass::invalid_comm, "iprobe: invalid communicator");
  Mailbox& box = *impl_->user_box[static_cast<std::size_t>(rank_)];
  std::lock_guard lk(box.m);
  for (const auto& m : box.q)
    if (matches(m, source, tag)) return Status{m.src, m.tag, m.payload.size()};
  return std::nullopt;
}

// --- Request ----------------------------------------------------------------

Status Request::wait() {
  require(valid(), ErrorClass::invalid_argument, "wait: invalid request");
  if (kind_ == Kind::done_send) {
    kind_ = Kind::invalid;
    return done_status_;
  }
  Status s = do_recv(*impl_, rank_, buf_, count_, type_, src_, tag_,
                     /*collective=*/false);
  kind_ = Kind::invalid;
  return s;
}

std::optional<Status> Request::test() {
  require(valid(), ErrorClass::invalid_argument, "test: invalid request");
  if (kind_ == Kind::done_send) {
    kind_ = Kind::invalid;
    return done_status_;
  }
  Mailbox& box = *impl_->user_box[static_cast<std::size_t>(rank_)];
  std::optional<Message> msg = try_take(box, src_, tag_);
  if (!msg) {
    // Keep test()-driven progress loops (wait_any, retry protocols) from
    // spinning forever after another rank failed the run.
    if (impl_->world->aborted.load(std::memory_order_acquire)) throw_aborted();
    return std::nullopt;
  }
  Status s = complete_recv(*impl_, rank_, std::move(*msg), buf_, count_, type_);
  kind_ = Kind::invalid;
  return s;
}

std::vector<Status> wait_all(std::span<Request> reqs) {
  std::vector<Status> out;
  out.reserve(reqs.size());
  for (auto& r : reqs) out.push_back(r.wait());
  return out;
}

std::pair<std::size_t, Status> wait_any(std::span<Request> reqs) {
  for (;;) {
    bool any_valid = false;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      if (!reqs[i].valid()) continue;
      any_valid = true;
      if (auto s = reqs[i].test()) return {i, *s};
    }
    require(any_valid, ErrorClass::invalid_argument,
            "wait_any: no valid requests");
    std::this_thread::yield();
  }
}

// --- internal collective channel --------------------------------------------

void Comm::coll_send(const void* buf, std::size_t bytes, int dest,
                     int tag) const {
  std::vector<std::byte> payload = impl_->staging.acquire(bytes);
  if (bytes > 0) std::memcpy(payload.data(), buf, bytes);
  send_packed(*impl_, rank_, std::move(payload), dest, tag,
              /*collective=*/true);
}

Status Comm::coll_recv(void* buf, std::size_t capacity, int src,
                       int tag) const {
  Mailbox& box = *impl_->coll_box[static_cast<std::size_t>(rank_)];
  const int my_world = impl_->group[static_cast<std::size_t>(rank_)];
  fault_checkpoint(*impl_->world, my_world);
  Message msg = take(box, *impl_->world, my_world, src, tag);
  charge_recv(*impl_, rank_, msg);
  require(msg.payload.size() <= capacity, ErrorClass::truncate,
          "collective: internal message larger than buffer");
  if (!msg.payload.empty()) std::memcpy(buf, msg.payload.data(), msg.payload.size());
  const Status st{msg.src, msg.tag, msg.payload.size()};
  impl_->staging.release(std::move(msg.payload));
  return st;
}

// --- collectives -------------------------------------------------------------

void Comm::barrier() const {
  require(valid(), ErrorClass::invalid_comm, "barrier: invalid communicator");
  DDR_TRACE_SPAN(tspan, "mpi.barrier",
                 trace::Keys{.comm = static_cast<std::int64_t>(impl_->trace_id)});
  const int p = size();
  const int tag = coll_tag(next_coll_seq());
  // Dissemination barrier: after ceil(log2 p) rounds every rank has
  // transitively heard from every other rank (and the virtual clocks have
  // converged to the global maximum).
  for (int k = 1; k < p; k <<= 1) {
    const int dest = (rank_ + k) % p;
    const int src = (rank_ - k % p + p) % p;
    coll_send(nullptr, 0, dest, tag);
    coll_recv(nullptr, 0, src, tag);
  }
}

void Comm::bcast(void* buf, std::size_t count, const Datatype& type,
                 int root) const {
  require(valid(), ErrorClass::invalid_comm, "bcast: invalid communicator");
  check_rank(*impl_, root, "bcast");
  DDR_TRACE_SPAN(
      tspan, "mpi.bcast",
      trace::Keys{.comm = static_cast<std::int64_t>(impl_->trace_id),
                  .bytes = static_cast<std::int64_t>(count * type.size())});
  const int p = size();
  const int tag = coll_tag(next_coll_seq());
  if (p == 1) return;

  const std::size_t bytes = count * type.size();
  std::vector<std::byte> packed(bytes);
  const int vr = (rank_ - root + p) % p;  // rank relative to root

  if (vr == 0) {
    if (bytes > 0)
      type.pack(static_cast<const std::byte*>(buf), count, packed.data());
  } else {
    // Receive from the parent in the binomial tree.
    int mask = 1;
    while ((vr & mask) == 0) mask <<= 1;
    const int parent = ((vr & ~mask) + root) % p;
    coll_recv(packed.data(), bytes, parent, tag);
    if (bytes > 0) type.unpack(packed.data(), count, static_cast<std::byte*>(buf));
  }
  // Forward to children: peel leading zeros below the bit that brought the
  // data here (root uses the full mask range).
  int mask = 1;
  while (mask < p && (vr & mask) == 0) mask <<= 1;
  for (int child_bit = mask >> 1; child_bit > 0; child_bit >>= 1) {
    const int child_vr = vr | child_bit;
    if (child_vr < p && child_vr != vr)
      coll_send(packed.data(), bytes, (child_vr + root) % p, tag);
  }
  // Note: for vr == 0 the loop above leaves mask at the first power of two
  // >= p, so the root forwards to all of its binomial children.
}

void Comm::reduce(const void* sendbuf, void* recvbuf, std::size_t count,
                  const Datatype& type, const Op& op, int root) const {
  require(valid(), ErrorClass::invalid_comm, "reduce: invalid communicator");
  check_rank(*impl_, root, "reduce");
  require(type.contiguous(), ErrorClass::invalid_datatype,
          "reduce: only contiguous element types are supported");
  DDR_TRACE_SPAN(
      tspan, "mpi.reduce",
      trace::Keys{.comm = static_cast<std::int64_t>(impl_->trace_id),
                  .bytes = static_cast<std::int64_t>(count * type.size())});
  const int p = size();
  const int tag = coll_tag(next_coll_seq());
  const std::size_t bytes = count * type.size();

  std::vector<std::byte> accum(bytes), incoming(bytes);
  if (bytes > 0) std::memcpy(accum.data(), sendbuf, bytes);

  const int vr = (rank_ - root + p) % p;
  // Binomial reduction tree (commutative ops).
  for (int mask = 1; mask < p; mask <<= 1) {
    if ((vr & mask) == 0) {
      const int peer_vr = vr | mask;
      if (peer_vr < p) {
        coll_recv(incoming.data(), bytes, (peer_vr + root) % p, tag);
        op.apply(accum.data(), incoming.data(), count);
      }
    } else {
      const int parent = ((vr & ~mask) + root) % p;
      coll_send(accum.data(), bytes, parent, tag);
      break;
    }
  }
  if (rank_ == root && bytes > 0) std::memcpy(recvbuf, accum.data(), bytes);
}

void Comm::allreduce(const void* sendbuf, void* recvbuf, std::size_t count,
                     const Datatype& type, const Op& op) const {
  reduce(sendbuf, recvbuf, count, type, op, 0);
  bcast(recvbuf, count, type, 0);
}

void Comm::scan(const void* sendbuf, void* recvbuf, std::size_t count,
                const Datatype& type, const Op& op) const {
  require(valid(), ErrorClass::invalid_comm, "scan: invalid communicator");
  require(type.contiguous(), ErrorClass::invalid_datatype,
          "scan: only contiguous element types are supported");
  DDR_TRACE_SPAN(
      tspan, "mpi.scan",
      trace::Keys{.comm = static_cast<std::int64_t>(impl_->trace_id),
                  .bytes = static_cast<std::int64_t>(count * type.size())});
  const int p = size();
  const int tag = coll_tag(next_coll_seq());
  const std::size_t bytes = count * type.size();

  // Linear chain: simple and exactly matches MPI's ordered-operation
  // requirement for non-commutative ops.
  std::vector<std::byte> accum(bytes);
  if (bytes > 0) std::memcpy(accum.data(), sendbuf, bytes);
  if (rank_ > 0) {
    std::vector<std::byte> incoming(bytes);
    coll_recv(incoming.data(), bytes, rank_ - 1, tag);
    // accum = op(prefix, mine): apply with the prefix as inout would flip
    // the order, so combine into the incoming prefix and take that.
    op.apply(incoming.data(), accum.data(), count);
    accum = std::move(incoming);
  }
  if (rank_ + 1 < p) coll_send(accum.data(), bytes, rank_ + 1, tag);
  if (bytes > 0) std::memcpy(recvbuf, accum.data(), bytes);
}

void Comm::exscan(const void* sendbuf, void* recvbuf, std::size_t count,
                  const Datatype& type, const Op& op) const {
  require(valid(), ErrorClass::invalid_comm, "exscan: invalid communicator");
  require(type.contiguous(), ErrorClass::invalid_datatype,
          "exscan: only contiguous element types are supported");
  DDR_TRACE_SPAN(
      tspan, "mpi.exscan",
      trace::Keys{.comm = static_cast<std::int64_t>(impl_->trace_id),
                  .bytes = static_cast<std::int64_t>(count * type.size())});
  const int p = size();
  const int tag = coll_tag(next_coll_seq());
  const std::size_t bytes = count * type.size();

  std::vector<std::byte> prefix(bytes);
  if (rank_ > 0) {
    coll_recv(prefix.data(), bytes, rank_ - 1, tag);
    if (bytes > 0) std::memcpy(recvbuf, prefix.data(), bytes);
  }
  if (rank_ + 1 < p) {
    // Forward op(prefix, mine) — just `mine` from rank 0.
    std::vector<std::byte> next(bytes);
    if (bytes > 0) std::memcpy(next.data(), sendbuf, bytes);
    if (rank_ > 0) {
      op.apply(prefix.data(), next.data(), count);
      next = std::move(prefix);
    }
    coll_send(next.data(), bytes, rank_ + 1, tag);
  }
}

void Comm::gather(const void* sendbuf, std::size_t sendcount,
                  const Datatype& sendtype, void* recvbuf,
                  std::size_t recvcount, const Datatype& recvtype,
                  int root) const {
  const int p = size();
  std::vector<int> counts(static_cast<std::size_t>(p),
                          static_cast<int>(recvcount));
  std::vector<int> displs(static_cast<std::size_t>(p));
  for (int i = 0; i < p; ++i)
    displs[static_cast<std::size_t>(i)] = static_cast<int>(recvcount) * i;
  gatherv(sendbuf, sendcount, sendtype, recvbuf, counts, displs, recvtype,
          root);
}

void Comm::gatherv(const void* sendbuf, std::size_t sendcount,
                   const Datatype& sendtype, void* recvbuf,
                   std::span<const int> recvcounts, std::span<const int> displs,
                   const Datatype& recvtype, int root) const {
  require(valid(), ErrorClass::invalid_comm, "gatherv: invalid communicator");
  check_rank(*impl_, root, "gatherv");
  DDR_TRACE_SPAN(tspan, "mpi.gatherv",
                 trace::Keys{.comm = static_cast<std::int64_t>(impl_->trace_id)});
  const int p = size();
  const int tag = coll_tag(next_coll_seq());

  if (rank_ != root) {
    std::vector<std::byte> packed =
        pack_elements(*impl_, sendbuf, sendcount, sendtype);
    coll_send(packed.data(), packed.size(), root, tag);
    impl_->staging.release(std::move(packed));
    return;
  }
  require(recvcounts.size() == static_cast<std::size_t>(p) &&
              displs.size() == static_cast<std::size_t>(p),
          ErrorClass::invalid_argument,
          "gatherv: recvcounts/displs must have comm-size entries");
  auto* out = static_cast<std::byte*>(recvbuf);
  for (int r = 0; r < p; ++r) {
    const auto i = static_cast<std::size_t>(r);
    const auto n = static_cast<std::size_t>(recvcounts[i]);
    std::byte* dst = out + static_cast<std::size_t>(displs[i]) * recvtype.extent();
    if (r == rank_) {
      // Self contribution: direct typed-region copy, no staging buffer.
      require(sendcount * sendtype.size() == n * recvtype.size(),
              ErrorClass::invalid_argument,
              "gatherv: send/recv byte counts differ for local contribution");
      if (n > 0)
        copy_regions(sendtype, static_cast<const std::byte*>(sendbuf),
                     sendcount, recvtype, dst, n);
    } else {
      std::vector<std::byte> tmp(n * recvtype.size());
      const Status s = coll_recv(tmp.data(), tmp.size(), r, tag);
      require(s.bytes == tmp.size(), ErrorClass::truncate,
              "gatherv: contribution size mismatch");
      if (n > 0) recvtype.unpack(tmp.data(), n, dst);
    }
  }
}

void Comm::allgather(const void* sendbuf, std::size_t sendcount,
                     const Datatype& sendtype, void* recvbuf,
                     std::size_t recvcount, const Datatype& recvtype) const {
  gather(sendbuf, sendcount, sendtype, recvbuf, recvcount, recvtype, 0);
  bcast(recvbuf, recvcount * static_cast<std::size_t>(size()), recvtype, 0);
}

void Comm::allgatherv(const void* sendbuf, std::size_t sendcount,
                      const Datatype& sendtype, void* recvbuf,
                      std::span<const int> recvcounts,
                      std::span<const int> displs,
                      const Datatype& recvtype) const {
  gatherv(sendbuf, sendcount, sendtype, recvbuf, recvcounts, displs, recvtype,
          0);
  // Broadcast the full gathered region (from displacement 0 to the end of the
  // furthest block).
  std::size_t end_elems = 0;
  for (std::size_t i = 0; i < recvcounts.size(); ++i)
    end_elems = std::max(
        end_elems, static_cast<std::size_t>(displs[i]) +
                       static_cast<std::size_t>(recvcounts[i]));
  bcast(recvbuf, end_elems, recvtype, 0);
}

void Comm::scatter(const void* sendbuf, std::size_t sendcount,
                   const Datatype& sendtype, void* recvbuf,
                   std::size_t recvcount, const Datatype& recvtype,
                   int root) const {
  const int p = size();
  std::vector<int> counts(static_cast<std::size_t>(p),
                          static_cast<int>(sendcount));
  std::vector<int> displs(static_cast<std::size_t>(p));
  for (int i = 0; i < p; ++i)
    displs[static_cast<std::size_t>(i)] = static_cast<int>(sendcount) * i;
  scatterv(sendbuf, counts, displs, sendtype, recvbuf, recvcount, recvtype,
           root);
}

void Comm::scatterv(const void* sendbuf, std::span<const int> sendcounts,
                    std::span<const int> displs, const Datatype& sendtype,
                    void* recvbuf, std::size_t recvcount,
                    const Datatype& recvtype, int root) const {
  require(valid(), ErrorClass::invalid_comm, "scatterv: invalid communicator");
  check_rank(*impl_, root, "scatterv");
  DDR_TRACE_SPAN(tspan, "mpi.scatterv",
                 trace::Keys{.comm = static_cast<std::int64_t>(impl_->trace_id)});
  const int p = size();
  const int tag = coll_tag(next_coll_seq());

  if (rank_ == root) {
    require(sendcounts.size() == static_cast<std::size_t>(p) &&
                displs.size() == static_cast<std::size_t>(p),
            ErrorClass::invalid_argument,
            "scatterv: sendcounts/displs must have comm-size entries");
    const auto* in = static_cast<const std::byte*>(sendbuf);
    for (int r = 0; r < p; ++r) {
      const auto i = static_cast<std::size_t>(r);
      const auto n = static_cast<std::size_t>(sendcounts[i]);
      const std::byte* src =
          in + static_cast<std::size_t>(displs[i]) * sendtype.extent();
      std::vector<std::byte> tmp(n * sendtype.size());
      if (n > 0) sendtype.pack(src, n, tmp.data());
      if (r == rank_) {
        require(tmp.size() == recvcount * recvtype.size(),
                ErrorClass::invalid_argument,
                "scatterv: send/recv byte counts differ for local slice");
        if (recvcount > 0)
          recvtype.unpack(tmp.data(), recvcount,
                          static_cast<std::byte*>(recvbuf));
      } else {
        coll_send(tmp.data(), tmp.size(), r, tag);
      }
    }
  } else {
    std::vector<std::byte> tmp(recvcount * recvtype.size());
    const Status s = coll_recv(tmp.data(), tmp.size(), root, tag);
    require(s.bytes == tmp.size(), ErrorClass::truncate,
            "scatterv: slice size mismatch");
    if (recvcount > 0)
      recvtype.unpack(tmp.data(), recvcount, static_cast<std::byte*>(recvbuf));
  }
}

void Comm::alltoall(const void* sendbuf, std::size_t sendcount,
                    const Datatype& sendtype, void* recvbuf,
                    std::size_t recvcount, const Datatype& recvtype) const {
  const int p = size();
  std::vector<int> scounts(static_cast<std::size_t>(p),
                           static_cast<int>(sendcount));
  std::vector<int> rcounts(static_cast<std::size_t>(p),
                           static_cast<int>(recvcount));
  std::vector<int> sdispls(static_cast<std::size_t>(p));
  std::vector<int> rdispls(static_cast<std::size_t>(p));
  for (int i = 0; i < p; ++i) {
    sdispls[static_cast<std::size_t>(i)] = static_cast<int>(sendcount) * i;
    rdispls[static_cast<std::size_t>(i)] = static_cast<int>(recvcount) * i;
  }
  alltoallv(sendbuf, scounts, sdispls, sendtype, recvbuf, rcounts, rdispls,
            recvtype);
}

void Comm::alltoallv(const void* sendbuf, std::span<const int> sendcounts,
                     std::span<const int> sdispls, const Datatype& sendtype,
                     void* recvbuf, std::span<const int> recvcounts,
                     std::span<const int> rdispls,
                     const Datatype& recvtype) const {
  const int p = size();
  std::vector<std::ptrdiff_t> sdb(static_cast<std::size_t>(p));
  std::vector<std::ptrdiff_t> rdb(static_cast<std::size_t>(p));
  std::vector<Datatype> stypes(static_cast<std::size_t>(p), sendtype);
  std::vector<Datatype> rtypes(static_cast<std::size_t>(p), recvtype);
  for (int i = 0; i < p; ++i) {
    const auto k = static_cast<std::size_t>(i);
    sdb[k] = sdispls[k] * static_cast<std::ptrdiff_t>(sendtype.extent());
    rdb[k] = rdispls[k] * static_cast<std::ptrdiff_t>(recvtype.extent());
  }
  alltoallw(sendbuf, sendcounts, sdb, stypes, recvbuf, recvcounts, rdb, rtypes);
}

void Comm::alltoallw(const void* sendbuf, std::span<const int> sendcounts,
                     std::span<const std::ptrdiff_t> sdispls,
                     std::span<const Datatype> sendtypes, void* recvbuf,
                     std::span<const int> recvcounts,
                     std::span<const std::ptrdiff_t> rdispls,
                     std::span<const Datatype> recvtypes) const {
  require(valid(), ErrorClass::invalid_comm, "alltoallw: invalid communicator");
  const int p = size();
  const auto np = static_cast<std::size_t>(p);
  require(sendcounts.size() == np && sdispls.size() == np &&
              sendtypes.size() == np && recvcounts.size() == np &&
              rdispls.size() == np && recvtypes.size() == np,
          ErrorClass::invalid_argument,
          "alltoallw: all argument arrays must have comm-size entries");
  DDR_TRACE_SPAN(tspan, "mpi.alltoallw",
                 trace::Keys{.comm = static_cast<std::int64_t>(impl_->trace_id)});
  const int tag = coll_tag(next_coll_seq());
  const auto* in = static_cast<const std::byte*>(sendbuf);
  auto* out = static_cast<std::byte*>(recvbuf);

  auto pack_for = [&](int dest) {
    const auto k = static_cast<std::size_t>(dest);
    const auto n = static_cast<std::size_t>(sendcounts[k]);
    std::vector<std::byte> payload =
        impl_->staging.acquire(n * sendtypes[k].size());
    if (!payload.empty()) sendtypes[k].pack(in + sdispls[k], n, payload.data());
    return payload;
  };
  auto unpack_from = [&](int src, const std::byte* data, std::size_t bytes) {
    const auto k = static_cast<std::size_t>(src);
    const auto n = static_cast<std::size_t>(recvcounts[k]);
    require(bytes == n * recvtypes[k].size(), ErrorClass::truncate,
            "alltoallw: received " + std::to_string(bytes) +
                " B but expected " + std::to_string(n * recvtypes[k].size()) +
                " B from rank " + std::to_string(src));
    if (n > 0 && bytes > 0) recvtypes[k].unpack(data, n, out + rdispls[k]);
  };

  // Local portion first: move bytes straight between the two typed regions,
  // no staging buffer (the regions never overlap because send and receive
  // buffers are distinct).
  {
    const auto k = static_cast<std::size_t>(rank_);
    const auto ns = static_cast<std::size_t>(sendcounts[k]);
    const auto nr = static_cast<std::size_t>(recvcounts[k]);
    require(ns * sendtypes[k].size() == nr * recvtypes[k].size(),
            ErrorClass::truncate,
            "alltoallw: local send/recv byte counts differ");
    if (ns > 0 && nr > 0)
      copy_regions(sendtypes[k], in + sdispls[k], ns, recvtypes[k],
                   out + rdispls[k], nr);
  }
  // Pairwise exchange: at step s, send to rank+s, receive from rank-s.
  for (int s = 1; s < p; ++s) {
    const int dest = (rank_ + s) % p;
    const int src = (rank_ - s + p) % p;
    std::vector<std::byte> payload = pack_for(dest);
    send_packed(*impl_, rank_, std::move(payload), dest, tag,
                /*collective=*/true);
    Mailbox& box = *impl_->coll_box[static_cast<std::size_t>(rank_)];
    Message msg = take(box, *impl_->world,
                       impl_->group[static_cast<std::size_t>(rank_)], src, tag);
    charge_recv(*impl_, rank_, msg);
    unpack_from(src, msg.payload.data(), msg.payload.size());
    impl_->staging.release(std::move(msg.payload));
  }
}

// --- group agreement (shrink / resize / agree) -------------------------------

namespace {

/// Bounded-agreement parameters: how many times a survivor re-derives the
/// surviving group (or consumes a deadlock incident) while waiting for the
/// rendezvous to converge before the hard "survivors disagree" error
/// surfaces, and the backoff window between re-checks.
constexpr int kGroupRetryBudget = 32;
constexpr auto kGroupBackoffStart = std::chrono::milliseconds(1);
constexpr auto kGroupBackoffMax = std::chrono::milliseconds(16);

/// True when world rank `wr` returned from its rank body without dying: it
/// can never join an agreement, so the rendezvous must not wait for it (it
/// still occupies its slot in the surviving group, as shrink() always had).
bool finished_rank(const World& w, int wr) {
  const auto k = static_cast<std::size_t>(wr);
  return !w.running[k].load(std::memory_order_acquire) &&
         !w.dead[k].load(std::memory_order_acquire);
}

/// Surviving (non-dead) members of `impl`, as comm ranks in rank order.
std::vector<int> derive_survivors(const CommImpl& impl) {
  const World& w = *impl.world;
  std::vector<int> mem;
  for (int r = 0; r < impl.size; ++r) {
    const int wr = impl.group[static_cast<std::size_t>(r)];
    if (!w.dead[static_cast<std::size_t>(wr)].load(std::memory_order_acquire))
      mem.push_back(r);
  }
  return mem;
}

struct GroupOutcome {
  std::shared_ptr<CommImpl> child;
  std::vector<int> member_group;  ///< agreed live members, world ranks
  std::string error;              ///< agreed failure every member throws
};

/// The message-free bounded-agreement rendezvous behind shrink() and
/// resize(). Each member publishes the survivor group it derives from
/// World::dead into the slot for `seq`, then blocks until every non-finished
/// member of that group has published the IDENTICAL group (and, for resize,
/// the identical target size). The dead set growing underneath the
/// rendezvous re-derives the group — a counted retry with backoff and a
/// trace instant, replacing the old immediate hard error — and only an
/// exhausted budget surfaces the historical "survivors disagree" error.
/// The first member to observe full agreement runs `build` (still holding
/// agree_m) to construct the child communicator or an agreed error.
GroupOutcome agree_on_group(
    const std::shared_ptr<CommImpl>& impl_sp, int my_rank,
    std::map<std::uint64_t, CommImpl::AgreeSlot>& slots, std::uint64_t seq,
    int my_target, const char* what, const char* retry_event,
    const std::function<void(CommImpl::AgreeSlot&, const std::vector<int>&)>&
        build) {
  CommImpl& impl = *impl_sp;
  World& w = *impl.world;
  const int my_world = impl.group[static_cast<std::size_t>(my_rank)];
  const auto world_of = [&](int r) {
    return impl.group[static_cast<std::size_t>(r)];
  };
  const auto to_world_group = [&](const std::vector<int>& mem) {
    std::vector<int> g;
    g.reserve(mem.size());
    for (int r : mem) g.push_back(world_of(r));
    return g;
  };
  const std::string disagree_error =
      std::string(what) +
      ": survivors disagree on the surviving group (a rank died between two "
      "ranks' " +
      what + " calls; retry " + what + ")";

  using steady = std::chrono::steady_clock;
  BlockGuard guard(w, my_world, what);
  int retries = 0;
  auto backoff = kGroupBackoffStart;
  std::uint64_t seen_progress = w.progress.load(std::memory_order_acquire);
  steady::time_point stable_since = steady::now();

  std::unique_lock lk(impl.agree_m);
  CommImpl::AgreeSlot& slot = slots[seq];
  std::vector<int> mem = derive_survivors(impl);
  std::vector<int> grp = to_world_group(mem);
  slot.proposed[my_rank] = grp;
  if (my_target >= 0) slot.target[my_rank] = my_target;
  w.note_progress();
  impl.agree_cv.notify_all();

  const auto count_retry = [&] {
    ++retries;
    DDR_TRACE_INSTANT(
        retry_event,
        {.comm = static_cast<std::int64_t>(impl.trace_id), .value = retries});
    require(retries <= kGroupRetryBudget, ErrorClass::internal,
            disagree_error);
    backoff = kGroupBackoffStart;
  };

  for (;;) {
    if (slot.child != nullptr || !slot.error.empty()) {
      GroupOutcome out{slot.child, slot.member_group, slot.error};
      if (--slot.pickups <= 0) slots.erase(seq);
      w.note_progress();
      impl.agree_cv.notify_all();
      // A completed rendezvous is progress. An incident that fired while
      // this rank converged on the fast path (never reaching the consuming
      // wait below) must be swallowed here, or it detonates at the rank's
      // next ordinary blocking call — typically a recovery collective with
      // no try around it.
      const std::uint64_t gen = w.deadlock_gen.load(std::memory_order_acquire);
      const auto mk = static_cast<std::size_t>(my_world);
      if (gen > w.deadlock_ack[mk].load(std::memory_order_acquire))
        w.deadlock_ack[mk].store(gen, std::memory_order_release);
      return out;
    }

    // The dead set may have grown underneath the rendezvous: re-derive and
    // re-propose (counted against the retry budget) until views converge.
    std::vector<int> now_mem = derive_survivors(impl);
    if (now_mem != mem) {
      mem = std::move(now_mem);
      grp = to_world_group(mem);
      slot.proposed[my_rank] = grp;
      count_retry();
      w.note_progress();
      impl.agree_cv.notify_all();
    }

    // Agreement: every non-finished member of my derived group must have
    // proposed exactly this group (finished ranks keep their slot but can
    // never participate, so they count as implicit acceptors).
    bool complete = true;
    int proposers = 0;
    for (int r : mem) {
      if (finished_rank(w, world_of(r))) continue;
      auto it = slot.proposed.find(r);
      if (it == slot.proposed.end() || it->second != grp) {
        complete = false;
        break;
      }
      ++proposers;
    }
    if (complete && my_target >= 0) {
      for (int r : mem) {
        auto it = slot.target.find(r);
        if (it == slot.target.end()) continue;  // finished member
        if (it->second != my_target) {
          slot.member_group = grp;
          slot.pickups = proposers;
          slot.error = std::string(what) +
                       ": members passed different new sizes (" +
                       std::to_string(my_target) + " vs " +
                       std::to_string(it->second) + ")";
          break;
        }
      }
    }
    if (complete && slot.error.empty()) {
      slot.member_group = grp;
      slot.pickups = proposers;
      build(slot, grp);
      w.note_progress();
      impl.agree_cv.notify_all();
      continue;  // the pickup branch fires on the next iteration
    }
    if (complete) continue;  // agreed error: pick it up next iteration

    // Not agreed yet: wait, watchdog-aware. A survivor parked here must not
    // stall deadlock detection (it registers as blocked and declares like
    // any take() waiter) nor be torn out of the recovery path by an incident
    // meant for ranks stuck in dead receives — it consumes incidents
    // silently, counting them against the same bounded retry budget.
    guard.enter();
    const std::uint64_t gen = w.deadlock_gen.load(std::memory_order_acquire);
    const auto mk = static_cast<std::size_t>(my_world);
    if (gen > w.deadlock_ack[mk].load(std::memory_order_acquire)) {
      w.deadlock_ack[mk].store(gen, std::memory_order_release);
      count_retry();
    }
    if (w.aborted.load(std::memory_order_acquire)) throw_aborted();
    if (w.fault != nullptr &&
        w.fault->should_kill(my_world,
                             w.clocks[mk].now()))
      throw detail::RankKilled{};
    if (w.deadlock_grace_s > 0.0) {
      const std::uint64_t p = w.progress.load(std::memory_order_acquire);
      if (p != seen_progress) {
        seen_progress = p;
        stable_since = steady::now();
      } else if (w.all_live_blocked() &&
                 std::chrono::duration<double>(steady::now() - stable_since)
                         .count() > w.deadlock_grace_s) {
        w.declare_deadlock(my_world);
      }
    }
    impl.agree_cv.wait_for(lk, backoff);
    backoff = std::min(backoff * 2, kGroupBackoffMax);
  }
}

}  // namespace

// --- communicator management -------------------------------------------------

Comm Comm::split(int color, int key) const {
  require(valid(), ErrorClass::invalid_comm, "split: invalid communicator");
  const int p = size();
  struct CK {
    int color, key, rank;
  };
  const CK mine{color, key, rank_};
  std::vector<CK> all(static_cast<std::size_t>(p));
  allgather(&mine, 1, Datatype::bytes(sizeof(CK)), all.data(), 1,
            Datatype::bytes(sizeof(CK)));

  const std::uint64_t seq = impl_->split_seq[static_cast<std::size_t>(rank_)]++;
  if (color < 0) return Comm{};  // not a member of any new communicator

  // Members of my color, ordered by (key, rank).
  std::vector<CK> members;
  for (const auto& ck : all)
    if (ck.color == color) members.push_back(ck);
  std::sort(members.begin(), members.end(), [](const CK& a, const CK& b) {
    return a.key != b.key ? a.key < b.key : a.rank < b.rank;
  });

  std::vector<int> group;
  int my_new_rank = -1;
  for (std::size_t i = 0; i < members.size(); ++i) {
    group.push_back(impl_->group[static_cast<std::size_t>(members[i].rank)]);
    if (members[i].rank == rank_) my_new_rank = static_cast<int>(i);
  }
  require(my_new_rank >= 0, ErrorClass::internal, "split: self not in group");

  // Rendezvous: the first member to arrive creates the child communicator.
  std::shared_ptr<CommImpl> child;
  {
    std::lock_guard lk(impl_->split_m);
    const auto kk = std::make_pair(seq, color);
    auto it = impl_->split_pending.find(kk);
    if (it == impl_->split_pending.end()) {
      child = std::make_shared<CommImpl>(impl_->world, group);
      if (members.size() > 1)
        impl_->split_pending.emplace(
            kk, std::make_pair(child, static_cast<int>(members.size()) - 1));
    } else {
      child = it->second.first;
      if (--it->second.second == 0) impl_->split_pending.erase(it);
    }
  }
  return Comm(std::move(child), my_new_rank);
}

Comm Comm::dup() const { return split(0, rank_); }

// --- failure handling --------------------------------------------------------

std::vector<int> Comm::failed_ranks() const {
  require(valid(), ErrorClass::invalid_comm,
          "failed_ranks: invalid communicator");
  std::vector<int> out;
  const World& w = *impl_->world;
  for (int r = 0; r < impl_->size; ++r) {
    const int wr = impl_->group[static_cast<std::size_t>(r)];
    if (w.dead[static_cast<std::size_t>(wr)].load(std::memory_order_acquire))
      out.push_back(r);
  }
  return out;
}

Comm Comm::shrink() const {
  require(valid(), ErrorClass::invalid_comm, "shrink: invalid communicator");
  World& w = *impl_->world;
  const int my_world = impl_->group[static_cast<std::size_t>(rank_)];
  require(!w.dead[static_cast<std::size_t>(my_world)].load(
              std::memory_order_acquire),
          ErrorClass::internal, "shrink: calling rank is marked dead");

  // Every survivor derives its group from World::dead without exchanging a
  // single message — crucial when the old communicator's collective channel
  // was left half-used by the deadlock incident. Survivors whose views of
  // the dead set race converge inside the bounded agreement (the dead set
  // only grows); see agree_on_group.
  const std::uint64_t seq =
      impl_->shrink_seq[static_cast<std::size_t>(rank_)]++;
  GroupOutcome out = agree_on_group(
      impl_, rank_, impl_->shrink_slots, seq, /*my_target=*/-1, "shrink",
      "mpi.shrink.retry",
      [&](CommImpl::AgreeSlot& slot, const std::vector<int>& grp) {
        slot.child = std::make_shared<CommImpl>(impl_->world, grp);
      });
  require(out.error.empty(), ErrorClass::invalid_argument, out.error);
  int my_new_rank = -1;
  for (std::size_t i = 0; i < out.member_group.size(); ++i)
    if (out.member_group[i] == my_world) my_new_rank = static_cast<int>(i);
  require(my_new_rank >= 0, ErrorClass::internal, "shrink: self not in group");
  return Comm(std::move(out.child), my_new_rank);
}

Comm Comm::resize(int new_size) const {
  require(valid(), ErrorClass::invalid_comm, "resize: invalid communicator");
  require(new_size >= 1, ErrorClass::invalid_argument,
          "resize: new size must be >= 1");
  World& w = *impl_->world;
  const int my_world = impl_->group[static_cast<std::size_t>(rank_)];
  require(!w.dead[static_cast<std::size_t>(my_world)].load(
              std::memory_order_acquire),
          ErrorClass::internal, "resize: calling rank is marked dead");
  DDR_TRACE_SPAN(tspan, "mpi.resize",
                 trace::Keys{.comm = static_cast<std::int64_t>(impl_->trace_id),
                             .value = new_size});

  const std::uint64_t seq =
      impl_->resize_seq[static_cast<std::size_t>(rank_)]++;
  GroupOutcome out = agree_on_group(
      impl_, rank_, impl_->resize_slots, seq, new_size, "resize",
      "mpi.resize.retry",
      [&](CommImpl::AgreeSlot& slot, const std::vector<int>& grp) {
        const int live = static_cast<int>(grp.size());
        if (new_size <= live) {
          // Shrink: the first new_size survivors carry on, the tail retires.
          std::vector<int> cg(grp.begin(), grp.begin() + new_size);
          slot.child = std::make_shared<CommImpl>(impl_->world, std::move(cg));
          return;
        }
        // Grow: claim dormant slots (all-or-nothing) and start them as
        // members [live, new_size) of the child.
        const int need = new_size - live;
        std::vector<int> claimed = w.claim_dormant(need);
        if (static_cast<int>(claimed.size()) < need) {
          slot.error = "resize: growing from " + std::to_string(live) +
                       " to " + std::to_string(new_size) + " needs " +
                       std::to_string(need) + " fresh rank(s) but only " +
                       std::to_string(w.dormant_count()) +
                       " dormant slot(s) remain (RunOptions::max_ranks)";
          return;
        }
        std::vector<int> cg = grp;
        cg.insert(cg.end(), claimed.begin(), claimed.end());
        slot.child = std::make_shared<CommImpl>(impl_->world, std::move(cg));
        DDR_TRACE_INSTANT(
            "mpi.resize.join",
            {.comm = static_cast<std::int64_t>(impl_->trace_id),
             .value = need});
        w.activate(claimed, slot.child, live,
                   w.clocks[static_cast<std::size_t>(my_world)].now());
      });
  require(out.error.empty(), ErrorClass::invalid_argument, out.error);
  int my_index = -1;
  for (std::size_t i = 0; i < out.member_group.size(); ++i)
    if (out.member_group[i] == my_world) my_index = static_cast<int>(i);
  require(my_index >= 0, ErrorClass::internal, "resize: self not in group");
  if (my_index >= new_size) return Comm{};  // retired by the shrink
  return Comm(std::move(out.child), my_index);
}

int Comm::spawnable_ranks() const {
  require(valid(), ErrorClass::invalid_comm,
          "spawnable_ranks: invalid communicator");
  return impl_->world->dormant_count();
}

std::uint32_t Comm::agree(std::uint32_t contribution) const {
  require(valid(), ErrorClass::invalid_comm, "agree: invalid communicator");
  World& w = *impl_->world;
  const int my_world = impl_->group[static_cast<std::size_t>(rank_)];
  // Entry checkpoint BEFORE the vote is recorded: a rank whose kill is
  // already pending must count as died-before-voting (forcing 0 on every
  // survivor), not slip its yes in on the way down — the vote is the commit
  // point for transactional users like resize_rebalance.
  fault_checkpoint(w, my_world);
  const std::uint64_t seq = impl_->agree_seq[static_cast<std::size_t>(rank_)]++;

  using steady = std::chrono::steady_clock;
  BlockGuard guard(w, my_world, "agree");
  int incidents = 0;
  auto backoff = kGroupBackoffStart;
  std::uint64_t seen_progress = w.progress.load(std::memory_order_acquire);
  steady::time_point stable_since = steady::now();

  // The dead flags are read while holding agree_m: a vote is recorded under
  // the same mutex BEFORE the voter's death flag can become visible
  // (mark_dead is sequenced after the vote's critical section), so no two
  // survivors can disagree about whether a dead member voted — the result
  // is deterministic across survivors even when deaths race the call.
  std::unique_lock lk(impl_->agree_m);
  CommImpl::VoteSlot& slot = impl_->vote_slots[seq];
  slot.votes[rank_] = contribution;
  w.note_progress();
  impl_->agree_cv.notify_all();

  for (;;) {
    std::uint32_t result = ~std::uint32_t{0};
    bool complete = true;
    for (int r = 0; r < impl_->size; ++r) {
      auto it = slot.votes.find(r);
      if (it != slot.votes.end()) {
        result &= it->second;
        continue;
      }
      const int wr = impl_->group[static_cast<std::size_t>(r)];
      if (w.dead[static_cast<std::size_t>(wr)].load(
              std::memory_order_acquire) ||
          finished_rank(w, wr)) {
        result = 0;  // died (or left) before contributing
        continue;
      }
      complete = false;
      break;
    }
    if (complete) {
      slot.picked.push_back(rank_);
      bool all_collected = true;
      for (int r = 0; r < impl_->size; ++r) {
        const int wr = impl_->group[static_cast<std::size_t>(r)];
        if (std::find(slot.picked.begin(), slot.picked.end(), r) !=
                slot.picked.end() ||
            w.dead[static_cast<std::size_t>(wr)].load(
                std::memory_order_acquire) ||
            finished_rank(w, wr))
          continue;
        all_collected = false;
        break;
      }
      if (all_collected) impl_->vote_slots.erase(seq);
      w.note_progress();
      impl_->agree_cv.notify_all();
      // Same fast-path consumption as agree_on_group: the last voter can
      // complete without ever blocking, and must not carry a stale incident
      // into its next blocking call (e.g. the rollback allreduce).
      const std::uint64_t gen = w.deadlock_gen.load(std::memory_order_acquire);
      const auto mk = static_cast<std::size_t>(my_world);
      if (gen > w.deadlock_ack[mk].load(std::memory_order_acquire))
        w.deadlock_ack[mk].store(gen, std::memory_order_release);
      return result;
    }

    // Same watchdog discipline as agree_on_group: register blocked, consume
    // incidents silently (bounded — a member that is alive but never joins
    // the agreement is a collective-order bug, not a survivable fault).
    guard.enter();
    const auto mk = static_cast<std::size_t>(my_world);
    const std::uint64_t gen = w.deadlock_gen.load(std::memory_order_acquire);
    if (gen > w.deadlock_ack[mk].load(std::memory_order_acquire)) {
      w.deadlock_ack[mk].store(gen, std::memory_order_release);
      require(++incidents <= kGroupRetryBudget, ErrorClass::internal,
              "agree: agreement cannot complete — a member is alive but never "
              "joined the agreement (collectives called in different orders?)");
    }
    if (w.aborted.load(std::memory_order_acquire)) throw_aborted();
    if (w.fault != nullptr && w.fault->should_kill(my_world, w.clocks[mk].now()))
      throw detail::RankKilled{};
    if (w.deadlock_grace_s > 0.0) {
      const std::uint64_t p = w.progress.load(std::memory_order_acquire);
      if (p != seen_progress) {
        seen_progress = p;
        stable_since = steady::now();
      } else if (w.all_live_blocked() &&
                 std::chrono::duration<double>(steady::now() - stable_since)
                         .count() > w.deadlock_grace_s) {
        w.declare_deadlock(my_world);
      }
    }
    impl_->agree_cv.wait_for(lk, backoff);
    backoff = std::min(backoff * 2, kGroupBackoffMax);
  }
}

bool Comm::fault_injection_active() const {
  require(valid(), ErrorClass::invalid_comm,
          "fault_injection_active: invalid communicator");
  return impl_->world->fault != nullptr;
}

StagingStats Comm::staging_stats() const {
  require(valid(), ErrorClass::invalid_comm,
          "staging_stats: invalid communicator");
  const auto live = impl_->staging.live_bytes.load(std::memory_order_relaxed);
  const auto peak =
      impl_->staging.peak_live_bytes.load(std::memory_order_relaxed);
  return StagingStats{
      impl_->staging.acquires.load(std::memory_order_relaxed),
      impl_->staging.heap_allocs.load(std::memory_order_relaxed),
      static_cast<std::uint64_t>(std::max<std::int64_t>(0, live)),
      static_cast<std::uint64_t>(std::max<std::int64_t>(0, peak))};
}

std::uint64_t Comm::messages_posted() const {
  require(valid(), ErrorClass::invalid_comm,
          "messages_posted: invalid communicator");
  return impl_->world->messages_posted.load(std::memory_order_relaxed);
}

std::uint64_t Comm::trace_id() const {
  require(valid(), ErrorClass::invalid_comm, "trace_id: invalid communicator");
  return impl_->trace_id;
}

void Comm::reserve_staging(const std::vector<std::size_t>& sizes) const {
  require(valid(), ErrorClass::invalid_comm,
          "reserve_staging: invalid communicator");
  // Purely additive: plant fresh storage rather than recycling through
  // acquire(), so concurrent reservations from several ranks end up as the
  // UNION of their working sets. (An acquire-then-release loop would let a
  // later rank pop an earlier rank's just-released buffers, leaving the pool
  // one working set short of the true all-ranks-in-flight peak.) The pool's
  // byte budget bounds the overshoot of repeated reservations.
  std::int64_t total = 0;
  for (const std::size_t n : sizes) total += static_cast<std::int64_t>(n);
  DDR_TRACE_SPAN(tspan, "mpi.staging.reserve",
                 trace::Keys{.comm = static_cast<std::int64_t>(impl_->trace_id),
                             .bytes = total});
  // deposit(), not release(): these buffers were never acquired, so they
  // must not perturb the pool's live/peak-byte accounting (StagingStats).
  for (const std::size_t n : sizes)
    if (n > 0) impl_->staging.deposit(std::vector<std::byte>(n));
}

const NetworkModel* Comm::network_model() const {
  require(valid(), ErrorClass::invalid_comm,
          "network_model: invalid communicator");
  return impl_->world->network;
}

bool Comm::same_node(int rank_in_comm) const {
  require(valid(), ErrorClass::invalid_comm,
          "same_node: invalid communicator");
  check_rank(*impl_, rank_in_comm, "same_node");
  if (rank_in_comm == rank_) return true;
  const NetworkModel* net = impl_->world->network;
  if (net == nullptr) return false;  // no model: every rank is its own node
  const int a = impl_->group[static_cast<std::size_t>(rank_)];
  const int b = impl_->group[static_cast<std::size_t>(rank_in_comm)];
  return net->node_of(a) == net->node_of(b);
}

void Comm::checkpoint() const {
  require(valid(), ErrorClass::invalid_comm, "checkpoint: invalid communicator");
  World& w = *impl_->world;
  const int my_world = impl_->group[static_cast<std::size_t>(rank_)];
  fault_checkpoint(w, my_world);
  w.throw_if_deadlocked(my_world);
  if (w.aborted.load(std::memory_order_acquire)) throw_aborted();
}

}  // namespace mpi
