// pencil_fft: workloads::PencilTimestepper on 4 ranks (2x2 grid), 96^3
// floats, Backend::automatic. One op is one step(): slab -> pencil_y ->
// pencil_z -> pencil_y -> slab, checked by byte round trip.

#include <algorithm>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "ddr/ddr.hpp"
#include "workloads.hpp"
#include "workloads/workloads.hpp"

namespace pb {
namespace {

constexpr int kRanks = 4;
constexpr int kN = 96;
constexpr int kTransposes = workloads::PencilTimestepper::kTransposesPerStep;

workloads::PencilParams params() {
  return workloads::PencilParams{kN, kN, kN, kRanks, sizeof(float)};
}

/// The transpose chain of one step, as PencilTimestepper runs it.
constexpr workloads::Stage kChain[kTransposes + 1] = {
    workloads::Stage::slab, workloads::Stage::pencil_y,
    workloads::Stage::pencil_z, workloads::Stage::pencil_y,
    workloads::Stage::slab};

/// What rank 0 reads off the timestepper after each set-up; read once the
/// ranks have joined.
struct PlanInfo {
  ddr::MappingStats stats[kTransposes];
  double predicted_s = 0;
  int pack_threads = 0;
};

class PencilRank final : public RankWork {
 public:
  PencilRank(const mpi::Comm& comm, std::uint64_t seed, PlanInfo& info)
      : comm_(comm), info_(info) {
    const workloads::PencilTranspose gen(params());
    const ddr::Chunk c = gen.chunk(workloads::Stage::slab, comm.rank());
    in_.resize(static_cast<std::size_t>(c.volume()) * sizeof(float));
    out_.resize(in_.size());
    // Seeded bit patterns: any byte value is legal in a round trip.
    std::uint64_t x = seed * 0x9E3779B97F4A7C15ULL + 1 +
                      static_cast<std::uint64_t>(comm.rank());
    for (std::byte& b : in_) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      b = static_cast<std::byte>(x >> 56);
    }
  }

  void setup(trace::Recorder* rec) override {
    trace::ScopedRecorder scope(rec);
    ts_.reset();
    ddr::SetupOptions opt;
    opt.backend = ddr::Backend::automatic;
    ts_ = std::make_unique<workloads::PencilTimestepper>(comm_, params(), opt);
    if (comm_.rank() != 0) return;
    info_.predicted_s = 0;
    info_.pack_threads = 0;
    for (int t = 0; t < kTransposes; ++t) {
      const ddr::Redistributor& rd = ts_->transpose(t);
      info_.stats[t] = rd.stats();
      info_.predicted_s += rd.plan().predicted_s;
      info_.pack_threads = std::max(info_.pack_threads, rd.plan().pack_threads);
    }
  }

  void prepare(std::int64_t) override {
    std::memset(out_.data(), 0xA5, out_.size());  // no stale pass
  }

  void op(std::int64_t, OpMeasure&, trace::Recorder* rec) override {
    ts_->trace_sink(rec);
    ts_->step(in_, out_);
  }

  bool verify(std::int64_t) override {
    return std::memcmp(in_.data(), out_.data(), in_.size()) == 0;
  }

 private:
  mpi::Comm comm_;
  PlanInfo& info_;
  std::vector<std::byte> in_, out_;
  std::unique_ptr<workloads::PencilTimestepper> ts_;
};

}  // namespace

Report run_pencil_fft(const Args& args) {
  // Thread budget from the planner's offline decisions (identical on every
  // rank, so the live plan cannot differ).
  const workloads::PencilTranspose gen(params());
  int pack_threads = 0;
  workloads::Accounting analytic;
  for (int t = 0; t < kTransposes; ++t) {
    const ddr::GlobalLayout layout =
        gen.transpose_layout(kChain[t], kChain[t + 1]);
    pack_threads = std::max(
        pack_threads,
        ddr::Planner::decide(layout, sizeof(float), nullptr, 0).pack_threads);
    const workloads::Accounting a = gen.accounting(kChain[t], kChain[t + 1]);
    analytic.network_bytes += a.network_bytes;
    analytic.self_bytes += a.self_bytes;
  }
  require_thread_budget("pencil_fft", kRanks, pack_threads);

  PlanInfo info;
  LockstepConfig cfg;
  cfg.nranks = kRanks;
  cfg.window_s = args.seconds;
  cfg.trace = args.trace;
  const Timeline tl = run_lockstep(cfg, [&](const mpi::Comm& comm) {
    return std::make_unique<PencilRank>(comm, args.seed, info);
  });

  Report r;
  count_ops(tl, r);
  if (!args.trace) {
    end_to_end(tl, Throughput::busy, r);
    return r;
  }

  common_layers(tl, r);
  std::vector<double> setup_ms;
  for (const OpRecord& s : tl.setups)
    setup_ms.push_back(s.layers->trace.setup_us * 1e-3 / kTransposes);
  r.metrics["ddr.setup_ms"] = median(setup_ms);
  const double redistribute_ms = traced_median(
      tl, [](const OpLayers& o) { return o.trace.redistribute_us * 1e-3; });
  r.metrics["ddr.redistribute_ms"] = redistribute_ms;
  r.metrics["pencil.transpose_ms"] = redistribute_ms / kTransposes;

  ddr::MappingStats sum;
  for (const ddr::MappingStats& s : info.stats) {
    sum.network_bytes += s.network_bytes;
    sum.self_bytes += s.self_bytes;
    sum.transfer_count += s.transfer_count;
    sum.rounds += s.rounds;
  }
  r.metrics["ddr.network_bytes_per_op"] =
      static_cast<double>(sum.network_bytes);
  r.metrics["ddr.self_bytes_per_op"] = static_cast<double>(sum.self_bytes);
  r.metrics["ddr.transfers_per_op"] = static_cast<double>(sum.transfer_count);
  r.metrics["ddr.rounds"] = sum.rounds;
  r.metrics["mpi.pack_threads"] = info.pack_threads;
  if (redistribute_ms > 0)
    r.metrics["planner.predicted_over_measured"] =
        info.predicted_s * 1e3 / redistribute_ms;

  // Analytic accounting == MappingStats == traced ddr.msg.send bytes, on
  // every traced op.
  bool match = analytic.network_bytes == sum.network_bytes &&
               analytic.self_bytes == sum.self_bytes;
  for (const OpRecord& o : tl.ops)
    if (o.traced && o.layers->trace.send_bytes != sum.network_bytes)
      match = false;
  r.metrics["pencil.analytic_bytes_match"] = match ? 1 : 0;
  if (!match) {
    r.checks_ok = false;
    r.notes.push_back("analytic / MappingStats / traced bytes disagree");
  }

  closure(
      tl, true,
      [](const OpLayers& o) { return o.trace.redistribute_us * 1e-3; },
      r);
  return r;
}

}  // namespace pb
