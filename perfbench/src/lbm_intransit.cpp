// lbm_intransit (use case B): 2 LBM ranks (256x128 wind tunnel with a
// barrier, 10 steps per frame) stream vorticity slabs through
// stream::Producer / stream::Consumer to 2 analysis ranks, which run DDR
// once per frame (set up on the first frame, default backend) into
// near-square rectangles, colormap them, gather them to analysis rank 0 and
// JPEG-encode the frame. One op is one delivered frame; it is checked by
// decoding the JPEG and by comparing every rectangle with the slabs.
//
// Producers and consumers run concurrently, so this workload has its own
// pipeline loop instead of the lockstep harness: the producers agree on
// each frame at a frame barrier (which also decides warm-up, timed window,
// traced blocks and the end), and publish how many frames they committed to
// so the analysis ranks know when to stop.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "ddr/ddr.hpp"
#include "image/colormap.hpp"
#include "jpegenc/jpeg.hpp"
#include "lbm/lbm.hpp"
#include "minimpi/runtime.hpp"
#include "stream/stream.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

constexpr int kSim = 2, kViz = 2, kRanks = kSim + kViz;
constexpr int kNx = 256, kNy = 128;
constexpr int kStepsPerFrame = 10;
/// The frame table grows by chunks of kChunkFrames as the producers commit
/// to frames, so its memory follows the run rather than a preset size. A
/// frame takes several milliseconds, so kMaxChunks covers several minutes.
constexpr std::size_t kChunkFrames = 64;
constexpr std::size_t kMaxChunks = 1024;
constexpr float kVortRange = 0.06f;
constexpr int kGatherTag = 50;

lbm::Params params(std::uint64_t seed) {
  lbm::Params p;
  p.nx = kNx;
  p.ny = kNy;
  p.u0 = 0.1;
  p.viscosity = 0.02;
  // The seed moves and sizes the barrier a little; the work per frame is
  // the same for every seed.
  const int x = kNx / 4 + static_cast<int>(seed % 8);
  const int half = kNy / 6 + static_cast<int>((seed / 8) % 4);
  p.barrier = lbm::Params::vertical_barrier(x, kNy / 2 - half, kNy / 2 + half);
  return p;
}

/// What each rank measured for one frame (its own slot; no sharing).
struct RankFrame {
  double t0 = 0, t1 = 0, send_start = 0, cpu = 0;
  OpMeasure m;
  TraceTotals trace;
  bool ok = true;
};

struct FrameInfo {
  bool timed = false, traced = false;
  std::array<RankFrame, kRanks> rank;
};

using FrameChunk = std::array<FrameInfo, kChunkFrames>;

/// State shared by the four rank threads.
struct Pipeline {
  explicit Pipeline(std::uint64_t s) : seed(s) {}
  std::uint64_t seed;
  Barrier all{kRanks}, sims{kSim}, viz{kViz};
  /// Allocated in the producers' frame-barrier completion before the frame
  /// is published through `committed`; read only after that.
  std::array<std::unique_ptr<FrameChunk>, kMaxChunks> chunks;
  FrameInfo& frame(std::int64_t f) {
    const auto i = static_cast<std::size_t>(f);
    return (*chunks[i / kChunkFrames])[i % kChunkFrames];
  }
  std::vector<OpRecord> setups;
  std::array<RankFrame, kRanks> setup_slot;
  /// Frames the producers committed to (>= 0), or -1 - total once stopped.
  std::atomic<std::int64_t> committed{0};
  // Written in the producers' frame-barrier completion only.
  std::int64_t next_frame = 0;
  bool stop = false;
  double warm_start = -1, window_start = 0, window_end = 0;
  bool in_window = false;
  HostProbe host;
  /// Communicators whose counters are read: the world (set by world rank
  /// 0) and the analysis group (set by analysis rank 0).
  std::array<mpi::Comm, 2> counted;
  double msgs0 = 0, acq0 = 0, heap0 = 0, msgs1 = 0, acq1 = 0, heap1 = 0;
  std::int64_t window_frames = 0;
  // Verification: each analysis rank publishes its received slab here.
  std::array<std::vector<float>, kViz> slab;
  std::array<int, kViz> slab_y0{}, slab_ny{};
  ddr::MappingStats ddr_stats;
  double predicted_s = 0;
  double seconds = 10;
  bool trace = false;
};

void snapshot(const std::array<mpi::Comm, 2>& comms, double& msgs,
              double& acq, double& heap) {
  msgs = static_cast<double>(comms.front().messages_posted());
  acq = heap = 0;
  for (const mpi::Comm& c : comms) {
    const mpi::StagingStats s = c.staging_stats();
    acq += static_cast<double>(s.acquires);
    heap += static_cast<double>(s.heap_allocations);
  }
}

bool finite(std::span<const float> v) {
  return std::all_of(v.begin(), v.end(),
                     [](float x) { return std::isfinite(x); });
}

/// Runs `fn` kSetupWarmupReps + kSetupReps times in lockstep over all four
/// ranks, recording the span of each of the last kSetupReps repetitions.
template <typename F>
void setup_reps(Pipeline& p, int rank, F fn) {
  const std::function<void()> record = [&] {
    OpRecord r;
    OpLayers l;
    double t0 = p.setup_slot[0].t0, t1 = p.setup_slot[0].t1;
    for (const RankFrame& s : p.setup_slot) {
      t0 = std::min(t0, s.t0);
      t1 = std::max(t1, s.t1);
      l.laps[kLapDdrSetup] =
          std::max(l.laps[kLapDdrSetup], s.m.laps[kLapDdrSetup]);
    }
    r.wall_ms = (t1 - t0) * 1e3;
    r.layers = std::make_shared<const OpLayers>(l);
    p.setups.push_back(std::move(r));
  };
  const std::function<void()> nothing = [] {};
  RankFrame& slot = p.setup_slot[static_cast<std::size_t>(rank)];
  for (int k = 0; k < kSetupWarmupReps + kSetupReps; ++k) {
    // Arriving for repetition k records repetition k - 1.
    if (!p.all.arrive_and_wait(k <= kSetupWarmupReps ? nothing : record))
      throw Aborted{};
    slot.m = {};
    slot.t0 = now_s();
    fn(slot.m);
    slot.t1 = now_s();
  }
  if (!p.all.arrive_and_wait(record)) throw Aborted{};
}

void producer(Pipeline& p, mpi::Comm& world, const mpi::Comm& group) {
  const int me = group.rank();
  const lbm::Params prm = params(p.seed);
  std::unique_ptr<lbm::DistributedLbm> sim;
  std::optional<stream::Producer> out;
  const stream::MNMapping mapping(kSim, kViz);
  auto header = [&](std::int64_t step) {
    stream::FrameHeader h;
    h.step = step;
    h.y0 = sim->row_start(me);
    h.ny = sim->row_start(me + 1) - h.y0;
    h.nx = kNx;
    return h;
  };

  // Set-up: a fresh simulation sends its initial frame, on which the
  // analysis side sets DDR up.
  setup_reps(p, world.rank(), [&](OpMeasure&) {
    sim.reset();
    sim = std::make_unique<lbm::DistributedLbm>(group, prm);
    out.emplace(world, kSim + mapping.consumer_of(me));
    out->send_frame(header(0), sim->local_vorticity());
  });

  const std::function<void()> decide = [&] {
    const double now = now_s();
    if (p.warm_start < 0) p.warm_start = now;
    if (!p.in_window && p.next_frame >= kWarmupMinOps &&
        now - p.warm_start >= kWarmupS) {
      p.in_window = true;
      p.window_start = now;
      p.host.start();
      snapshot(p.counted, p.msgs0, p.acq0, p.heap0);
    }
    if (p.in_window && now - p.window_start >= p.seconds) {
      p.window_end = now;
      p.host.stop();
      snapshot(p.counted, p.msgs1, p.acq1, p.heap1);
      p.stop = true;
      p.committed.store(-1 - p.next_frame, std::memory_order_release);
      p.committed.notify_all();
      return;
    }
    const auto chunk = static_cast<std::size_t>(p.next_frame) / kChunkFrames;
    if (chunk >= kMaxChunks)
      throw std::runtime_error("lbm_intransit: frame capacity exceeded");
    if (!p.chunks[chunk]) p.chunks[chunk] = std::make_unique<FrameChunk>();
    FrameInfo& f = p.frame(p.next_frame);
    f.timed = p.in_window;
    f.traced = p.trace && p.in_window &&
               static_cast<std::int64_t>((now - p.window_start) /
                                         kTraceBlockS) % 2 == 1;
    if (p.in_window) ++p.window_frames;
    ++p.next_frame;
    p.committed.store(p.next_frame, std::memory_order_release);
    p.committed.notify_all();
  };

  trace::Recorder rec(world.rank());
  for (std::int64_t f = 0;; ++f) {
    if (!p.sims.arrive_and_wait(decide)) throw Aborted{};
    if (p.stop) break;
    FrameInfo& info = p.frame(f);
    RankFrame& s = info.rank[static_cast<std::size_t>(world.rank())];
    trace::ScopedRecorder scope(info.traced ? &rec : nullptr);
    const double c0 = thread_cpu_s();
    s.t0 = now_s();
    sim->run(kStepsPerFrame);
    double t = now_s();
    s.m.laps[kLapLbmSteps] = (t - s.t0) * 1e3;
    const std::vector<float> v = sim->local_vorticity();
    s.send_start = now_s();
    s.m.laps[kLapLbmField] = (s.send_start - t) * 1e3;
    out->send_frame(header((f + 1) * kStepsPerFrame), v);
    s.t1 = now_s();
    s.m.laps[kLapStreamSend] = (s.t1 - s.send_start) * 1e3;
    s.cpu = thread_cpu_s() - c0;
    if (info.traced) s.trace = drain(rec);
  }
}

void analysis(Pipeline& p, mpi::Comm& world, const mpi::Comm& group) {
  const int c = group.rank();
  const stream::MNMapping mapping(kSim, kViz);
  const auto [lo, hi] = mapping.producers_of(c);
  std::vector<int> sources;
  for (int q = lo; q < hi; ++q) sources.push_back(q);
  const auto grid = stream::consumer_grid(kViz, kNx, kNy);
  std::vector<ddr::Chunk> rects;
  for (int j = 0; j < kViz; ++j)
    rects.push_back(stream::consumer_rect(j, grid, kNx, kNy));
  const ddr::Chunk rect = rects[static_cast<std::size_t>(c)];
  std::optional<stream::Consumer> in;
  std::optional<ddr::Redistributor> rd;
  std::vector<float> rect_data(static_cast<std::size_t>(rect.volume()));

  setup_reps(p, world.rank(), [&](OpMeasure& m) {
    in.emplace(world, sources);
    const std::vector<stream::Frame> frames = in->receive_step();
    rd.reset();
    rd.emplace(group, sizeof(float));
    const double t = now_s();
    rd->setup(stream::frames_layout(frames), rect);
    m.laps[kLapDdrSetup] = (now_s() - t) * 1e3;
  });
  if (c == 0) {
    p.ddr_stats = rd->stats();
    for (const ddr::CandidateCost& k : rd->plan().candidates)
      if (k.backend == rd->effective_backend()) p.predicted_s = k.predicted_s;
  }

  const img::Colormap& cm = img::Colormap::blue_white_red();
  const mpi::Datatype px = mpi::Datatype::bytes(sizeof(img::Rgb));
  const std::function<void()> nothing = [] {};
  trace::Recorder rec(world.rank());
  std::vector<std::byte> jpeg_bytes;
  for (std::int64_t f = 0;; ++f) {
    std::int64_t k = p.committed.load(std::memory_order_acquire);
    while (k >= 0 && k <= f) {
      p.committed.wait(k, std::memory_order_acquire);
      k = p.committed.load(std::memory_order_acquire);
    }
    if (k < 0 && f >= -1 - k) break;
    FrameInfo& info = p.frame(f);
    RankFrame& s = info.rank[static_cast<std::size_t>(world.rank())];
    {
      trace::ScopedRecorder scope(info.traced ? &rec : nullptr);
      const double c0 = thread_cpu_s();
      s.t0 = now_s();
      const std::vector<stream::Frame> frames = in->receive_step();
      double t = now_s();
      s.m.laps[kLapStreamReceive] = (t - s.t0) * 1e3;
      const std::vector<float> owned = stream::concat_frames(frames);
      double u = now_s();
      s.m.laps[kLapConcat] = (u - t) * 1e3;
      rd->redistribute(std::as_bytes(std::span<const float>(owned)),
                       std::as_writable_bytes(std::span<float>(rect_data)));
      t = now_s();
      s.m.laps[kLapDdrRedistribute] = (t - u) * 1e3;
      img::RgbImage tile(static_cast<std::uint32_t>(rect.dims[0]),
                         static_cast<std::uint32_t>(rect.dims[1]));
      for (int y = 0; y < rect.dims[1]; ++y)
        for (int x = 0; x < rect.dims[0]; ++x)
          tile.at(static_cast<std::uint32_t>(x),
                  static_cast<std::uint32_t>(y)) =
              cm.map(rect_data[static_cast<std::size_t>(y * rect.dims[0] + x)],
                     -kVortRange, kVortRange);
      u = now_s();
      s.m.laps[kLapColormap] = (u - t) * 1e3;
      img::RgbImage full;
      if (c != 0) {
        group.send(tile.pixels().data(), tile.pixels().size(), px, 0,
                   kGatherTag);
      } else {
        full = img::RgbImage(kNx, kNy);
        auto paste = [&](const img::RgbImage& im, const ddr::Chunk& r) {
          for (int y = 0; y < r.dims[1]; ++y)
            for (int x = 0; x < r.dims[0]; ++x)
              full.at(static_cast<std::uint32_t>(r.offsets[0] + x),
                      static_cast<std::uint32_t>(r.offsets[1] + y)) =
                  im.at(static_cast<std::uint32_t>(x),
                        static_cast<std::uint32_t>(y));
        };
        paste(tile, rect);
        for (int q = 1; q < kViz; ++q) {
          const ddr::Chunk& r = rects[static_cast<std::size_t>(q)];
          img::RgbImage im(static_cast<std::uint32_t>(r.dims[0]),
                           static_cast<std::uint32_t>(r.dims[1]));
          group.recv(im.pixels().data(), im.pixels().size(), px, q,
                     kGatherTag);
          paste(im, r);
        }
      }
      t = now_s();
      s.m.laps[kLapGather] = (t - u) * 1e3;
      if (c == 0) {
        jpeg_bytes = jpeg::encode(full);
        s.m.tallies[kTallyJpegBytes] = static_cast<double>(jpeg_bytes.size());
      }
      s.t1 = now_s();
      s.m.laps[kLapJpegEncode] = (s.t1 - t) * 1e3;
      s.cpu = thread_cpu_s() - c0;

      // Untimed from here: publish the received slab for the rectangle
      // check.
      auto& mine = p.slab[static_cast<std::size_t>(c)];
      mine = owned;
      p.slab_y0[static_cast<std::size_t>(c)] = frames.front().header.y0;
      p.slab_ny[static_cast<std::size_t>(c)] =
          static_cast<int>(owned.size()) / kNx;
    }
    if (info.traced) s.trace = drain(rec);
    if (!p.viz.arrive_and_wait(nothing)) throw Aborted{};
    bool ok = finite(p.slab[static_cast<std::size_t>(c)]);
    for (int y = 0; y < rect.dims[1] && ok; ++y) {
      const int gy = rect.offsets[1] + y;
      for (int j = 0; j < kViz; ++j) {
        const int y0 = p.slab_y0[static_cast<std::size_t>(j)];
        if (gy < y0 || gy >= y0 + p.slab_ny[static_cast<std::size_t>(j)])
          continue;
        const float* src = p.slab[static_cast<std::size_t>(j)].data() +
                           static_cast<std::size_t>(gy - y0) * kNx +
                           rect.offsets[0];
        ok = std::memcmp(src, rect_data.data() +
                                  static_cast<std::size_t>(y) * rect.dims[0],
                         static_cast<std::size_t>(rect.dims[0]) *
                             sizeof(float)) == 0;
      }
    }
    if (c == 0) {
      const img::RgbImage back = jpeg::decode(jpeg_bytes);
      ok = ok && back.width() == kNx && back.height() == kNy;
    }
    s.ok = ok;
    std::fill(rect_data.begin(), rect_data.end(), -1.0f);  // no stale pass
    if (!p.viz.arrive_and_wait(nothing)) throw Aborted{};
  }
}

/// The frame's record; its per-layer detail only when `keep_layers`.
OpRecord frame_record(const FrameInfo& f, bool keep_layers) {
  OpRecord r;
  OpLayers l;
  r.timed = f.timed;
  r.traced = f.traced;
  const RankFrame& s0 = f.rank[0];
  const RankFrame& s1 = f.rank[1];
  const RankFrame& a0 = f.rank[kSim];  // analysis rank 0 holds the JPEG
  r.start_s = std::min(s0.t0, s1.t0);
  r.wall_ms = (a0.t1 - r.start_s) * 1e3;
  r.rank0_ms = (a0.t1 - std::max(s0.send_start, s1.send_start)) * 1e3;
  r.skew_ms = std::fabs(s0.t1 - s1.t1) * 1e3;
  for (const RankFrame& s : f.rank) {
    r.cpu_ms += s.cpu * 1e3;
    for (std::size_t k = 0; k < l.laps.size(); ++k)
      l.laps[k] = std::max(l.laps[k], s.m.laps[k]);
    for (std::size_t k = 0; k < l.tallies.size(); ++k)
      l.tallies[k] += s.m.tallies[k];
    l.trace.redistribute_us =
        std::max(l.trace.redistribute_us, s.trace.redistribute_us);
    l.trace.send_bytes += s.trace.send_bytes;
    r.ok = r.ok && s.ok;
  }
  if (keep_layers) r.layers = std::make_shared<const OpLayers>(l);
  return r;
}

}  // namespace

Report run_lbm_intransit(const Args& args) {
  // Explicit backends only (default alltoallw): no PackExecutor workers.
  require_thread_budget("lbm_intransit", kRanks, 0);

  Pipeline p(args.seed);
  p.seconds = args.seconds;
  p.trace = args.trace;
  std::string error;
  try {
    mpi::run(kRanks, [&](mpi::Comm& world) {
      bind_rank(world.rank());
      const bool is_sim = world.rank() < kSim;
      const mpi::Comm group = world.split(is_sim ? 0 : 1, world.rank());
      if (world.rank() == 0) p.counted[0] = world;
      if (world.rank() == kSim) p.counted[1] = group;
      try {
        if (is_sim)
          producer(p, world, group);
        else
          analysis(p, world, group);
      } catch (const Aborted&) {
      } catch (...) {
        p.all.abort();
        p.sims.abort();
        p.viz.abort();
        p.committed.store(-1, std::memory_order_release);
        p.committed.notify_all();
        throw;
      }
    });
  } catch (const std::exception& e) {
    error = e.what();
  }

  Timeline tl;
  tl.setups = std::move(p.setups);
  tl.window_start_s = p.window_start;
  tl.window_end_s = p.window_end;
  tl.host = p.host;
  tl.error = error;
  const std::int64_t k = p.committed.load();
  const std::int64_t produced = k < 0 ? -1 - k : k;
  for (std::int64_t f = 0; f < produced && error.empty(); ++f)
    tl.ops.push_back(frame_record(p.frame(f), args.trace));

  Report r;
  count_ops(tl, r);
  if (!args.trace) {
    end_to_end(tl, Throughput::elapsed, r);
    return r;
  }

  common_layers(tl, r);
  // Messages and staging are attributed over the window: producers and
  // analysis overlap, so per-frame deltas would mix neighbouring frames.
  if (p.window_frames > 0) {
    const double n = static_cast<double>(p.window_frames);
    r.metrics["mpi.messages_per_op"] = (p.msgs1 - p.msgs0) / n;
    r.metrics["mpi.staging_acquires_per_op"] = (p.acq1 - p.acq0) / n;
    r.metrics["mpi.staging_heap_allocs_per_op"] = (p.heap1 - p.heap0) / n;
  }
  std::vector<double> setup_ms;
  for (const OpRecord& s : tl.setups)
    setup_ms.push_back(s.layers->laps[kLapDdrSetup]);
  r.metrics["ddr.setup_ms"] = median(setup_ms);
  const double ddr_ms = lap_ms(tl, kLapDdrRedistribute);
  r.metrics["ddr.redistribute_ms"] = ddr_ms;
  r.metrics["ddr.network_bytes_per_op"] =
      static_cast<double>(p.ddr_stats.network_bytes);
  r.metrics["ddr.self_bytes_per_op"] =
      static_cast<double>(p.ddr_stats.self_bytes);
  r.metrics["ddr.transfers_per_op"] =
      static_cast<double>(p.ddr_stats.transfer_count);
  r.metrics["ddr.rounds"] = p.ddr_stats.rounds;
  if (ddr_ms > 0)
    r.metrics["planner.predicted_over_measured"] = p.predicted_s * 1e3 / ddr_ms;

  const double steps_ms = lap_ms(tl, kLapLbmSteps);
  r.metrics["lbm.step_ms"] = steps_ms / kStepsPerFrame;
  if (steps_ms > 0)
    r.metrics["lbm.mlups"] =
        double{kNx} * kNy * kStepsPerFrame / (steps_ms * 1e-3) / 1e6;
  const double send_ms = lap_ms(tl, kLapStreamSend);
  r.metrics["stream.send_ms"] = send_ms;
  r.metrics["stream.receive_wait_ms"] = lap_ms(tl, kLapStreamReceive);
  r.metrics["stream.frame_bytes"] =
      double{kSim} * sizeof(stream::FrameHeader) +
      double{kNx} * kNy * sizeof(float);
  const double colormap_ms = lap_ms(tl, kLapColormap);
  const double encode_ms = lap_ms(tl, kLapJpegEncode);
  r.metrics["image.colormap_ms"] = colormap_ms;
  r.metrics["jpeg.encode_ms"] = encode_ms;
  const double jpeg_bytes = tally(tl, kTallyJpegBytes);
  r.metrics["jpeg.bytes_per_frame"] = jpeg_bytes;
  r.metrics["jpeg.reduction_pct"] =
      100.0 * (1.0 - jpeg_bytes / (double{kNx} * kNy * sizeof(float)));

  // Blocking path of a frame: the producers' steps, field and send, then
  // the analysis chain up to the JPEG bytes (its receive wait overlaps the
  // producers' steps).
  closure(
      tl, false,
      [](const OpLayers& o) {
        double ms = 0;
        for (Lap k : {kLapLbmSteps, kLapLbmField, kLapStreamSend, kLapConcat,
                      kLapDdrRedistribute, kLapColormap, kLapGather,
                      kLapJpegEncode})
          ms += o.laps[k];
        return ms;
      },
      r);
  return r;
}

}  // namespace pb
