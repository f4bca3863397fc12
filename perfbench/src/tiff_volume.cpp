// tiff_volume (use case A): a 128-slice series of 128x128 16-bit phantom
// TIFFs, written before timing, loaded on 4 ranks with
// loader::PreparedLoad(ddr_consecutive) and volume-rendered with
// dvr::distributed_render. One op is execute() + the render; the bricks are
// checked against the generated slices, the image against the first op's,
// and the slices each rank read against its share of the depth.

#include <array>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <random>
#include <vector>

#include "ddr/ddr.hpp"
#include "dvr/dvr.hpp"
#include "loader/tiff_loader.hpp"
#include "tiff/phantom.hpp"
#include "tiff/tiff.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

constexpr int kRanks = 4;
constexpr int kW = 128, kH = 128, kD = 128;
constexpr double kMaxSample = 65535.0;

/// The phantom with seeded sensor noise, one 16-bit image per slice.
std::vector<tiff::GrayImage> make_series(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> noise(0, 255);
  std::vector<tiff::GrayImage> slices;
  slices.reserve(kD);
  for (int z = 0; z < kD; ++z) {
    tiff::GrayImage img = tiff::phantom_slice(kW, kH, z, kD, 16);
    for (std::uint32_t y = 0; y < kH; ++y)
      for (std::uint32_t x = 0; x < kW; ++x)
        img.set_value(x, y, img.value(x, y) + noise(rng));
    slices.push_back(std::move(img));
  }
  return slices;
}

loader::SeriesInfo series_info(const std::string& dir) {
  loader::SeriesInfo s;
  s.dir = dir;
  s.width = kW;
  s.height = kH;
  s.depth = kD;
  s.bytes_per_sample = 2;
  s.max_sample_value = kMaxSample;
  return s;
}

dvr::TransferFunction transfer() {
  dvr::TransferFunction tf;
  tf.colormap = &img::Colormap::tooth();
  tf.threshold = 0.18;
  tf.opacity_scale = 0.10;
  return tf;
}

/// Slices each rank reads under ddr_consecutive: the z-extent of its owned
/// chunks.
int slices_read_by(const ddr::GlobalLayout& layout, int rank) {
  int n = 0;
  for (const ddr::Chunk& c : layout.owned[static_cast<std::size_t>(rank)])
    n += c.dims[2];
  return n;
}

class TiffRank final : public RankWork {
 public:
  TiffRank(const mpi::Comm& comm, const loader::SeriesInfo& series,
           const std::vector<tiff::GrayImage>& slices, int slices_to_read)
      : comm_(comm),
        series_(series),
        slices_(slices),
        slices_to_read_(slices_to_read) {}

  void setup(trace::Recorder* rec) override {
    trace::ScopedRecorder scope(rec);
    load_.reset();
    load_.emplace(comm_, series_, loader::Strategy::ddr_consecutive);
  }

  void op(std::int64_t, OpMeasure& m, trace::Recorder* rec) override {
    trace::ScopedRecorder scope(rec);
    stats_ = {};
    double t = now_s();
    brick_ = load_->execute(nullptr, &stats_);
    m.laps[kLapLoaderExecute] = (now_s() - t) * 1e3;
    t = now_s();
    image_ = dvr::distributed_render(comm_, brick_, {kW, kH, kD}, dvr::Axis::y,
                                     transfer());
    m.laps[kLapDvrRender] = (now_s() - t) * 1e3;
    m.tallies[kTallyImagesRead] = stats_.images_read;
    m.tallies[kTallyBytesRead] = static_cast<double>(stats_.bytes_read);
    m.tallies[kTallyDecodeMs] = stats_.decode_cpu_s * 1e3;
  }

  bool verify(std::int64_t) override {
    // Each slice is read exactly once per op, by the rank that owns it.
    bool ok = stats_.images_read == slices_to_read_ &&
              stats_.bytes_read ==
                  std::uint64_t{2} * kW * kH *
                      static_cast<std::uint64_t>(slices_to_read_);
    // The brick, sample by sample, against the generated slices.
    const ddr::Chunk& c = load_->brick_chunk();
    ok = ok && brick_.data.size() == static_cast<std::size_t>(c.volume());
    const float* got = brick_.data.data();
    for (int z = 0; z < c.dims[2] && ok; ++z) {
      const tiff::GrayImage& slice =
          slices_[static_cast<std::size_t>(c.offsets[2] + z)];
      for (int y = 0; y < c.dims[1]; ++y) {
        const auto sy = static_cast<std::uint32_t>(c.offsets[1] + y);
        for (int x = 0; x < c.dims[0]; ++x) {
          const auto sx = static_cast<std::uint32_t>(c.offsets[0] + x);
          const double want = slice.value(sx, sy) / kMaxSample;
          ok = ok && *got++ == static_cast<float>(want);
        }
      }
    }
    brick_.data.assign(brick_.data.size(), -1.0f);  // no stale pass
    if (comm_.rank() != 0) return ok;
    // Rank 0 holds the image: it must be the first op's, every op.
    if (!reference_) {
      ok = ok && image_.width() == kW && image_.height() == kD;
      reference_ = image_;
    }
    return ok && image_.width() == reference_->width() &&
           image_.height() == reference_->height() &&
           std::equal(image_.pixels().begin(), image_.pixels().end(),
                      reference_->pixels().begin());
  }

 private:
  mpi::Comm comm_;
  const loader::SeriesInfo& series_;
  const std::vector<tiff::GrayImage>& slices_;
  const int slices_to_read_;
  std::optional<loader::PreparedLoad> load_;
  loader::LoadStats stats_;
  dvr::Brick brick_;
  img::RgbImage image_;
  std::optional<img::RgbImage> reference_;
};

}  // namespace

Report run_tiff_volume(const Args& args) {
  // The loader's Redistributor uses the default alltoallw backend: no
  // PackExecutor workers, the ranks are the only threads.
  require_thread_budget("tiff_volume", kRanks, 0);

  const std::string dir = args.workdir + "/tiff_series";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::vector<tiff::GrayImage> slices = make_series(args.seed);
  for (int z = 0; z < kD; ++z)
    tiff::write_file(tiff::slice_path(dir, z),
                     slices[static_cast<std::size_t>(z)]);
  const loader::SeriesInfo series = series_info(dir);
  const ddr::GlobalLayout layout = loader::plan_layout(
      kRanks, kW, kH, kD, loader::Strategy::ddr_consecutive);
  Report r;
  int shares = 0;
  for (int q = 0; q < kRanks; ++q) shares += slices_read_by(layout, q);
  if (shares != kD) {
    r.checks_ok = false;
    r.notes.push_back("the ranks' slice shares do not add up to the depth");
  }

  LockstepConfig cfg;
  cfg.nranks = kRanks;
  cfg.window_s = args.seconds;
  cfg.trace = args.trace;
  const Timeline tl = run_lockstep(cfg, [&](const mpi::Comm& comm) {
    return std::make_unique<TiffRank>(comm, series, slices,
                                      slices_read_by(layout, comm.rank()));
  });
  std::filesystem::remove_all(dir);

  count_ops(tl, r);
  if (!args.trace) {
    end_to_end(tl, Throughput::busy, r);
    return r;
  }

  common_layers(tl, r);
  const ddr::MappingStats stats = ddr::compute_stats(layout, 2);
  r.metrics["ddr.network_bytes_per_op"] =
      static_cast<double>(stats.network_bytes);
  r.metrics["ddr.self_bytes_per_op"] = static_cast<double>(stats.self_bytes);
  r.metrics["ddr.transfers_per_op"] = static_cast<double>(stats.transfer_count);
  r.metrics["ddr.rounds"] = stats.rounds;

  std::vector<double> setup_ms;
  for (const OpRecord& s : tl.setups)
    setup_ms.push_back(s.layers->trace.setup_us * 1e-3);
  r.metrics["ddr.setup_ms"] = median(setup_ms);
  const double ddr_ms = traced_median(
      tl, [](const OpLayers& o) { return o.trace.redistribute_us * 1e-3; });
  r.metrics["ddr.redistribute_ms"] = ddr_ms;
  r.metrics["loader.ddr_ms"] = ddr_ms;
  for (const ddr::CandidateCost& c :
       ddr::Planner::decide(layout, 2, nullptr, 0).candidates)
    if (c.backend == ddr::Backend::alltoallw && ddr_ms > 0)
      r.metrics["planner.predicted_over_measured"] =
          c.predicted_s * 1e3 / ddr_ms;

  const double execute_ms = lap_ms(tl, kLapLoaderExecute);
  const double render_ms = lap_ms(tl, kLapDvrRender);
  r.metrics["loader.execute_ms"] = execute_ms;
  r.metrics["dvr.render_ms"] = render_ms;
  r.metrics["tiff.decode_ms_per_op"] = tally(tl, kTallyDecodeMs);
  r.metrics["loader.images_read_per_op"] = tally(tl, kTallyImagesRead);
  r.metrics["loader.bytes_read_per_op"] = tally(tl, kTallyBytesRead);
  closure(
      tl, false,
      [](const OpLayers& o) {
        return o.laps[kLapLoaderExecute] + o.laps[kLapDvrRender];
      },
      r);
  return r;
}

}  // namespace pb
