#pragma once

/// \file workloads.hpp
/// The benchmark's four workloads. Each runs one process-local minimpi
/// world, checks every op, and returns the metrics of BENCHMARK.json that
/// apply to it (end-to-end ones for an untraced run, per-layer ones for a
/// traced run). See perfbench/README.md for why each was chosen.

#include "harness.hpp"

namespace pb {

/// Distributed-FFT pencil transposes: 96^3 floats, 2x2 grid, 4 ranks.
[[nodiscard]] Report run_pencil_fft(const Args& args);

/// Fresh setup + redistribute of seeded drifting z-slabs onto 2x2x1 bricks.
[[nodiscard]] Report run_rebalance(const Args& args);

/// Use case A: TIFF series load through DDR, then distributed DVR.
[[nodiscard]] Report run_tiff_volume(const Args& args);

/// Use case B: LBM ranks stream vorticity to analysis ranks that run DDR,
/// colormap and JPEG encode every frame.
[[nodiscard]] Report run_lbm_intransit(const Args& args);

}  // namespace pb
