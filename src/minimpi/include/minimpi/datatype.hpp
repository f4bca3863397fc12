#pragma once

/// \file datatype.hpp
/// Derived datatypes for minimpi.
///
/// A Datatype describes a (possibly non-contiguous) layout of typed data in
/// memory, exactly in the spirit of MPI derived datatypes. It is represented
/// as an immutable tree of constructors (named, contiguous, vector, hvector,
/// subarray, struct). The two fundamental quantities are:
///
///   * size()   — the number of bytes of actual data in one element
///                (MPI_Type_size)
///   * extent() — the span of memory, in bytes, that one element covers,
///                including holes (MPI_Type_get_extent)
///
/// The pack/unpack engine flattens a datatype into a sequence of contiguous
/// byte segments. This is the machinery MPI_Alltoallw relies on when given
/// subarray types, and it is exercised heavily by the DDR library.
///
/// Pack/unpack execute through a compiled segment plan: the first use of a
/// type flattens its constructor tree once into a flat, coalesced
/// (offset, length) run list, then run-compresses it into
/// (offset, length, stride, count) quads — consecutive equal-length runs a
/// constant stride apart collapse into one descriptor, so a strided 2D/3D
/// subarray stores a few quads instead of one entry per row. The result is
/// cached on the immutable type node. Every later pack/unpack/copy is a
/// plain doubly-nested loop of memcpys over the quads — no tree recursion,
/// no per-segment callback dispatch, no per-call allocation.
/// precompile() forces the compile eagerly (e.g. at setup time).
///
/// Datatype values are cheap to copy (shared immutable payload) and are
/// thread-safe to use concurrently once constructed.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "minimpi/error.hpp"

namespace mpi {

/// Index ordering for subarray types.
/// `c`: the LAST index varies fastest (row-major, like MPI_ORDER_C).
/// `fortran`: the FIRST index varies fastest (column-major).
enum class Order : std::uint8_t { c, fortran };

namespace detail {
struct TypeNode;
}  // namespace detail

/// Immutable handle to a (possibly derived) datatype.
class Datatype {
 public:
  /// Default-constructed datatype is a zero-byte placeholder.
  Datatype();

  /// Bytes of actual data per element.
  [[nodiscard]] std::size_t size() const noexcept;

  /// Memory span per element, including holes.
  [[nodiscard]] std::size_t extent() const noexcept;

  /// True when one element is a single contiguous run (size == extent and no
  /// internal reordering), so pack/unpack degrade to memcpy.
  [[nodiscard]] bool contiguous() const noexcept;

  /// Human-readable description, e.g. "subarray{sizes=[4,8],sub=[4,4],...}".
  [[nodiscard]] std::string describe() const;

  /// Invokes `fn(offset_bytes, length_bytes)` once per contiguous segment of
  /// `count` consecutive elements rooted at byte offset 0, in packed order.
  void for_each_segment(
      std::size_t count,
      const std::function<void(std::size_t, std::size_t)>& fn) const;

  /// Packs `count` elements from `src` (laid out per this type) into the
  /// dense buffer `dst`. `dst` must hold at least count * size() bytes.
  void pack(const std::byte* src, std::size_t count, std::byte* dst) const;

  /// Unpacks `count` elements from the dense buffer `src` into `dst`
  /// (laid out per this type).
  void unpack(const std::byte* src, std::size_t count, std::byte* dst) const;

  /// Forces the segment plan to be compiled now (it is otherwise built
  /// lazily on first pack/unpack). Lets setup-time code pay the one-off
  /// compile cost up front so the first data movement is already fast.
  void precompile() const;

  /// Number of contiguous runs in the compiled plan of ONE element
  /// (compiles the plan if needed). Adjacent runs are coalesced, so this is
  /// the exact number of contiguous byte runs a pack of one element copies.
  /// Equal to the sum of the repeat counts over the plan's quads. Unit:
  /// RUNS COPIED — not copy calls; the copy train moves all
  /// of a quad's runs in one call.
  [[nodiscard]] std::size_t plan_segment_count() const;

  /// Number of run-compressed (offset, length, stride, count) descriptors
  /// the compiled plan of ONE element stores (compiles the plan if needed).
  /// Unit: QUADS STORED — this, not plan_segment_count(), is both the plan's
  /// memory footprint and the number of copy-train calls a pack of
  /// one element makes: strided subarrays collapse whole dimensions into
  /// single quads, so plan_quad_count() <= plan_segment_count() always
  /// holds.
  [[nodiscard]] std::size_t plan_quad_count() const;

  /// Globally enables/disables the compiled-plan execution path. With plans
  /// disabled, pack/unpack/for_each_segment fall back to the legacy
  /// recursive tree walker. This is a benchmarking and testing hook (the
  /// property tests prove the two paths byte-identical); production code
  /// should leave plans enabled.
  static void set_plan_enabled(bool enabled) noexcept;
  [[nodiscard]] static bool plan_enabled() noexcept;

  // --- constructors -------------------------------------------------------

  /// A contiguous run of `n` raw bytes.
  static Datatype bytes(std::size_t n);

  /// Named type for a trivially copyable T (float, double, int, ...).
  template <typename T>
  static Datatype of() {
    static_assert(std::is_trivially_copyable_v<T>);
    return bytes(sizeof(T));
  }

  /// `count` consecutive copies of `inner`.
  static Datatype contiguous(std::size_t count, const Datatype& inner);

  /// `count` blocks of `blocklen` inner elements, block starts separated by
  /// `stride` inner-extents (MPI_Type_vector).
  static Datatype vector(std::size_t count, std::size_t blocklen,
                         std::ptrdiff_t stride, const Datatype& inner);

  /// Like vector but stride is given in bytes (MPI_Type_create_hvector).
  static Datatype hvector(std::size_t count, std::size_t blocklen,
                          std::ptrdiff_t stride_bytes, const Datatype& inner);

  /// N-dimensional subarray (MPI_Type_create_subarray): a `subsizes` box at
  /// `starts` within a `sizes` array of `inner` elements.
  static Datatype subarray(std::span<const int> sizes,
                           std::span<const int> subsizes,
                           std::span<const int> starts, const Datatype& inner,
                           Order order = Order::c);

  /// Heterogeneous struct (MPI_Type_create_struct): block i is
  /// `blocklens[i]` copies of `types[i]` at byte displacement `displs[i]`.
  /// The extent is max(displ + blocklen*extent) over blocks.
  static Datatype strukt(std::span<const int> blocklens,
                         std::span<const std::ptrdiff_t> displs,
                         std::span<const Datatype> types);

  /// Irregular blocks of one type (MPI_Type_indexed): block i is
  /// `blocklens[i]` inner elements starting `displs[i]` inner-extents from
  /// the origin.
  static Datatype indexed(std::span<const int> blocklens,
                          std::span<const int> displs, const Datatype& inner);

  /// Indexed with a constant block length
  /// (MPI_Type_create_indexed_block).
  static Datatype indexed_block(int blocklen, std::span<const int> displs,
                                const Datatype& inner);

  /// `inner` with its extent overridden (MPI_Type_create_resized).
  static Datatype resized(const Datatype& inner, std::size_t new_extent);

  friend bool operator==(const Datatype& a, const Datatype& b) noexcept {
    return a.node_ == b.node_;
  }

  friend void copy_regions(const Datatype& src_type, const std::byte* src,
                           std::size_t src_count, const Datatype& dst_type,
                           std::byte* dst, std::size_t dst_count);

 private:
  explicit Datatype(std::shared_ptr<const detail::TypeNode> node);
  std::shared_ptr<const detail::TypeNode> node_;
};

/// Moves `src_count` elements of `src_type` at `src` directly into
/// `dst_count` elements of `dst_type` at `dst` — the packed byte streams of
/// the two regions are matched run-against-run with no intermediate dense
/// buffer. The regions must describe the same number of data bytes
/// (src_count * src_type.size() == dst_count * dst_type.size()) and must not
/// overlap in memory. This is the zero-copy primitive behind self-lane
/// transfers (rank sending to itself) in the collectives and in DDR.
void copy_regions(const Datatype& src_type, const std::byte* src,
                  std::size_t src_count, const Datatype& dst_type,
                  std::byte* dst, std::size_t dst_count);

}  // namespace mpi
