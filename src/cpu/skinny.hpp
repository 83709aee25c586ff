#pragma once
// Section 6.1: specialized transposition for the tall, narrow arrays that
// arise when converting Arrays of Structures to Structures of Arrays.
// Preconditions (enforced by the planner): n <= skinny_col_limit and
// m > n.  All column operations act over the full (tiny) row width, so
// every pass streams whole rows — the CPU analogue of the paper's "perform
// all column operations in on-chip memory".
//
// Below the chunk threshold (m < n B rows, B the fewest rows spanning
// skinny_chunk_bytes, or under skinny_chunk_floor_bytes) C2R runs in
// three streaming passes (6 element touches, Theorem 6):
//   1. pre-rotation fused with the row shuffle: one top-down sweep with a
//      (c-1)-row head buffer absorbing the wrap-around reads; every row
//      that reads no buffered row is one indexed gather from a table
//      chosen by its residue i mod n,
//   2. the rotation component p of the column shuffle (residuals j < n),
//   3. the static row permutation q as whole-row cycle following.
// R2C is the mirror image: q^-1, then p^-1 as one bottom-up sweep, then
// the fused pass sweeping bottom-up.
//
// From the threshold up the passes keep their names and inverses but run
// the chunked form (DESIGN §17.1) on the m' = n B ⌊m / (n B)⌋-row prefix;
// the s = m - m' tail structures wait in place until pass 3:
//   1. a per-block transpose: each block of B n structures is staged in
//      an in-cache buffer and written back as its n field runs of B n
//      elements (tail rows only take the block hook),
//   2. the identity: pass 1 already put every prefix element where p
//      and the row permutation's shift would,
//   3. one cycle walk over the K x n grid of B-row chunks (>= 4 KiB each,
//      K = m' / (n B)), then the spread: each field f of the n x m'
//      result moves right by f s, back to front, and the tail's fields
//      fill the s-wide gaps.
// That is Theorem 6's 6 element touches: the row walk moved one 28-512
// byte row per hop at ~0.1 of a copy, the chunk walk moves pages.  R2C
// mirrors it: gather the tail and close the gaps front to back, walk
// q^-1's chunks, then un-transpose each block.
//
// Every pass runs on the active OpenMP team (Sections 3-4: every row and
// column operation is independent).  The sweeps split the rows (or the
// spread's elements) into one contiguous slab per thread, and the team
// claims the per-block transposes one block at a time;
// before the team starts, each slab's boundary window — what a neighbour
// overwrites that the slab still reads — is saved in that slab's scratch,
// so "wrap at m" becomes "wrap at the slab edge".  The cycle walks run in
// segments of at most skinny_segment_hops hops: each segment's first row
// (or chunk) is saved before the team starts, and a segment closes from
// its successor's saved copy.  A team of one is the same code on one
// slab; problems under skinny_team_floor_bytes() run so, opening no
// parallel region.
//
// The row form's fused passes' tables: by Eq. 24, d'_i(j) = ((i + ⌊j/b⌋)
// mod m + jm) mod n depends on i only through i mod n on every row whose
// sources i + ⌊j/b⌋ stay inside its slab (no window read, hence no wrap at
// m), so n rows of n gather offsets each, filled into ws.index (n x n)
// before the team starts, describe all of those rows.  The fewer than c rows per
// slab next to its window keep the element-by-element index stepping.
//
// Each pass is a standalone helper that decides its path from (m, n,
// sizeof(T)) alone, and the R2C helpers are the exact pass-wise inverses
// of the C2R helpers.  core/executor.hpp sequences them as the skinny
// pass list, on the plan's team, and replays the inverses of completed
// passes when an execution throws at a pass boundary.  Nothing inside a
// team allocates or throws.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <type_traits>

#include "core/equations.hpp"
#include "core/permute.hpp"
#include "core/rotate.hpp"
#include "util/threads.hpp"

#if defined(INPLACE_HAVE_OPENMP)
#include <omp.h>
#endif

namespace inplace::detail {

// --- the team and its scratch ------------------------------------------------

/// Hops per segment of a split q / q^-1 cycle.  Cycles up to this long
/// are walked whole by one thread; longer ones are cut into segments the
/// team walks independently.  It trades the size of the largest item a
/// thread can claim (load balance at the end of the pass) against the
/// saved-row scratch, 2 ceil(m / S) rows.
inline constexpr std::uint64_t skinny_segment_hops = 1024;

/// Whole cycles per item of a q / q^-1 team: at most this many times
/// skinny_segment_hops row moves, so no item outlasts the others by much.
inline constexpr std::uint64_t skinny_cycle_group = 16;

/// Rows of segment-start scratch a q / q^-1 pass over m rows can need.
[[nodiscard]] constexpr std::uint64_t skinny_saved_rows(std::uint64_t m) {
  return max_splits(m, skinny_segment_hops);
}

/// Matrix bytes below which a skinny plan runs on the calling thread
/// alone: 1/16 of one core's L2 (probed at startup).  Measured on a
/// 4-vCPU AVX-512 host (2 MiB L2) as C2R + R2C round trips, the 4-thread
/// team beat the team of one on every shape tried (f32 x 7 and x 8, f64
/// x 3 and x 24) from 128 KiB up (1.16-1.65x at 128 KiB, 1.5-2.4x at
/// 2 MiB) but lost on some at 32-64 KiB (down to 0.67x): below that size
/// waking the team costs more than the pass.
[[nodiscard]] inline std::uint64_t skinny_team_floor_bytes() {
  return kernels::probed_caches().l2_bytes / 16;
}

/// Elements between consecutive team slots: a row, then an n x n window,
/// each starting 64-byte aligned.
template <typename T>
[[nodiscard]] constexpr std::uint64_t skinny_row_stride(std::uint64_t n) {
  constexpr std::uint64_t align =
      util::scratch_alignment / std::gcd(util::scratch_alignment, sizeof(T));
  return (n + align - 1) / align * align;
}

template <typename T>
[[nodiscard]] constexpr std::uint64_t skinny_slot_stride(std::uint64_t n) {
  return skinny_row_stride<T>(n) + skinny_row_stride<T>(n * n);
}

/// Thread or slab t's scratch: a row (the scatter/gather line and the
/// whole-cycle save) and a window of up to n-1 boundary rows.  Slot 0 is
/// the workspace's line and head, so a workspace sized by
/// workspace::reserve serves a team of one.
template <typename T>
struct skinny_slot {
  T* row;
  T* window;
};

template <typename T>
[[nodiscard]] skinny_slot<T> slot_of(workspace<T>& ws, std::uint64_t n,
                                     std::uint64_t t) {
  if (t == 0) {
    return {ws.line.data(), ws.head.data()};
  }
  T* base = ws.team.data() + (t - 1) * skinny_slot_stride<T>(n);
  return {base, base + skinny_row_stride<T>(n)};
}

/// Slots the workspace holds for rows of n elements.
template <typename T>
[[nodiscard]] std::uint64_t skinny_slots(const workspace<T>& ws,
                                         std::uint64_t n) {
  return 1 + ws.team.size() / skinny_slot_stride<T>(n);
}

/// The team an m x n pass runs on: the active OpenMP team, capped by
/// the workspace's slots (reserve_skinny sizes one under the team floor)
/// and by slabs of at least n rows (so every boundary window, < n rows,
/// lies in one neighbour).
template <typename T>
[[nodiscard]] std::uint64_t skinny_team(const workspace<T>& ws,
                                        std::uint64_t m, std::uint64_t n) {
  const auto active =
      static_cast<std::uint64_t>(std::max(1, util::hardware_threads()));
  return std::max<std::uint64_t>(
      1, std::min({active, skinny_slots(ws, n), m / n}));
}

// --- the chunked form (DESIGN §17) -------------------------------------------

/// Bytes one chunk of the chunked q / q^-1 walk spans at least: every hop
/// copies a page-sized run instead of one 28-512 byte row.
inline constexpr std::uint64_t skinny_chunk_bytes = 4096;

/// Widest walk row, in bytes, that takes the chunked form at every size
/// (from n B rows up), and the matrix bytes from which wider rows take it
/// too.  Measured as C2R + R2C round trips against the row walk on a
/// 4-vCPU AVX-512 host (2 MiB L2, 300 MiB shared L3; EXPERIMENTS.md,
/// "Skinny chunk walk: where it pays"): rows of 24-40 bytes gained
/// 1.02-2.2x at every size from 32 KiB to 1.2 GiB, on one thread and on
/// four; with pass 1 as the per-block transpose, 48-64 byte rows gained
/// 1.01-3.9x at every chunked size from 32 KiB to 64 MiB on both teams,
/// while 128-192 byte rows and the tile plans' 512 byte chunk rows still
/// lost up to 0.74x on one thread between 128 KiB and 64 MiB and gained
/// from 128 MiB up.
inline constexpr std::uint64_t skinny_chunk_row_bytes = 64;
inline constexpr std::uint64_t skinny_chunk_floor_bytes = 128ull << 20;

/// The chunked form of an m x n skinny problem: chunks of `rows` (B) rows,
/// `chunks` (K) of them per field of the m' = n B K-row prefix, and
/// `tail` (s = m - m') structures past it.  chunks == 0: the problem keeps
/// the row walk.
struct chunk_layout {
  std::uint64_t rows = 0;    ///< B
  std::uint64_t chunks = 0;  ///< K
  std::uint64_t prefix = 0;  ///< m'
  std::uint64_t tail = 0;    ///< s

  [[nodiscard]] bool chunked() const { return chunks > 0; }
};

/// The layout of m x n with chunks of `rows` rows.
[[nodiscard]] constexpr chunk_layout make_chunk_layout(std::uint64_t m,
                                                       std::uint64_t n,
                                                       std::uint64_t rows) {
  const std::uint64_t k = m / (n * rows);
  return {rows, k, n * rows * k, m - n * rows * k};
}

/// The layout the skinny passes run an m x n problem of T in: B is the
/// fewest rows spanning skinny_chunk_bytes; problems under n B rows, and
/// those with rows wider than skinny_chunk_row_bytes under
/// skinny_chunk_floor_bytes, keep the row walk.
template <typename T>
[[nodiscard]] constexpr chunk_layout skinny_chunk_layout(std::uint64_t m,
                                                         std::uint64_t n) {
  const std::uint64_t row = n * sizeof(T);
  const std::uint64_t rows = (skinny_chunk_bytes + row - 1) / row;
  if (row > skinny_chunk_row_bytes && m * row < skinny_chunk_floor_bytes) {
    return {rows, 0, 0, m};
  }
  return make_chunk_layout(m, n, rows);
}

/// The slot of structure t's field x in its transposed block: the block's
/// B n structures become n field runs of B n elements (t < B n, x < n).
/// The chunk walk then places each run as one of the K x n chunks.
[[nodiscard]] constexpr std::uint64_t chunk_block_slot(std::uint64_t n,
                                                       std::uint64_t rows,
                                                       std::uint64_t t,
                                                       std::uint64_t x) {
  return x * rows * n + t;
}

/// The chunk walk's gather: chunk x K + Y of the prefix's result takes
/// chunk Y n + x of the transposed blocks: a K x n -> n x K transpose of
/// B-row chunks.  chunk_grid_source_inv is its inverse.
[[nodiscard]] constexpr std::uint64_t chunk_grid_source(std::uint64_t k,
                                                        std::uint64_t n,
                                                        std::uint64_t i) {
  return i % k * n + i / k;
}

[[nodiscard]] constexpr std::uint64_t chunk_grid_source_inv(std::uint64_t k,
                                                            std::uint64_t n,
                                                            std::uint64_t i) {
  return i % n * k + i / n;
}

/// Elements of one slot's block buffer: a block of B n rows, rounded so
/// the next buffer starts 64-byte aligned.
template <typename T>
[[nodiscard]] constexpr std::uint64_t chunk_buffer_stride(
    std::uint64_t n, const chunk_layout& cl) {
  return skinny_row_stride<T>(cl.rows * n * n);
}

/// Hops per segment of a split walk over `count` chunks:
/// skinny_segment_hops, or a quarter of the grid where that is fewer, so a
/// grid that one or two cycles cover still gives a team several items.
[[nodiscard]] constexpr std::uint64_t chunk_segment_hops(
    std::uint64_t count) {
  return std::max<std::uint64_t>(1, std::min(skinny_segment_hops, count / 4));
}

/// Segment-start chunks a split walk over the K x n chunk grid can save.
[[nodiscard]] constexpr std::uint64_t chunk_saved_chunks(
    std::uint64_t n, const chunk_layout& cl) {
  return max_splits(cl.chunks * n, chunk_segment_hops(cl.chunks * n));
}

/// ws.saved elements the chunked passes need with `slots` team slots:
/// one block buffer per slot (pass 1's transpose), then the segment-start
/// chunks (pass 3's walk); or the s x n tail and one window of (n - 1) s
/// elements per slab (the spread, after the walk) — never both at once.
template <typename T>
[[nodiscard]] constexpr std::uint64_t chunk_saved_elems(
    std::uint64_t n, const chunk_layout& cl, std::uint64_t slots) {
  const std::uint64_t walk = slots * chunk_buffer_stride<T>(n, cl) +
                             chunk_saved_chunks(n, cl) * cl.rows * n;
  const std::uint64_t spread = cl.tail * n + slots * (n - 1) * cl.tail;
  return std::max(walk, spread);
}

/// Sizes a skinny workspace for an m x n problem on `slots` team slots in
/// layout `cl`: a line of n (no scratch index reaches n), an n x n head,
/// the visited map (m rows; a chunk walk uses K n < m), per-column offsets,
/// the gather index (the row form's n x n per-residue tables), one more
/// row + window per extra slot, the saved scratch (skinny_saved_rows(m)
/// segment-start rows, or chunk_saved_elems: B n n-element block buffers
/// and segment-start chunks), and the capacity of the memo-less split
/// lists.
/// Never Theorem 6's max(m, n) line: the skinny passes move whole rows,
/// not columns.
template <typename T>
void reserve_skinny_as(workspace<T>& ws, std::uint64_t m, std::uint64_t n,
                       std::uint64_t slots, const chunk_layout& cl) {
  const bool chunked = cl.chunked();
  const std::uint64_t splits =
      chunked ? chunk_saved_chunks(n, cl) : skinny_saved_rows(m);
  const std::uint64_t saved = chunked ? chunk_saved_elems<T>(n, cl, slots)
                                      : skinny_saved_rows(m) * n;
  // inplace-lint: allow-block(raw-alloc): acquisition-funnel entry — the
  // skinny engine sizes its workspace here, once per plan, before any
  // pass runs: the per-thread rows, windows and block buffers and the
  // walk's segment starts included, so no pass (nor its rollback)
  // allocates
  ws.line.resize(static_cast<std::size_t>(n));
  ws.head.resize(static_cast<std::size_t>(n * n));
  ws.visited.allocate(m, scratch_rung::full);
  ws.offsets.resize(static_cast<std::size_t>(n));
  ws.index.resize(static_cast<std::size_t>(n * n));
  ws.team.resize(static_cast<std::size_t>((slots - 1) *
                                          skinny_slot_stride<T>(n)));
  ws.saved.resize(static_cast<std::size_t>(saved));
  ws.cycles = cycle_memo{};
  ws.cycles.splits.reserve(static_cast<std::size_t>(splits));
  ws.cycles.split_ends.reserve(static_cast<std::size_t>(splits / 2));
  // inplace-lint: end-block
  INPLACE_ENSURE(ws.line.size() >= n && ws.head.size() >= n * n &&
                     ws.visited.size() >= m &&
                     ws.index.size() >= n * n &&
                     skinny_slots(ws, n) >= slots &&
                     ws.saved.size() >= saved &&
                     ws.cycles.splits.capacity() >= splits &&
                     ws.cycles.split_ends.capacity() >= splits / 2,
                 "skinny workspace smaller than its row, window, visited, "
                 "residue-table, saved-scratch and split-list bounds");
  INPLACE_ENSURE(util::is_scratch_aligned(ws.line.data()) &&
                     util::is_scratch_aligned(ws.head.data()) &&
                     (ws.team.empty() ||
                      util::is_scratch_aligned(ws.team.data())) &&
                     (ws.saved.empty() ||
                      util::is_scratch_aligned(ws.saved.data())),
                 "skinny scratch is not 64-byte aligned");
}

/// Sizes a skinny workspace for an m x n problem on `threads` threads
/// (0: the active OpenMP team) in the layout the passes will run it in
/// (skinny_chunk_layout): one slot per thread over the team floor (the
/// one place the floor is applied: under it the workspace has one slot,
/// so skinny_team is 1), else one.
template <typename T>
void reserve_skinny(workspace<T>& ws, std::uint64_t m, std::uint64_t n,
                    int threads = 0) {
  const auto want = static_cast<std::uint64_t>(
      std::max(1, threads > 0 ? threads : util::hardware_threads()));
  const std::uint64_t slots =
      m * n * sizeof(T) < skinny_team_floor_bytes()
          ? 1
          : std::max<std::uint64_t>(1, std::min(want, m / n));
  reserve_skinny_as(ws, m, n, slots, skinny_chunk_layout<T>(m, n));
}

/// Calls body(k, t) for every item k in [0, count), t being the running
/// thread's slot, then done(t) once per thread.  With team == 1 it runs
/// on the calling thread and opens no parallel region; otherwise a team
/// of up to `team` threads claims items one at a time (a smaller team,
/// e.g. nested in another region, still covers every item).
template <typename Body, typename Done>
void team_for(std::uint64_t team, std::uint64_t count, Body&& body,
              Done&& done) {
#if defined(INPLACE_HAVE_OPENMP)
  if (team > 1) {
    const auto items = static_cast<std::int64_t>(count);
    util::team_edges edges;
    edges.release();
#pragma omp parallel num_threads(static_cast<int>(team))
    {
      edges.acquire();
      const auto t = static_cast<std::uint64_t>(omp_get_thread_num());
#pragma omp for schedule(dynamic, 1) nowait
      for (std::int64_t k = 0; k < items; ++k) {
        body(static_cast<std::uint64_t>(k), t);
      }
      done(t);
      edges.release();
    }
    edges.acquire();
    return;
  }
#endif
  for (std::uint64_t k = 0; k < count; ++k) {
    body(k, 0);
  }
  done(0);
}

/// First row of slab s of `slabs` over m rows.
[[nodiscard]] inline std::uint64_t slab_lo(std::uint64_t m,
                                           std::uint64_t slabs,
                                           std::uint64_t s) {
  return s * m / slabs;
}

/// Runs sweep(lo, hi, slab_scratch, thread_scratch) over each slab.
template <typename T, typename Sweep>
void on_slabs(workspace<T>& ws, std::uint64_t m, std::uint64_t n,
              std::uint64_t slabs, Sweep&& sweep) {
  team_for(
      slabs, slabs,
      [&](std::uint64_t s, std::uint64_t t) {
        sweep(slab_lo(m, slabs, s), slab_lo(m, slabs, s + 1),
              slot_of(ws, n, s), slot_of(ws, n, t));
      },
      [](std::uint64_t) {});
}

// --- the passes --------------------------------------------------------------

/// The narrow-row streaming gate shared by both directions: a narrow row
/// cannot amortize non-temporal write-combining and fencing (measured
/// 2.6x slower end-to-end at n = 16 before this gate), so narrow-row
/// plans stay temporal regardless of the matrix-scale streaming decision.
template <typename T>
[[nodiscard]] inline bool skinny_stream_ok(std::uint64_t n, bool stream) {
  return stream && n * sizeof(T) >= kernels::stream_min_copy_bytes;
}

/// No-op row-block transform: the default hook for the fused passes
/// below.  The in-register tile tier substitutes a real transform (the
/// tile plans' fused row pass in core/executor.hpp) that rewrites whole
/// rows in place.
struct no_block_transform {
  template <typename T>
  void operator()(T* /*rows*/, std::uint64_t /*nrows*/) const noexcept {}
};

/// The C2R fused pass's per-residue tables into idx (n x n): row r holds
/// idx[r n + d'_r(j)] = ⌊j/b⌋ n + j, the Eq. 24 scatter as a gather
/// with the Eq. 23 pre-rotation folded into a row offset, so a row i that
/// reads no window, r = i mod n, assembles tmp[k] = (a + i n)[idx[r n +
/// k]].  d'_r steps as d_prime_stepper's does, with adds and conditional
/// subtracts only; no residue row wraps past m, since c <= m - n once
/// m > n.
template <typename Math>
void skinny_scatter_table(const Math& mm, std::uint64_t* idx) {
  const std::uint64_t n = mm.n;
  const std::uint64_t b = mm.b;
  const std::uint64_t m_mod_n = mm.m % n;
  for (std::uint64_t r = 0; r < n; ++r) {
    std::uint64_t* row = idx + r * n;
    std::uint64_t d = r;    // d'_r(j)
    std::uint64_t src = 0;  // ⌊j/b⌋ n
    std::uint64_t jb = 0;   // j mod b
    for (std::uint64_t j = 0; j < n; ++j) {
      row[d] = src + j;
      d += m_mod_n;
      if (d >= n) {
        d -= n;
      }
      if (++jb == b) {
        jb = 0;
        src += n;
        if (++d == n) {
          d = 0;
        }
      }
    }
  }
}

/// The R2C fused pass's per-residue tables into idx (n x n): row r holds
/// idx[r n + j] = (w - ⌊j/b⌋) n + d_r(j), with w = c - 1 and d_r(j) =
/// (r + jm) mod n, so a row i that reads no window, r = i mod n,
/// assembles tmp[j] = (a + (i - w) n)[idx[r n + j]] — row (i - ⌊j/b⌋),
/// column d'_{i-⌊j/b⌋}(j), which collapses to d_i(j).  Adds and
/// conditional subtracts only.
template <typename Math>
void skinny_gather_table(const Math& mm, std::uint64_t* idx) {
  const std::uint64_t n = mm.n;
  const std::uint64_t b = mm.b;
  const std::uint64_t m_mod_n = mm.m % n;
  for (std::uint64_t r = 0; r < n; ++r) {
    std::uint64_t* row = idx + r * n;
    std::uint64_t d = r;                 // d_r(j)
    std::uint64_t src = (mm.c - 1) * n;  // (w - ⌊j/b⌋) n
    std::uint64_t jb = 0;                // j mod b
    for (std::uint64_t j = 0; j < n; ++j) {
      row[j] = src + d;
      d += m_mod_n;
      if (d >= n) {
        d -= n;
      }
      if (++jb == b) {  // past j = n - 1 src wraps, unread
        jb = 0;
        src -= n;
      }
    }
  }
}

/// dst[k] = src[idx[k]] for k in [0, n): the kernel tier's gather_index
/// for 4/8-byte elements with a kernel set (`stream`: unfenced
/// non-temporal stores to dst), a plain indexed loop for the rest
/// (byte/short elements, the tile plans' lane chunks, the untuned
/// rollback).
template <typename T>
void gather_row(T* dst, const T* src, const std::uint64_t* idx,
                std::uint64_t n, const kernels::kernel_set* ks,
                bool stream = false) {
  if constexpr (kernels::has_gather_lanes<T>) {
    if (ks != nullptr) {
      kernels::gather_index(*ks, dst, src, idx, static_cast<std::size_t>(n),
                            stream);
      return;
    }
  }
  for (std::uint64_t k = 0; k < n; ++k) {
    dst[k] = src[idx[k]];
  }
}

/// Rows [lo, hi) of skinny_fused_scatter, reading rows at or past hi from
/// `win` (w rows) and assembling each row in `tmp`.  Rows with i + w < hi
/// read no window: each is one gather from `table` (skinny_scatter_table)
/// at its residue; the last w rows keep the stepper, whose (i + ⌊j/b⌋)
/// wraps past m on the matrix's last slab.
template <typename T, typename Math, typename BlockFn>
void fused_scatter_rows(T* a, const Math& mm, std::uint64_t lo,
                        std::uint64_t hi, std::uint64_t w, const T* win,
                        const std::uint64_t* table, T* tmp,
                        const kernels::kernel_set* ks, bool stream,
                        BlockFn& block) {
  const std::uint64_t n = mm.n;
  const std::uint64_t c = mm.c;
  const std::uint64_t split = hi - lo > w ? hi - w : lo;
  std::uint64_t r = lo % n;
  std::uint64_t i = lo;
  for (; i < split; ++i) {
    // The fused gather reads rows [i, i + c) — the next row's window
    // slides down by one, so prefetch the row entering it.
    if (i + c < hi) {
      kernels::prefetch_read(a + (i + c) * n);
    }
    block(a + (i + w) * n, 1);
    gather_row(tmp, a + i * n, table + r * n, n, ks);
    copy_back(a + i * n, tmp, n, ks, stream);
    if (++r == n) {
      r = 0;
    }
  }
  for (; i < hi; ++i) {
    d_prime_stepper step(mm, i);
    for (std::uint64_t j = 0; j < n; ++j, step.advance()) {
      const std::uint64_t src = i + step.rotation();  // ⌊j/b⌋
      tmp[step.value()] = src < hi ? a[src * n + j] : win[(src - hi) * n + j];
    }
    copy_back(a + i * n, tmp, n, ks, stream);
  }
}

/// C2R pass 1 — fused pre-rotation (gather, Eq. 23) + row shuffle
/// (scatter, Eq. 24): tmp[d'_i(j)] <- A[(i + ⌊j/b⌋) mod m][j].  Sources
/// sit at or below the sweep row, at most c-1 rows down; within a slab
/// [lo, hi) the reads past hi come from the window, the next slab's (for
/// the last slab: the matrix's) first c-1 rows, saved before the team
/// starts.  The rows that read no window (all but a slab's last c-1) are
/// one indexed gather each from skinny_scatter_table's row for i mod n,
/// filled into ws.index before the team starts; the residue steps with
/// the row, so no row divides.  Inverse of skinny_fused_gather.
///
/// `block(rows, k)` is an optional in-place transform of k contiguous
/// rows, applied to every row exactly once *before* the pass consumes it
/// — i.e. the pass computes (scatter ∘ block) with no extra sweep.  The
/// gather window at row i reads rows [i, i+c), so each slab's first c-1
/// rows are transformed before they are saved (the window must hold
/// transformed rows), and each iteration transforms the row sliding into
/// the window.  The tile tier fuses its per-slab register transpose here;
/// the default is a no-op.
template <typename T, typename Math, typename BlockFn>
void fused_scatter_pass(T* a, const Math& mm, workspace<T>& ws,
                        const kernels::kernel_set* ks, bool stream,
                        BlockFn& block) {
  const std::uint64_t m = mm.m;
  const std::uint64_t n = mm.n;
  const std::uint64_t w = mm.c - 1;
  INPLACE_REQUIRE(ws.index.size() >= n * n,
                  "skinny workspace has no room for the residue tables");
  skinny_scatter_table(mm, ws.index.data());
  const std::uint64_t slabs = skinny_team(ws, m, n);
  for (std::uint64_t s = 0; s < slabs && w > 0; ++s) {
    T* first = a + slab_lo(m, slabs, s) * n;
    block(first, w);
    copy_back(slot_of(ws, n, (s + slabs - 1) % slabs).window, first, w * n);
  }
  on_slabs(ws, m, n, slabs, [&](std::uint64_t lo, std::uint64_t hi,
                                skinny_slot<T> slab, skinny_slot<T> own) {
    fused_scatter_rows(a, mm, lo, hi, w, slab.window, ws.index.data(),
                       own.row, ks, stream, block);
  });
}

/// The chunked passes' team: skinny_team over the m x n problem.
/// inplace::error, before anything moves, when ws.saved holds no block
/// buffer per slot (a workspace reserve_skinny did not size for `cl`).
template <typename T>
[[nodiscard]] std::uint64_t chunk_team(const workspace<T>& ws,
                                       std::uint64_t m, std::uint64_t n,
                                       const chunk_layout& cl) {
  if (ws.saved.size() < skinny_slots(ws, n) * chunk_buffer_stride<T>(n, cl)) {
    throw error(
        "inplace: skinny workspace holds no block buffer per slot for the "
        "chunked passes (not sized by reserve_skinny for this shape)");
  }
  return skinny_team(ws, m, n);
}

/// Structures per tile of the block transposes: one cache line of T (at
/// least one), so each tile's n runs are written while its rows sit in L1.
template <typename T>
inline constexpr std::uint64_t block_tile_rows =
    sizeof(T) < 64 ? 64 / sizeof(T) : 1;

/// One block's transpose, C2R: out[chunk_block_slot(n, B, t, x)] <-
/// in[t n + x] for its B n structures t and n fields x.
template <typename T>
void transpose_block(T* out, const T* in, std::uint64_t n,
                     std::uint64_t rows) {
  const std::uint64_t bn = rows * n;
  for (std::uint64_t t0 = 0; t0 < bn; t0 += block_tile_rows<T>) {
    const std::uint64_t e = std::min(block_tile_rows<T>, bn - t0);
    for (std::uint64_t x = 0; x < n; ++x) {
      T* run = out + chunk_block_slot(n, rows, t0, x);
      const T* col = in + t0 * n + x;
      for (std::uint64_t t = 0; t < e; ++t) {
        run[t] = col[t * n];
      }
    }
  }
}

/// transpose_block's inverse, R2C: out[t n + x] <-
/// in[chunk_block_slot(n, B, t, x)].
template <typename T>
void untranspose_block(T* out, const T* in, std::uint64_t n,
                       std::uint64_t rows) {
  const std::uint64_t bn = rows * n;
  for (std::uint64_t t0 = 0; t0 < bn; t0 += block_tile_rows<T>) {
    const std::uint64_t e = std::min(block_tile_rows<T>, bn - t0);
    for (std::uint64_t x = 0; x < n; ++x) {
      const T* run = in + chunk_block_slot(n, rows, t0, x);
      T* col = out + t0 * n + x;
      for (std::uint64_t t = 0; t < e; ++t) {
        col[t * n] = run[t];
      }
    }
  }
}

/// Chunked pass 1 on the prefix's K blocks of B n rows, one block per
/// team item: each block is staged in the running thread's buffer at the
/// head of ws.saved.  C2R applies the block hook to the staged rows and
/// writes the block back transposed (transpose_block); R2C writes it back
/// un-transposed and applies the hook to the rows in place.  The blocks
/// are disjoint, so no slab saves a window.
template <typename T, typename BlockFn>
void chunk_transpose(T* a, std::uint64_t m, std::uint64_t n,
                     const chunk_layout& cl, workspace<T>& ws,
                     const kernels::kernel_set* ks, BlockFn& block, bool c2r) {
  const std::uint64_t team = std::min(chunk_team(ws, m, n, cl), cl.chunks);
  const std::uint64_t bn = cl.rows * n;
  const std::uint64_t stride = chunk_buffer_stride<T>(n, cl);
  team_for(
      team, cl.chunks,
      [&](std::uint64_t y, std::uint64_t t) {
        T* rows = a + y * bn * n;
        T* buf = ws.saved.data() + t * stride;
        copy_back(buf, rows, bn * n, ks, false);
        if (c2r) {
          block(buf, bn);
          transpose_block(rows, buf, n, cl.rows);
        } else {
          untranspose_block(rows, buf, n, cl.rows);
          block(rows, bn);
        }
      },
      [](std::uint64_t) {});
}

/// C2R pass 1 in layout `cl`: fused_scatter_pass over the whole matrix,
/// or, chunked, the prefix's per-block transposes, with the tail's rows
/// taking the block hook in place — the spread (pass 3) consumes them.
template <typename T, typename Math, typename BlockFn>
void skinny_fused_scatter_as(T* a, const Math& mm, const chunk_layout& cl,
                             workspace<T>& ws, const kernels::kernel_set* ks,
                             bool stream, BlockFn& block) {
  if (!cl.chunked()) {
    fused_scatter_pass(a, mm, ws, ks, stream, block);
    return;
  }
  if (cl.tail > 0) {
    block(a + cl.prefix * mm.n, cl.tail);
  }
  chunk_transpose(a, mm.m, mm.n, cl, ws, ks, block, /*c2r=*/true);
}

/// C2R pass 1 in the layout skinny_chunk_layout picks.
template <typename T, typename Math, typename BlockFn = no_block_transform>
void skinny_fused_scatter(T* a, const Math& mm, workspace<T>& ws,
                          const kernels::kernel_set* ks, bool stream,
                          BlockFn block = BlockFn{}) {
  skinny_fused_scatter_as(a, mm, skinny_chunk_layout<T>(mm.m, mm.n), ws, ks,
                          stream, block);
}

/// The rotation p's residuals j mod m into ws.offsets, and the largest.
template <typename T, typename Math>
std::uint64_t skinny_p_offsets(const Math& mm, workspace<T>& ws) {
  std::uint64_t max_res = 0;
  for (std::uint64_t j = 0; j < mm.n; ++j) {
    ws.offsets[j] = mm.p_offset(j);
    max_res = std::max(max_res, ws.offsets[j]);
  }
  return max_res;
}

/// C2R pass 2 — rotation component p_j of the column shuffle: row i,
/// column j <- row (i + j) mod m.  One top-down sweep per slab (the fine
/// pass of Section 4.6 over the full row width, fine_rotate_rows) with
/// the next slab's first rows as the window.  In a chunked layout `cl`
/// the identity: pass 1's per-block transpose already placed every
/// element where p and q's row shift would.  Inverse of
/// skinny_rotate_p_inv_as.
template <typename T, typename Math>
void skinny_rotate_p_as(T* a, const Math& mm, const chunk_layout& cl,
                        workspace<T>& ws, const kernels::kernel_set* ks,
                        bool stream) {
  if (cl.chunked()) {
    return;
  }
  const std::uint64_t m = mm.m;
  const std::uint64_t n = mm.n;
  const std::uint64_t w = skinny_p_offsets(mm, ws);  // min(n, m) - 1
  if (w == 0) {
    return;
  }
  const std::uint64_t* res = ws.offsets.data();
  for (std::uint64_t j = 0; j < n; ++j) {
    ws.index[j] = res[j] * n + j;
  }
  const std::uint64_t slabs = skinny_team(ws, m, n);
  for (std::uint64_t s = 0; s < slabs; ++s) {
    copy_back(slot_of(ws, n, (s + slabs - 1) % slabs).window,
              a + slab_lo(m, slabs, s) * n, w * n);
  }
  on_slabs(ws, m, n, slabs, [&](std::uint64_t lo, std::uint64_t hi,
                                skinny_slot<T> slab, skinny_slot<T>) {
    fine_rotate_rows(a, lo, hi, n, n, res, w, slab.window, ks,
                     ws.index.data(), stream);
  });
}

/// C2R pass 2 in the layout skinny_chunk_layout picks.
template <typename T, typename Math>
void skinny_rotate_p(T* a, const Math& mm, workspace<T>& ws,
                     const kernels::kernel_set* ks, bool stream) {
  skinny_rotate_p_as(a, mm, skinny_chunk_layout<T>(mm.m, mm.n), ws, ks,
                     stream);
}

/// Rows [lo, hi) of skinny_rotate_p_inv, bottom-up, reading rows before
/// lo from `win` (the w rows [lo - w, lo), mod m).
template <typename T>
void rotate_p_inv_rows(T* a, std::uint64_t lo, std::uint64_t hi,
                       std::uint64_t n, const std::uint64_t* res,
                       std::uint64_t w, const T* win,
                       const kernels::kernel_set* ks,
                       const std::uint64_t* idx, bool stream) {
  std::uint64_t i = hi;
  if constexpr (kernels::has_gather_lanes<T>) {
    if (ks != nullptr && hi - lo > w) {
      for (; i > lo + w; --i) {
        T* row = a + (i - 1) * n;
        kernels::gather_index(*ks, row, row - w * n, idx,
                              static_cast<std::size_t>(n), stream);
      }
      if (stream) {
        ks->fence();
      }
    }
  }
  for (; i-- > lo;) {
    for (std::uint64_t j = 0; j < n; ++j) {
      a[i * n + j] = i >= lo + res[j] ? a[(i - res[j]) * n + j]
                                      : win[(i + w - lo - res[j]) * n + j];
    }
  }
}

/// R2C pass 2 — inverse rotation p^-1: row i, column j <- row
/// (i - j) mod m, the bottom-up mirror of skinny_rotate_p.  Each slab
/// sweeps bottom-up, so every source at or above the sweep row is still
/// unwritten; the reads before the slab's first row come from the window,
/// the previous slab's (for the first slab: the matrix's) last rows,
/// saved before the team starts.  Unwrapped rows dispatch to the kernel
/// tier's gather_index over the window of rows [i - max_res, i].  In a
/// chunked layout the identity.  Inverse of skinny_rotate_p_as.
template <typename T, typename Math>
void skinny_rotate_p_inv_as(T* a, const Math& mm, const chunk_layout& cl,
                            workspace<T>& ws, const kernels::kernel_set* ks,
                            bool stream) {
  if (cl.chunked()) {
    return;
  }
  const std::uint64_t m = mm.m;
  const std::uint64_t n = mm.n;
  const std::uint64_t w = skinny_p_offsets(mm, ws);  // min(n, m) - 1
  if (w == 0) {
    return;
  }
  for (std::uint64_t j = 0; j < n; ++j) {
    ws.index[j] = (w - ws.offsets[j]) * n + j;
  }
  const std::uint64_t slabs = skinny_team(ws, m, n);
  for (std::uint64_t s = 0; s < slabs; ++s) {
    const std::uint64_t lo = slab_lo(m, slabs, s);
    copy_back(slot_of(ws, n, s).window, a + ((lo + m - w) % m) * n, w * n);
  }
  on_slabs(ws, m, n, slabs, [&](std::uint64_t lo, std::uint64_t hi,
                                skinny_slot<T> slab, skinny_slot<T>) {
    rotate_p_inv_rows(a, lo, hi, n, ws.offsets.data(), w, slab.window, ks,
                      ws.index.data(), stream);
  });
}

/// R2C pass 2 in the layout skinny_chunk_layout picks.
template <typename T, typename Math>
void skinny_rotate_p_inv(T* a, const Math& mm, workspace<T>& ws,
                         const kernels::kernel_set* ks, bool stream) {
  skinny_rotate_p_inv_as(a, mm, skinny_chunk_layout<T>(mm.m, mm.n), ws, ks,
                         stream);
}

/// The cycles a walk of the gather `perm` over `count` units replays: a
/// tuned memo, discovered or replayed, or null for a memo-less walk
/// (walk_units discovers as it moves).  Cycles longer than `seg` hops
/// are split into segments at discovery; a memo split into more segments
/// than `saved_units` units of scratch hold is refused with inplace::error
/// (memo discovered against another workspace), before anything moves.
template <typename T, typename PermFn>
cycle_memo* walk_cycles(cycle_memo* memo, std::uint64_t key,
                        std::uint64_t count, PermFn perm, workspace<T>& ws,
                        std::uint64_t seg, std::uint64_t saved_units) {
  if (memo == nullptr) {
    return nullptr;
  }
  discover_or_replay(*memo, key, count, perm, ws.visited, seg);
  if (memo->splits.size() > saved_units) {
    throw error(
        "inplace: cycle memo holds more segments than the workspace has "
        "saved rows (memo discovered against another workspace)");
  }
  return memo;
}

/// Moves `count` contiguous units of `width` elements by the gather
/// `perm`, following the cycles `memo` lists (walk_cycles).  Each split
/// segment's first unit is saved into `saved` before the team starts, so
/// the segments and the groups of whole cycles are independent items the
/// team claims in any order; tmp_of(t) is thread t's one-unit scratch for
/// whole cycles.  With no memo (the untuned rollback) each whole cycle
/// moves on the calling thread as soon as discovery has walked it, so
/// only the split lists, which reserve_skinny sized, are recorded (in
/// ws.cycles) and nothing allocates.
template <typename T, typename PermFn, typename TmpFn>
void walk_units(T* a, std::uint64_t count, std::uint64_t width, PermFn perm,
                cycle_memo* memo, std::uint64_t seg, T* saved, TmpFn tmp_of,
                workspace<T>& ws, std::uint64_t team,
                const kernels::kernel_set* ks, bool stream) {
  if (memo == nullptr) {
    memo = &ws.cycles;
    memo->ready = false;
    block_mover<T> mv(a, width, width, tmp_of(0), ks, stream);
    discover_split_cycles(*memo, count, perm, ws.visited, seg,
                          [&](std::uint64_t y) {
                            move_cycle(mv, perm, y, count);
                          });
  }
  const std::vector<std::uint64_t>& whole = memo->starts;
  const std::vector<std::uint64_t>& splits = memo->splits;
  for (std::size_t s = 0; s < splits.size(); ++s) {
    copy_back(saved + s * width, a + splits[s] * width, width);
  }
  // Items: groups of whole cycles (one mover each), then the segments.
  const std::uint64_t groups =
      (whole.size() + skinny_cycle_group - 1) / skinny_cycle_group;
  const bool nt = stream && ks != nullptr && std::is_trivially_copyable_v<T>;
  team_for(
      team, groups + splits.size(),
      [&](std::uint64_t k, std::uint64_t t) {
        // Streamed stores stay unfenced here; done() fences each thread's
        // once (thread 0 is the calling thread, so its memo-less moves
        // above are fenced too).
        if (k < groups) {
          block_mover<T> mv(a, width, width, tmp_of(t), ks, stream);
          const std::uint64_t end = std::min<std::uint64_t>(
              whole.size(), (k + 1) * skinny_cycle_group);
          for (std::uint64_t y = k * skinny_cycle_group; y < end; ++y) {
            move_cycle(mv, perm, whole[y], count);
          }
          return;
        }
        const std::size_t s = k - groups;
        const std::size_t next = next_segment(*memo, s);
        block_mover<T> mv(a, width, width, saved + next * width, ks, stream);
        move_segment(mv, perm, splits[s], splits[next], seg);
      },
      [&](std::uint64_t) {
        if (nt) {
          ks->fence();
        }
      });
}

/// C2R pass 3 / R2C pass 1 below the chunk threshold — the static row
/// permutation `perm` (q or q^-1, a gather on [0, m)), moving whole
/// contiguous rows by cycle following (walk_units).  The cycles depend
/// only on the plan's shape, so `memo` replays them without
/// re-discovery; `memo` must have been discovered against a workspace
/// with as many saved rows (inplace::error otherwise, before anything
/// moves).  Cycles longer than skinny_segment_hops are split into
/// segments whose first rows go to ws.saved.
template <typename T, typename PermFn>
void skinny_permute_rows(T* a, std::uint64_t m, std::uint64_t n, PermFn perm,
                         cycle_memo* memo, std::uint64_t key,
                         workspace<T>& ws, const kernels::kernel_set* ks,
                         bool stream) {
  const std::uint64_t saved_rows = ws.saved.size() / n;
  const std::uint64_t seg =
      saved_rows >= skinny_saved_rows(m) ? skinny_segment_hops : 0;
  cycle_memo* cycles = walk_cycles(memo, key, m, perm, ws, seg, saved_rows);
  walk_units(
      a, m, n, perm, cycles, seg, ws.saved.data(),
      [&](std::uint64_t t) { return slot_of(ws, n, t).row; }, ws,
      skinny_team(ws, m, n), ks, stream);
}

/// Moves `count` elements dst <- src; the ranges may overlap.
template <typename T>
void move_elems(T* dst, const T* src, std::uint64_t count) {
  if constexpr (std::is_trivially_copyable_v<T>) {
    std::memmove(dst, src, static_cast<std::size_t>(count) * sizeof(T));
  } else if (dst < src) {
    std::copy(src, src + count, dst);
  } else {
    std::copy_backward(src, src + count, dst + count);
  }
}

/// Elements [lo, hi) of the C2R spread, back to front: field f's element
/// i < m' (at f m' + i) moves to f m + i, and the gap [f m + m', (f + 1) m)
/// takes field f of the s tail structures from `tail` (s x n, AoS).  Every
/// source sits at or below its destination, at most (n - 1) s below;
/// those below lo come from `win`, the `wlen` elements [lo - wlen, lo)
/// saved before the team starts.
template <typename T>
void spread_slab(T* a, std::uint64_t m, std::uint64_t n,
                 const chunk_layout& cl, std::uint64_t lo, std::uint64_t hi,
                 const T* tail, const T* win, std::uint64_t wlen) {
  std::uint64_t p = hi;
  while (p > lo) {
    const std::uint64_t f = (p - 1) / m;
    const std::uint64_t start = f * m;
    if (p - start > cl.prefix) {  // p - 1 lies in field f's gap
      const std::uint64_t gap = std::max(lo, start + cl.prefix);
      for (std::uint64_t q = gap; q < p; ++q) {
        a[q] = tail[(q - start - cl.prefix) * n + f];
      }
      p = gap;
      continue;
    }
    const std::uint64_t body = std::max(lo, start);
    const std::uint64_t shift = f * cl.tail;
    // [body, p) <- [body - shift, p - shift); sources below lo are in win.
    const std::uint64_t own = std::min(p, std::max(body, lo + shift));
    move_elems(a + own, a + own - shift, p - own);
    if (own > body) {
      copy_back(a + body, win + (body - shift - (lo - wlen)), own - body);
    }
    p = body;
  }
}

/// Elements [lo, hi) of the R2C gather (the spread's inverse on the
/// prefix), front to back: element f m' + i <- f m + i.  Every source
/// sits at or above its destination, at most (n - 1) s above; those at or
/// past hi come from `win`, the elements [hi, hi + wlen) saved before the
/// team starts.
template <typename T>
void gather_slab(T* a, const chunk_layout& cl, std::uint64_t lo,
                 std::uint64_t hi, const T* win) {
  std::uint64_t q = lo;
  while (q < hi) {
    const std::uint64_t f = q / cl.prefix;
    const std::uint64_t end = std::min(hi, (f + 1) * cl.prefix);
    const std::uint64_t shift = f * cl.tail;
    // [q, end) <- [q + shift, end + shift); sources past hi are in win.
    const std::uint64_t own =
        std::max(q, std::min(end, hi > shift ? hi - shift : 0));
    move_elems(a + q, a + q + shift, own - q);
    if (end > own) {
      copy_back(a + own, win + (own + shift - hi), end - own);
    }
    q = end;
  }
}

/// The spread's team: at most `team` slabs, as many as ws.saved holds a
/// window for after the tail.  inplace::error, before anything moves,
/// when it cannot hold the tail and one window.
template <typename T>
[[nodiscard]] std::uint64_t spread_team(const workspace<T>& ws,
                                        std::uint64_t n,
                                        const chunk_layout& cl,
                                        std::uint64_t team) {
  const std::uint64_t tail = cl.tail * n;
  const std::uint64_t reach = (n - 1) * cl.tail;
  if (ws.saved.size() < tail + reach) {
    throw error(
        "inplace: skinny workspace cannot hold the chunked spread's tail "
        "(not sized by reserve_skinny for this shape)");
  }
  return reach == 0 ? team
                    : std::min(team, (ws.saved.size() - tail) / reach);
}

/// The spread (C2R, after the chunk walk) or its inverse gather (R2C,
/// before it) between the prefix's n x m' result with the tail's s
/// structures after it and the n x m result, on `slabs` slabs of
/// elements.  The tail and each slab's window go to ws.saved before the
/// team starts; a 1.1 GB memmove on one thread would cost most of what
/// the chunk walk saves.
template <typename T>
void chunk_spread(T* a, std::uint64_t m, std::uint64_t n,
                  const chunk_layout& cl, workspace<T>& ws,
                  std::uint64_t slabs, bool c2r) {
  if (cl.tail == 0) {
    return;
  }
  const std::uint64_t s = cl.tail;
  const std::uint64_t reach = (n - 1) * s;
  const std::uint64_t total = (c2r ? m : cl.prefix) * n;
  T* tail = ws.saved.data();
  T* wins = tail + s * n;
  // Slab edges on 64-element boundaries, so no two threads share a line.
  const auto edge = [&](std::uint64_t k) {
    return k == slabs ? total : k * total / slabs / 64 * 64;
  };
  if (c2r) {
    copy_back(tail, a + cl.prefix * n, s * n);
    for (std::uint64_t k = 0; k < slabs; ++k) {
      const std::uint64_t lo = edge(k);
      const std::uint64_t w = std::min(lo, reach);
      copy_back(wins + k * reach, a + lo - w, w);
    }
    team_for(
        slabs, slabs,
        [&](std::uint64_t k, std::uint64_t) {
          const std::uint64_t lo = edge(k);
          spread_slab(a, m, n, cl, lo, edge(k + 1), tail, wins + k * reach,
                      std::min(lo, reach));
        },
        [](std::uint64_t) {});
    return;
  }
  for (std::uint64_t f = 0; f < n; ++f) {
    for (std::uint64_t t = 0; t < s; ++t) {
      tail[t * n + f] = a[f * m + cl.prefix + t];
    }
  }
  for (std::uint64_t k = 0; k < slabs; ++k) {
    const std::uint64_t hi = edge(k + 1);
    copy_back(wins + k * reach, a + hi, std::min(reach, m * n - hi));
  }
  team_for(
      slabs, slabs,
      [&](std::uint64_t k, std::uint64_t) {
        gather_slab(a, cl, edge(k), edge(k + 1), wins + k * reach);
      },
      [](std::uint64_t) {});
  copy_back(a + cl.prefix * n, tail, s * n);
}

/// Chunked pass 3: the chunk walk over the K x n grid of B-row chunks
/// (chunk_grid_source, as a gather through walk_units; C2R) followed by
/// the spread, or the gather followed by the inverse walk (R2C).  Every
/// capacity check and the walk's discovery run before anything moves.
template <typename T>
void chunk_permute(T* a, std::uint64_t m, std::uint64_t n,
                   const chunk_layout& cl, workspace<T>& ws, cycle_memo* memo,
                   const kernels::kernel_set* ks, bool stream, bool c2r) {
  const std::uint64_t count = cl.chunks * n;
  const std::uint64_t width = cl.rows * n;
  const std::uint64_t team = chunk_team(ws, m, n, cl);
  const std::uint64_t slabs = spread_team(ws, n, cl, team);
  const std::uint64_t stride = chunk_buffer_stride<T>(n, cl);
  const std::uint64_t head = skinny_slots(ws, n) * stride;
  const std::uint64_t saved_chunks = (ws.saved.size() - head) / width;
  const std::uint64_t seg =
      saved_chunks >= chunk_saved_chunks(n, cl) ? chunk_segment_hops(count) : 0;
  const std::uint64_t k = cl.chunks;
  const auto perm = [k, n, c2r](std::uint64_t i) {
    return c2r ? chunk_grid_source(k, n, i) : chunk_grid_source_inv(k, n, i);
  };
  const std::uint64_t key = memo_fingerprint(
      k, n, width, c2r ? memo_pass::chunk_q : memo_pass::chunk_q_inv);
  cycle_memo* cycles = walk_cycles(memo, key, count, perm, ws, seg,
                                   saved_chunks);
  if (!c2r) {
    chunk_spread(a, m, n, cl, ws, slabs, /*c2r=*/false);
  }
  walk_units(
      a, count, width, perm, cycles, seg, ws.saved.data() + head,
      [&](std::uint64_t t) { return ws.saved.data() + t * stride; }, ws,
      team, ks, stream);
  if (c2r) {
    chunk_spread(a, m, n, cl, ws, slabs, /*c2r=*/true);
  }
}

/// C2R pass 3 — static row permutation q: the row walk, or chunked, the
/// chunk walk and the spread (chunk_permute).  Inverse of
/// skinny_permute_q_inv.
template <typename T, typename Math>
void skinny_permute_q(T* a, const Math& mm, workspace<T>& ws,
                      cycle_memo* memo, const kernels::kernel_set* ks,
                      bool stream) {
  const chunk_layout cl = skinny_chunk_layout<T>(mm.m, mm.n);
  if (cl.chunked()) {
    chunk_permute(a, mm.m, mm.n, cl, ws, memo, ks, stream, /*c2r=*/true);
    return;
  }
  skinny_permute_rows(
      a, mm.m, mm.n, [&](std::uint64_t i) { return mm.q(i); }, memo,
      memo_fingerprint(mm.m, mm.n, /*width=*/mm.n, memo_pass::row_q), ws, ks,
      stream);
}

/// R2C pass 1 — inverse row permutation q^-1: the row walk, or chunked,
/// the gather and the inverse chunk walk.  Inverse of skinny_permute_q.
template <typename T, typename Math>
void skinny_permute_q_inv(T* a, const Math& mm, workspace<T>& ws,
                          cycle_memo* memo, const kernels::kernel_set* ks,
                          bool stream) {
  const chunk_layout cl = skinny_chunk_layout<T>(mm.m, mm.n);
  if (cl.chunked()) {
    chunk_permute(a, mm.m, mm.n, cl, ws, memo, ks, stream, /*c2r=*/false);
    return;
  }
  skinny_permute_rows(
      a, mm.m, mm.n, [&](std::uint64_t i) { return mm.q_inv(i); }, memo,
      memo_fingerprint(mm.m, mm.n, /*width=*/mm.n, memo_pass::row_q_inv), ws,
      ks, stream);
}

/// Rows [lo, hi) of skinny_fused_gather, bottom-up, reading rows before
/// lo from `win` (the w rows [lo - w, lo), mod m) and assembling each row
/// in `tmp`.  Rows with i >= lo + w read no window: each is one gather
/// from `table` (skinny_gather_table) at its residue; the first w rows
/// keep the incremental loop below.
template <typename T, typename Math, typename BlockFn>
void fused_gather_rows(T* a, const Math& mm, std::uint64_t lo,
                       std::uint64_t hi, std::uint64_t w, const T* win,
                       const std::uint64_t* table, T* tmp,
                       const kernels::kernel_set* ks, bool stream,
                       BlockFn& block) {
  const std::uint64_t n = mm.n;
  const std::uint64_t b = mm.b;
  const std::uint64_t c = mm.c;
  const std::uint64_t split = std::min(hi, lo + w);
  std::uint64_t r = (hi - 1) % n;
  for (std::uint64_t ii = hi; ii-- > split;) {
    // Bottom-up sweep: row ii reads rows (ii - c, ii]; prefetch the row
    // entering the window next iteration.
    if (ii > lo + c) {
      kernels::prefetch_read(a + (ii - c) * n);
    }
    gather_row(tmp, a + (ii - w) * n, table + r * n, n, ks);
    block(tmp, 1);
    copy_back(a + ii * n, tmp, n, ks, stream);
    r = (r == 0 ? n : r) - 1;
  }
  // Index simplification: with s = (i - ⌊j/b⌋) mod m we have
  // s + ⌊j/b⌋ ≡ i (mod m), so d'_s(j) = ((s + ⌊j/b⌋) mod m + jm) mod n
  // collapses to the unrotated d_i(j) = (i + jm) mod n — incrementally
  // computable with one add and a conditional subtract per element.
  const std::uint64_t m_mod_n = mm.m % n;
  for (std::uint64_t ii = split; ii-- > lo;) {
    std::uint64_t jj = ii % n;  // d_i(0)
    std::uint64_t off = 0;      // ⌊j/b⌋
    std::uint64_t jb = 0;       // j mod b
    for (std::uint64_t j = 0; j < n; ++j) {
      tmp[j] = ii >= lo + off ? a[(ii - off) * n + jj]
                              : win[(ii + w - lo - off) * n + jj];
      jj += m_mod_n;
      if (jj >= n) {
        jj -= n;
      }
      if (++jb == b) {
        jb = 0;
        ++off;
      }
    }
    block(tmp, 1);
    copy_back(a + ii * n, tmp, n, ks, stream);
  }
}

/// R2C pass 3 — row shuffle (gather d') fused with the inverse
/// pre-rotation (gather offset -⌊j/b⌋): row i, col j <- row
/// (i - ⌊j/b⌋) mod m, col d'_s(j).  Sweeping each slab bottom-up keeps
/// its unwrapped sources unwritten; the reads before the slab's first row
/// come from the window, the previous slab's (for the first slab: the
/// matrix's) last c-1 rows, saved before the team starts.  The rows that
/// read no window (all but a slab's first c-1) are one indexed gather
/// each from skinny_gather_table's row for i mod n, filled into ws.index
/// before the team starts.  Inverse of skinny_fused_scatter.
///
/// `block(row, 1)` is the mirror of skinny_fused_scatter's hook, applied
/// to each assembled scratch row just before its copy-back — the pass
/// computes (block ∘ gather) with no extra sweep.  Every source the
/// gather reads (in-matrix or saved window) is a pre-transform value, so
/// fusing the transform after the gather keeps the two passes exact
/// inverses when the hooks are inverses.
template <typename T, typename Math, typename BlockFn>
void fused_gather_pass(T* a, const Math& mm, workspace<T>& ws,
                       const kernels::kernel_set* ks, bool stream,
                       BlockFn& block) {
  const std::uint64_t m = mm.m;
  const std::uint64_t n = mm.n;
  const std::uint64_t w = mm.c - 1;
  INPLACE_REQUIRE(ws.index.size() >= n * n,
                  "skinny workspace has no room for the residue tables");
  skinny_gather_table(mm, ws.index.data());
  const std::uint64_t slabs = skinny_team(ws, m, n);
  for (std::uint64_t s = 0; s < slabs && w > 0; ++s) {
    const std::uint64_t lo = slab_lo(m, slabs, s);
    copy_back(slot_of(ws, n, s).window, a + ((lo + m - w) % m) * n, w * n);
  }
  on_slabs(ws, m, n, slabs, [&](std::uint64_t lo, std::uint64_t hi,
                                skinny_slot<T> slab, skinny_slot<T> own) {
    fused_gather_rows(a, mm, lo, hi, w, slab.window, ws.index.data(),
                      own.row, ks, stream, block);
  });
}

/// R2C pass 3 in layout `cl`: fused_gather_pass over the whole matrix,
/// or, chunked, the prefix's per-block un-transposes (each block's rows
/// take the hook after it), with the tail's rows (which pass 1's gather
/// put back in AoS order) taking the block hook in place.  Inverse of
/// skinny_fused_scatter_as.
template <typename T, typename Math, typename BlockFn>
void skinny_fused_gather_as(T* a, const Math& mm, const chunk_layout& cl,
                            workspace<T>& ws, const kernels::kernel_set* ks,
                            bool stream, BlockFn& block) {
  if (!cl.chunked()) {
    fused_gather_pass(a, mm, ws, ks, stream, block);
    return;
  }
  chunk_transpose(a, mm.m, mm.n, cl, ws, ks, block, /*c2r=*/false);
  if (cl.tail > 0) {
    block(a + cl.prefix * mm.n, cl.tail);
  }
}

/// R2C pass 3 in the layout skinny_chunk_layout picks.
template <typename T, typename Math, typename BlockFn = no_block_transform>
void skinny_fused_gather(T* a, const Math& mm, workspace<T>& ws,
                         const kernels::kernel_set* ks, bool stream,
                         BlockFn block = BlockFn{}) {
  skinny_fused_gather_as(a, mm, skinny_chunk_layout<T>(mm.m, mm.n), ws, ks,
                         stream, block);
}

}  // namespace inplace::detail
