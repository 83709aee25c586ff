#pragma once
// Observability layer: per-stage spans and plan records for the engines.
//
// The paper's throughput model (Eq. 37) counts an ideal transpose as one
// read and one write of the whole array; every engine stage (pre-rotation
// Eq. 23, row shuffle Eq. 24/31, column shuffle Eq. 26/32-34) moves the
// same 2*m*n*elem bytes again.  This header lets any build attribute
// wall time to those stages without perturbing the hot paths.  The hooks
// (`span` and `note_plan`, placed in the engine headers) are always
// compiled, and one runtime gate, a process-global sink pointer, decides
// whether they record.  With no sink installed, a span costs one atomic
// load of that pointer and a branch; with a sink, each span adds two
// steady_clock reads per *stage* (not per element), which is noise
// against a full matrix pass.
//
// The sink registry and the bounded `collector` below live in the
// library, so a production process can install a sink and read where its
// time went without recompiling.

#include <array>
#include <atomic>
#include <chrono>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/annotated_mutex.hpp"

namespace inplace::telemetry {

/// Engine stages, matching the decomposition's three passes plus the
/// end-to-end envelope.
enum class stage : std::uint8_t {
  total = 0,        ///< whole transposition (Eq. 37 envelope)
  prerotate = 1,    ///< Eq. 23 column pre-rotation (and its inverse Eq. 36)
  row_shuffle = 2,  ///< Eq. 24 scatter / Eq. 31 gather row pass
  col_shuffle = 3,  ///< Eq. 26 / Eqs. 32-34 column shuffle
};
inline constexpr std::size_t stage_count = 4;

[[nodiscard]] constexpr const char* stage_name(stage s) {
  switch (s) {
    case stage::total:
      return "total";
    case stage::prerotate:
      return "prerotate";
    case stage::row_shuffle:
      return "row_shuffle";
    case stage::col_shuffle:
      return "col_shuffle";
  }
  return "unknown";
}

/// One closed span: a stage's wall time plus its minimum memory traffic
/// (each pass reads and writes every element once: 2*m*n*elem bytes).
struct span_record {
  stage s = stage::total;
  int depth = 0;  ///< nesting depth at open: 0 = envelope, 1 = pass
  double seconds = 0.0;
  std::uint64_t bytes_moved = 0;    ///< modelled traffic for the stage
  std::uint64_t scratch_bytes = 0;  ///< auxiliary space in use (Theorem 6)
};

/// One planning decision, recorded per executed transposition.
struct plan_record {
  const char* engine = "";     ///< engine_name(plan.engine)
  const char* direction = "";  ///< direction_name(plan.dir)
  std::uint64_t m = 0;
  std::uint64_t n = 0;
  std::uint64_t block_width = 0;
  std::size_t elem_size = 0;
  /// kernels::tier_name of the plan's resolved hot-path kernel tier, so
  /// scalar and vector runs of one shape dedup separately.
  const char* kernel_tier = "";
  int threads_requested = 0;  ///< util::thread_probe::requested
  int threads_active = 0;     ///< util::thread_probe::active
  bool threads_honored = true;
  /// True when the execution reused a transpose_context cached plan (so
  /// warm/cold traffic separates cleanly in the dedup table).
  bool from_cache = false;
  /// rung_name of the scratch-acquisition outcome: "full" on the fast
  /// path, "reduced"/"cycle_follow" when the executor degraded under
  /// memory pressure — degraded runs dedup separately so a pressure
  /// episode is visible in bench JSON.
  const char* rung = "";
  /// Provenance of the tensor cost model's calibration constants
  /// ("probed" when the startup micro-probe supplied them, "static" for
  /// the compiled-in defaults); "" for the 2-D paths, which have none.
  const char* calibration = "";
};

/// Receiver for telemetry events.  Implementations must tolerate calls
/// from whichever thread runs the engine entry point (the parallel loops
/// inside a stage do not emit).
class sink {
 public:
  virtual ~sink() = default;
  virtual void on_span(const span_record& rec) = 0;
  virtual void on_plan(const plan_record& rec) = 0;
};

/// Installs `s` as the process-global sink (nullptr disables recording)
/// and returns the previous sink.
sink* exchange_sink(sink* s);

namespace detail {
/// The installed sink.  Defined inline so that every hook's gate is one
/// load, not a call; only exchange_sink stores to it.
inline std::atomic<sink*> installed_sink{nullptr};
}  // namespace detail

/// The currently installed sink, or nullptr.
[[nodiscard]] inline sink* current_sink() {
  return detail::installed_sink.load(std::memory_order_acquire);
}

/// Per-thread span nesting depth (0 outside any span).
[[nodiscard]] int& span_depth();

/// RAII sink installation for benches and tests; restores the previous
/// sink on destruction.
class scoped_sink {
 public:
  explicit scoped_sink(sink* s) : previous_(exchange_sink(s)) {}
  ~scoped_sink() { exchange_sink(previous_); }
  scoped_sink(const scoped_sink&) = delete;
  scoped_sink& operator=(const scoped_sink&) = delete;

 private:
  sink* previous_;
};

/// Running aggregate for one stage across a collector's lifetime.
struct stage_total {
  std::uint64_t calls = 0;
  double seconds = 0.0;
  std::uint64_t bytes_moved = 0;
  std::uint64_t scratch_bytes_max = 0;
};

/// A bounded, thread-safe sink: aggregates per-stage totals and distinct
/// plan decisions on the fly, keeping at most `raw_cap` raw spans (so a
/// microbenchmark loop emitting millions of spans cannot exhaust memory —
/// the aggregates keep counting past the cap).
class collector final : public sink {
 public:
  struct plan_count {
    plan_record rec;
    std::uint64_t count = 0;
  };

  explicit collector(std::size_t raw_cap = 4096) : raw_cap_(raw_cap) {}

  void on_span(const span_record& rec) override INPLACE_EXCLUDES(mu_);
  void on_plan(const plan_record& rec) override INPLACE_EXCLUDES(mu_);

  [[nodiscard]] std::vector<span_record> raw_spans() const
      INPLACE_EXCLUDES(mu_);
  [[nodiscard]] std::array<stage_total, stage_count> totals() const
      INPLACE_EXCLUDES(mu_);
  [[nodiscard]] std::vector<plan_count> plan_counts() const
      INPLACE_EXCLUDES(mu_);
  [[nodiscard]] std::uint64_t spans_seen() const INPLACE_EXCLUDES(mu_);
  [[nodiscard]] std::uint64_t plans_seen() const INPLACE_EXCLUDES(mu_);
  /// True when distinct plan shapes exceeded the dedup table and were
  /// folded into plans_seen() only.
  [[nodiscard]] bool plans_truncated() const INPLACE_EXCLUDES(mu_);
  void clear() INPLACE_EXCLUDES(mu_);

 private:
  static constexpr std::size_t plan_table_cap = 64;

  mutable util::annotated_mutex mu_;
  const std::size_t raw_cap_;  ///< immutable after construction
  std::vector<span_record> spans_ INPLACE_GUARDED_BY(mu_);
  std::array<stage_total, stage_count> totals_ INPLACE_GUARDED_BY(mu_){};
  std::vector<plan_count> plans_ INPLACE_GUARDED_BY(mu_);
  std::uint64_t spans_seen_ INPLACE_GUARDED_BY(mu_) = 0;
  std::uint64_t plans_seen_ INPLACE_GUARDED_BY(mu_) = 0;
  bool plans_truncated_ INPLACE_GUARDED_BY(mu_) = false;
};

// --- hooks -------------------------------------------------------------------

/// What a span records when it opens: the stage, its modelled traffic
/// and the auxiliary space in use.
struct span_spec {
  stage s = stage::total;
  std::uint64_t bytes_moved = 0;
  std::uint64_t scratch_bytes = 0;
};

/// Stage span: opens on construction, records to the sink installed at
/// that moment (if any) on destruction.  With no sink installed it costs
/// one load of the sink pointer and a branch; the recording path is out
/// of line.  Call sites spell it `telemetry::span name{stage, bytes,
/// scratch}`, or `telemetry::span name{spec}` where `spec` is a callable
/// returning a span_spec, run only while a sink is installed — for
/// figures that cost more than the gate (an arena's byte count, an
/// out-of-line plan query).
class span {
 public:
  span(stage s, std::uint64_t bytes_moved, std::uint64_t scratch_bytes)
      : sink_(current_sink()) {
    if (sink_ != nullptr) [[unlikely]] {
      open({s, bytes_moved, scratch_bytes});
    }
  }

  template <std::invocable Spec>
  explicit span(Spec&& spec) : sink_(current_sink()) {
    if (sink_ != nullptr) [[unlikely]] {
      open(spec());
    }
  }

  ~span() {
    if (sink_ != nullptr) [[unlikely]] {
      close();
    }
  }

  span(const span&) = delete;
  span& operator=(const span&) = delete;

 private:
  using clock = std::chrono::steady_clock;
  void open(const span_spec& spec);
  void close();

  sink* sink_;
  span_record rec_;
  clock::time_point start_{};
};

/// Forwards a plan record to the sink, if any.
inline void note_plan(const plan_record& rec) {
  if (sink* s = current_sink()) {
    s->on_plan(rec);
  }
}

}  // namespace inplace::telemetry
