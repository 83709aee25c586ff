#include "core/telemetry.hpp"

#include <algorithm>
#include <cstring>

namespace inplace::telemetry {

namespace {

/// Field-wise equality with string *contents* for the name fields: the
/// const char* members may point into different translation units'
/// literals for the same engine.
bool same_plan(const plan_record& a, const plan_record& b) {
  return std::strcmp(a.engine, b.engine) == 0 &&
         std::strcmp(a.direction, b.direction) == 0 &&
         std::strcmp(a.kernel_tier, b.kernel_tier) == 0 && a.m == b.m &&
         a.n == b.n && a.block_width == b.block_width &&
         a.elem_size == b.elem_size &&
         a.threads_requested == b.threads_requested &&
         a.threads_active == b.threads_active &&
         a.threads_honored == b.threads_honored &&
         a.from_cache == b.from_cache && std::strcmp(a.rung, b.rung) == 0 &&
         std::strcmp(a.calibration, b.calibration) == 0;
}

}  // namespace

sink* exchange_sink(sink* s) {
  return detail::installed_sink.exchange(s, std::memory_order_acq_rel);
}

int& span_depth() {
  thread_local int depth = 0;
  return depth;
}

void span::open(const span_spec& spec) {
  rec_.s = spec.s;
  rec_.bytes_moved = spec.bytes_moved;
  rec_.scratch_bytes = spec.scratch_bytes;
  rec_.depth = span_depth()++;
  start_ = clock::now();
}

void span::close() {
  rec_.seconds = std::chrono::duration<double>(clock::now() - start_).count();
  --span_depth();
  sink_->on_span(rec_);
}

void collector::on_span(const span_record& rec) {
  const util::mutex_guard lock(mu_);
  ++spans_seen_;
  auto& total = totals_[static_cast<std::size_t>(rec.s)];
  ++total.calls;
  total.seconds += rec.seconds;
  total.bytes_moved += rec.bytes_moved;
  total.scratch_bytes_max =
      std::max(total.scratch_bytes_max, rec.scratch_bytes);
  if (spans_.size() < raw_cap_) {
    spans_.push_back(rec);
  }
}

void collector::on_plan(const plan_record& rec) {
  const util::mutex_guard lock(mu_);
  ++plans_seen_;
  for (auto& entry : plans_) {
    if (same_plan(entry.rec, rec)) {
      ++entry.count;
      return;
    }
  }
  if (plans_.size() < plan_table_cap) {
    plans_.push_back(plan_count{rec, 1});
  } else {
    plans_truncated_ = true;
  }
}

std::vector<span_record> collector::raw_spans() const {
  const util::mutex_guard lock(mu_);
  return spans_;
}

std::array<stage_total, stage_count> collector::totals() const {
  const util::mutex_guard lock(mu_);
  return totals_;
}

std::vector<collector::plan_count> collector::plan_counts() const {
  const util::mutex_guard lock(mu_);
  return plans_;
}

std::uint64_t collector::spans_seen() const {
  const util::mutex_guard lock(mu_);
  return spans_seen_;
}

std::uint64_t collector::plans_seen() const {
  const util::mutex_guard lock(mu_);
  return plans_seen_;
}

bool collector::plans_truncated() const {
  const util::mutex_guard lock(mu_);
  return plans_truncated_;
}

void collector::clear() {
  const util::mutex_guard lock(mu_);
  spans_.clear();
  totals_ = {};
  plans_.clear();
  spans_seen_ = 0;
  plans_seen_ = 0;
  plans_truncated_ = false;
}

}  // namespace inplace::telemetry
