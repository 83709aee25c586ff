#include "util/bench_harness.hpp"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/telemetry.hpp"
#include "util/stats.hpp"

namespace inplace::util {

namespace {

/// strtod with full-consumption validation: the whole token must be a
/// finite number, not merely start with one ("1.5x" and "" both fail).
std::optional<double> parse_double(const char* text) {
  if (text == nullptr || *text == '\0') {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == nullptr || *end != '\0' || errno == ERANGE ||
      !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

/// strtol with full-consumption validation and an int range check.
std::optional<int> parse_int(const char* text) {
  if (text == nullptr || *text == '\0') {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (end == nullptr || *end != '\0' || errno == ERANGE || v < INT_MIN ||
      v > INT_MAX) {
    return std::nullopt;
  }
  return static_cast<int>(v);
}

}  // namespace

std::size_t bench_config::samples(std::size_t base,
                                  std::size_t minimum) const {
  const double scaled = static_cast<double>(base) * scale;
  // double -> size_t is undefined behaviour when the value does not fit;
  // saturate instead (a 1e30 scale should mean "huge", not garbage).
  constexpr auto max_exact =
      static_cast<double>(std::size_t{1} << 53U);  // exact in double
  if (!(scaled >= 0.0)) {  // also catches NaN
    return minimum;
  }
  if (scaled >= max_exact) {
    return std::max<std::size_t>(minimum, std::size_t{1} << 53U);
  }
  return std::max<std::size_t>(minimum, static_cast<std::size_t>(scaled));
}

bench_config parse_bench_args(int argc, char** argv) {
  bench_config cfg;
  if (const char* env = std::getenv("INPLACE_BENCH_SCALE")) {
    const auto v = parse_double(env);
    if (v && *v > 0.0) {
      cfg.scale = *v;
    } else {
      // An unparsable env var silently running the full-size workload (or
      // a zero-sample one) wastes a CI cycle; say what happened.
      std::fprintf(stderr,
                   "warning: ignoring INPLACE_BENCH_SCALE=\"%s\" (not a "
                   "positive number); using scale %g\n",
                   env, cfg.scale);
    }
  }
  for (int k = 1; k < argc; ++k) {
    const std::string arg = argv[k];
    auto need_value = [&](const char* flag) -> const char* {
      if (k + 1 >= argc) {
        throw std::runtime_error(std::string("missing value for ") + flag);
      }
      return argv[++k];
    };
    if (arg == "--csv") {
      cfg.csv_path = need_value("--csv");
    } else if (arg == "--json") {
      cfg.json_path = need_value("--json");
    } else if (arg == "--no-json") {
      cfg.emit_json = false;
    } else if (arg == "--scale") {
      const char* text = need_value("--scale");
      const auto v = parse_double(text);
      if (!v || *v <= 0.0) {
        throw std::runtime_error(std::string("--scale expects a positive "
                                             "number, got \"") +
                                 text + "\"");
      }
      cfg.scale = *v;
    } else if (arg == "--threads") {
      const char* text = need_value("--threads");
      const auto v = parse_int(text);
      if (!v || *v < 0) {
        throw std::runtime_error(
            std::string("--threads expects a non-negative integer, got \"") +
            text + "\"");
      }
      cfg.threads = *v;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: %s [--csv path] [--json path] [--no-json] [--scale f] "
          "[--threads n]\n",
          argv[0]);
      std::exit(0);
    } else {
      throw std::runtime_error("unknown flag: " + arg);
    }
  }
  return cfg;
}

void print_banner(const std::string& artifact,
                  const std::string& paper_claim) {
  std::printf("================================================================\n");
  std::printf("Reproducing: %s\n", artifact.c_str());
  std::printf("Paper claim: %s\n", paper_claim.c_str());
  std::printf("================================================================\n");
}

bench_report::bench_report(std::string artifact, std::string paper_claim,
                           const bench_config& cfg)
    : artifact_(std::move(artifact)),
      paper_claim_(std::move(paper_claim)),
      cfg_(cfg) {}

void bench_report::add_series(const std::string& name,
                              const std::string& unit,
                              std::span<const double> samples,
                              bool higher_is_better) {
  for (bench_series& s : series_) {
    if (s.name == name) {
      s.unit = unit;
      s.higher_is_better = higher_is_better;
      s.samples.assign(samples.begin(), samples.end());
      return;
    }
  }
  series_.push_back(bench_series{
      name, unit, higher_is_better,
      std::vector<double>(samples.begin(), samples.end())});
}

void bench_report::add_sample(const std::string& name,
                              const std::string& unit, double sample,
                              bool higher_is_better) {
  for (bench_series& s : series_) {
    if (s.name == name) {
      s.samples.push_back(sample);
      return;
    }
  }
  series_.push_back(
      bench_series{name, unit, higher_is_better, {sample}});
}

void bench_report::note(const std::string& key, json::value v) {
  meta_.set(key, std::move(v));
}

void bench_report::attach_telemetry(const telemetry::collector& coll) {
  json::value tel = json::object{};
  tel.set("spans_seen", static_cast<double>(coll.spans_seen()));
  tel.set("plans_seen", static_cast<double>(coll.plans_seen()));
  tel.set("plans_truncated", coll.plans_truncated());

  json::array stages;
  const auto totals = coll.totals();
  for (std::size_t k = 0; k < telemetry::stage_count; ++k) {
    const telemetry::stage_total& t = totals[k];
    if (t.calls == 0) {
      continue;
    }
    json::value s = json::object{};
    s.set("stage",
          telemetry::stage_name(static_cast<telemetry::stage>(k)));
    s.set("calls", static_cast<double>(t.calls));
    s.set("seconds", t.seconds);
    s.set("bytes_moved", static_cast<double>(t.bytes_moved));
    s.set("scratch_bytes_max", static_cast<double>(t.scratch_bytes_max));
    stages.push_back(std::move(s));
  }
  tel.set("stages", std::move(stages));

  json::array plans;
  for (const telemetry::collector::plan_count& pc : coll.plan_counts()) {
    json::value p = json::object{};
    p.set("engine", pc.rec.engine);
    p.set("direction", pc.rec.direction);
    p.set("m", static_cast<double>(pc.rec.m));
    p.set("n", static_cast<double>(pc.rec.n));
    p.set("block_width", static_cast<double>(pc.rec.block_width));
    p.set("elem_size", static_cast<double>(pc.rec.elem_size));
    p.set("strength_reduction", pc.rec.strength_reduction);
    p.set("kernel_tier", pc.rec.kernel_tier);
    p.set("threads_requested",
          static_cast<double>(pc.rec.threads_requested));
    p.set("threads_active", static_cast<double>(pc.rec.threads_active));
    p.set("threads_honored", pc.rec.threads_honored);
    p.set("from_cache", pc.rec.from_cache);
    p.set("calibration", pc.rec.calibration);
    p.set("count", static_cast<double>(pc.count));
    plans.push_back(std::move(p));
  }
  tel.set("plans", std::move(plans));
  telemetry_ = std::move(tel);
}

json::value bench_report::to_json() const {
  json::value doc = json::object{};
  doc.set("schema", bench_schema);
  doc.set("artifact", artifact_);
  doc.set("paper_claim", paper_claim_);

  json::value config = json::object{};
  config.set("scale", cfg_.scale);
  config.set("threads", cfg_.threads);
#if defined(INPLACE_HAVE_OPENMP)
  config.set("openmp", true);
#else
  config.set("openmp", false);
#endif
  doc.set("config", std::move(config));

  json::array series;
  for (const bench_series& s : series_) {
    json::value js = json::object{};
    js.set("name", s.name);
    js.set("unit", s.unit);
    js.set("direction",
           s.higher_is_better ? "higher_is_better" : "lower_is_better");
    js.set("count", static_cast<double>(s.samples.size()));
    if (!s.samples.empty()) {
      js.set("median", median(s.samples));
      js.set("mad", median_abs_dev(s.samples));
      js.set("min", min_value(s.samples));
      js.set("max", max_value(s.samples));
      js.set("mean", mean(s.samples));
    }
    json::array samples;
    samples.reserve(s.samples.size());
    for (const double v : s.samples) {
      samples.push_back(v);
    }
    js.set("samples", std::move(samples));
    series.push_back(std::move(js));
  }
  doc.set("series", std::move(series));

  if (telemetry_) {
    doc.set("telemetry", *telemetry_);
  }
  if (!meta_.as_object().empty()) {
    doc.set("meta", meta_);
  }
  return doc;
}

std::optional<std::string> bench_report::write() const {
  if (!cfg_.emit_json) {
    return std::nullopt;
  }
  const std::string path = cfg_.json_path.value_or(default_path());
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("bench_report: cannot open " + path);
  }
  out << to_json().dump(2) << '\n';
  if (!out) {
    throw std::runtime_error("bench_report: write failed for " + path);
  }
  std::printf("\nwrote %s\n", path.c_str());
  return path;
}

}  // namespace inplace::util
