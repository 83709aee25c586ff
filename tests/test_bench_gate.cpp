// Tests for the perf-gate comparator core (util/bench_compare.hpp): the
// noise-aware thresholds that tools/bench_gate applies to two BENCH_*.json
// reports.  A 20% regression must be flagged, a 2% wobble must pass, a
// drop inside the MAD noise band must pass, and series that vanish from
// the candidate must fail the gate.

#include "util/bench_compare.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace {

using namespace inplace::util;

struct series_spec {
  std::string name;
  std::string direction = "higher_is_better";
  double median = 0.0;
  double mad = 0.0;
  double count = 9.0;
};

json::value make_report(const std::string& artifact,
                        const std::vector<series_spec>& series) {
  json::object doc{{"schema", bench_schema}, {"artifact", artifact}};
  json::array arr;
  for (const auto& spec : series) {
    json::object s;
    s.emplace_back("name", spec.name);
    s.emplace_back("unit", "GB/s");
    s.emplace_back("direction", spec.direction);
    s.emplace_back("count", spec.count);
    if (spec.count > 0) {
      s.emplace_back("median", spec.median);
      s.emplace_back("mad", spec.mad);
    }
    arr.emplace_back(std::move(s));
  }
  doc.emplace_back("series", std::move(arr));
  return doc;
}

const gate_options kDefaults;  // 10% threshold, 4-MAD noise band

TEST(BenchGate, TwentyPercentDropIsFlagged) {
  const auto base = make_report("a", {{"tput", "higher_is_better", 100, 1}});
  const auto cand = make_report("a", {{"tput", "higher_is_better", 80, 1}});
  const auto r = compare_reports(base, cand, kDefaults);
  EXPECT_FALSE(r.passed(kDefaults));
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].status, gate_status::regressed);
  EXPECT_NEAR(r.findings[0].rel_change, -0.20, 1e-12);
}

TEST(BenchGate, TwoPercentWobblePasses) {
  const auto base = make_report("a", {{"tput", "higher_is_better", 100, 1}});
  const auto cand = make_report("a", {{"tput", "higher_is_better", 98, 1}});
  const auto r = compare_reports(base, cand, kDefaults);
  EXPECT_TRUE(r.passed(kDefaults));
  EXPECT_EQ(r.findings[0].status, gate_status::ok);
}

TEST(BenchGate, NoisySeriesEarnAWiderBand) {
  // MAD 5 on a median of 100 -> 4-MAD band = 20%; a 15% drop is noise.
  const auto base = make_report("a", {{"tput", "higher_is_better", 100, 5}});
  const auto cand = make_report("a", {{"tput", "higher_is_better", 85, 5}});
  const auto r = compare_reports(base, cand, kDefaults);
  EXPECT_TRUE(r.passed(kDefaults));
  EXPECT_NEAR(r.findings[0].allowed_drop, 0.20, 1e-12);
  // The same drop on a quiet series regresses.
  const auto quiet_base =
      make_report("a", {{"tput", "higher_is_better", 100, 0.5}});
  const auto quiet_cand =
      make_report("a", {{"tput", "higher_is_better", 85, 0.5}});
  const auto q = compare_reports(quiet_base, quiet_cand, kDefaults);
  EXPECT_FALSE(q.passed(kDefaults));
}

TEST(BenchGate, LowerIsBetterDirectionFlips) {
  const auto base =
      make_report("a", {{"lat", "lower_is_better", 10, 0.05}});
  const auto worse =
      make_report("a", {{"lat", "lower_is_better", 13, 0.05}});
  const auto better =
      make_report("a", {{"lat", "lower_is_better", 7, 0.05}});
  EXPECT_FALSE(compare_reports(base, worse, kDefaults).passed(kDefaults));
  EXPECT_TRUE(compare_reports(base, better, kDefaults).passed(kDefaults));
}

TEST(BenchGate, ImprovementsNeverFail) {
  const auto base = make_report("a", {{"tput", "higher_is_better", 100, 1}});
  const auto cand =
      make_report("a", {{"tput", "higher_is_better", 250, 1}});
  const auto r = compare_reports(base, cand, kDefaults);
  EXPECT_TRUE(r.passed(kDefaults));
  EXPECT_NEAR(r.findings[0].rel_change, 1.5, 1e-12);
}

TEST(BenchGate, MissingSeriesFailUnlessAllowed) {
  const auto base = make_report(
      "a", {{"tput", "higher_is_better", 100, 1},
            {"lat", "lower_is_better", 10, 0.1}});
  const auto cand = make_report("a", {{"tput", "higher_is_better", 100, 1}});
  const auto r = compare_reports(base, cand, kDefaults);
  EXPECT_FALSE(r.passed(kDefaults));
  EXPECT_EQ(r.missing, 1u);
  gate_options lax = kDefaults;
  lax.fail_on_missing = false;
  EXPECT_TRUE(r.passed(lax));
}

TEST(BenchGate, NewSeriesInCandidateAreIgnored) {
  const auto base = make_report("a", {{"tput", "higher_is_better", 100, 1}});
  const auto cand = make_report(
      "a", {{"tput", "higher_is_better", 100, 1},
            {"brand_new", "higher_is_better", 5, 0.1}});
  const auto r = compare_reports(base, cand, kDefaults);
  EXPECT_TRUE(r.passed(kDefaults));
  EXPECT_EQ(r.findings.size(), 1u);  // only base-side series are findings
}

TEST(BenchGate, EmptyAndZeroSeriesAreSkippedNotFailed) {
  const auto base = make_report(
      "a", {{"empty", "higher_is_better", 0, 0, /*count=*/0},
            {"zero", "higher_is_better", 0, 0}});
  const auto r = compare_reports(base, base, kDefaults);
  EXPECT_TRUE(r.passed(kDefaults));
  EXPECT_EQ(r.compared, 0u);
  for (const auto& f : r.findings) {
    EXPECT_EQ(f.status, gate_status::skipped) << f.series;
  }
}

TEST(BenchGate, DirectionChangeIsNotSilentlyCompared) {
  const auto base = make_report("a", {{"x", "higher_is_better", 10, 0.1}});
  const auto cand = make_report("a", {{"x", "lower_is_better", 10, 0.1}});
  const auto r = compare_reports(base, cand, kDefaults);
  EXPECT_FALSE(r.passed(kDefaults));
}

TEST(BenchGate, IncomparableDocumentsThrow) {
  const auto base = make_report("a", {{"x", "higher_is_better", 10, 0.1}});
  const auto other = make_report("b", {{"x", "higher_is_better", 10, 0.1}});
  EXPECT_THROW((void)compare_reports(base, other, kDefaults),
               std::runtime_error);
  json::object bogus;
  bogus.emplace_back("schema", "not.a.bench/9");
  EXPECT_THROW((void)compare_reports(json::value(bogus), base, kDefaults),
               std::runtime_error);
}

TEST(BenchGate, CustomThresholdsAreHonored) {
  gate_options strict;
  strict.rel_threshold = 0.01;
  strict.mad_k = 0.0;
  const auto base = make_report("a", {{"tput", "higher_is_better", 100, 1}});
  const auto cand = make_report("a", {{"tput", "higher_is_better", 98, 1}});
  EXPECT_FALSE(compare_reports(base, cand, strict).passed(strict));
  gate_options loose;
  loose.rel_threshold = 0.5;
  const auto big_drop =
      make_report("a", {{"tput", "higher_is_better", 60, 1}});
  EXPECT_TRUE(compare_reports(base, big_drop, loose).passed(loose));
}

}  // namespace
