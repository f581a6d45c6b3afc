// The observability layer: registry semantics (register-once handles, kind
// safety), concurrency exactness (the TSan hammer — counters and histograms
// must lose no increments), span math under a fake clock, exporter goldens,
// the deterministic/timing view split, and the end-to-end contract the CI
// gate enforces: the deterministic view's per-run deltas are identical no
// matter how many worker lanes execute the workload.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/policy.hpp"
#include "core/simulation.hpp"
#include "geo/region.hpp"
#include "obs/clock.hpp"
#include "obs/export.hpp"
#include "obs/span.hpp"
#include "runner/scenario_grid.hpp"
#include "runner/scenario_runner.hpp"
#include "util/parallelism.hpp"

namespace carbonedge::obs {
namespace {

// ---------------------------------------------------------------- registry --

TEST(Registry, RegisterOnceReturnsTheSameHandle) {
  Registry reg;
  Counter& a = reg.counter("x.calls", "first registration wins", View::kDeterministic);
  Counter& b = reg.counter("x.calls", "ignored on re-registration", View::kTiming);
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_EQ(reg.size(), 1u);

  // The recorded help/view are the first call's.
  reg.visit([](const MetricRef& m) {
    EXPECT_EQ(m.help, "first registration wins");
    EXPECT_EQ(m.view, View::kDeterministic);
  });
}

TEST(Registry, KindMismatchThrowsInsteadOfAliasing) {
  Registry reg;
  (void)reg.counter("dual", "a counter", View::kDeterministic);
  EXPECT_THROW((void)reg.gauge("dual", "now a gauge?", View::kDeterministic),
               std::logic_error);
  EXPECT_THROW(
      (void)reg.histogram("dual", "now a histogram?", View::kDeterministic, {1.0}),
      std::logic_error);
}

TEST(Registry, HistogramBoundsMustBeStrictlyIncreasingAndStable) {
  Registry reg;
  EXPECT_THROW((void)reg.histogram("h.empty", "", View::kTiming, {}), std::logic_error);
  EXPECT_THROW((void)reg.histogram("h.dup", "", View::kTiming, {1.0, 1.0}),
               std::logic_error);
  Histogram& h = reg.histogram("h.ok", "", View::kTiming, {1.0, 2.0});
  // Re-registration with different bounds would silently split the series.
  EXPECT_THROW((void)reg.histogram("h.ok", "", View::kTiming, {1.0, 3.0}),
               std::logic_error);
  EXPECT_EQ(&h, &reg.histogram("h.ok", "", View::kTiming, {1.0, 2.0}));
}

TEST(Registry, VisitEnumeratesInNameOrder) {
  Registry reg;
  (void)reg.counter("zebra", "", View::kDeterministic);
  (void)reg.counter("alpha", "", View::kDeterministic);
  (void)reg.gauge("mid", "", View::kTiming);
  std::vector<std::string> names;
  reg.visit([&](const MetricRef& m) { names.emplace_back(m.name); });
  EXPECT_EQ(names, (std::vector<std::string>{"alpha", "mid", "zebra"}));
}

TEST(Histogram, ObserveUsesLeSemanticsWithOverflowBucket) {
  Registry reg;
  Histogram& h = reg.histogram("le", "", View::kDeterministic, {1.0, 4.0, 16.0});
  for (const double v : {0.5, 1.0, 2.0, 4.0, 5.0, 100.0}) h.observe(v);
  EXPECT_EQ(h.bucket(0), 2u);  // 0.5, 1.0 (le: boundary lands low)
  EXPECT_EQ(h.bucket(1), 2u);  // 2.0, 4.0
  EXPECT_EQ(h.bucket(2), 1u);  // 5.0
  EXPECT_EQ(h.bucket(3), 1u);  // 100.0 overflows
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.sum(), 112.5);
}

TEST(Gauge, SetThenAddAccumulates) {
  Registry reg;
  Gauge& g = reg.gauge("g", "", View::kTiming);
  g.set(3.0);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  g.set(0.0);
  g.add(1.5);
  g.add(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
}

// ------------------------------------------------------------- TSan hammer --

TEST(RegistryConcurrency, HammeredHandlesLoseNothing) {
  // 8 threads x 20k updates through cached handles; also hammers lazy
  // registration of the same names from every thread. Run under TSan this
  // is the data-race gate for the whole hot path; the sums must be exact
  // regardless.
  Registry reg;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg, t] {
      Counter& c = reg.counter("hammer.count", "", View::kDeterministic);
      Gauge& g = reg.gauge("hammer.total", "", View::kTiming);
      Histogram& h =
          reg.histogram("hammer.hist", "", View::kDeterministic, {8.0, 64.0, 512.0});
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        c.add(1);
        g.add(1.0);
        h.observe(static_cast<double>(i % 1000));
      }
    });
  }
  for (std::thread& w : workers) w.join();

  Counter& c = reg.counter("hammer.count", "", View::kDeterministic);
  Histogram& h = reg.histogram("hammer.hist", "", View::kDeterministic, {8.0, 64.0, 512.0});
  EXPECT_EQ(c.value(), kThreads * kPerThread);
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  EXPECT_EQ(h.bucket(0) + h.bucket(1) + h.bucket(2) + h.bucket(3), h.count());
  // Exact commutative sum: every thread observed the same integer multiset.
  EXPECT_DOUBLE_EQ(h.sum(), kThreads * kPerThread * 499.5);
  // Integer-valued adds are exact, so the CAS loop must have lost none.
  EXPECT_DOUBLE_EQ(reg.gauge("hammer.total", "", View::kTiming).value(),
                   static_cast<double>(kThreads * kPerThread));
}

// -------------------------------------------------------- spans, fake clock --

class FakeClock : public ClockSource {
 public:
  std::uint64_t t = 0;
  [[nodiscard]] std::uint64_t now_ns() override { return t; }
};

/// Installs a fake process clock for the test's scope and restores the
/// previous source on exit, so neighboring tests keep real time.
class ScopedFakeClock {
 public:
  ScopedFakeClock() : previous_(exchange_clock_source(&clock_)) {}
  ~ScopedFakeClock() { exchange_clock_source(previous_); }
  FakeClock& clock() noexcept { return clock_; }

 private:
  FakeClock clock_;
  ClockSource* previous_;
};

TEST(SpanTest, NestedSpansSplitSelfAndTotalExactly) {
  ScopedFakeClock fake;
  Registry reg;
  const Phase outer("test.outer", reg);
  const Phase inner("test.inner", reg);
  {
    const Span o(outer);  // opens at t=0
    fake.clock().t = 100;
    {
      const Span i(inner);  // opens at t=100
      fake.clock().t = 400;
    }  // inner: total 300, self 300
    {
      const Span i2(inner);  // opens at t=400
      fake.clock().t = 600;
    }  // inner: +200 -> totals 500
    fake.clock().t = 1000;
  }  // outer: total 1000, self 1000 - 500

  EXPECT_EQ(outer.calls().value(), 1u);
  EXPECT_EQ(outer.total_ns().value(), 1000u);
  EXPECT_EQ(outer.self_ns().value(), 500u);
  EXPECT_EQ(inner.calls().value(), 2u);
  EXPECT_EQ(inner.total_ns().value(), 500u);
  EXPECT_EQ(inner.self_ns().value(), 500u);
}

TEST(SpanTest, BackwardsClockClampsToZeroInsteadOfWrapping) {
  ScopedFakeClock fake;
  Registry reg;
  const Phase phase("test.backwards", reg);
  fake.clock().t = 500;
  {
    const Span s(phase);
    fake.clock().t = 100;  // a (buggy or fake) source running backwards
  }
  EXPECT_EQ(phase.calls().value(), 1u);
  EXPECT_EQ(phase.total_ns().value(), 0u);  // clamped, not ~2^64
}

TEST(SpanTest, PhaseRegistersCallsDeterministicAndTimesTiming) {
  Registry reg;
  const Phase phase("test.views", reg);
  std::map<std::string, View> views;
  reg.visit([&](const MetricRef& m) { views.emplace(std::string(m.name), m.view); });
  EXPECT_EQ(views.at("span.test.views.calls"), View::kDeterministic);
  EXPECT_EQ(views.at("span.test.views.total_ns"), View::kTiming);
  EXPECT_EQ(views.at("span.test.views.self_ns"), View::kTiming);
}

// --------------------------------------------------------------- exporters --

TEST(Export, JsonSnapshotSplitsViewsAndDeterministicJsonDropsTiming) {
  Registry reg;
  reg.counter("det.count", "", View::kDeterministic).add(7);
  reg.counter("timing.ns", "", View::kTiming).add(12345);
  reg.histogram("det.hist", "", View::kDeterministic, {1.0, 2.0}).observe(1.5);

  const std::string full = snapshot_json(reg);
  EXPECT_EQ(full,
            R"({"deterministic":{"det.count":7,"det.hist":{"count":1,"sum":1.5,)"
            R"("buckets":[0,1,0],"bounds":[1,2]}},"timing":{"timing.ns":12345}})");

  const std::string det = deterministic_json(reg);
  EXPECT_EQ(det.find("timing.ns"), std::string::npos);
  // The same object, embedded right after the "deterministic" key.
  EXPECT_EQ(full.compare(17, det.size(), det), 0);
}

TEST(Export, PrometheusGoldenWithHostileHelpText) {
  Registry reg;
  reg.counter("carbon.trace-cache hits", "line one\nline \\two", View::kDeterministic)
      .add(2);
  reg.gauge("load.now", "plain", View::kTiming).set(1.5);
  Histogram& h = reg.histogram("solve.apps", "per solve", View::kDeterministic, {2.0, 8.0});
  h.observe(1.0);
  h.observe(4.0);
  h.observe(100.0);

  EXPECT_EQ(snapshot_prometheus(reg),
            "# HELP carbonedge_carbon_trace_cache_hits line one\\nline \\\\two\n"
            "# TYPE carbonedge_carbon_trace_cache_hits counter\n"
            "carbonedge_carbon_trace_cache_hits{view=\"deterministic\"} 2\n"
            "# HELP carbonedge_load_now plain\n"
            "# TYPE carbonedge_load_now gauge\n"
            "carbonedge_load_now{view=\"timing\"} 1.5\n"
            "# HELP carbonedge_solve_apps per solve\n"
            "# TYPE carbonedge_solve_apps histogram\n"
            "carbonedge_solve_apps_bucket{view=\"deterministic\",le=\"2\"} 1\n"
            "carbonedge_solve_apps_bucket{view=\"deterministic\",le=\"8\"} 2\n"
            "carbonedge_solve_apps_bucket{view=\"deterministic\",le=\"+Inf\"} 3\n"
            "carbonedge_solve_apps_sum{view=\"deterministic\"} 105\n"
            "carbonedge_solve_apps_count{view=\"deterministic\"} 3\n");
}

// ------------------------------------------- the thread-count determinism --

/// Counter values of the global registry's deterministic view (counters and
/// histogram buckets; sampled gauges excluded — they are refreshed by the
/// exporters, not the workload).
std::map<std::string, std::uint64_t> deterministic_counters() {
  std::map<std::string, std::uint64_t> values;
  Registry::global().visit([&](const MetricRef& m) {
    if (m.view != View::kDeterministic) return;
    if (m.kind == MetricKind::kCounter) {
      values[std::string(m.name)] = m.counter->value();
    } else if (m.kind == MetricKind::kHistogram) {
      for (std::size_t i = 0; i <= m.histogram->bounds().size(); ++i) {
        values[std::string(m.name) + "#" + std::to_string(i)] = m.histogram->bucket(i);
      }
    }
  });
  return values;
}

std::map<std::string, std::uint64_t> delta(const std::map<std::string, std::uint64_t>& before,
                                           const std::map<std::string, std::uint64_t>& after) {
  std::map<std::string, std::uint64_t> d;
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    d[name] = value - (it == before.end() ? 0 : it->second);
  }
  return d;
}

TEST(DeterministicView, IdenticalDeltasAcrossWorkerCounts) {
  // The in-process version of the CI gate: run the same sweep serial and
  // wide and require identical deterministic-view deltas. The first run
  // also warms the process trace cache so both measured runs see the same
  // cache state (syntheses vs memory hits is workload state, not thread
  // schedule).
  core::SimulationConfig config;
  config.epochs = 12;
  config.workload.arrivals_per_site = 1.0;
  config.workload.model_weights = {1.0, 1.0, 1.0, 0.0};
  runner::ScenarioGrid grid(config);
  grid.with_policies({core::PolicyConfig::latency_aware(), core::PolicyConfig::carbon_edge()})
      .with_workload_seeds({3, 9});

  util::ParallelismBudget serial_budget(1);
  util::ParallelismBudget wide_budget(4);
  const runner::ScenarioRunner serial_runner(
      runner::ScenarioRunnerOptions{.budget = &serial_budget});
  const runner::ScenarioRunner wide_runner(runner::ScenarioRunnerOptions{.budget = &wide_budget});
  (void)serial_runner.run(grid);  // warm

  const auto before_serial = deterministic_counters();
  (void)serial_runner.run(grid);
  const auto after_serial = deterministic_counters();
  (void)wide_runner.run(grid);
  const auto after_parallel = deterministic_counters();

  const auto serial = delta(before_serial, after_serial);
  const auto parallel = delta(after_serial, after_parallel);
  EXPECT_EQ(serial, parallel);
  // And the runs did real work — the invariant is not vacuously true.
  EXPECT_GT(serial.at("sim.apps_placed"), 0u);
  EXPECT_GT(serial.at("solver.solves"), 0u);
}

// -------------------------------------------------- summarize store health --

class StubCache : public runner::CellCache {
 public:
  explicit StubCache(runner::CellCacheHealth health) : health_(health) {}
  [[nodiscard]] std::optional<core::SimulationResult> load(const runner::Scenario&) override {
    return std::nullopt;
  }
  void save(const runner::Scenario&, const core::SimulationResult&) override {}
  [[nodiscard]] runner::CellCacheHealth health() const override { return health_; }

 private:
  runner::CellCacheHealth health_;
};

TEST(SummarizeHealth, StoreColumnDistinguishesHealthyDegradedAndStoreless) {
  core::SimulationConfig config;
  config.epochs = 4;
  config.workload.arrivals_per_site = 0.5;
  config.workload.model_weights = {1.0, 0.0, 0.0, 0.0};
  runner::ScenarioGrid grid(config);
  grid.with_regions({geo::florida_region()});
  const auto outcomes = runner::ScenarioRunner().run(grid);

  const auto render = [&](const runner::CellCache* cache) {
    std::ostringstream out;
    runner::ScenarioRunner::summarize(outcomes, cache).print(out);
    return out.str();
  };

  const std::string storeless = render(nullptr);
  EXPECT_NE(storeless.find("Store"), std::string::npos);

  const StubCache healthy({/*stores=*/3, /*write_failures=*/0});
  EXPECT_NE(render(&healthy).find("ok"), std::string::npos);

  const StubCache degraded({/*stores=*/1, /*write_failures=*/2});
  EXPECT_NE(render(&degraded).find("FAIL:2w"), std::string::npos);

  // The no-store overload (what the determinism gate diffs) is untouched:
  // no Store column unless a caller asks for one.
  EXPECT_EQ(runner::ScenarioRunner::summarize(outcomes).to_string().find("Store"),
            std::string::npos);
}

}  // namespace
}  // namespace carbonedge::obs
