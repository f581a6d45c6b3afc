// Event intake robustness: malformed CSV lines are rejected with their
// 1-based line number (or skipped-and-counted), EventLoop admission drops
// and counts events past the per-epoch queue_capacity or the serve horizon
// and handles stale events per the out-of-order policy, and a stalled
// export sink degrades to bounded buffering and counted drops while window
// accounting stays intact.
#include "serve/event_loop.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "obs/metrics.hpp"
#include "serve/event_source.hpp"
#include "serve/export.hpp"

namespace carbonedge::serve {
namespace {

std::string csv_with(const std::string& data_lines) {
  return std::string(CsvEventSource::kCsvHeader) + "\n" + data_lines;
}

// ------------------------------------------------------------ CSV source --

TEST(CsvEventSource, ParsesArrivalAndFailureLines) {
  std::istringstream in(csv_with("0.5,arrival,2,ResNet50,4.5,25,12,400,3,,\n"
                                 "5.0,failure,,,,,,,,1,7\n"));
  CsvEventSource source(in);

  const auto arrival = source.next();
  ASSERT_TRUE(arrival.has_value());
  EXPECT_EQ(arrival->type, EventType::kArrival);
  EXPECT_DOUBLE_EQ(arrival->time_hours, 0.5);
  EXPECT_EQ(arrival->app.model, sim::ModelType::kResNet50);
  EXPECT_EQ(arrival->app.origin_site, 2u);
  EXPECT_DOUBLE_EQ(arrival->app.rps, 4.5);
  EXPECT_DOUBLE_EQ(arrival->app.latency_limit_rtt_ms, 25.0);
  EXPECT_EQ(arrival->app.remaining_epochs, 12u);
  EXPECT_DOUBLE_EQ(arrival->app.state_size_mb, 400.0);
  EXPECT_EQ(arrival->app.max_defer_epochs, 3u);

  const auto failure = source.next();
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->type, EventType::kFailure);
  EXPECT_EQ(failure->failure.site, 1u);
  EXPECT_EQ(failure->failure.server_id, 7u);

  EXPECT_FALSE(source.next().has_value());
  EXPECT_EQ(source.rejected_lines(), 0u);
}

TEST(CsvEventSource, RejectsMalformedLinesWithLineNumbers) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"not,enough,cells", "line 2"},
      {"abc,arrival,0,ResNet50,4,25,12,400,0,,", "line 2"},
      {"1.0,teleport,0,ResNet50,4,25,12,400,0,,", "line 2"},
      {"1.0,arrival,0,GPT9,4,25,12,400,0,,", "line 2"},
      {"1.0,arrival,0,ResNet50,-4,25,12,400,0,,", "line 2"},
      {"1.0,arrival,0,ResNet50,nan,25,12,400,0,,", "line 2"},
      {"1.0,failure,,,,,,,,-1,0", "line 2"},
      // Counts past their field's range are rejected, not wrapped.
      {"1.0,arrival,0,ResNet50,4,25,4294967297,400,0,,", "line 2"},
      {"1.0,failure,,,,,,,,0,4294967296", "line 2"},
  };
  for (const auto& [line, expected] : cases) {
    SCOPED_TRACE(line);
    std::istringstream in(csv_with(line + "\n"));
    CsvEventSource source(in);
    try {
      (void)source.next();
      FAIL() << "expected rejection";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find(expected), std::string::npos)
          << error.what();
    }
  }
}

TEST(CsvEventSource, SecondBadLineReportsItsOwnNumber) {
  std::istringstream in(csv_with("0.5,arrival,0,ResNet50,4,25,12,400,0,,\n"
                                 "bogus\n"));
  CsvEventSource source(in);
  ASSERT_TRUE(source.next().has_value());
  try {
    (void)source.next();
    FAIL() << "expected rejection";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("line 3"), std::string::npos) << error.what();
  }
}

TEST(CsvEventSource, MissingHeaderIsLineOne) {
  std::istringstream in("0.5,arrival,0,ResNet50,4,25,12,400,0,,\n");
  CsvEventSource source(in);
  try {
    (void)source.next();
    FAIL() << "expected rejection";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("line 1"), std::string::npos) << error.what();
  }
}

TEST(CsvEventSource, SkipPolicyCountsAndContinues) {
  std::istringstream in(csv_with("garbage\n"
                                 "0.5,arrival,0,ResNet50,4,25,12,400,0,,\n"
                                 "1.0,arrival,0,ResNet50,zzz,25,12,400,0,,\n"
                                 "2.0,failure,,,,,,,,0,0\n"));
  CsvEventSource source(in, CsvEventSource::ErrorPolicy::kSkip);
  const auto first = source.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->type, EventType::kArrival);
  const auto second = source.next();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->type, EventType::kFailure);
  EXPECT_FALSE(source.next().has_value());
  EXPECT_EQ(source.rejected_lines(), 2u);
  EXPECT_NE(source.last_error().find("line 4"), std::string::npos) << source.last_error();
}

// ------------------------------------------------------------- admission --

// Serves `data_lines` (CSV, after the header) against a one-server-per-site
// Florida deployment for `epochs` one-hour epochs.
ServeResult serve_csv(const std::string& data_lines, std::size_t queue_capacity,
                      OutOfOrderPolicy out_of_order, std::uint32_t epochs = 2) {
  const geo::Region region = geo::florida_region();
  carbon::CarbonIntensityService service;
  service.add_region(region);
  const core::EdgeSimulation simulation(
      sim::make_uniform_cluster(region, 1, sim::DeviceType::kA2), service);
  ServeConfig config;
  config.sim.policy = core::PolicyConfig::carbon_edge();
  config.sim.epochs = epochs;
  config.queue_capacity = queue_capacity;
  config.out_of_order = out_of_order;
  std::istringstream in(csv_with(data_lines));
  CsvEventSource source(in);
  return EventLoop(simulation, config).run(source);
}

std::string arrivals_at(double time_hours, int count) {
  std::string lines;
  for (int i = 0; i < count; ++i) {
    lines += std::to_string(time_hours) + ",arrival,0,ResNet50,4,25,4,200,0,,\n";
  }
  return lines;
}

TEST(EventLoop, OverflowPastQueueCapacityDropsAndCountsPerEpoch) {
  // Ten events in epoch 0 against a cap of four, then two in epoch 1: the
  // cap applies per epoch, and the source is always drained.
  const ServeResult result = serve_csv(arrivals_at(0.5, 10) + arrivals_at(1.5, 2),
                                       /*queue_capacity=*/4, OutOfOrderPolicy::kClamp);
  EXPECT_EQ(result.ingest.accepted, 6u);
  EXPECT_EQ(result.ingest.dropped_overflow, 6u);
  EXPECT_EQ(result.ingest.dropped(), 6u);
  ASSERT_EQ(result.windows.size(), 2u);
  EXPECT_EQ(result.windows[0].arrivals, 4u);
  EXPECT_EQ(result.windows[1].arrivals, 2u);
  EXPECT_EQ(result.windows[1].ingest_dropped, 6u);  // cumulative
}

// Out of order: the failure stamped 0.7 h is read during epoch 1, so it
// is stale.
constexpr const char kStaleFailure[] = "0.5,arrival,0,ResNet50,4,25,4,200,0,,\n"
                                      "1.5,arrival,1,ResNet50,4,25,4,200,0,,\n"
                                      "0.7,failure,,,,,,,,1,0\n"
                                      "1.6,arrival,2,ResNet50,4,25,4,200,0,,\n";

TEST(EventLoop, DropPolicyRejectsStaleEvents) {
  const ServeResult result = serve_csv(kStaleFailure, 16, OutOfOrderPolicy::kDrop);
  EXPECT_EQ(result.ingest.accepted, 3u);
  EXPECT_EQ(result.ingest.dropped_stale, 1u);
  EXPECT_EQ(result.ingest.clamped_stale, 0u);
  EXPECT_EQ(result.sim.server_failures, 0u);
}

TEST(EventLoop, ClampPolicyAdmitsStaleEventsIntoTheOpenEpoch) {
  const ServeResult result = serve_csv(kStaleFailure, 16, OutOfOrderPolicy::kClamp);
  EXPECT_EQ(result.ingest.accepted, 4u);
  EXPECT_EQ(result.ingest.clamped_stale, 1u);
  EXPECT_EQ(result.ingest.dropped(), 0u);
  ASSERT_EQ(result.windows.size(), 2u);
  EXPECT_EQ(result.windows[1].failures, 1u);  // the crash lands in epoch 1
  EXPECT_EQ(result.sim.server_failures, 1u);
}

TEST(EventLoop, EventsPastTheHorizonAreDroppedAndCounted) {
  // Three one-hour epochs end at 3 h: the 10 h arrival is carried out of
  // the last epoch and the 11 h one is still in the source. Both are
  // counted, in the stats and in the registry.
  obs::Counter& counter = obs::Registry::global().counter(
      "serve.ingest.dropped_horizon", "", obs::View::kDeterministic);
  const std::uint64_t before = counter.value();
  const ServeResult result =
      serve_csv(arrivals_at(0.5, 1) + arrivals_at(10.0, 1) + arrivals_at(11.0, 1), 16,
                OutOfOrderPolicy::kClamp, /*epochs=*/3);
  EXPECT_EQ(result.ingest.accepted, 1u);
  EXPECT_EQ(result.ingest.dropped_horizon, 2u);
  EXPECT_EQ(result.ingest.dropped(), 2u);
  EXPECT_EQ(counter.value() - before, 2u);
}

// -------------------------------------------------------- export degrade --

/// A sink that can be stalled and recovered on demand.
class FlakySink final : public ByteSink {
 public:
  bool accepting = true;
  std::vector<std::string> lines;
  [[nodiscard]] bool write(std::string_view line) override {
    if (!accepting) return false;
    lines.emplace_back(line);
    return true;
  }
};

WindowStats window_numbered(std::uint32_t index) {
  WindowStats w;
  w.window = index;
  w.epochs = 1;
  return w;
}

TEST(WindowCsvExporter, StallBuffersInOrderThenDropsBeyondBound) {
  FlakySink sink;
  WindowCsvExporter exporter(sink, /*max_buffered=*/2);

  exporter.export_window(window_numbered(0));
  ASSERT_EQ(sink.lines.size(), 2u);  // header + row 0
  EXPECT_EQ(sink.lines[0], WindowCsvExporter::header_line());

  sink.accepting = false;
  exporter.export_window(window_numbered(1));
  exporter.export_window(window_numbered(2));
  exporter.export_window(window_numbered(3));  // beyond the buffer: dropped
  EXPECT_EQ(exporter.stats().lines_dropped, 1u);
  EXPECT_EQ(exporter.stats().currently_buffered, 2u);
  EXPECT_EQ(exporter.stats().buffered_peak, 2u);

  sink.accepting = true;
  exporter.export_window(window_numbered(4));
  // Recovery delivers the buffered rows first, in window order; row 3 is
  // the only loss.
  ASSERT_EQ(sink.lines.size(), 5u);
  EXPECT_EQ(sink.lines[2].substr(0, 2), "1,");
  EXPECT_EQ(sink.lines[3].substr(0, 2), "2,");
  EXPECT_EQ(sink.lines[4].substr(0, 2), "4,");
  EXPECT_EQ(exporter.stats().currently_buffered, 0u);
  EXPECT_EQ(exporter.stats().lines_written, 5u);
}

TEST(WindowCsvExporter, FlushRetriesAfterRecovery) {
  FlakySink sink;
  WindowCsvExporter exporter(sink, /*max_buffered=*/4);
  sink.accepting = false;
  exporter.export_window(window_numbered(0));
  EXPECT_EQ(exporter.stats().lines_written, 0u);
  sink.accepting = true;
  exporter.flush();
  EXPECT_EQ(exporter.stats().lines_written, 2u);  // header + row
  EXPECT_EQ(exporter.stats().currently_buffered, 0u);
}

TEST(EventLoop, StalledSinkLosesVisibilityNeverAccounting) {
  const geo::Region region = geo::florida_region();
  carbon::CarbonIntensityService service;
  service.add_region(region);
  core::EdgeSimulation simulation(
      sim::make_uniform_cluster(region, 1, sim::DeviceType::kA2), service);

  core::SimulationConfig config;
  config.policy = core::PolicyConfig::carbon_edge();
  config.epochs = 16;
  config.workload.arrivals_per_site = 1.0;
  config.workload.model_weights = {1.0, 1.0, 1.0, 0.0};
  config.workload.seed = 42;

  ServeConfig serve_config;
  serve_config.sim = config;
  serve_config.window_epochs = 2;

  // Baseline: same replay with no exporter at all.
  TraceReplaySource baseline_source(config.workload, simulation.pristine_cluster(),
                                    config.epochs, config.epoch_hours);
  EventLoop baseline_loop(simulation, serve_config);
  const ServeResult baseline = baseline_loop.run(baseline_source);

  // Stalled run: the sink refuses everything, the buffer holds one line.
  FlakySink sink;
  sink.accepting = false;
  WindowCsvExporter exporter(sink, /*max_buffered=*/1);
  TraceReplaySource source(config.workload, simulation.pristine_cluster(), config.epochs,
                           config.epoch_hours);
  EventLoop loop(simulation, serve_config);
  const ServeResult stalled = loop.run(source, &exporter);

  EXPECT_EQ(stalled.exports.lines_written, 0u);
  EXPECT_GT(stalled.exports.lines_dropped, 0u);
  EXPECT_EQ(stalled.exports.currently_buffered, 1u);

  // Window accounting is identical to the exporter-free run.
  ASSERT_EQ(stalled.windows.size(), baseline.windows.size());
  for (std::size_t i = 0; i < stalled.windows.size(); ++i) {
    EXPECT_EQ(stalled.windows[i].arrivals, baseline.windows[i].arrivals);
    EXPECT_EQ(stalled.windows[i].apps_placed, baseline.windows[i].apps_placed);
    EXPECT_EQ(stalled.windows[i].carbon_g, baseline.windows[i].carbon_g);
    EXPECT_EQ(stalled.windows[i].energy_wh, baseline.windows[i].energy_wh);
  }
  EXPECT_EQ(stalled.sim.apps_placed, baseline.sim.apps_placed);
  EXPECT_EQ(stalled.sim.telemetry.total_carbon_g(),
            baseline.sim.telemetry.total_carbon_g());
}

}  // namespace
}  // namespace carbonedge::serve
