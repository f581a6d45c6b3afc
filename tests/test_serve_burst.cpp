// EMA-trigger semantics under flash-crowd load: a sustained threshold
// crossing fires the re-optimization trigger exactly once (hysteresis — no
// re-trigger storms while the signal hovers above the line), the trigger
// re-arms only after the signal falls below the rearm level, and a burst
// that stays within the queue bound loses zero events.
#include "serve/event_loop.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <vector>

#include "serve/event_source.hpp"

namespace carbonedge::serve {
namespace {

// --------------------------------------------------- trigger unit tests --

TEST(ThresholdTrigger, FiresExactlyOncePerSustainedCrossing) {
  ThresholdTrigger trigger(/*fire=*/100.0, /*rearm=*/60.0);
  EXPECT_FALSE(trigger.update(50.0));
  EXPECT_TRUE(trigger.update(120.0));   // armed crossing
  EXPECT_FALSE(trigger.update(150.0));  // still above: no storm
  EXPECT_FALSE(trigger.update(110.0));
  EXPECT_FALSE(trigger.update(80.0));   // inside the hysteresis band: stays disarmed
  EXPECT_FALSE(trigger.update(120.0));  // re-crossing without re-arm: nothing
  EXPECT_FALSE(trigger.update(50.0));   // below rearm: re-arms
  EXPECT_TRUE(trigger.update(130.0));   // second sustained crossing
  EXPECT_EQ(trigger.fires(), 2u);
}

TEST(ThresholdTrigger, ExactThresholdDoesNotFire) {
  ThresholdTrigger trigger(/*fire=*/100.0, /*rearm=*/100.0);
  EXPECT_FALSE(trigger.update(100.0));  // strict crossing required
  EXPECT_TRUE(trigger.update(100.5));
  EXPECT_FALSE(trigger.update(100.0));  // strict re-arm required
  EXPECT_FALSE(trigger.armed());
}

TEST(ThresholdTrigger, RejectsInvertedBand) {
  EXPECT_THROW(ThresholdTrigger(10.0, 20.0), std::invalid_argument);
}

TEST(Ema, SeedsWithFirstObservationThenSmooths) {
  Ema ema(0.5);
  EXPECT_FALSE(ema.primed());
  EXPECT_DOUBLE_EQ(ema.update(10.0), 10.0);  // seeded, not pulled toward zero
  EXPECT_DOUBLE_EQ(ema.update(20.0), 15.0);
  EXPECT_DOUBLE_EQ(ema.update(20.0), 17.5);
  EXPECT_THROW(Ema(0.0), std::invalid_argument);
  EXPECT_THROW(Ema(1.5), std::invalid_argument);
}

// ------------------------------------------------------ burst scenarios --

/// One phase of elevated arrival volume. A step profile is one long phase;
/// a spike train is several short ones.
struct BurstPhase {
  std::uint32_t start_epoch = 0;
  std::uint32_t length_epochs = 1;
  double arrivals_per_epoch = 0.0;  // added on top of the base rate
};

/// Deterministic flash-crowd arrivals: `base_per_epoch` applications every
/// epoch, plus each active phase's rate. Origins cycle the sites; rps,
/// lifetime, and SLO come from the template app, so the load signal is
/// fully controlled, which is what the EMA-threshold tests need.
class BurstSource final : public EventSource {
 public:
  BurstSource(std::size_t sites, std::uint32_t epochs, double epoch_hours,
              double base_per_epoch, std::vector<BurstPhase> phases,
              sim::Application app_template)
      : sites_(sites),
        epochs_(epochs),
        epoch_hours_(epoch_hours),
        base_per_epoch_(base_per_epoch),
        phases_(std::move(phases)),
        template_(app_template) {}

  [[nodiscard]] std::optional<Event> next() override {
    while (emitted_this_epoch_ >= count_this_epoch_) {
      if (epoch_ >= epochs_) return std::nullopt;
      double rate = base_per_epoch_;
      for (const BurstPhase& phase : phases_) {
        if (epoch_ >= phase.start_epoch && epoch_ < phase.start_epoch + phase.length_epochs) {
          rate += phase.arrivals_per_epoch;
        }
      }
      count_this_epoch_ = static_cast<std::uint32_t>(std::llround(rate));
      emitted_this_epoch_ = 0;
      ++epoch_;
    }
    ++emitted_this_epoch_;
    sim::Application app = template_;
    app.id = next_id_++;
    app.origin_site = next_site_;
    next_site_ = (next_site_ + 1) % sites_;
    const double time = static_cast<double>(epoch_ - 1) * epoch_hours_;
    return make_arrival(time, app);
  }

 private:
  std::size_t sites_;
  std::uint32_t epochs_;
  double epoch_hours_;
  double base_per_epoch_;
  std::vector<BurstPhase> phases_;
  sim::Application template_;
  std::uint32_t epoch_ = 0;
  std::uint32_t emitted_this_epoch_ = 0;
  std::uint32_t count_this_epoch_ = 0;
  sim::AppId next_id_ = 0;
  std::size_t next_site_ = 0;
};

sim::Application burst_app() {
  sim::Application app;
  app.model = sim::ModelType::kEfficientNetB0;
  app.rps = 5.0;
  app.latency_limit_rtt_ms = 25.0;
  app.remaining_epochs = 4;
  app.state_size_mb = 200.0;
  return app;
}

struct BurstRun {
  ServeResult result;
  std::uint64_t events_emitted = 0;
};

BurstRun run_burst(std::size_t queue_capacity) {
  const geo::Region region = geo::florida_region();
  carbon::CarbonIntensityService service;
  service.add_region(region);
  // Four servers per site: enough headroom that burst arrivals actually
  // land and drive the hosted-load signal up.
  core::EdgeSimulation simulation(
      sim::make_uniform_cluster(region, 4, sim::DeviceType::kA2), service);
  const std::size_t sites = simulation.pristine_cluster().sites().size();

  core::SimulationConfig config;
  config.policy = core::PolicyConfig::carbon_edge();
  config.epochs = 36;
  config.workload.arrivals_per_site = 0.0;  // the burst source is the only feed

  ServeConfig serve_config;
  serve_config.sim = config;
  serve_config.window_epochs = 2;
  serve_config.queue_capacity = queue_capacity;
  serve_config.ema_reopt.enabled = true;
  serve_config.ema_reopt.alpha = 0.5;
  serve_config.ema_reopt.load_rps.enabled = true;
  serve_config.ema_reopt.load_rps.fire = 80.0;
  serve_config.ema_reopt.load_rps.rearm = 50.0;

  // Two flash crowds over a light base load; each decays fully (app
  // lifetime 4 epochs) before the next, so the EMA falls below the rearm
  // level between them.
  std::vector<BurstPhase> phases = {
      BurstPhase{/*start_epoch=*/8, /*length_epochs=*/4, /*arrivals_per_epoch=*/12.0},
      BurstPhase{/*start_epoch=*/22, /*length_epochs=*/4, /*arrivals_per_epoch=*/12.0},
  };
  BurstSource source(sites, config.epochs, config.epoch_hours, /*base_per_epoch=*/1.0,
                     phases, burst_app());

  EventLoop loop(simulation, serve_config);
  BurstRun run;
  run.result = loop.run(source);
  run.events_emitted = 36 * 1 + 2 * 4 * 12;  // base + both bursts
  return run;
}

TEST(ServeBurst, EmaTriggerFiresOncePerBurstNoStorms) {
  const BurstRun run = run_burst(/*queue_capacity=*/65536);

  // Two sustained crossings, two fires — not one per above-threshold
  // window, and nothing while hovering inside the hysteresis band.
  EXPECT_EQ(run.result.reopt_fires, 2u);
  std::uint32_t fired_windows = 0;
  for (const WindowStats& w : run.result.windows) {
    if (w.reopt_fired) ++fired_windows;
  }
  EXPECT_EQ(fired_windows, 2u);

  // The load EMA actually saw the bursts.
  double peak_ema = 0.0;
  for (const WindowStats& w : run.result.windows) {
    peak_ema = std::max(peak_ema, w.ema_load_rps);
  }
  EXPECT_GT(peak_ema, 80.0);
}

TEST(ServeBurst, ZeroDropsBelowQueueBound) {
  const BurstRun run = run_burst(/*queue_capacity=*/65536);
  EXPECT_EQ(run.result.ingest.dropped(), 0u);
  EXPECT_EQ(run.result.ingest.accepted, run.events_emitted);
  std::uint64_t window_arrivals = 0;
  for (const WindowStats& w : run.result.windows) window_arrivals += w.arrivals;
  EXPECT_EQ(window_arrivals, run.events_emitted);
}

TEST(ServeBurst, OverflowCountsButNeverStallsTheLoop) {
  // A queue smaller than one burst epoch's batch: events are dropped and
  // counted, the loop still runs to completion, and accounting reconciles.
  const BurstRun run = run_burst(/*queue_capacity=*/8);
  EXPECT_GT(run.result.ingest.dropped_overflow, 0u);
  EXPECT_EQ(run.result.ingest.accepted + run.result.ingest.dropped_overflow,
            run.events_emitted);
  EXPECT_EQ(run.result.windows.back().ingest_dropped, run.result.ingest.dropped());
  std::uint64_t window_arrivals = 0;
  for (const WindowStats& w : run.result.windows) window_arrivals += w.arrivals;
  EXPECT_EQ(window_arrivals, run.result.ingest.accepted);
}

}  // namespace
}  // namespace carbonedge::serve
