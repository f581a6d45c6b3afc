#include "serve/event_loop.hpp"

#include <cstddef>
#include <optional>
#include <stdexcept>
#include <utility>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/histogram.hpp"

namespace carbonedge::serve {
namespace {

std::optional<ThresholdTrigger> make_trigger(const EmaTrigger& trigger) {
  if (!trigger.enabled) return std::nullopt;
  return ThresholdTrigger(trigger.fire, trigger.rearm);
}

obs::Phase& ingest_phase() {
  static obs::Phase phase("serve.ingest");
  return phase;
}

obs::Phase& window_flush_phase() {
  static obs::Phase phase("serve.window_flush");
  return phase;
}

// Registry mirrors of IngestStats (deterministic view: what admission does
// to a given event stream does not depend on lane counts).
struct IngestMetrics {
  obs::Counter& accepted;
  obs::Counter& dropped_overflow;
  obs::Counter& dropped_stale;
  obs::Counter& clamped_stale;
  obs::Counter& dropped_horizon;
};

IngestMetrics& ingest_metrics() {
  obs::Registry& registry = obs::Registry::global();
  static IngestMetrics metrics{
      registry.counter("serve.ingest.accepted", "events admitted",
                       obs::View::kDeterministic),
      registry.counter("serve.ingest.dropped_overflow",
                       "events dropped beyond the per-epoch queue_capacity",
                       obs::View::kDeterministic),
      registry.counter("serve.ingest.dropped_stale",
                       "events stamped before their epoch dropped (policy kDrop)",
                       obs::View::kDeterministic),
      registry.counter("serve.ingest.clamped_stale",
                       "events stamped before their epoch admitted (policy kClamp)",
                       obs::View::kDeterministic),
      registry.counter("serve.ingest.dropped_horizon",
                       "events left in the source after the last epoch",
                       obs::View::kDeterministic)};
  return metrics;
}

void count(std::uint64_t& stat, obs::Counter& counter) {
  ++stat;
  counter.add();
}

}  // namespace

EventLoop::EventLoop(const core::EdgeSimulation& simulation, ServeConfig config)
    : simulation_(&simulation), config_(std::move(config)) {
  if (config_.sim.epochs == 0) {
    throw std::invalid_argument("serve: config.sim.epochs must be positive");
  }
  if (config_.window_epochs == 0) {
    throw std::invalid_argument("serve: window_epochs must be positive");
  }
  if (!(config_.sim.epoch_hours > 0.0)) {
    throw std::invalid_argument("serve: epoch_hours must be positive");
  }
  if (config_.queue_capacity == 0) {
    throw std::invalid_argument("serve: queue_capacity must be positive");
  }
}

ServeResult EventLoop::run(EventSource& source, WindowCsvExporter* exporter) {
  core::SimulationEngine engine(simulation_->pristine_cluster(), simulation_->carbon_service(),
                                simulation_->latency(), config_.sim);
  // Secondary response histogram, reset at every window close; the engine's
  // run-level histogram (and with it the replay oracle) is untouched.
  util::Histogram window_hist{0.0, 500.0, 1000};
  engine.telemetry().set_window_sink(&window_hist);

  IngestMetrics& metrics = ingest_metrics();
  Ema ema_intensity(config_.ema_reopt.alpha);
  Ema ema_response(config_.ema_reopt.alpha);
  Ema ema_load(config_.ema_reopt.alpha);
  auto trigger_intensity = make_trigger(config_.ema_reopt.intensity);
  auto trigger_response = make_trigger(config_.ema_reopt.response_ms);
  auto trigger_load = make_trigger(config_.ema_reopt.load_rps);

  ServeResult result;
  const double epoch_hours = config_.sim.epoch_hours;
  const std::uint32_t epochs = config_.sim.epochs;

  std::optional<Event> carry;  // first event at or beyond the epoch boundary
  bool source_done = false;
  bool migrate_next = false;  // an EMA trigger fired at the last window close

  std::uint32_t window_index = 0;
  std::uint32_t window_start_epoch = 0;
  std::uint64_t window_arrivals = 0;

  std::vector<sim::Application> arrivals;
  std::vector<core::ServerFailureEvent> failures;

  for (std::uint32_t epoch = 0; epoch < epochs; ++epoch) {
    const double epoch_start = epoch * epoch_hours;
    const double epoch_end = (epoch + 1) * epoch_hours;

    // Pump the source up to the epoch boundary and admit each event into
    // the epoch's batch. The source is time-ordered, so the first event at
    // or past the boundary ends the epoch's intake and carries over. An
    // event stamped before the epoch is stale: dropped under kDrop, kept
    // under kClamp. Past queue_capacity admissions the epoch drops the
    // rest. Every outcome is counted; the source always makes progress.
    {
      const obs::Span span(ingest_phase());
      arrivals.clear();
      failures.clear();
      while (!source_done) {
        if (!carry) {
          carry = source.next();
          if (!carry) {
            source_done = true;
            break;
          }
        }
        if (carry->time_hours >= epoch_end) break;
        Event event = std::move(*carry);
        carry.reset();
        if (event.time_hours < epoch_start) {
          if (config_.out_of_order == OutOfOrderPolicy::kDrop) {
            count(result.ingest.dropped_stale, metrics.dropped_stale);
            continue;
          }
          count(result.ingest.clamped_stale, metrics.clamped_stale);
        }
        if (arrivals.size() + failures.size() >= config_.queue_capacity) {
          count(result.ingest.dropped_overflow, metrics.dropped_overflow);
          continue;
        }
        count(result.ingest.accepted, metrics.accepted);
        if (event.type == EventType::kArrival) {
          arrivals.push_back(std::move(event.app));
          ++window_arrivals;
        } else {
          failures.push_back(event.failure);
        }
      }
    }

    core::SimulationEngine::StepOptions options;
    if (config_.ema_reopt.enabled) {
      // Event-driven mode: the trigger decision from the previous window
      // close fully replaces the calendar cadence.
      options.migrate = migrate_next;
      migrate_next = false;
    }
    options.failures = failures;
    engine.step(std::move(arrivals), options);

    const bool window_full = epoch + 1 - window_start_epoch >= config_.window_epochs;
    if (!window_full && epoch + 1 != epochs) continue;

    // Spans the rest of this iteration: the whole window-close fold + export.
    const obs::Span window_span(window_flush_phase());

    // Close the window: fold the engine's per-epoch records in range.
    const auto& records = engine.partial().telemetry.epochs();
    WindowStats w;
    w.window = window_index;
    w.start_hours = window_start_epoch * epoch_hours;
    w.end_hours = (epoch + 1) * epoch_hours;
    w.epochs = epoch + 1 - window_start_epoch;
    w.arrivals = window_arrivals;
    double rtt_weighted_ms = 0.0;
    double response_weighted_ms = 0.0;
    double intensity_weighted = 0.0;
    double intensity_rps = 0.0;
    double intensity_sum = 0.0;
    std::size_t intensity_cells = 0;
    for (std::size_t i = window_start_epoch; i < records.size() && i <= epoch; ++i) {
      const auto& r = records[i];
      w.apps_placed += r.apps_placed;
      w.apps_rejected += r.apps_rejected;
      w.migrations += r.migrations;
      w.failures += r.failures;
      w.energy_wh += r.energy_wh();
      w.carbon_g += r.carbon_g();
      w.rps_total += r.rps_total;
      rtt_weighted_ms += r.rtt_weighted_sum_ms;
      response_weighted_ms += r.response_weighted_sum_ms;
      for (const auto& site : r.sites) {
        intensity_weighted += site.intensity_g_kwh * site.rps_hosted;
        intensity_rps += site.rps_hosted;
        intensity_sum += site.intensity_g_kwh;
        ++intensity_cells;
      }
    }
    if (w.rps_total > 0.0) w.mean_rtt_ms = rtt_weighted_ms / w.rps_total;
    w.p50_response_ms = window_hist.quantile(0.5);
    w.p99_response_ms = window_hist.quantile(0.99);

    const double mean_response_ms =
        w.rps_total > 0.0 ? response_weighted_ms / w.rps_total : 0.0;
    // Each unit of served load contributes its zone's intensity; an idle
    // window falls back to the plain mean over sites.
    const double intensity_g_kwh =
        intensity_rps > 0.0          ? intensity_weighted / intensity_rps
        : intensity_cells > 0        ? intensity_sum / static_cast<double>(intensity_cells)
                                     : 0.0;
    w.ema_intensity_g_kwh = ema_intensity.update(intensity_g_kwh);
    w.ema_response_ms = ema_response.update(mean_response_ms);
    w.ema_load_rps = ema_load.update(w.rps_total / w.epochs);

    // Feed every enabled trigger (no short-circuit: each keeps its own
    // hysteresis state); any armed crossing schedules one re-optimization
    // at the next epoch.
    bool fired = false;
    if (trigger_intensity) fired |= trigger_intensity->update(w.ema_intensity_g_kwh);
    if (trigger_response) fired |= trigger_response->update(w.ema_response_ms);
    if (trigger_load) fired |= trigger_load->update(w.ema_load_rps);
    w.reopt_fired = fired;
    if (fired) {
      migrate_next = true;
      ++result.reopt_fires;
    }

    // Cumulative drop counters as of this close (before this row's own
    // export attempt, which cannot have resolved yet).
    w.ingest_dropped = result.ingest.dropped();
    w.export_dropped = exporter != nullptr ? exporter->stats().lines_dropped : 0;

    if (exporter != nullptr) {
      exporter->export_window(w);
      if (config_.metrics_rows) {
        // Periodic metrics flush into the export stream: deterministic view
        // only, so the row is itself under the byte-identical contract.
        exporter->export_line("#metrics," + std::to_string(w.window) + ',' +
                              obs::deterministic_json() + '\n');
      }
    }
    result.windows.push_back(w);

    window_hist = util::Histogram{0.0, 500.0, 1000};
    ++window_index;
    window_start_epoch = epoch + 1;
    window_arrivals = 0;
  }

  // Events stamped at or past the horizon never reach an epoch: the one
  // carried out of the last epoch and all the source still holds are
  // dropped and counted.
  if (carry) count(result.ingest.dropped_horizon, metrics.dropped_horizon);
  while (!source_done && source.next()) {
    count(result.ingest.dropped_horizon, metrics.dropped_horizon);
  }

  if (exporter != nullptr) {
    exporter->flush();
    result.exports = exporter->stats();
  }
  engine.telemetry().set_window_sink(nullptr);
  result.sim = engine.finish();
  return result;
}

}  // namespace carbonedge::serve
