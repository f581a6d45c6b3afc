// The streaming serving loop.
//
// A long-running driver over core::SimulationEngine (the same epoch state
// machine the batch engine runs — that shared core is what makes the replay
// oracle exact): events are pulled from an EventSource, bucketed into the
// engine epoch containing their timestamp, admitted under a per-epoch cap
// and a stale-event policy, and stepped through placement. Epochs aggregate
// into fixed windows of `window_epochs`; each window close updates
// exponential moving averages over carbon intensity, response time, and
// hosted load, feeds the hysteresis triggers, and (best-effort) exports one
// CSV telemetry row. When the EMA re-optimization config is enabled,
// trigger crossings — not the batch engine's calendar cadence — decide when
// live applications are re-placed: the crossing observed at a window close
// re-optimizes at the first epoch of the next window.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/simulation.hpp"
#include "serve/event_source.hpp"
#include "serve/export.hpp"
#include "serve/window.hpp"

namespace carbonedge::serve {

/// What happens to an event stamped before the epoch being stepped.
enum class OutOfOrderPolicy : std::uint8_t {
  kDrop,   // drop it
  kClamp,  // admit it into the open epoch
};

/// Admission outcomes of the pumped events, mirrored in the registry's
/// serve.ingest.* counters.
struct IngestStats {
  std::uint64_t accepted = 0;
  std::uint64_t dropped_overflow = 0;  // beyond the epoch's queue_capacity
  std::uint64_t dropped_stale = 0;     // stale, policy kDrop
  std::uint64_t clamped_stale = 0;     // stale, policy kClamp (also admitted)
  std::uint64_t dropped_horizon = 0;   // left in the source after the last epoch
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_overflow + dropped_stale + dropped_horizon;
  }
};

/// One EMA-threshold pair; disabled triggers never fire.
struct EmaTrigger {
  bool enabled = false;
  double fire = 0.0;   // crossing above fires (once, armed)
  double rearm = 0.0;  // falling below re-arms; must be <= fire
};

struct EmaReoptConfig {
  /// When true, event-driven triggers fully replace the batch cadence
  /// (reoptimize_monthly / reoptimize_every are ignored): an epoch
  /// re-optimizes iff a trigger fired at the previous window close.
  bool enabled = false;
  double alpha = 0.25;       // EMA smoothing for all three signals
  EmaTrigger intensity;      // rps-weighted carbon intensity, g/kWh
  EmaTrigger response_ms;    // window mean response time
  EmaTrigger load_rps;       // mean per-epoch hosted rps
};

struct ServeConfig {
  core::SimulationConfig sim;      // horizon, workload knobs, policy, solver
  std::uint32_t window_epochs = 1; // engine epochs per aggregation window
  /// Events admitted per epoch; each further event is dropped and counted.
  std::size_t queue_capacity = 65536;
  OutOfOrderPolicy out_of_order = OutOfOrderPolicy::kClamp;
  EmaReoptConfig ema_reopt;
  /// Periodic metrics flush: after each window's CSV row, export one
  /// `#metrics,<window>,<json>` comment line holding the registry's
  /// deterministic view as of that window close. Deterministic-view-only
  /// by construction, so the rows are byte-identical across thread counts
  /// and safe inside the determinism gate's diffed output.
  bool metrics_rows = false;
};

struct ServeResult {
  /// The engine's run result — on an epoch-aligned replay of the same
  /// scenario, bit-identical to EdgeSimulation::run (the differential
  /// oracle tests/test_serve_replay.cpp enforces).
  core::SimulationResult sim;
  std::vector<WindowStats> windows;
  IngestStats ingest;
  ExportStats exports;             // zero-valued when no exporter was given
  std::uint64_t reopt_fires = 0;   // EMA trigger crossings
};

class EventLoop {
 public:
  /// Serve against `simulation`'s cluster/carbon/latency state. The
  /// EdgeSimulation must outlive the loop; its pristine cluster is copied
  /// per run() like any batch run.
  EventLoop(const core::EdgeSimulation& simulation, ServeConfig config);

  /// Drain `source` to completion at maximum speed (replay mode doubles as
  /// the throughput bench). `exporter`, when given, receives one CSV row
  /// per closed window, best-effort.
  [[nodiscard]] ServeResult run(EventSource& source, WindowCsvExporter* exporter = nullptr);

  [[nodiscard]] const ServeConfig& config() const noexcept { return config_; }

 private:
  const core::EdgeSimulation* simulation_;
  ServeConfig config_;
};

}  // namespace carbonedge::serve
