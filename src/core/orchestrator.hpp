// Edge orchestrator: the deployment path of the prototype (Section 5.1's
// Sinfonia integration). After the placement service decides, the
// orchestrator executes a deployment "recipe" per application — generate
// manifests, transfer, start, route — and reports the end-to-end deployment
// latency the paper measures in Section 6.5 (~1 s per application).
//
// This is a faithful state machine over simulated step latencies rather
// than a Kubernetes client: the evaluation needs the recipe's latency, not
// a live cluster.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/placement_service.hpp"
#include "sim/server.hpp"
#include "util/random.hpp"

namespace carbonedge::core {

enum class DeployPhase : std::uint8_t {
  kPending = 0,
  kRecipeGenerated,   // Kubernetes manifests + helm values rendered
  kImagesPulled,      // container layers present on the target
  kStarted,           // pods running
  kRouted,            // client informed of the destination address
  kFailed,
};

[[nodiscard]] const char* to_string(DeployPhase phase) noexcept;

struct Deployment {
  sim::AppId app = sim::kNoApp;
  std::size_t site = 0;
  std::uint32_t server = 0;
  DeployPhase phase = DeployPhase::kPending;
  double latency_ms = 0.0;  // cumulative time spent in the pipeline
};

struct OrchestratorConfig {
  // Mean simulated step latencies (ms); jitter is +/-20% deterministic.
  double recipe_ms = 45.0;
  double image_pull_ms = 520.0;  // warm registry cache
  double start_ms = 380.0;
  double route_ms = 60.0;
  std::uint64_t seed = 0x0Bc4e57aULL;
};

class Orchestrator {
 public:
  explicit Orchestrator(OrchestratorConfig config = {});

  /// Run the deployment pipeline for every decision of a placement round.
  /// Returns per-application deployment records.
  std::vector<Deployment> deploy(const PlacementResult& result);

  /// Mean end-to-end deployment latency across everything deployed so far.
  [[nodiscard]] double mean_deploy_ms() const noexcept;
  [[nodiscard]] std::uint64_t total_deployed() const noexcept { return total_deployed_; }

 private:
  OrchestratorConfig config_;
  util::Rng rng_;
  double total_latency_ms_ = 0.0;
  std::uint64_t total_deployed_ = 0;
};

}  // namespace carbonedge::core
