// Edge orchestrator: the deployment path of the prototype (Section 5.1's
// Sinfonia integration). After the placement service decides, the
// orchestrator executes a deployment "recipe" per application — generate
// manifests, pull images, start, route — and reports the end-to-end
// deployment latency the paper measures in Section 6.5 (~1 s per
// application).
//
// The recipe's steps are simulated latencies rather than a Kubernetes
// client: the evaluation needs the recipe's latency, not a live cluster.
#pragma once

#include <cstdint>

#include "core/placement_service.hpp"
#include "util/random.hpp"

namespace carbonedge::core {

class Orchestrator {
 public:
  Orchestrator();

  /// Run the deployment pipeline for every decision of a placement round.
  void deploy(const PlacementResult& result);

  /// Mean end-to-end deployment latency across everything deployed so far.
  [[nodiscard]] double mean_deploy_ms() const noexcept;

 private:
  util::Rng rng_;
  double total_latency_ms_ = 0.0;
  std::uint64_t total_deployed_ = 0;
};

}  // namespace carbonedge::core
