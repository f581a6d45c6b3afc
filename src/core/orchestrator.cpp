#include "core/orchestrator.hpp"

namespace carbonedge::core {
namespace {

// Mean simulated step latencies (ms); each draw jitters by +/-20%.
constexpr double kRecipeMs = 45.0;      // Kubernetes manifests + helm values rendered
constexpr double kImagePullMs = 520.0;  // container layers present (warm registry cache)
constexpr double kStartMs = 380.0;      // pods running
constexpr double kRouteMs = 60.0;       // client informed of the destination address
constexpr std::uint64_t kSeed = 0x0Bc4e57aULL;

}  // namespace

Orchestrator::Orchestrator() : rng_(kSeed) {}

void Orchestrator::deploy(const PlacementResult& result) {
  for (const PlacementDecision& decision : result.decisions) {
    double latency_ms = 0.0;
    latency_ms += kRecipeMs * rng_.uniform(0.8, 1.2);
    latency_ms += kImagePullMs * rng_.uniform(0.8, 1.2);
    latency_ms += kStartMs * rng_.uniform(0.8, 1.2);
    // Routing also pays one network round trip to the client.
    latency_ms += decision.rtt_ms;
    latency_ms += kRouteMs * rng_.uniform(0.8, 1.2);
    total_latency_ms_ += latency_ms;
    ++total_deployed_;
  }
}

double Orchestrator::mean_deploy_ms() const noexcept {
  return total_deployed_ > 0 ? total_latency_ms_ / static_cast<double>(total_deployed_) : 0.0;
}

}  // namespace carbonedge::core
