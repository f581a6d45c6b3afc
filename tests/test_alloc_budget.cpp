// Allocation budget of a steady-state placement epoch.
//
// This binary replaces the global operator new and operator delete with
// counting forwarders to malloc and free, so it runs under AddressSanitizer
// too (which intercepts malloc). It steps one CDN-US-40 CarbonEdge cell (the
// cdn_sweep cell shape: 3-hour epochs, 0.25 arrivals per site, 20 ms RTT
// SLO) past warm-up and bounds the heap allocations per epoch.
//
// The engine keeps its placement layout, problem, solver workspace and
// batch between epochs, solves contended components in place on the
// workspace's buffers, and takes hosted-app map nodes from its own pool, so
// a steady-state epoch allocates little beyond the epoch's record, the
// placement decisions and the exact path's LP builds. Before those buffers
// were kept, this cell allocated about 100 times per counted epoch; with
// them, about 35; solving shards in place and pooling the map's nodes took
// it to about 7. The ceiling sits above that with room for standard-library
// differences, and far below the old counts.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "carbon/service.hpp"
#include "core/policy.hpp"
#include "core/simulation.hpp"
#include "geo/region.hpp"
#include "sim/datacenter.hpp"
#include "sim/device.hpp"
#include "sim/workload.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace carbonedge {
namespace {

constexpr std::uint32_t kWarmUpEpochs = 240;   // a month of 3-hour epochs
constexpr std::uint32_t kCountedEpochs = 720;  // the next quarter
constexpr double kCeilingPerEpoch = 12.0;

TEST(AllocBudget, SteadyStateCdnEpoch) {
  const geo::Region region = geo::cdn_region(geo::Continent::kNorthAmerica, 40);
  carbon::CarbonIntensityService carbon;
  carbon.add_region(region);
  const core::EdgeSimulation simulation(
      sim::make_uniform_cluster(region, 1, sim::DeviceType::kA2), carbon);

  core::SimulationConfig config;
  config.policy = core::PolicyConfig::carbon_edge();
  config.epochs = kWarmUpEpochs + kCountedEpochs;
  config.epoch_hours = 3.0;
  config.workload.arrivals_per_site = 0.25;
  config.workload.mean_lifetime_epochs = 16.0;
  config.workload.model_weights = {1.0, 1.0, 1.0, 0.0};
  config.workload.latency_limit_rtt_ms = 20.0;
  config.workload.seed = 1;
  core::SimulationEngine engine(simulation.pristine_cluster(), carbon, simulation.latency(),
                                config);
  sim::WorkloadGenerator generator(config.workload, engine.cluster());

  // Only step() is counted: the arrivals are drawn outside the window.
  std::uint64_t counted = 0;
  for (std::uint32_t epoch = 0; epoch < config.epochs; ++epoch) {
    std::vector<sim::Application> arrivals = generator.arrivals(epoch);
    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    engine.step(std::move(arrivals));
    if (epoch >= kWarmUpEpochs) counted += g_allocations.load(std::memory_order_relaxed) - before;
  }
  const core::SimulationResult result = engine.finish();

  const double per_epoch = static_cast<double>(counted) / kCountedEpochs;
  RecordProperty("allocations_per_epoch_x10", static_cast<int>(per_epoch * 10.0));
  // Every epoch allocates its record and decisions, so a zero count means
  // the counting operator new is not the one in use.
  EXPECT_GT(counted, 0u);
  EXPECT_GT(result.apps_placed, 1000u);
  EXPECT_LE(per_epoch, kCeilingPerEpoch) << counted << " allocations over " << kCountedEpochs
                                         << " steady-state epochs";
}

}  // namespace
}  // namespace carbonedge
