#include "sim/app_model.hpp"
#include "sim/device.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace carbonedge::sim {
namespace {

TEST(Device, ProfilesArePhysical) {
  for (const DeviceType d : kAllDevices) {
    const DeviceProfile& p = device_profile(d);
    EXPECT_GT(p.idle_power_w, 0.0);
    EXPECT_GT(p.max_power_w, p.idle_power_w);
    EXPECT_GT(p.memory_mb, 0.0);
    EXPECT_GE(p.concurrency, 1.0);
    EXPECT_FALSE(p.name.empty());
  }
}

TEST(Device, PowerOrderingMatchesPaper) {
  // Orin Nano << A2 << GTX 1080 in power draw (Section 6.1.2 specs).
  EXPECT_LT(device_profile(DeviceType::kOrinNano).max_power_w,
            device_profile(DeviceType::kA2).max_power_w);
  EXPECT_LT(device_profile(DeviceType::kA2).max_power_w,
            device_profile(DeviceType::kGtx1080).max_power_w);
}

TEST(AppModel, GpuModelsRunOnAllGpus) {
  for (const ModelType m : kGpuModels) {
    for (const DeviceType d : {DeviceType::kOrinNano, DeviceType::kA2, DeviceType::kGtx1080}) {
      EXPECT_TRUE(profile_of(m, d).supported) << to_string(m) << " on " << to_string(d);
    }
  }
}

TEST(AppModel, CrossDomainPairsUnsupported) {
  EXPECT_FALSE(profile_of(ModelType::kSciCpu, DeviceType::kA2).supported);
  EXPECT_FALSE(profile_of(ModelType::kResNet50, DeviceType::kXeonCpu).supported);
  EXPECT_THROW((void)require_profile(ModelType::kYoloV4, DeviceType::kXeonCpu), std::invalid_argument);
}

TEST(AppModel, Figure7aEnergySpansModels) {
  // ~45x energy spread across models on the same device.
  for (const DeviceType d : {DeviceType::kOrinNano, DeviceType::kA2, DeviceType::kGtx1080}) {
    const double lo = require_profile(ModelType::kEfficientNetB0, d).energy_j;
    const double hi = require_profile(ModelType::kYoloV4, d).energy_j;
    EXPECT_GT(hi / lo, 30.0) << to_string(d);
    EXPECT_LT(hi / lo, 70.0) << to_string(d);
  }
}

TEST(AppModel, Figure7aEnergySpansDevices) {
  // ~2x energy spread across devices for the same model.
  for (const ModelType m : kGpuModels) {
    const double lo = require_profile(m, DeviceType::kOrinNano).energy_j;
    const double hi = require_profile(m, DeviceType::kGtx1080).energy_j;
    EXPECT_GT(hi / lo, 1.5) << to_string(m);
    EXPECT_LT(hi / lo, 3.0) << to_string(m);
  }
}

TEST(AppModel, Figure7bMemoryGrowsWithModelSize) {
  for (const DeviceType d : {DeviceType::kOrinNano, DeviceType::kA2, DeviceType::kGtx1080}) {
    EXPECT_LT(require_profile(ModelType::kEfficientNetB0, d).memory_mb,
              require_profile(ModelType::kResNet50, d).memory_mb);
    EXPECT_LT(require_profile(ModelType::kResNet50, d).memory_mb,
              require_profile(ModelType::kYoloV4, d).memory_mb);
    EXPECT_LE(require_profile(ModelType::kYoloV4, d).memory_mb, 560.0);
  }
}

TEST(AppModel, Figure7cFasterDevicesHaveLowerInferenceTime) {
  for (const ModelType m : kGpuModels) {
    EXPECT_GT(require_profile(m, DeviceType::kOrinNano).inference_ms,
              require_profile(m, DeviceType::kA2).inference_ms);
    EXPECT_GT(require_profile(m, DeviceType::kA2).inference_ms,
              require_profile(m, DeviceType::kGtx1080).inference_ms);
  }
  EXPECT_LE(require_profile(ModelType::kYoloV4, DeviceType::kOrinNano).inference_ms, 45.0);
}

TEST(AppModel, ComputeDemandScalesWithRateAndSpeed) {
  const double a2 = compute_demand_per_rps(ModelType::kResNet50, DeviceType::kA2);
  const double gtx = compute_demand_per_rps(ModelType::kResNet50, DeviceType::kGtx1080);
  EXPECT_GT(a2, 0.0);
  // The GTX is both faster per request and has more streams -> much lower
  // busy-fraction per rps.
  EXPECT_LT(gtx, a2);
}

TEST(AppModel, Names) {
  EXPECT_EQ(to_string(ModelType::kEfficientNetB0), "EfficientNetB0");
  EXPECT_EQ(to_string(ModelType::kSciCpu), "Sci");
}

TEST(AppModel, ProfileTableMatchesFigure7) {
  // Figure 7's rows, written out here independently of the library's table.
  struct Row {
    ModelType model;
    DeviceType device;
    double energy_j;
    double memory_mb;
    double inference_ms;
  };
  constexpr Row kRows[] = {
      {ModelType::kEfficientNetB0, DeviceType::kOrinNano, 0.016, 128.0, 8.2},
      {ModelType::kEfficientNetB0, DeviceType::kA2, 0.024, 150.0, 4.8},
      {ModelType::kEfficientNetB0, DeviceType::kGtx1080, 0.031, 176.0, 2.6},
      {ModelType::kResNet50, DeviceType::kOrinNano, 0.082, 246.0, 24.5},
      {ModelType::kResNet50, DeviceType::kA2, 0.118, 288.0, 11.8},
      {ModelType::kResNet50, DeviceType::kGtx1080, 0.158, 330.0, 5.9},
      {ModelType::kYoloV4, DeviceType::kOrinNano, 0.71, 452.0, 39.6},
      {ModelType::kYoloV4, DeviceType::kA2, 1.05, 498.0, 21.7},
      {ModelType::kYoloV4, DeviceType::kGtx1080, 1.38, 540.0, 10.8},
      {ModelType::kSciCpu, DeviceType::kXeonCpu, 2.1, 512.0, 48.0},
  };
  std::size_t supported = 0;
  for (const ModelType m : kAllModels) {
    for (const DeviceType d : kAllDevices) {
      SCOPED_TRACE(std::string(to_string(m)) + " on " + std::string(to_string(d)));
      const Row* row = nullptr;
      for (const Row& candidate : kRows) {
        if (candidate.model == m && candidate.device == d) row = &candidate;
      }
      const ProfileResult result = profile_of(m, d);
      if (row != nullptr) {
        ++supported;
        ASSERT_TRUE(result.supported);
        EXPECT_EQ(result.profile.energy_j, row->energy_j);
        EXPECT_EQ(result.profile.memory_mb, row->memory_mb);
        EXPECT_EQ(result.profile.inference_ms, row->inference_ms);
        EXPECT_EQ(require_profile(m, d).energy_j, row->energy_j);
        continue;
      }
      EXPECT_FALSE(result.supported);
      try {
        (void)require_profile(m, d);
        ADD_FAILURE() << "require_profile accepted an unsupported pair";
      } catch (const std::invalid_argument& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find(std::string(to_string(m))), std::string::npos) << what;
        EXPECT_NE(what.find(std::string(to_string(d))), std::string::npos) << what;
      }
    }
  }
  EXPECT_EQ(supported, std::size(kRows));
  // The table is usable at compile time.
  static_assert(profile_of(ModelType::kYoloV4, DeviceType::kA2).supported);
  static_assert(!profile_of(ModelType::kSciCpu, DeviceType::kOrinNano).supported);
}

}  // namespace
}  // namespace carbonedge::sim
