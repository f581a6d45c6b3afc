// Application models and their per-device profiles (paper Figure 7).
//
// Substitutes for the paper's profiling service (Section 5.1): per
// (model, device) we tabulate energy per inference, device memory, and
// inference latency, transcribed from Figure 7's reported magnitudes —
// energy spans ~45x across models on one device and ~2x across devices for
// one model; inference times reach ~40 ms; YOLOv4 uses ~500 MB. The rows
// compile into a (model, device) table, so profile_of is one indexed load
// that any translation unit can inline.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "sim/device.hpp"

namespace carbonedge::sim {

enum class ModelType : std::uint8_t {
  kEfficientNetB0 = 0,
  kResNet50,
  kYoloV4,
  kSciCpu,  // the CPU-based sensor-processing application ("Sci" in Fig. 10)
  kCount_,
};

inline constexpr std::size_t kModelCount = static_cast<std::size_t>(ModelType::kCount_);

inline constexpr std::array<ModelType, kModelCount> kAllModels = {
    ModelType::kEfficientNetB0, ModelType::kResNet50, ModelType::kYoloV4, ModelType::kSciCpu};

/// The three GPU inference models used by the heterogeneity experiments.
inline constexpr std::array<ModelType, 3> kGpuModels = {
    ModelType::kEfficientNetB0, ModelType::kResNet50, ModelType::kYoloV4};

struct WorkloadProfile {
  double energy_j = 0.0;      // dynamic energy per inference, joules
  double memory_mb = 0.0;     // resident device memory
  double inference_ms = 0.0;  // single-request service time
};

/// Profile of `model` on `device`. Models that cannot run on a device
/// (GPU models on the CPU and vice versa) return `supported == false`.
struct ProfileResult {
  bool supported = false;
  WorkloadProfile profile;
};

namespace detail {

// Rows follow Figure 7 (energy in J, memory in MB, inference in ms).
// Devices: Orin Nano, A2, GTX 1080 for GPU models; Xeon for SciCpu.
struct ProfileRow {
  ModelType model;
  DeviceType device;
  WorkloadProfile profile;
};

inline constexpr ProfileRow kProfileRows[] = {
    {ModelType::kEfficientNetB0, DeviceType::kOrinNano, {0.016, 128.0, 8.2}},
    {ModelType::kEfficientNetB0, DeviceType::kA2, {0.024, 150.0, 4.8}},
    {ModelType::kEfficientNetB0, DeviceType::kGtx1080, {0.031, 176.0, 2.6}},
    {ModelType::kResNet50, DeviceType::kOrinNano, {0.082, 246.0, 24.5}},
    {ModelType::kResNet50, DeviceType::kA2, {0.118, 288.0, 11.8}},
    {ModelType::kResNet50, DeviceType::kGtx1080, {0.158, 330.0, 5.9}},
    {ModelType::kYoloV4, DeviceType::kOrinNano, {0.71, 452.0, 39.6}},
    {ModelType::kYoloV4, DeviceType::kA2, {1.05, 498.0, 21.7}},
    {ModelType::kYoloV4, DeviceType::kGtx1080, {1.38, 540.0, 10.8}},
    {ModelType::kSciCpu, DeviceType::kXeonCpu, {2.1, 512.0, 48.0}},
};

using ProfileTable = std::array<std::array<ProfileResult, kDeviceCount>, kModelCount>;

/// kProfileRows indexed [model][device]; pairs without a row stay
/// unsupported.
inline constexpr ProfileTable kProfileTable = [] {
  ProfileTable table{};
  for (const ProfileRow& row : kProfileRows) {
    table[static_cast<std::size_t>(row.model)][static_cast<std::size_t>(row.device)] = {
        true, row.profile};
  }
  return table;
}();

}  // namespace detail

[[nodiscard]] constexpr ProfileResult profile_of(ModelType model, DeviceType device) noexcept {
  const auto m = static_cast<std::size_t>(model);
  const auto d = static_cast<std::size_t>(device);
  if (m >= kModelCount || d >= kDeviceCount) return {};
  return detail::kProfileTable[m][d];
}

[[nodiscard]] std::string_view to_string(ModelType model) noexcept;

namespace detail {
/// Throws the std::invalid_argument require_profile reports for an
/// unsupported (model, device) pair.
[[noreturn]] void throw_unsupported_profile(ModelType model, DeviceType device);
}  // namespace detail

/// Profile that throws std::invalid_argument when unsupported. The reference
/// points into the static profile table, so it never dangles.
[[nodiscard]] inline const WorkloadProfile& require_profile(ModelType model, DeviceType device) {
  const auto m = static_cast<std::size_t>(model);
  const auto d = static_cast<std::size_t>(device);
  if (m >= kModelCount || d >= kDeviceCount || !detail::kProfileTable[m][d].supported) {
    detail::throw_unsupported_profile(model, device);
  }
  return detail::kProfileTable[m][d].profile;
}

/// Fraction of a device's compute a model consumes per request/second of
/// sustained load: inference_ms/1000 normalized by the device's relative
/// compute units. Determines how many concurrent streams a device hosts.
[[nodiscard]] double compute_demand_per_rps(ModelType model, DeviceType device);

}  // namespace carbonedge::sim
