#include "sim/app_model.hpp"

#include <stdexcept>
#include <string>

namespace carbonedge::sim {

void detail::throw_unsupported_profile(ModelType model, DeviceType device) {
  throw std::invalid_argument(std::string(to_string(model)) + " is not supported on " +
                              std::string(to_string(device)));
}

std::string_view to_string(ModelType model) noexcept {
  switch (model) {
    case ModelType::kEfficientNetB0: return "EfficientNetB0";
    case ModelType::kResNet50: return "ResNet50";
    case ModelType::kYoloV4: return "YOLOv4";
    case ModelType::kSciCpu: return "Sci";
    case ModelType::kCount_: break;
  }
  return "?";
}

double compute_demand_per_rps(ModelType model, DeviceType device) {
  const WorkloadProfile& profile = require_profile(model, device);
  // Busy-fraction of the device per request/second: service time per
  // request spread over the device's independent execution streams (cores
  // for the Xeon, SM partitions for the GPUs). The per-device inference_ms
  // table already embeds single-stream speed differences.
  return profile.inference_ms / 1000.0 / device_profile(device).concurrency;
}

}  // namespace carbonedge::sim
