#include "sim/server.hpp"

#include <algorithm>
#include <stdexcept>

namespace carbonedge::sim {

EdgeServer::EdgeServer(std::uint32_t id, ServerConfig config)
    : id_(id), config_(std::move(config)), powered_on_(config_.initially_on) {
  if (config_.base_power_w <= 0.0) {
    // Device idle draw plus host platform overhead (NIC, fans, host CPU for
    // accelerator cards). The Xeon profile already is a whole server.
    const DeviceProfile& dev = device_profile(config_.device);
    config_.base_power_w =
        config_.device == DeviceType::kXeonCpu ? dev.idle_power_w : dev.idle_power_w + 12.0;
  }
  if (config_.max_utilization <= 0.0 || config_.max_utilization > 1.0) {
    throw std::invalid_argument("server max_utilization must be in (0, 1]");
  }
}

void EdgeServer::set_powered_on(bool on) {
  if (!on && !apps_.empty()) {
    throw std::runtime_error("cannot power off a server with hosted applications");
  }
  if (on && failed_) {
    throw std::runtime_error("cannot power on a failed server before repair");
  }
  powered_on_ = on;
}

void EdgeServer::set_failed(bool failed) {
  failed_ = failed;
  if (failed) {
    // A crash drops all hosted state; the engine re-places the apps.
    apps_.clear();
    memory_used_mb_ = 0.0;
    compute_used_ = 0.0;
    powered_on_ = false;
  }
}

double EdgeServer::memory_capacity_mb() const noexcept {
  return device_profile(config_.device).memory_mb;
}

double EdgeServer::memory_free_mb() const noexcept {
  return std::max(0.0, memory_capacity_mb() - memory_used_mb_);
}

double EdgeServer::compute_free() const noexcept {
  return std::max(0.0, compute_capacity() - compute_used_);
}

bool EdgeServer::can_host(ModelType model, double rps) const noexcept {
  if (failed_) return false;
  const ProfileResult result = profile_of(model, config_.device);
  if (!result.supported) return false;
  if (result.profile.memory_mb > memory_free_mb() + 1e-9) return false;
  const double demand = compute_demand_per_rps(model, config_.device) * rps;
  return demand <= compute_free() + 1e-9;
}

void EdgeServer::host(const AppInstance& app) {
  if (!powered_on_) throw std::runtime_error("cannot host on a powered-off server");
  if (!can_host(app.model, app.rps)) {
    throw std::runtime_error("application does not fit on server " + config_.name);
  }
  const WorkloadProfile& profile = require_profile(app.model, config_.device);
  apps_.push_back(app);
  memory_used_mb_ += profile.memory_mb;
  compute_used_ += compute_demand_per_rps(app.model, config_.device) * app.rps;
}

bool EdgeServer::evict(AppId id) noexcept {
  const auto it = std::find_if(apps_.begin(), apps_.end(),
                               [id](const AppInstance& a) { return a.id == id; });
  if (it == apps_.end()) return false;
  const WorkloadProfile& profile = require_profile(it->model, config_.device);
  memory_used_mb_ = std::max(0.0, memory_used_mb_ - profile.memory_mb);
  compute_used_ =
      std::max(0.0, compute_used_ - compute_demand_per_rps(it->model, config_.device) * it->rps);
  apps_.erase(it);
  return true;
}

double EdgeServer::dynamic_power_w() const noexcept {
  double watts = 0.0;
  for (const AppInstance& app : apps_) {
    const ProfileResult result = profile_of(app.model, config_.device);
    if (result.supported) watts += result.profile.energy_j * app.rps;
  }
  return watts;
}

double EdgeServer::power_draw_w() const noexcept {
  if (!powered_on_) return 0.0;
  return config_.base_power_w + dynamic_power_w();
}

double EdgeServer::mean_service_ms(ModelType model) const {
  const WorkloadProfile& profile = require_profile(model, config_.device);
  const double utilization = std::min(compute_used_, 0.99);
  return profile.inference_ms / (1.0 - utilization);
}

}  // namespace carbonedge::sim
