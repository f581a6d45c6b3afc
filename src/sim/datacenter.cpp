#include "sim/datacenter.hpp"

#include <algorithm>
#include <cmath>

namespace carbonedge::sim {

EdgeDataCenter::EdgeDataCenter(std::uint32_t id, geo::City city)
    : id_(id), city_(std::move(city)) {}

EdgeServer& EdgeDataCenter::add_server(ServerConfig config) {
  if (config.name.empty()) {
    config.name = city_.name + "/s" + std::to_string(next_server_id_);
  }
  servers_.emplace_back(next_server_id_++, std::move(config));
  return servers_.back();
}

std::size_t EdgeDataCenter::app_count() const noexcept {
  std::size_t count = 0;
  for (const EdgeServer& s : servers_) count += s.app_count();
  return count;
}

double EdgeDataCenter::power_draw_w() const noexcept {
  double watts = 0.0;
  for (const EdgeServer& s : servers_) watts += s.power_draw_w();
  return watts;
}

double EdgeDataCenter::dynamic_power_w() const noexcept {
  double watts = 0.0;
  for (const EdgeServer& s : servers_) watts += s.dynamic_power_w();
  return watts;
}

EdgeCluster::EdgeCluster(const geo::Region& region) : name_(region.name) {
  std::uint32_t id = 0;
  for (const geo::City& city : region.resolve()) {
    sites_.emplace_back(id++, city);
  }
}

std::vector<geo::City> EdgeCluster::cities() const {
  std::vector<geo::City> out;
  out.reserve(sites_.size());
  for (const EdgeDataCenter& dc : sites_) out.push_back(dc.city());
  return out;
}

std::vector<EdgeCluster::ServerRef> EdgeCluster::all_servers() {
  std::size_t count = 0;
  for (const EdgeDataCenter& dc : sites_) count += dc.servers().size();
  std::vector<ServerRef> refs;
  refs.reserve(count);
  for (std::size_t site = 0; site < sites_.size(); ++site) {
    for (EdgeServer& server : sites_[site].servers()) {
      refs.push_back(ServerRef{site, &server});
    }
  }
  return refs;
}

EdgeCluster make_uniform_cluster(const geo::Region& region, std::size_t servers_per_site,
                                 DeviceType device) {
  EdgeCluster cluster(region);
  for (EdgeDataCenter& dc : cluster.sites()) {
    for (std::size_t s = 0; s < servers_per_site; ++s) {
      ServerConfig config;
      config.device = device;
      dc.add_server(std::move(config));
    }
  }
  return cluster;
}

EdgeCluster make_population_cluster(const geo::Region& region, std::size_t total_servers,
                                    DeviceType device) {
  EdgeCluster cluster(region);
  if (cluster.size() == 0) return cluster;
  double total_pop = 0.0;
  for (const EdgeDataCenter& dc : cluster.sites()) total_pop += dc.city().population_k;
  // Largest-remainder apportionment with a floor of one server per site.
  const std::size_t sites = cluster.size();
  const std::size_t assignable = total_servers > sites ? total_servers - sites : 0;
  std::vector<std::size_t> extra(sites, 0);
  std::vector<std::pair<double, std::size_t>> remainders;
  std::size_t assigned = 0;
  for (std::size_t i = 0; i < sites; ++i) {
    const double share =
        total_pop > 0.0 ? cluster.sites()[i].city().population_k / total_pop : 1.0 / static_cast<double>(sites);
    const double exact = share * static_cast<double>(assignable);
    extra[i] = static_cast<std::size_t>(exact);
    assigned += extra[i];
    remainders.emplace_back(exact - std::floor(exact), i);
  }
  std::sort(remainders.rbegin(), remainders.rend());
  for (std::size_t r = 0; r < remainders.size() && assigned < assignable; ++r, ++assigned) {
    ++extra[remainders[r].second];
  }
  for (std::size_t i = 0; i < sites; ++i) {
    for (std::size_t s = 0; s < 1 + extra[i]; ++s) {
      ServerConfig config;
      config.device = device;
      cluster.sites()[i].add_server(std::move(config));
    }
  }
  return cluster;
}

EdgeCluster make_hetero_cluster(const geo::Region& region, std::size_t servers_per_site,
                                const std::vector<DeviceType>& devices) {
  EdgeCluster cluster(region);
  if (devices.empty()) return cluster;
  std::size_t cursor = 0;
  for (EdgeDataCenter& dc : cluster.sites()) {
    for (std::size_t s = 0; s < servers_per_site; ++s) {
      ServerConfig config;
      config.device = devices[cursor++ % devices.size()];
      dc.add_server(std::move(config));
    }
  }
  return cluster;
}

}  // namespace carbonedge::sim
