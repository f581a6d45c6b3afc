#include "obs/export.hpp"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <vector>

#include "util/env.hpp"
#include "util/parallelism.hpp"

namespace carbonedge::obs {

namespace {

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_value(const MetricRef& metric) {
  switch (metric.kind) {
    case MetricKind::kCounter:
      return std::to_string(metric.counter->value());
    case MetricKind::kGauge:
      return format_double(metric.gauge->value());
    case MetricKind::kHistogram: {
      const Histogram& h = *metric.histogram;
      std::string out = "{\"count\":" + std::to_string(h.count()) +
                        ",\"sum\":" + format_double(h.sum()) + ",\"buckets\":[";
      for (std::size_t i = 0; i <= h.bounds().size(); ++i) {
        if (i > 0) out += ',';
        out += std::to_string(h.bucket(i));
      }
      out += "],\"bounds\":[";
      for (std::size_t i = 0; i < h.bounds().size(); ++i) {
        if (i > 0) out += ',';
        out += format_double(h.bounds()[i]);
      }
      out += "]}";
      return out;
    }
  }
  return "null";
}

std::string view_json(const Registry& registry, View view) {
  std::string out = "{";
  bool first = true;
  registry.visit([&](const MetricRef& metric) {
    if (metric.view != view) return;
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(metric.name) + "\":" + json_value(metric);
  });
  out += '}';
  return out;
}

/// `carbonedge_` + name with every non-[a-zA-Z0-9_] character replaced by
/// '_' (dots become underscores; the result is a valid Prometheus name).
std::string prometheus_name(std::string_view name) {
  std::string out = "carbonedge_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

/// HELP text escaping per the exposition format: backslash and newline.
std::string prometheus_help(std::string_view help) {
  std::string out;
  out.reserve(help.size());
  for (const char c : help) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

void maybe_collect(const Registry& registry) {
  if (&registry == &Registry::global()) collect_process_gauges();
}

}  // namespace

void collect_process_gauges() {
  Registry& registry = Registry::global();
  // Lane counts follow CARBONEDGE_THREADS — execution shape, never part of
  // the deterministic view.
  static Gauge& total_lanes = registry.gauge(
      "process.budget.total_lanes", "worker lanes in the process budget", View::kTiming);
  static Gauge& peak_lanes = registry.gauge(
      "process.budget.peak_lanes", "high-water mark of concurrently leased lanes",
      View::kTiming);
  static Gauge& host_reads = registry.gauge(
      "process.env.host_reads", "distinct host environment reads through util::env",
      View::kDeterministic);
  const util::ParallelismBudget& budget = util::global_budget();
  total_lanes.set(static_cast<double>(budget.total()));
  peak_lanes.set(static_cast<double>(budget.peak_lanes()));
  host_reads.set(static_cast<double>(util::env::host_reads()));
}

std::string snapshot_json(const Registry& registry, bool include_timing) {
  maybe_collect(registry);
  std::string out = "{\"deterministic\":" + view_json(registry, View::kDeterministic);
  if (include_timing) out += ",\"timing\":" + view_json(registry, View::kTiming);
  out += '}';
  return out;
}

std::string deterministic_json(const Registry& registry) {
  maybe_collect(registry);
  return view_json(registry, View::kDeterministic);
}

std::string snapshot_prometheus(const Registry& registry) {
  maybe_collect(registry);
  std::string out;
  registry.visit([&](const MetricRef& metric) {
    const std::string name = prometheus_name(metric.name);
    const std::string view_label =
        metric.view == View::kDeterministic ? "deterministic" : "timing";
    out += "# HELP " + name + ' ' + prometheus_help(metric.help) + '\n';
    switch (metric.kind) {
      case MetricKind::kCounter:
        out += "# TYPE " + name + " counter\n";
        out += name + "{view=\"" + view_label + "\"} " +
               std::to_string(metric.counter->value()) + '\n';
        break;
      case MetricKind::kGauge:
        out += "# TYPE " + name + " gauge\n";
        out += name + "{view=\"" + view_label + "\"} " +
               format_double(metric.gauge->value()) + '\n';
        break;
      case MetricKind::kHistogram: {
        const Histogram& h = *metric.histogram;
        out += "# TYPE " + name + " histogram\n";
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < h.bounds().size(); ++i) {
          cumulative += h.bucket(i);
          out += name + "_bucket{view=\"" + view_label + "\",le=\"" +
                 format_double(h.bounds()[i]) + "\"} " + std::to_string(cumulative) + '\n';
        }
        out += name + "_bucket{view=\"" + view_label + "\",le=\"+Inf\"} " +
               std::to_string(h.count()) + '\n';
        out += name + "_sum{view=\"" + view_label + "\"} " + format_double(h.sum()) + '\n';
        out += name + "_count{view=\"" + view_label + "\"} " + std::to_string(h.count()) +
               '\n';
        break;
      }
    }
  });
  return out;
}

bool write_snapshot(const std::string& path, const std::string& content) {
  if (path == "-") {
    std::cout << content << "\n";
    return true;
  }
  std::ofstream out(path, std::ios::binary);
  out << content;
  if (!out) {
    std::cerr << "error: cannot write metrics to " << path << "\n";
    return false;
  }
  return true;
}

}  // namespace carbonedge::obs
