// Event sources for the serving loop: where the request stream comes from.
//
// Two producers:
//   - TraceReplaySource adapts the batch engine's workload synthesis into a
//     stream (epoch e's arrivals stamped at the epoch's start time), so a
//     year-long scenario replays through the serving path — the replay
//     differential oracle and the throughput bench both ride on it.
//   - CsvEventSource parses line-delimited CSV from any std::istream (a
//     file, a pipe, stdin) for live feeds: malformed lines are rejected with
//     their line number, or skipped-and-counted under ErrorPolicy::kSkip.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "serve/event.hpp"
#include "sim/datacenter.hpp"
#include "sim/server.hpp"
#include "sim/workload.hpp"

namespace carbonedge::serve {

/// A pull-based producer of events in non-decreasing time order. next()
/// returns nullopt at end of stream.
class EventSource {
 public:
  virtual ~EventSource() = default;
  [[nodiscard]] virtual std::optional<Event> next() = 0;
};

/// Replays the batch engine's synthesized workload as an event stream: the
/// arrivals WorkloadGenerator would hand epoch e are emitted as individual
/// events stamped at the epoch's start time (e * epoch_hours). Feeding them
/// through an epoch-aligned serving loop therefore reconstructs the exact
/// per-epoch batches of EdgeSimulation::run — the differential oracle's
/// arrival side.
class TraceReplaySource final : public EventSource {
 public:
  TraceReplaySource(const sim::WorkloadParams& params, const sim::EdgeCluster& cluster,
                    std::uint32_t epochs, double epoch_hours);

  [[nodiscard]] std::optional<Event> next() override;

 private:
  sim::WorkloadGenerator generator_;
  std::uint32_t epochs_;
  double epoch_hours_;
  std::uint32_t epoch_ = 0;
  std::vector<sim::Application> pending_;
  std::size_t cursor_ = 0;
};

/// Line-delimited CSV events for live feeds. The first line must be the
/// exact header (see kCsvHeader); each data line is either an arrival or a
/// failure:
///
///   time_hours,type,origin_site,model,rps,latency_limit_rtt_ms,
///       lifetime_epochs,state_mb,max_defer_epochs,site,server
///   0.0,arrival,2,ResNet50,4.5,25,12,400,0,,
///   5.0,failure,,,,,,,,1,0
///
/// Arrival app ids are assigned sequentially by the source. Malformed lines
/// (wrong arity, bad numbers, unknown model/type, negative or non-finite
/// values, counts beyond their field's range) throw std::runtime_error naming the 1-based line — or, under
/// ErrorPolicy::kSkip, are dropped and counted so one bad producer cannot
/// kill a long-running loop.
class CsvEventSource final : public EventSource {
 public:
  enum class ErrorPolicy : std::uint8_t { kThrow, kSkip };

  static constexpr const char* kCsvHeader =
      "time_hours,type,origin_site,model,rps,latency_limit_rtt_ms,lifetime_epochs,"
      "state_mb,max_defer_epochs,site,server";

  explicit CsvEventSource(std::istream& in, ErrorPolicy policy = ErrorPolicy::kThrow);

  [[nodiscard]] std::optional<Event> next() override;

  /// Lines dropped under ErrorPolicy::kSkip, and the last rejection.
  [[nodiscard]] std::uint64_t rejected_lines() const noexcept { return rejected_; }
  [[nodiscard]] const std::string& last_error() const noexcept { return last_error_; }

 private:
  [[nodiscard]] std::optional<Event> parse_line(const std::string& line);

  std::istream* in_;
  ErrorPolicy policy_;
  std::size_t line_number_ = 0;  // 1-based, counting the header
  bool header_checked_ = false;
  std::uint64_t rejected_ = 0;
  std::string last_error_;
  sim::AppId next_id_ = 0;
};

}  // namespace carbonedge::serve
