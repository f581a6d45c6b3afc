#include "carbon/trace_io.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "store_test_util.hpp"

namespace carbonedge::carbon {
namespace {

CarbonTrace small_trace(const std::string& zone) {
  GenerationMix average;
  average.set(EnergySource::kGas, 0.5);
  average.set(EnergySource::kWind, 0.5);
  return CarbonTrace(zone, {100.0, 200.5, 0.0, 433.25}, average);
}

// Every intensity the writer emits reads back as the value it was given
// (all of small_trace's values fit in 4 decimals), under its zone and hour.
TEST(TraceIo, RoundTripsIntensity) {
  const std::vector<CarbonTrace> traces = {small_trace("Alpha"), small_trace("Beta")};
  std::ostringstream out;
  write_traces_csv(out, traces);
  std::istringstream in(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "zone,hour,intensity_g_kwh");
  for (const CarbonTrace& trace : traces) {
    for (std::size_t h = 0; h < trace.hours(); ++h) {
      ASSERT_TRUE(std::getline(in, line));
      const std::string prefix = trace.zone() + "," + std::to_string(h) + ",";
      ASSERT_EQ(line.substr(0, prefix.size()), prefix) << line;
      EXPECT_DOUBLE_EQ(std::stod(line.substr(prefix.size())), trace.at(h)) << line;
    }
  }
  EXPECT_FALSE(std::getline(in, line));
}

// save_traces writes to a file exactly what write_traces_csv writes to a
// stream, here for a single trace.
TEST(TraceIo, SingleTraceWriter) {
  const std::vector<CarbonTrace> traces = {small_trace("Solo")};
  std::ostringstream expected;
  write_traces_csv(expected, traces);
  testutil::TempStoreDir scratch("carbonedge_trace_io");
  std::filesystem::create_directories(scratch.dir);
  const std::filesystem::path path = scratch.dir / "solo.csv";
  save_traces(path, traces);
  std::ifstream file(path);
  std::ostringstream written;
  written << file.rdbuf();
  EXPECT_EQ(written.str(), expected.str());
  EXPECT_EQ(written.str(),
            "zone,hour,intensity_g_kwh\n"
            "Solo,0,100\n"
            "Solo,1,200.5\n"
            "Solo,2,0\n"
            "Solo,3,433.25\n");
}

// The exact export text: one header, then rows grouped by zone in the order
// given, hours ascending, intensities rounded to 4 decimals with trailing
// zeros trimmed. The average mix is not written.
TEST(TraceIo, WritesRowsGroupedByZoneAtFourDecimals) {
  GenerationMix average;
  average.set(EnergySource::kGas, 1.0);
  const std::vector<CarbonTrace> traces = {
      CarbonTrace("Alpha", {100.0, 200.5, 433.25678}, average),
      CarbonTrace("Beta", {0.0, 12.34564, 7.00001}),
  };
  std::ostringstream out;
  write_traces_csv(out, traces);
  EXPECT_EQ(out.str(),
            "zone,hour,intensity_g_kwh\n"
            "Alpha,0,100\n"
            "Alpha,1,200.5\n"
            "Alpha,2,433.2568\n"
            "Beta,0,0\n"
            "Beta,1,12.3456\n"
            "Beta,2,7\n");
}

}  // namespace
}  // namespace carbonedge::carbon
