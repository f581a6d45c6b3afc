#include "carbon/trace_io.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>

#include "analysis/mesoscale.hpp"
#include "carbon/synthesizer.hpp"
#include "carbon/zone.hpp"
#include "geo/region.hpp"

namespace carbonedge::carbon {
namespace {

CarbonTrace small_trace(const std::string& zone) {
  GenerationMix average;
  average.set(EnergySource::kGas, 0.5);
  average.set(EnergySource::kWind, 0.5);
  return CarbonTrace(zone, {100.0, 200.5, 0.0, 433.25}, average);
}

TEST(TraceIo, RoundTripsIntensity) {
  std::ostringstream out;
  write_traces_csv(out, {small_trace("Alpha"), small_trace("Beta")});
  // Only the hourly series is written; the average mix stays behind.
  EXPECT_EQ(out.str().substr(0, out.str().find('\n')), "zone,hour,intensity_g_kwh");
  const auto traces = read_traces_csv(out.str());
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0].zone(), "Alpha");
  EXPECT_EQ(traces[1].zone(), "Beta");
  ASSERT_EQ(traces[0].hours(), 4u);
  EXPECT_DOUBLE_EQ(traces[0].at(1), 200.5);
  EXPECT_DOUBLE_EQ(traces[0].at(3), 433.25);
  EXPECT_FALSE(traces[0].average_mix().has_value());
}

TEST(TraceIo, MixColumnsKeepTheirAverage) {
  // Three hours of unnormalized per-source columns for each of two zones.
  // Values of very different magnitude make the fold's order visible in
  // the last bits.
  const std::array<std::array<const char*, kSourceCount>, 3> cells = {{
      {"0.1", "0.2", "0.3", "1e-17", "0", "0.7", "3", "0.05"},
      {"1e16", "0.3", "0.1", "0.2", "0.9", "0", "1e-3", "0.15"},
      {"0.3", "0.1", "0.2", "0.4", "0.33", "0.2", "7", "0.25"},
  }};
  std::string text = "zone,hour,intensity_g_kwh";
  for (const EnergySource s : kAllSources) text.append(",").append(to_string(s));
  text += "\n";
  for (const char* zone : {"A", "B"}) {
    for (std::size_t h = 0; h < cells.size(); ++h) {
      text.append(zone).append(",").append(std::to_string(h)).append(",50");
      // Zone B lists the same rows with its sources rotated by one.
      const std::size_t shift = zone[0] == 'B' ? 1 : 0;
      for (std::size_t i = 0; i < kSourceCount; ++i) {
        text.append(",").append(cells[h][(i + shift) % kSourceCount]);
      }
      text += "\n";
    }
  }
  const auto traces = read_traces_csv(text);
  ASSERT_EQ(traces.size(), 2u);
  for (std::size_t z = 0; z < traces.size(); ++z) {
    // Reference fold: sum each source over the hours in hour order, then
    // divide by the total of the sums taken in source order.
    std::array<double, kSourceCount> expected{};
    for (std::size_t h = 0; h < cells.size(); ++h) {
      for (std::size_t i = 0; i < kSourceCount; ++i) {
        expected[i] += std::stod(cells[h][(i + z) % kSourceCount]);
      }
    }
    double total = 0.0;
    for (const double v : expected) total += v;
    for (double& v : expected) v /= total;

    ASSERT_TRUE(traces[z].average_mix().has_value()) << traces[z].zone();
    const std::array<double, kSourceCount>& got = traces[z].average_mix()->shares();
    for (std::size_t i = 0; i < kSourceCount; ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]), std::bit_cast<std::uint64_t>(expected[i]))
          << traces[z].zone() << " source " << i;
    }
  }
  EXPECT_GT(analysis::zone_stats(traces[0]).low_carbon_share, 0.0);
}

TEST(TraceIo, SingleTraceWriter) {
  std::ostringstream out;
  write_trace_csv(out, small_trace("Solo"));
  const auto traces = read_traces_csv(out.str());
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].zone(), "Solo");
}

TEST(TraceIo, IntensityOnlyWithoutMixColumns) {
  const auto traces = read_traces_csv("zone,hour,intensity_g_kwh\nX,0,50\nX,1,60\n");
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_FALSE(traces[0].average_mix().has_value());
  EXPECT_DOUBLE_EQ(traces[0].at(1), 60.0);
  // Without an average the mesoscale stats report no low-carbon share.
  EXPECT_EQ(analysis::zone_stats(traces[0]).low_carbon_share, 0.0);
}

TEST(TraceIo, MissingColumnsThrow) {
  EXPECT_THROW(read_traces_csv("zone,intensity_g_kwh\nX,50\n"), std::runtime_error);
}

TEST(TraceIo, NonContiguousHoursThrow) {
  EXPECT_THROW(read_traces_csv("zone,hour,intensity_g_kwh\nX,0,50\nX,2,60\n"),
               std::runtime_error);
}

TEST(TraceIo, NegativeIntensityThrows) {
  EXPECT_THROW(read_traces_csv("zone,hour,intensity_g_kwh\nX,0,-5\n"), std::runtime_error);
}

// what() of the error read_traces_csv raises for `text`, or "" if none.
std::string parse_error(const std::string& text) {
  try {
    (void)read_traces_csv(text);
  } catch (const std::runtime_error& error) {
    return error.what();
  }
  return "";
}

TEST(TraceIo, ParseErrorsReportTheOffendingLine) {
  // Header is line 1; the bad row below is line 3.
  const std::string error =
      parse_error("zone,hour,intensity_g_kwh\nX,0,50\nX,1,oops\n");
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
  EXPECT_NE(error.find("oops"), std::string::npos) << error;

  EXPECT_NE(parse_error("zone,hour,intensity_g_kwh\nX,zero,50\n").find("line 2"),
            std::string::npos);
  EXPECT_NE(parse_error("zone,hour,intensity_g_kwh\nX,0,50\nX,3,60\n").find("line 3"),
            std::string::npos);  // non-contiguous hours
  EXPECT_NE(parse_error("zone,hour,intensity_g_kwh\nX,0,-5\n").find("line 2"),
            std::string::npos);  // negative intensity
}

TEST(TraceIo, RejectsNonFiniteAndTrailingGarbageValues) {
  // NaN/inf intensities would silently poison every downstream mean.
  EXPECT_NE(parse_error("zone,hour,intensity_g_kwh\nX,0,nan\n").find("non-finite"),
            std::string::npos);
  EXPECT_NE(parse_error("zone,hour,intensity_g_kwh\nX,0,inf\n").find("non-finite"),
            std::string::npos);
  // Partial numeric parses ("12abc") are data errors, not value 12.
  EXPECT_NE(parse_error("zone,hour,intensity_g_kwh\nX,0,12abc\n").find("invalid intensity"),
            std::string::npos);
  EXPECT_NE(parse_error("zone,hour,intensity_g_kwh\nX,0x1,50\n").find("invalid hour"),
            std::string::npos);
  EXPECT_NE(parse_error("zone,hour,intensity_g_kwh\nX,0,\n").find("invalid intensity"),
            std::string::npos);
}

TEST(TraceIo, RejectsBadMixShares) {
  const std::string header =
      "zone,hour,intensity_g_kwh,hydro,solar,wind,nuclear,biomass,gas,oil,coal\n";
  EXPECT_NE(parse_error(header + "X,0,50,0.5,0,0,0,0,nan,0,0.5\n").find("non-finite"),
            std::string::npos);
  EXPECT_NE(parse_error(header + "X,0,50,-0.5,0,0,0,0,0.5,0,1\n").find("negative mix share"),
            std::string::npos);
  EXPECT_NE(parse_error(header + "X,0,50,bad,0,0,0,0,0.5,0,0.5\n").find("line 2"),
            std::string::npos);
}

TEST(TraceIo, RejectsEmptyZoneNames) {
  EXPECT_NE(parse_error("zone,hour,intensity_g_kwh\n,0,50\n").find("empty zone"),
            std::string::npos);
}

TEST(TraceIo, SyntheticYearRoundTripsThroughFile) {
  const auto& db = geo::builtin_sites();
  const TraceSynthesizer synthesizer;
  const CarbonTrace original =
      synthesizer.synthesize(ZoneCatalog::builtin().spec_for(db.require("Graz")));
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "carbonedge_trace_io_test.csv";
  save_traces(path, {original});
  const auto loaded = load_traces(path);
  std::filesystem::remove(path);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].hours(), original.hours());
  for (HourIndex h = 0; h < original.hours(); h += 517) {
    EXPECT_NEAR(loaded[0].at(h), original.at(h), 1e-3);
  }
  EXPECT_NEAR(loaded[0].yearly_mean(), original.yearly_mean(), 0.01);
}

TEST(TraceIo, UnreadablePathThrows) {
  EXPECT_THROW(load_traces("/nonexistent/dir/file.csv"), std::runtime_error);
}

TEST(TraceIo, ZoneOrderPreserved) {
  const auto traces = read_traces_csv(
      "zone,hour,intensity_g_kwh\nZed,0,1\nAnna,0,2\nZed,1,3\nAnna,1,4\n");
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0].zone(), "Zed");  // first appearance wins, not alphabetical
  EXPECT_DOUBLE_EQ(traces[0].at(1), 3.0);
}

}  // namespace
}  // namespace carbonedge::carbon
