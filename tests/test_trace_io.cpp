#include "carbon/trace_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>

#include "carbon/synthesizer.hpp"
#include "carbon/zone.hpp"
#include "geo/region.hpp"

namespace carbonedge::carbon {
namespace {

CarbonTrace small_trace(const std::string& zone) {
  CarbonTrace trace(zone, {100.0, 200.5, 0.0, 433.25});
  std::vector<GenerationMix> mixes(4);
  for (std::size_t h = 0; h < 4; ++h) {
    mixes[h].set(EnergySource::kGas, 0.5);
    mixes[h].set(EnergySource::kWind, 0.5);
  }
  trace.set_mixes(std::move(mixes));
  return trace;
}

TEST(TraceIo, RoundTripsIntensityAndMix) {
  std::ostringstream out;
  write_traces_csv(out, {small_trace("Alpha"), small_trace("Beta")});
  const auto traces = read_traces_csv(out.str());
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0].zone(), "Alpha");
  EXPECT_EQ(traces[1].zone(), "Beta");
  ASSERT_EQ(traces[0].hours(), 4u);
  EXPECT_DOUBLE_EQ(traces[0].at(1), 200.5);
  EXPECT_DOUBLE_EQ(traces[0].at(3), 433.25);
  ASSERT_EQ(traces[0].mixes().size(), 4u);
  EXPECT_NEAR(traces[0].mixes()[0].at(EnergySource::kWind), 0.5, 1e-9);
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
  EXPECT_TRUE(traces[0].mixes().empty());
  EXPECT_DOUBLE_EQ(traces[0].at(1), 60.0);
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
