#include "geo/latency_io.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>

#include "geo/region.hpp"

namespace carbonedge::geo {
namespace {

std::vector<City> florida_cities() { return florida_region().resolve(); }

TEST(LatencyIo, RoundTripsThroughCsv) {
  const auto cities = florida_cities();
  const LatencyModel model;
  std::ostringstream out;
  write_latency_csv(out, cities, model);
  const LatencyProvider matrix = read_latency_csv(out.str(), cities);
  ASSERT_EQ(matrix.size(), cities.size());
  for (std::size_t i = 0; i < cities.size(); ++i) {
    for (std::size_t j = 0; j < cities.size(); ++j) {
      EXPECT_NEAR(matrix.one_way_ms(i, j), model.one_way_ms(cities[i], cities[j]), 1e-3);
    }
  }
}

TEST(LatencyIo, DirectionDoesNotMatter) {
  const auto cities = florida_cities();
  // Swap from/to in hand-written rows.
  std::string csv = "from,to,one_way_ms\n";
  for (std::size_t i = 0; i < cities.size(); ++i) {
    for (std::size_t j = i + 1; j < cities.size(); ++j) {
      csv += cities[j].name + "," + cities[i].name + ",5.5\n";  // reversed
    }
  }
  const LatencyProvider matrix = read_latency_csv(csv, cities);
  EXPECT_DOUBLE_EQ(matrix.one_way_ms(0, 1), 5.5);
  EXPECT_DOUBLE_EQ(matrix.one_way_ms(1, 0), 5.5);
  EXPECT_DOUBLE_EQ(matrix.one_way_ms(2, 2), 0.0);
}

TEST(LatencyIo, MissingPairThrows) {
  const auto cities = florida_cities();
  EXPECT_THROW(read_latency_csv("from,to,one_way_ms\nMiami,Tampa,3\n", cities),
               std::runtime_error);
}

TEST(LatencyIo, MissingColumnsThrow) {
  const auto cities = florida_cities();
  EXPECT_THROW(read_latency_csv("from,to,rtt_ms\nMiami,Tampa,3\n", cities), std::runtime_error);
}

TEST(LatencyIo, NegativeLatencyThrows) {
  const auto cities = florida_cities();
  std::string csv = "from,to,one_way_ms\n";
  for (std::size_t i = 0; i < cities.size(); ++i) {
    for (std::size_t j = i + 1; j < cities.size(); ++j) {
      csv += cities[i].name + "," + cities[j].name + ",-1\n";
    }
  }
  EXPECT_THROW(read_latency_csv(csv, cities), std::runtime_error);
}

// Every pair is present and valid except one cell, set to `bad`, on text
// line 3 (line 1 is the header); returns the error message.
std::string bad_cell_error(const std::string& bad) {
  const auto cities = florida_cities();
  std::string csv = "from,to,one_way_ms\n";
  for (std::size_t i = 0; i < cities.size(); ++i) {
    for (std::size_t j = i + 1; j < cities.size(); ++j) {
      const bool second_row = i == 0 && j == 2;
      csv += cities[i].name + "," + cities[j].name + "," + (second_row ? bad : "2.5") + "\n";
    }
  }
  try {
    (void)read_latency_csv(csv, cities);
  } catch (const std::runtime_error& error) {
    return error.what();
  }
  return "no error";
}

TEST(LatencyIo, NonFiniteOrMalformedCellsThrowWithTheirLine) {
  // NaN would pass every `rtt > limit` filter (the comparison is false);
  // inf, unit suffixes and non-numbers are not latencies either.
  for (const std::string bad : {"nan", "inf", "3.5ms", "abc"}) {
    const std::string error = bad_cell_error(bad);
    EXPECT_NE(error.find("latency csv line 3"), std::string::npos) << bad << ": " << error;
    EXPECT_NE(error.find("'" + bad + "'"), std::string::npos) << bad << ": " << error;
  }
}

TEST(LatencyIo, FileRoundTrip) {
  const auto cities = florida_cities();
  const LatencyModel model;
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "carbonedge_latency_io_test.csv";
  save_latency(path, cities, model);
  const LatencyProvider matrix = load_latency(path, cities);
  std::filesystem::remove(path);
  EXPECT_NEAR(matrix.one_way_ms(0, 1), model.one_way_ms(cities[0], cities[1]), 1e-3);
}

TEST(LatencyIo, UnreadablePathThrows) {
  const auto cities = florida_cities();
  EXPECT_THROW(load_latency("/nonexistent/latency.csv", cities), std::runtime_error);
}

TEST(LatencyProvider, RawConstructorValidatesShape) {
  EXPECT_THROW(LatencyProvider(3, std::vector<double>(8, 0.0)), std::invalid_argument);
  const LatencyProvider ok(2, {0.0, 1.5, 1.5, 0.0});
  EXPECT_DOUBLE_EQ(ok.one_way_ms(0, 1), 1.5);
  EXPECT_DOUBLE_EQ(ok.rtt_ms(0, 1), 3.0);
}

}  // namespace
}  // namespace carbonedge::geo
