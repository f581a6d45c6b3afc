#include "carbon/trace_io.hpp"

#include <fstream>
#include <ostream>
#include <stdexcept>

#include "util/csv.hpp"

namespace carbonedge::carbon {

void write_traces_csv(std::ostream& out, const std::vector<CarbonTrace>& traces) {
  util::CsvWriter writer(out);
  writer.header({"zone", "hour", "intensity_g_kwh"});
  for (const CarbonTrace& trace : traces) {
    for (std::size_t h = 0; h < trace.hours(); ++h) {
      writer.row({trace.zone(), std::to_string(h),
                  util::format_double(trace.at(static_cast<HourIndex>(h)), 4)});
    }
  }
}

void save_traces(const std::filesystem::path& path, const std::vector<CarbonTrace>& traces) {
  std::ofstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("trace csv: cannot write " + path.string());
  write_traces_csv(file, traces);
}

}  // namespace carbonedge::carbon
