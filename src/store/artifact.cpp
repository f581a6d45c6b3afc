#include "store/artifact.hpp"

#include <cstring>
#include <stdexcept>

#include "util/fs.hpp"
#include "util/hash.hpp"

namespace carbonedge::store {

namespace {

// "CEAF" + CRLF + ^Z + NUL: like the PNG magic, the tail bytes catch text-
// mode transfer mangling and stop accidental `cat` spew at the ^Z.
constexpr char kMagic[8] = {'C', 'E', 'A', 'F', '\r', '\n', '\x1a', '\0'};
constexpr std::size_t kHeaderBytes = 8 + 4 + 4 + 8 + 8;

struct Header {
  std::uint32_t version = 0;
  std::uint32_t kind = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t checksum = 0;
};

// Parses and validates the fixed header against the file's actual size.
// Returns false (with no exception) on any structural problem.
bool parse_header(std::string_view bytes, Header& header) noexcept {
  if (bytes.size() < kHeaderBytes) return false;
  if (std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0) return false;
  std::memcpy(&header.version, bytes.data() + 8, 4);
  std::memcpy(&header.kind, bytes.data() + 12, 4);
  std::memcpy(&header.payload_bytes, bytes.data() + 16, 8);
  std::memcpy(&header.checksum, bytes.data() + 24, 8);
  if (header.version != kFormatVersion) return false;
  if (bytes.size() - kHeaderBytes != header.payload_bytes) return false;
  return true;
}

}  // namespace

const char* to_string(ArtifactKind kind) noexcept {
  switch (kind) {
    case ArtifactKind::kCarbonTrace: return "trace";
    case ArtifactKind::kSweepOutcome: return "sweep";
    case ArtifactKind::kSiteCatalog: return "catalog";
  }
  return "unknown";
}

void ByteReader::expect_exhausted() const {
  if (!exhausted()) throw std::runtime_error("artifact: trailing bytes in payload");
}

const char* ByteReader::take(std::uint64_t n) {
  if (n > static_cast<std::uint64_t>(end_ - cur_)) {
    throw std::runtime_error("artifact: truncated payload");
  }
  const char* p = cur_;
  cur_ += n;
  return p;
}

void write_artifact_file(const std::filesystem::path& path, ArtifactKind kind,
                         std::string_view payload) {
  std::string bytes;
  bytes.reserve(kHeaderBytes + payload.size());
  bytes.append(kMagic, sizeof kMagic);
  const std::uint32_t version = kFormatVersion;
  const auto kind_raw = static_cast<std::uint32_t>(kind);
  const std::uint64_t payload_bytes = payload.size();
  const std::uint64_t checksum = util::fnv1a64(payload);
  bytes.append(reinterpret_cast<const char*>(&version), 4);
  bytes.append(reinterpret_cast<const char*>(&kind_raw), 4);
  bytes.append(reinterpret_cast<const char*>(&payload_bytes), 8);
  bytes.append(reinterpret_cast<const char*>(&checksum), 8);
  bytes.append(payload.data(), payload.size());
  util::write_file_atomic(path, bytes);
}

Artifact read_artifact_file(const std::filesystem::path& path) {
  const util::FileView view(path);
  Header header;
  if (!parse_header(view.bytes(), header)) {
    throw std::runtime_error("artifact: bad header in " + path.string());
  }
  const std::string_view payload = view.bytes().substr(kHeaderBytes);
  if (util::fnv1a64(payload) != header.checksum) {
    throw std::runtime_error("artifact: checksum mismatch in " + path.string());
  }
  return Artifact{static_cast<ArtifactKind>(header.kind), std::string(payload)};
}

ArtifactInfo inspect_artifact_file(const std::filesystem::path& path) noexcept {
  ArtifactInfo info;
  try {
    const util::FileView view(path);
    Header header;
    if (!parse_header(view.bytes(), header)) return info;
    info.kind = static_cast<ArtifactKind>(header.kind);
    info.payload_bytes = header.payload_bytes;
    info.intact = util::fnv1a64(view.bytes().substr(kHeaderBytes)) == header.checksum;
  } catch (...) {
    // unreadable file == not intact
  }
  return info;
}

}  // namespace carbonedge::store
