// Artifact container format ("CEAF"): the on-disk envelope of the
// persistent store.
//
// Every artifact file is
//
//   magic[8] "CEAF\r\n\x1a\0" | version u32 | kind u32 |
//   payload_bytes u64 | payload_checksum u64 (FNV-1a) | payload bytes
//
// with all integers and doubles little-endian (static_assert'ed below; the
// supported toolchains are all little-endian). The payload is a
// kind-specific columnar serialization (store/codecs.hpp). Readers validate
// magic, version, declared size, and checksum before handing the payload
// out, so torn or corrupted files are detected instead of decoded; writers
// publish via util::write_file_atomic so a partially-written file is never
// visible under the final name. Files load through util::FileView — mmap
// where available, buffered read otherwise.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <string_view>

namespace carbonedge::store {

static_assert(std::endian::native == std::endian::little,
              "CEAF artifacts are little-endian on disk");

/// What an artifact's payload encodes (part of the on-disk header).
enum class ArtifactKind : std::uint32_t {
  kCarbonTrace = 1,   // hourly intensity series + average generation mix
  // 2 is retired (a dense latency matrix kind): never reuse it, so files
  // written with it can never decode as another kind.
  kSweepOutcome = 3,  // one scenario cell's SimulationResult
  kSiteCatalog = 4,   // compiled site catalog (columnar city table)
};

[[nodiscard]] const char* to_string(ArtifactKind kind) noexcept;

inline constexpr std::uint32_t kFormatVersion = 1;
/// File extension of store entries.
inline constexpr std::string_view kArtifactExtension = ".ceaf";

/// Little-endian payload serializer. Append-only; take() surrenders the
/// buffer.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  /// Doubles are stored as raw IEEE-754 bits: round-trips are bit-exact,
  /// which is what makes warmed sweeps byte-identical to cold ones.
  void f64(double v) { raw(&v, sizeof v); }
  void str(std::string_view s) {
    u64(s.size());
    out_.append(s.data(), s.size());
  }

  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  void raw(const void* data, std::size_t n) {
    out_.append(static_cast<const char*>(data), n);
  }
  std::string out_;
};

/// Bounds-checked payload deserializer over a borrowed byte view. Every
/// read throws std::runtime_error("artifact: truncated payload") past the
/// end, so a wrong-length payload cannot read out of bounds.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : cur_(bytes.data()), end_(cur_ + bytes.size()) {}

  [[nodiscard]] std::uint8_t u8() { return static_cast<std::uint8_t>(*take(1)); }
  [[nodiscard]] std::uint32_t u32() { return read_as<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return read_as<std::uint64_t>(); }
  [[nodiscard]] double f64() { return read_as<double>(); }
  [[nodiscard]] std::string str() {
    const std::uint64_t n = u64();
    const char* p = take(n);
    return std::string(p, n);
  }
  [[nodiscard]] bool exhausted() const noexcept { return cur_ == end_; }
  /// Throws unless every payload byte was consumed (catches schema drift).
  void expect_exhausted() const;

 private:
  template <typename T>
  [[nodiscard]] T read_as() {
    T value;
    std::memcpy(&value, take(sizeof(T)), sizeof(T));
    return value;
  }
  const char* take(std::uint64_t n);

  const char* cur_;
  const char* end_;
};

/// Frame `payload` into a CEAF container and publish it atomically.
void write_artifact_file(const std::filesystem::path& path, ArtifactKind kind,
                         std::string_view payload);

struct Artifact {
  ArtifactKind kind{};
  std::string payload;
};

/// Load and fully validate an artifact. Throws std::runtime_error naming
/// the file on missing/bad magic, unsupported version, size mismatch, or
/// checksum failure.
[[nodiscard]] Artifact read_artifact_file(const std::filesystem::path& path);

/// Header + checksum probe without decoding (store ls/verify).
struct ArtifactInfo {
  ArtifactKind kind{};
  std::uint64_t payload_bytes = 0;
  bool intact = false;  // header valid and checksum matches
};
[[nodiscard]] ArtifactInfo inspect_artifact_file(const std::filesystem::path& path) noexcept;

}  // namespace carbonedge::store
