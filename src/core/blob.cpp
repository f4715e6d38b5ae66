#include "core/blob.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>

namespace otis::core {

std::uint64_t blob_checksum(const std::uint8_t* data, std::size_t size) {
  constexpr std::uint64_t kPrime = 0x100000001B3ULL;
  std::uint64_t h = 0xCBF29CE484222325ULL;
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t word = 0;
    for (int b = 0; b < 8; ++b) {
      word |= static_cast<std::uint64_t>(data[i + static_cast<std::size_t>(b)])
              << (8 * b);
    }
    h = (h ^ word) * kPrime;
  }
  for (; i < size; ++i) {
    h = (h ^ data[i]) * kPrime;
  }
  h = (h ^ static_cast<std::uint64_t>(size)) * kPrime;
  // splitmix64 finalizer: spreads every input bit over the whole word.
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBULL;
  return h ^ (h >> 31);
}

void write_file_atomic(const std::string& path,
                       const std::vector<std::uint8_t>& bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    OTIS_REQUIRE(out.good(), "write_file_atomic: cannot open " + tmp);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.flush();
    OTIS_REQUIRE(out.good(), "write_file_atomic: short write to " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  OTIS_REQUIRE(!ec, "write_file_atomic: rename to " + path + " failed");
}

bool read_file(const std::string& path, std::vector<std::uint8_t>& bytes) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.good()) {
    return false;
  }
  const std::streamsize size = in.tellg();
  if (size < 0) {
    return false;
  }
  in.seekg(0);
  bytes.resize(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  return in.good();
}

}  // namespace otis::core
