#include "pclust/util/memsize.hpp"

#include <cstdio>
#include <cstring>

namespace pclust::util {

namespace {

/// Parse "<Key>:  <kB> kB" lines out of /proc/self/status. Returns 0 when
/// the file or key is missing (non-Linux hosts), which downstream treats
/// as "RSS unavailable" rather than an error.
std::uint64_t status_kb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "re");
  if (!f) return 0;
  char line[256];
  const std::size_t key_len = std::strlen(key);
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof line, f)) {
    if (std::strncmp(line, key, key_len) != 0 || line[key_len] != ':') {
      continue;
    }
    unsigned long long value = 0;
    if (std::sscanf(line + key_len + 1, "%llu", &value) == 1) kb = value;
    break;
  }
  std::fclose(f);
  return kb;
}

}  // namespace

std::uint64_t string_bytes(const std::string& s) {
  // Short strings live in the SSO buffer inside the object; only a
  // capacity that outgrew it costs heap. sizeof(std::string) - 1 is a
  // conservative stand-in for the implementation's SSO threshold.
  return s.capacity() >= sizeof(std::string)
             ? static_cast<std::uint64_t>(s.capacity()) + 1
             : 0;
}

std::uint64_t current_rss_bytes() { return status_kb("VmRSS") * 1024; }

std::uint64_t peak_rss_bytes() { return status_kb("VmHWM") * 1024; }

}  // namespace pclust::util
