#include "pclust/util/io.hpp"

#include <cerrno>
#include <cstring>

#include "pclust/util/log.hpp"
#include "pclust/util/metrics.hpp"
#include "pclust/util/retry.hpp"
#include "pclust/util/strings.hpp"

#if !defined(_WIN32)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace pclust::util::io {

namespace {

constexpr std::string_view kClassNames[kArtifactClassCount] = {
    "families", "checkpoint", "report",    "telemetry",
    "trace",    "log",        "provenance"};

constexpr std::string_view kKindNames[] = {"enospc", "eio", "short", "fsync"};

std::string errno_message() {
  return std::strerror(errno);
}

/// Nth-write counters index.
std::size_t idx(ArtifactClass cls) { return static_cast<std::size_t>(cls); }

/// One write attempt of the tmp file, POSIX so the fsync barrier is real.
/// @p short_bytes < bytes.size() truncates the payload (injected short
/// write); @p fail_fsync makes the durability barrier fail. Throws
/// std::runtime_error on any failure — with_retry classifies nothing, it
/// just retries.
void write_tmp(const std::filesystem::path& tmp, std::string_view bytes,
               bool fsync_on_commit, std::size_t write_bytes,
               bool fail_fsync) {
#if !defined(_WIN32)
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw std::runtime_error("cannot open " + tmp.string() + ": " +
                             errno_message());
  }
  std::size_t off = 0;
  while (off < write_bytes) {
    const ::ssize_t n = ::write(fd, bytes.data() + off, write_bytes - off);
    if (n <= 0) {
      const std::string why = errno_message();
      ::close(fd);
      throw std::runtime_error("write failed on " + tmp.string() + ": " + why);
    }
    off += static_cast<std::size_t>(n);
  }
  if (fsync_on_commit) {
    if (fail_fsync || ::fsync(fd) != 0) {
      const std::string why = fail_fsync ? "injected fsync failure"
                                         : errno_message();
      ::close(fd);
      throw std::runtime_error("fsync failed on " + tmp.string() + ": " + why);
    }
  }
  if (::close(fd) != 0) {
    throw std::runtime_error("close failed on " + tmp.string() + ": " +
                             errno_message());
  }
#else
  std::FILE* f = std::fopen(tmp.string().c_str(), "wb");
  if (!f) {
    throw std::runtime_error("cannot open " + tmp.string() + ": " +
                             errno_message());
  }
  const std::size_t n = std::fwrite(bytes.data(), 1, write_bytes, f);
  const bool flush_ok = std::fflush(f) == 0 && !fail_fsync;
  std::fclose(f);
  if (n != write_bytes || !flush_ok) {
    throw std::runtime_error("write failed on " + tmp.string());
  }
#endif
  // Short-write detection: what the filesystem holds must be what we
  // meant to commit — an injected (or real) partial write fails here.
  std::error_code ec;
  const std::uintmax_t on_disk = std::filesystem::file_size(tmp, ec);
  if (ec || on_disk != bytes.size()) {
    throw std::runtime_error(
        "short write on " + tmp.string() + ": " +
        std::to_string(ec ? 0 : static_cast<std::uint64_t>(on_disk)) + " of " +
        std::to_string(bytes.size()) + " bytes on disk");
  }
}

bool drop_on_failure(ArtifactClass cls) {
  switch (cls) {
    case ArtifactClass::kTelemetry:
    case ArtifactClass::kTrace:
    case ArtifactClass::kLog:
      return true;
    default:
      return false;
  }
}

}  // namespace

std::string_view class_name(ArtifactClass cls) {
  return kClassNames[idx(cls)];
}

ArtifactClass class_from_name(std::string_view name) {
  for (int c = 0; c < kArtifactClassCount; ++c) {
    if (kClassNames[c] == name) return static_cast<ArtifactClass>(c);
  }
  throw std::invalid_argument("unknown artifact class '" + std::string(name) +
                              "' (use families, checkpoint, report, "
                              "telemetry, trace, log, or provenance)");
}

std::string_view kind_name(FaultKind kind) {
  return kKindNames[static_cast<int>(kind)];
}

const IoFault* IoFaultPlan::fault_at(ArtifactClass cls,
                                     std::uint64_t ordinal) const {
  for (const IoFault& f : faults) {
    if (f.cls != cls) continue;
    if (f.sticky ? ordinal >= f.at_write : ordinal == f.at_write) return &f;
  }
  return nullptr;
}

IoFaultPlan IoFaultPlan::parse(const std::string& spec) {
  IoFaultPlan plan;
  for (const std::string& raw : split(spec, ',')) {
    const std::string entry(trim(raw));
    if (entry.empty()) continue;
    const auto bad = [&](const std::string& why) {
      return std::invalid_argument("--io-fault entry '" + entry + "': " + why +
                                   " (expected class:kind@N[:sticky])");
    };
    const auto c1 = entry.find(':');
    if (c1 == std::string::npos) throw bad("missing ':'");
    const auto at = entry.find('@', c1);
    if (at == std::string::npos) throw bad("missing '@N'");
    IoFault fault;
    fault.cls = class_from_name(entry.substr(0, c1));
    const std::string kind = entry.substr(c1 + 1, at - c1 - 1);
    if (kind == "enospc") {
      fault.kind = FaultKind::kEnospc;
    } else if (kind == "eio") {
      fault.kind = FaultKind::kEio;
    } else if (kind == "short") {
      fault.kind = FaultKind::kShortWrite;
    } else if (kind == "fsync") {
      fault.kind = FaultKind::kFsyncFail;
    } else {
      throw bad("unknown kind '" + kind +
                "' (use enospc, eio, short, or fsync)");
    }
    std::string count = entry.substr(at + 1);
    if (const auto c2 = count.find(':'); c2 != std::string::npos) {
      const std::string tail = count.substr(c2 + 1);
      if (tail != "sticky") throw bad("unknown suffix ':" + tail + "'");
      fault.sticky = true;
      count.resize(c2);
    }
    try {
      std::size_t pos = 0;
      fault.at_write = std::stoull(count, &pos);
      if (pos != count.size()) throw bad("'" + count + "' is not a number");
    } catch (const std::invalid_argument&) {
      throw bad("'" + count + "' is not a number");
    } catch (const std::out_of_range&) {
      throw bad("'" + count + "' is out of range");
    }
    plan.faults.push_back(fault);
  }
  return plan;
}

std::string IoFaultPlan::to_string() const {
  std::string out;
  for (const IoFault& f : faults) {
    if (!out.empty()) out += ',';
    out += std::string(class_name(f.cls)) + ":" +
           std::string(kind_name(f.kind)) + "@" + std::to_string(f.at_write) +
           (f.sticky ? ":sticky" : "");
  }
  return out;
}

IoError::IoError(ArtifactClass cls, std::filesystem::path path,
                 const std::string& message)
    : std::runtime_error("io[" + std::string(class_name(cls)) + "] " +
                         path.string() + ": " + message),
      cls_(cls),
      path_(path.string()) {}

IoEnv& IoEnv::instance() {
  static IoEnv env;
  return env;
}

IoEnv& io() { return IoEnv::instance(); }

void IoEnv::configure(IoFaultPlan plan) {
  std::lock_guard lk(mu_);
  plan_ = std::move(plan);
  for (int c = 0; c < kArtifactClassCount; ++c) {
    writes_[c].store(0, std::memory_order_relaxed);
    opens_[c].store(0, std::memory_order_relaxed);
    dropped_[c].store(0, std::memory_order_relaxed);
    warned_[c].store(false, std::memory_order_relaxed);
  }
  plan_active_.store(!plan_.empty(), std::memory_order_release);
  if (!plan_.empty()) {
    PCLUST_INFO << "io: fault plan active: " << plan_.to_string();
  }
}

const IoFault* IoEnv::injected(ArtifactClass cls, std::uint64_t ordinal,
                               std::uint32_t attempt) const {
  if (!fault_injection_enabled()) return nullptr;
  std::lock_guard lk(mu_);
  const IoFault* f = plan_.fault_at(cls, ordinal);
  if (!f) return nullptr;
  // Transient faults fail only the first attempt: the retry layer heals
  // them. Sticky storms fail every attempt.
  if (!f->sticky && attempt > 1) return nullptr;
  return f;
}

void IoEnv::count_dropped(ArtifactClass cls) {
  dropped_[idx(cls)].fetch_add(1, std::memory_order_relaxed);
  metrics().counter("io.dropped").add(1);
  metrics()
      .counter("io.dropped." + std::string(class_name(cls)))
      .add(1);
  if (!warned_[idx(cls)].exchange(true, std::memory_order_relaxed)) {
    PCLUST_WARN << "io: dropping " << class_name(cls)
                << " writes (persistent I/O failure); the "
                << class_name(cls)
                << " artifact is degraded but the run continues";
  }
}

CommitStatus IoEnv::commit_file(ArtifactClass cls,
                                const std::filesystem::path& path,
                                std::string_view bytes,
                                bool fsync_on_commit) {
  const std::uint64_t ordinal =
      writes_[idx(cls)].fetch_add(1, std::memory_order_relaxed) + 1;
  metrics().counter("io.writes").add(1);
  const std::filesystem::path tmp = path.string() + ".tmp";
  std::uint32_t attempt = 0;
  try {
    with_retry(RetryPolicy{},
               "commit " + std::string(class_name(cls)) + " " + path.string(),
               [&] {
                 ++attempt;
                 std::size_t write_bytes = bytes.size();
                 bool fail_fsync = false;
                 if (const IoFault* f = injected(cls, ordinal, attempt)) {
                   metrics().counter("io.faults_injected").add(1);
                   switch (f->kind) {
                     case FaultKind::kEnospc:
                       throw std::runtime_error(
                           "injected ENOSPC (no space left on device) on " +
                           tmp.string());
                     case FaultKind::kEio:
                       throw std::runtime_error("injected EIO on " +
                                                tmp.string());
                     case FaultKind::kShortWrite:
                       write_bytes = bytes.size() / 2;
                       break;
                     case FaultKind::kFsyncFail:
                       fail_fsync = true;
                       break;
                   }
                 }
                 write_tmp(tmp, bytes, fsync_on_commit, write_bytes,
                           fail_fsync);
                 std::error_code ec;
                 std::filesystem::rename(tmp, path, ec);
                 if (ec) {
                   throw std::runtime_error("cannot rename " + tmp.string() +
                                            " into place: " + ec.message());
                 }
               });
  } catch (const std::exception& ex) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);  // never leave a torn tmp behind
    if (drop_on_failure(cls)) {
      count_dropped(cls);
      return CommitStatus::kDropped;
    }
    throw IoError(cls, path, ex.what());
  }
  metrics().counter("io.bytes_committed").add(bytes.size());
  return CommitStatus::kCommitted;
}

bool IoEnv::admit_append(ArtifactClass cls) {
  const std::uint64_t ordinal =
      writes_[idx(cls)].fetch_add(1, std::memory_order_relaxed) + 1;
  if (const IoFault* f = injected(cls, ordinal, /*attempt=*/1)) {
    (void)f;
    metrics().counter("io.faults_injected").add(1);
    return false;
  }
  return true;
}

std::FILE* IoEnv::open_stream(ArtifactClass cls, const std::string& path,
                              const char* mode) {
  const std::uint64_t nth =
      opens_[idx(cls)].fetch_add(1, std::memory_order_relaxed) + 1;
  if (fault_injection_enabled()) {
    std::lock_guard lk(mu_);
    // at_write == 0 entries target opens: the first open for a transient
    // fault, every open for a sticky one.
    for (const IoFault& f : plan_.faults) {
      if (f.cls == cls && f.at_write == 0 && (f.sticky || nth == 1)) {
        metrics().counter("io.faults_injected").add(1);
        return nullptr;
      }
    }
  }
  return std::fopen(path.c_str(), mode);
}

std::uint64_t IoEnv::writes(ArtifactClass cls) const {
  return writes_[idx(cls)].load(std::memory_order_relaxed);
}

std::uint64_t IoEnv::dropped(ArtifactClass cls) const {
  return dropped_[idx(cls)].load(std::memory_order_relaxed);
}

std::uint64_t IoEnv::dropped_total() const {
  std::uint64_t n = 0;
  for (int c = 0; c < kArtifactClassCount; ++c) {
    n += dropped_[c].load(std::memory_order_relaxed);
  }
  return n;
}

}  // namespace pclust::util::io
