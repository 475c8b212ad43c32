// Fault-injectable I/O environment for every file artifact pclust writes.
//
// All durable outputs — family clusterings, generated FASTA, checkpoints,
// run reports, telemetry JSONL, trace timelines, the optional log sink, and
// spill files — go through the process-wide IoEnv. It provides
//
//   * atomic commits (tmp file + rename, optional fsync-on-commit) with
//     short-write detection, retried with exponential backoff
//     (util/retry, counted under "io.retries"),
//   * a seeded, deterministic fault plan (IoFaultPlan) that injects
//     ENOSPC / EIO / short writes / fsync failures at the Nth write of an
//     artifact class — mirroring the mpsim FaultPlan idiom: a fault is a
//     pure function of the plan and the write ordinal, never wall-clock,
//   * a per-class degradation policy once retries are exhausted:
//
//       families, report, spill  -> throw IoError (class+path attributed)
//       checkpoint               -> throw IoError; write_checkpoint rolls
//                                   back to the previous generation and
//                                   the run continues (checkpointing is
//                                   an optimization, not a requirement)
//       telemetry, trace, log    -> drop-and-count ("io.dropped" metrics
//                                   plus a warning record/log line);
//                                   observability loss never alters the
//                                   family output
//
// With an empty plan the fast paths are a relaxed counter increment and a
// null-pointer test, keeping the enabled-but-fault-free overhead within
// the bench_pipeline perf gate.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace pclust::util::io {

/// Every durable artifact pclust writes belongs to exactly one class; the
/// class selects both the fault-injection stream and the degradation
/// policy.
enum class ArtifactClass : int {
  kFamilies = 0,  // clustering output — the product; losing it is fatal —
                  // and generated FASTA inputs
  kCheckpoint,    // phase checkpoints — roll back and continue
  kReport,        // structured run reports — fatal (explicitly requested)
  kTelemetry,     // JSONL stream — drop-and-count
  kTrace,         // trace-event timeline — drop-and-count
  kLog,           // PCLUST_LOG_FILE sink — drop-and-count (stderr remains)
  kSpill,         // memory-governor spill files — throw; caller keeps RAM
  kProvenance,    // merge-provenance ledgers/sidecars — fatal (an audit
                  // artifact the operator asked for; silently losing the
                  // evidence trail would defeat its purpose)
};
inline constexpr int kArtifactClassCount = 8;

[[nodiscard]] std::string_view class_name(ArtifactClass cls);
/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] ArtifactClass class_from_name(std::string_view name);

enum class FaultKind : int {
  kEnospc = 0,  // "no space left on device" on the data write
  kEio,         // generic I/O error on the data write
  kShortWrite,  // the write "succeeds" but persists only half the bytes
  kFsyncFail,   // data lands, the durability barrier fails
};

[[nodiscard]] std::string_view kind_name(FaultKind kind);

/// One scheduled fault: the @p at_write'th logical write (1-based, counted
/// per artifact class) fails with @p kind. A non-sticky fault is
/// transient — it fails only the first attempt of that write, so the
/// retry layer heals it invisibly. A sticky fault is a storm: every
/// attempt of every write from @p at_write on fails (a full disk does not
/// come back between retries). at_write == 0 targets stream OPENS of the
/// class instead of writes (the first open, or every open when sticky).
struct IoFault {
  ArtifactClass cls = ArtifactClass::kCheckpoint;
  FaultKind kind = FaultKind::kEnospc;
  std::uint64_t at_write = 1;
  bool sticky = false;
};

/// Deterministic fault schedule, the I/O analogue of mpsim::FaultPlan.
struct IoFaultPlan {
  std::vector<IoFault> faults;

  [[nodiscard]] bool empty() const { return faults.empty(); }

  /// The fault scheduled for logical write @p ordinal of @p cls (the
  /// first match wins), or nullptr. Pure: same plan + ordinal, same
  /// answer.
  [[nodiscard]] const IoFault* fault_at(ArtifactClass cls,
                                        std::uint64_t ordinal) const;

  /// Parse a CLI spec: comma-separated `class:kind@N[:sticky]` entries,
  /// e.g. "checkpoint:enospc@2:sticky,telemetry:eio@5". Classes are the
  /// class_name() strings; kinds are enospc, eio, short, fsync; N == 0
  /// targets opens. Throws std::invalid_argument with the offending entry.
  [[nodiscard]] static IoFaultPlan parse(const std::string& spec);

  [[nodiscard]] std::string to_string() const;
};

/// A persistent (retries-exhausted) artifact write failure, attributed to
/// the artifact class and path so operators know exactly what was lost.
class IoError : public std::runtime_error {
 public:
  IoError(ArtifactClass cls, std::filesystem::path path,
          const std::string& message);

  [[nodiscard]] ArtifactClass artifact_class() const { return cls_; }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  ArtifactClass cls_;
  std::string path_;
};

enum class CommitStatus {
  kCommitted,  // bytes are durably on disk under the final path
  kDropped,    // persistent failure on a drop-and-count class
};

/// The process-wide I/O environment. Thread-safe; the telemetry sampler,
/// the log sink, and the pipeline thread all write through it.
class IoEnv {
 public:
  static IoEnv& instance();

  /// Install a fault plan (empty plan = fault-free) and reset the
  /// per-class write/open ordinals and drop counters.
  void configure(IoFaultPlan plan);
  /// configure({}) — back to fault-free.
  void reset() { configure({}); }

  [[nodiscard]] bool fault_injection_enabled() const {
    return plan_active_.load(std::memory_order_acquire);
  }

  /// Atomically commit @p bytes to @p path: write a sibling ".tmp",
  /// verify the on-disk size (short-write detection), optionally fsync,
  /// rename into place. Retried with backoff; on persistent failure the
  /// class policy applies (throw IoError, or warn + count + kDropped).
  CommitStatus commit_file(ArtifactClass cls,
                           const std::filesystem::path& path,
                           std::string_view bytes,
                           bool fsync_on_commit = true);

  /// Gate one streaming append (telemetry record, trace flush, log line,
  /// spill block). Returns false when the fault plan says this write
  /// fails — the caller drops (drop-and-count classes) or throws (fatal
  /// classes). Appends have no retry loop, so a transient fault costs
  /// exactly one record.
  [[nodiscard]] bool admit_append(ArtifactClass cls);

  /// fopen through the environment: fault-injectable (at_write == 0
  /// entries) and drop-counted, so sink-open failures are observable.
  /// Returns nullptr on (real or injected) failure.
  std::FILE* open_stream(ArtifactClass cls, const std::string& path,
                         const char* mode);

  /// Record a dropped append for @p cls ("io.dropped" +
  /// "io.dropped.<class>" metrics, one WARN line per class per plan).
  void count_dropped(ArtifactClass cls);

  [[nodiscard]] std::uint64_t writes(ArtifactClass cls) const;
  [[nodiscard]] std::uint64_t dropped(ArtifactClass cls) const;
  [[nodiscard]] std::uint64_t dropped_total() const;

 private:
  IoEnv() = default;

  /// nullptr when no fault applies to this (ordinal, attempt) of @p cls.
  [[nodiscard]] const IoFault* injected(ArtifactClass cls,
                                        std::uint64_t ordinal,
                                        std::uint32_t attempt) const;

  mutable std::mutex mu_;
  IoFaultPlan plan_;
  std::atomic<bool> plan_active_{false};
  std::atomic<std::uint64_t> writes_[kArtifactClassCount] = {};
  std::atomic<std::uint64_t> opens_[kArtifactClassCount] = {};
  std::atomic<std::uint64_t> dropped_[kArtifactClassCount] = {};
  std::atomic<bool> warned_[kArtifactClassCount] = {};
};

/// Shorthand for IoEnv::instance().
[[nodiscard]] IoEnv& io();

/// A temporary spill file written through the IoEnv (ArtifactClass::
/// kSpill): the memory governor's pressure valve for cold in-memory
/// tables. write()/finish() stage bytes out; read_all() loads them back;
/// the destructor removes the file. A spill-write failure throws IoError —
/// the caller's contract is to catch it and keep the data in memory
/// (spilling is an optimization, losing spilled data would not be).
class SpillFile {
 public:
  explicit SpillFile(std::string_view label);
  ~SpillFile();
  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  void write(const void* data, std::size_t size);
  /// Flush and close the write side; write() is invalid afterwards.
  void finish();
  /// Read the whole spill back (finish()es first if still open).
  [[nodiscard]] std::vector<std::uint8_t> read_all();

  [[nodiscard]] const std::filesystem::path& path() const { return path_; }
  [[nodiscard]] std::uint64_t bytes_written() const { return written_; }

 private:
  std::filesystem::path path_;
  std::FILE* out_ = nullptr;
  std::uint64_t written_ = 0;
};

}  // namespace pclust::util::io
