#include "pclust/pipeline/pipeline.hpp"

#include <algorithm>
#include <bit>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <mutex>
#include <optional>
#include <string_view>

#include "pclust/exec/pool.hpp"
#include "pclust/pace/provenance.hpp"
#include "pclust/pipeline/dsd.hpp"
#include "pclust/seq/complexity.hpp"
#include "pclust/util/checkpoint.hpp"
#include "pclust/util/io.hpp"
#include "pclust/util/json.hpp"
#include "pclust/util/log.hpp"
#include "pclust/util/memgov.hpp"
#include "pclust/util/memsize.hpp"
#include "pclust/util/metrics.hpp"
#include "pclust/util/strings.hpp"
#include "pclust/util/telemetry.hpp"
#include "pclust/util/timer.hpp"
#include "pclust/util/trace.hpp"

namespace pclust::pipeline {

namespace {

// Checkpoint phase tags (util/checkpoint.hpp header field).
constexpr std::uint32_t kTagRr = 1;
constexpr std::uint32_t kTagCcdPartial = 2;
constexpr std::uint32_t kTagCcd = 3;
constexpr std::uint32_t kTagFamilies = 4;
// Payload V3 = fingerprint u64, phase duration f64 (seconds the phase cost
// when it was computed; running total for partial checkpoints), protocol
// master count u32 (provenance: how many masters the writing run used —
// informational only, results are bit-identical across master counts so it
// is deliberately NOT part of the fingerprint), then the phase data. V1
// lacked the duration, V2 the master count; older versions are treated as
// absent so the phase recomputes rather than resuming with unknown
// provenance.
constexpr std::uint32_t kPayloadV3 = 3;

/// FNV-1a accumulator over 64-bit words, for the run fingerprint and the
/// phase-result hashes.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  }
  void mix_f(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
};

/// Fingerprint of the input set plus every configuration field that can
/// change phase RESULTS (simulation/threading knobs are excluded — they
/// are output invariant by design). Stored in every checkpoint payload;
/// resume refuses a checkpoint whose fingerprint differs.
std::uint64_t fingerprint(const seq::SequenceSet& set,
                          const PipelineConfig& cfg) {
  Fnv f;
  f.mix(set.size());
  for (seq::SeqId id = 0; id < set.size(); ++id) {
    const auto residues = set.residues(id);
    f.mix(residues.size());
    f.mix(util::crc32(residues.data(), residues.size()));
  }
  f.mix(cfg.pace.psi);
  f.mix(cfg.pace.bucket_prefix);
  f.mix(cfg.pace.max_node_occurrences);
  f.mix(cfg.pace.band);
  f.mix(cfg.rr_band);
  f.mix_f(cfg.pace.containment.min_similarity);
  f.mix_f(cfg.pace.containment.min_coverage);
  // Retired fields keep their slots as zeros so older checkpoints still
  // resume: a containment flag here, the B_m word cap after bm.w.
  f.mix(0);
  f.mix_f(cfg.pace.overlap.min_similarity);
  f.mix_f(cfg.pace.overlap.min_long_coverage);
  f.mix(static_cast<std::uint64_t>(cfg.reduction));
  f.mix(cfg.bm.w);
  f.mix(0);  // the retired B_m word cap
  f.mix(cfg.shingle.s1);
  f.mix(cfg.shingle.c1);
  f.mix(cfg.shingle.s2);
  f.mix(cfg.shingle.c2);
  f.mix(cfg.shingle.seed);
  f.mix(cfg.shingle.min_size);
  f.mix_f(cfg.shingle.tau);
  f.mix(cfg.min_component);
  f.mix(cfg.mask_low_complexity ? 1 : 0);
  // Masking always uses the default SEG parameters; they stay mixed in so
  // checkpoints written when they were configurable keep resuming.
  const seq::ComplexityParams complexity;
  f.mix(complexity.window);
  f.mix_f(complexity.min_entropy);
  return f.h;
}

/// Per-run handle over the checkpoint directory; no-op when disabled.
class Checkpoints {
 public:
  Checkpoints(const PipelineConfig& cfg, std::uint64_t fp)
      : dir_(cfg.checkpoint_dir),
        resume_(cfg.resume),
        fp_(fp),
        masters_(static_cast<std::uint32_t>(std::max(1, cfg.pace.masters))) {
    if (!dir_.empty()) std::filesystem::create_directories(dir_);
  }

  [[nodiscard]] bool enabled() const { return !dir_.empty(); }
  [[nodiscard]] bool resuming() const { return enabled() && resume_; }
  [[nodiscard]] std::uint64_t fingerprint() const { return fp_; }
  [[nodiscard]] std::filesystem::path path(const std::string& name) const {
    return std::filesystem::path(dir_) / name;
  }

  /// Writes rotate the previous generation to "<name>.1" first, so a crash
  /// mid-write (or later corruption of the primary) still leaves a
  /// last-good file to roll back to.
  void write(const std::string& name, std::uint32_t tag,
             const util::CheckpointWriter& payload) const {
    if (enabled()) {
      write_checkpoint(path(name), tag, kPayloadV3, payload,
                       /*keep_previous=*/true);
    }
  }

  /// Open @p name for resume. Returns nullopt if resume is off or no usable
  /// generation exists — a damaged primary is quarantined to "<name>.bad"
  /// and the last-good backup tried in its place; only when both are gone
  /// does the phase recompute. Never throws for damaged files; throws
  /// CheckpointError on a fingerprint mismatch (an intact checkpoint from a
  /// different input/configuration — silently recomputing would mask
  /// operator error). On success @p seconds_out (if given) receives the
  /// stored phase duration and @p from_backup whether the backup
  /// generation was used.
  [[nodiscard]] std::optional<util::CheckpointReader> open(
      const std::string& name, std::uint32_t tag, double* seconds_out = nullptr,
      bool* from_backup = nullptr) {
    if (!resuming()) return std::nullopt;
    util::CheckpointRecovery rec =
        util::recover_checkpoint(path(name), tag, kPayloadV3);
    for (const std::string& event : rec.events) {
      PCLUST_WARN << "pipeline: " << name << ": " << event;
      recovery_log_.push_back(name + ": " + event);
    }
    if (!rec.reader || rec.payload_version != kPayloadV3) return std::nullopt;
    if (rec.reader->u64() != fp_) {
      throw util::CheckpointError(
          "checkpoint fingerprint mismatch (input or configuration "
          "changed since the checkpoint was written): " +
          path(name).string());
    }
    const double seconds = rec.reader->f64();
    // Provenance: the master-tree width of the run that wrote this
    // checkpoint. Results are bit-identical across master counts, so a
    // mismatch with the current run is fine — surface it for operators.
    const std::uint32_t written_by = rec.reader->u32();
    if (written_by != masters_) {
      PCLUST_WARN << "pipeline: " << name << ": checkpoint written by a run "
                  << "with masters=" << written_by << " (this run uses "
                  << masters_ << "); results are bit-identical, resuming";
      recovery_log_.push_back(name + ": provenance masters=" +
                              std::to_string(written_by));
    }
    if (seconds_out) *seconds_out = seconds;
    if (from_backup) *from_backup = rec.from_backup;
    return std::move(rec.reader);
  }

  [[nodiscard]] const std::vector<std::string>& recovery_log() const {
    return recovery_log_;
  }

  /// Payload prefix: fingerprint, the phase duration being recorded, and
  /// the writing run's protocol master count (provenance).
  [[nodiscard]] util::CheckpointWriter payload(double seconds) const {
    util::CheckpointWriter w;
    w.u64(fp_);
    w.f64(seconds);
    w.u32(masters_);
    return w;
  }

 private:
  std::string dir_;
  bool resume_;
  std::uint64_t fp_;
  std::uint32_t masters_ = 1;
  std::vector<std::string> recovery_log_;
};

// ---- Merge-provenance sidecars ------------------------------------------
//
// With checkpointing enabled, every phase that contributed evidence edges
// also commits a `<phase>.prov.jsonl` sidecar next to its checkpoint:
//   line 1   {"schema":"pclust-provenance-sidecar","version":1,"phase":...,
//             "fingerprint":<hex>,"result":<hex>,"merges":N,"edges":M}
//   lines 2..M+1   prov::render_edge lines (the ledger's edge format)
// A sidecar is loaded ONLY when its phase was resumed from the matching
// checkpoint (same run fingerprint AND same phase-result hash) — a healed
// parallel RR can legitimately produce a different, equally valid removal
// set for the same fingerprint, and stale evidence must never splice onto
// it. Any mismatch or damage silently falls back to canonical re-derivation:
// sidecars are a resume optimization, never a source of truth.
constexpr std::string_view kSidecarSchema = "pclust-provenance-sidecar";
constexpr int kSidecarVersion = 1;

/// One phase's merge evidence: its ledger edges plus the number of
/// union–find merges they must cover (the ledger's expected-merge count).
struct Evidence {
  std::vector<prov::Edge> edges;
  std::uint64_t merges = 0;
};

/// Hex rendering for the u64 hashes in sidecar meta lines (JSON numbers
/// are doubles — a full-range u64 would lose precision).
std::string hex_u64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf);
}

std::uint64_t rr_result_hash(const pace::RedundancyResult& rr) {
  Fnv f;
  f.mix(rr.removed.size());
  for (const std::uint8_t r : rr.removed) f.mix(r);
  for (const seq::SeqId c : rr.container) f.mix(c);
  return f.h;
}

std::uint64_t components_hash(
    const std::vector<std::vector<seq::SeqId>>& components) {
  Fnv f;
  f.mix(components.size());
  for (const auto& component : components) {
    f.mix(component.size());
    for (const seq::SeqId m : component) f.mix(m);
  }
  return f.h;
}

/// A sidecar's meta line (see above).
std::string sidecar_meta(std::string_view phase, std::uint64_t fp,
                         std::uint64_t result_hash, std::uint64_t merges,
                         std::uint64_t edges) {
  util::JsonWriter w;
  w.begin_object()
      .key("schema").value(kSidecarSchema)
      .key("version").value(kSidecarVersion)
      .key("phase").value(phase)
      .key("fingerprint").value(hex_u64(fp))
      .key("result").value(hex_u64(result_hash))
      .key("merges").value(merges)
      .key("edges").value(edges)
      .end_object();
  return w.str();
}

/// Load a commit_sidecar file. nullopt (never a throw) when the file is
/// missing, damaged, truncated, or bound to a different fingerprint or
/// phase result — the caller re-derives.
std::optional<Evidence> load_sidecar(const std::filesystem::path& path,
                                     std::string_view phase, std::uint64_t fp,
                                     std::uint64_t result_hash) {
  std::ifstream in(path, std::ios::binary);
  std::string line;
  if (!in || !std::getline(in, line)) return std::nullopt;
  try {
    const util::JsonValue meta = util::parse_json(line);
    Evidence evidence;
    evidence.merges = meta.at("merges").as_u64();
    const std::uint64_t declared = meta.at("edges").as_u64();
    // Schema, version, phase, fingerprint and result hash all match only
    // when the meta line is exactly the one this run would write.
    if (line != sidecar_meta(phase, fp, result_hash, evidence.merges,
                             declared)) {
      return std::nullopt;
    }
    evidence.edges.reserve(static_cast<std::size_t>(declared));
    while (std::getline(in, line)) {
      if (!line.empty()) evidence.edges.push_back(prov::parse_edge(line));
    }
    if (evidence.edges.size() != declared) return std::nullopt;
    return evidence;
  } catch (const std::exception& err) {
    PCLUST_WARN << "pipeline: damaged provenance sidecar " << path.string()
                << ": " << err.what() << " (re-deriving)";
    return std::nullopt;
  }
}

/// Render a sidecar and commit it through the IoEnv. Failures warn and
/// continue: the requested audit artifact is the FINAL ledger (whose write
/// is fatal, see prov::write_ledger) — sidecars only make `--resume`
/// cheaper.
void commit_sidecar(const std::filesystem::path& path, std::string_view phase,
                    std::uint64_t fp, std::uint64_t result_hash,
                    const Evidence& evidence) {
  std::string bytes = sidecar_meta(phase, fp, result_hash, evidence.merges,
                                   evidence.edges.size());
  bytes += '\n';
  for (const prov::Edge& e : evidence.edges) {
    bytes += prov::render_edge(e);
    bytes += '\n';
  }
  try {
    util::io::io().commit_file(util::io::ArtifactClass::kProvenance, path,
                               bytes);
  } catch (const util::io::IoError& err) {
    PCLUST_WARN << "pipeline: provenance sidecar " << path.string()
                << " not written (" << err.what()
                << "); a resumed run will re-derive";
  }
}

// ---- Phase runner ----------------------------------------------------------

/// What a phase's compute step hands back to the runner: the duration to
/// record (wall time, or the simulated makespan on mpsim ranks) and the
/// phase-log verb ("resumed-partial" when CCD re-entered its pair stream
/// from a mid-phase snapshot).
struct Computed {
  double seconds = 0.0;
  const char* how = "computed";
};

/// The phase-specific steps of one pipeline phase. run_phase() does
/// everything the phases have in common around them.
struct PhaseSteps {
  const char* name;      // phase-log entry; checkpoint "<name>.ckpt"
  const char* stage;     // trace span, telemetry, governor, mem.rss.<stage>
  const char* evidence;  // provenance sidecar "<evidence>.prov.jsonl"
  std::uint32_t tag;     // checkpoint header tag
  double& seconds;       // where PipelineResult keeps the phase duration
  // Telemetry phase shape: simulated ranks, or one wall-clock rank.
  bool simulated = false;
  int ranks = 1;
  int masters = 1;
  /// A mid-phase snapshot file that the phase checkpoint supersedes.
  const char* partial = nullptr;
  /// The last phase has no boundary after it: the run is complete, so the
  /// memory budget is not enforced there.
  bool last = false;

  std::function<void(util::CheckpointReader&)> restore{};
  std::function<Computed(const util::Timer&)> compute{};
  std::function<void(util::CheckpointWriter&)> save{};
  /// Hash of the result the phase's evidence is bound to.
  std::function<std::uint64_t()> result_hash{};
  /// Canonical evidence for the current result (called only when merge
  /// provenance is on and no matching sidecar was spliced).
  std::function<Evidence()> derive{};
};

/// The phase-boundary protocol, written once for every phase: resume from
/// the phase checkpoint (rolling back to the last-good generation when the
/// primary is damaged) or compute inside the phase's trace span and
/// telemetry window and checkpoint the result; append the phase-log entry;
/// splice the evidence sidecar of a resumed phase, or derive the evidence
/// and commit its sidecar; then sample RSS, enforce the memory budget and
/// poll the watchdog deadline.
void run_phase(const PhaseSteps& phase, Checkpoints& ckpt, bool want_prov,
               std::vector<std::string>& phase_log, Evidence& evidence) {
  util::governor().set_phase(phase.stage);
  const std::string file = std::string(phase.name) + ".ckpt";
  bool resumed = false;
  bool from_backup = false;
  const char* how = nullptr;
  if (auto reader = ckpt.open(file, phase.tag, &phase.seconds, &from_backup)) {
    phase.restore(*reader);
    resumed = true;
    how = from_backup ? "resumed-backup" : "resumed";
  } else {
    const util::trace::WallSpan span(phase.stage);
    util::telemetry::phase_begin(phase.stage, phase.simulated, phase.ranks,
                                 phase.masters);
    const util::Timer timer;
    const Computed computed = phase.compute(timer);
    phase.seconds = computed.seconds;
    util::telemetry::phase_end(phase.stage, phase.seconds);
    if (ckpt.enabled()) {
      util::CheckpointWriter payload = ckpt.payload(phase.seconds);
      phase.save(payload);
      ckpt.write(file, phase.tag, payload);
      if (phase.partial) {
        std::error_code ec;
        std::filesystem::remove(ckpt.path(phase.partial), ec);
        std::filesystem::remove(
            util::checkpoint_backup_path(ckpt.path(phase.partial)), ec);
      }
    }
    how = computed.how;
  }
  if (ckpt.enabled()) {
    phase_log.push_back(std::string(phase.name) + ":" + how);
    PCLUST_INFO << "pipeline: phase " << phase.name << " " << how;
  }

  if (want_prov) {
    // Resumed phases splice the sidecar written by the run that computed
    // them; everything else derives canonically (see pace/provenance.hpp).
    const std::filesystem::path sidecar =
        ckpt.path(std::string(phase.evidence) + ".prov.jsonl");
    const std::uint64_t hash = phase.result_hash();
    std::optional<Evidence> loaded;
    if (resumed) {
      loaded = load_sidecar(sidecar, phase.evidence, ckpt.fingerprint(), hash);
    }
    if (loaded) {
      evidence = std::move(*loaded);
    } else {
      evidence = phase.derive();
      if (ckpt.enabled()) {
        commit_sidecar(sidecar, phase.evidence, ckpt.fingerprint(), hash,
                       evidence);
      }
    }
  }

  // The report's memory section reads these high-water marks (the gauge
  // stays 0 where /proc is unavailable).
  util::metrics()
      .gauge(std::string("mem.rss.") + phase.stage)
      .set(util::current_rss_bytes());
  // Past this point the phase checkpoint (if any) is flushed: a hopelessly
  // over-budget run exits structured and resumable here, not OOM-killed.
  if (!phase.last) {
    util::governor().check_phase_boundary(phase.stage, ckpt.enabled());
  }
  util::telemetry::poll_deadline();
}

/// The pooled drain's memory lever. Under --mem-budget, once the ledger's
/// high-water reached 0.70 of the budget (MemoryGovernor::narrow_drain), a
/// lane starts a new component graph only when no other graph is in
/// flight, so concurrent graphs cannot break the budget. Several lanes ask
/// the governor at every graph start, so a narrowed drain is logged
/// whether or not a lane had to wait; one lane has nothing to narrow.
/// Output invariant: which lane runs which graph, and when, never reaches
/// the fold.
class DrainGate {
 public:
  explicit DrainGate(bool concurrent) : concurrent_(concurrent) {}

  /// One graph in flight: blocks until its lane may start it.
  class Slot {
   public:
    explicit Slot(DrainGate& gate) : gate_(gate) {
      const bool narrow =
          gate_.concurrent_ && util::governor().narrow_drain();
      std::unique_lock<std::mutex> lock(gate_.mutex_);
      gate_.idle_.wait(lock,
                       [&] { return !narrow || gate_.in_flight_ == 0; });
      ++gate_.in_flight_;
    }
    ~Slot() {
      {
        const std::lock_guard<std::mutex> lock(gate_.mutex_);
        --gate_.in_flight_;
      }
      gate_.idle_.notify_all();
    }
    Slot(const Slot&) = delete;
    Slot& operator=(const Slot&) = delete;

   private:
    DrainGate& gate_;
  };

 private:
  const bool concurrent_;
  std::mutex mutex_;
  std::condition_variable idle_;
  std::size_t in_flight_ = 0;
};

/// The master count the simulated DSD stage runs with. DSD may run on a
/// different rank count than CCD; when it is too narrow to host the
/// configured master tree (needs >= masters + 2 ranks), the stage falls
/// back to the flat protocol rather than failing the whole run — results
/// are bit-identical either way.
int dsd_masters(const PipelineConfig& config) {
  const int masters = std::max(1, config.pace.masters);
  return config.dsd_processors < masters + 2 ? 1 : masters;
}

}  // namespace

void check_fault_plans(const PipelineConfig& config) {
  const int masters = std::max(1, config.pace.masters);
  if (config.processors >= 2 && config.rr_fault_plan) {
    config.rr_fault_plan->validate_protocol(config.processors, 1);
  }
  if (config.processors >= 2 && config.ccd_fault_plan) {
    config.ccd_fault_plan->validate_protocol(config.processors, masters);
  }
  if (config.dsd_processors >= 2 && config.dsd_fault_plan) {
    config.dsd_fault_plan->validate_protocol(config.dsd_processors,
                                             dsd_masters(config));
  }
}

std::vector<std::vector<seq::SeqId>> PipelineResult::family_clustering()
    const {
  std::vector<std::vector<seq::SeqId>> out;
  out.reserve(families.size());
  for (const Family& f : families) out.push_back(f.members);
  return out;
}

PipelineResult run(const seq::SequenceSet& input,
                   const PipelineConfig& config) {
  check_fault_plans(config);
  PipelineResult result;
  result.input_sequences = input.size();
  const bool parallel = config.processors >= 2;

  // Install the memory budget (0 = unlimited) and reset the capacity
  // ledger; accounting runs either way so an unconstrained run's
  // high_water() can calibrate a later budgeted one.
  util::governor().configure(config.mem_budget_bytes);

  // One pool for the whole run; every phase borrows it. threads == 1 never
  // spawns a thread: its one lane runs every pooled loop inline.
  exec::Pool pool(config.threads);
  if (pool.size() > 1) {
    PCLUST_INFO << "pipeline: execution pool with " << pool.size()
                << " threads";
  }

  // Optional SEG-style masking; all phases then see the masked residues.
  seq::SequenceSet masked;
  if (config.mask_low_complexity) {
    const seq::ComplexityParams complexity;
    masked = seq::mask_low_complexity(input, complexity);
    PCLUST_INFO << "pipeline: masked "
                << seq::masked_fraction(input, complexity) * 100.0
                << "% of residues as low-complexity";
  }
  const seq::SequenceSet& set = config.mask_low_complexity ? masked : input;

  Checkpoints ckpt(config,
                   config.checkpoint_dir.empty() ? 0 : fingerprint(set, config));

  // Merge-provenance evidence, one slot per phase. The ledger is a
  // canonical derivation (see pace/provenance.hpp), so these end up
  // bit-identical however each phase actually executed.
  const bool want_prov = config.provenance;
  Evidence rr_evidence;
  Evidence ccd_evidence;
  Evidence dsd_evidence;

  // ---- Phase 1: redundancy removal --------------------------------------
  // RR applies containment verdicts order-dependently (removed/container
  // bookkeeping is not confluent), so it always runs flat regardless of the
  // configured master count; only CCD and DSD go hierarchical.
  PhaseSteps rr{.name = "rr", .stage = "rr", .evidence = "rr", .tag = kTagRr,
                .seconds = result.rr_seconds, .simulated = parallel,
                .ranks = parallel ? config.processors : 1};
  rr.restore = [&](util::CheckpointReader& in) {
    result.rr.removed = in.u8_vec();
    result.rr.container = in.u32_vec();
    if (result.rr.removed.size() != set.size() ||
        result.rr.container.size() != set.size()) {
      throw util::CheckpointError(
          "rr.ckpt does not cover the current input set");
    }
  };
  rr.compute = [&](const util::Timer& timer) -> Computed {
    pace::PaceParams rr_params = config.pace;
    rr_params.band = config.rr_band;
    rr_params.phase_label = "rr";
    rr_params.masters = 1;
    if (!parallel) {
      result.rr = pace::remove_redundant_serial(set, rr_params, &pool);
      return {timer.elapsed_seconds()};
    }
    result.rr = pace::remove_redundant(
        set, config.processors, mpsim::MachineModel::bluegene_l(), rr_params,
        &pool, config.rr_fault_plan);
    return {result.rr.run.makespan};
  };
  rr.save = [&](util::CheckpointWriter& out) {
    out.u8_vec(result.rr.removed);
    out.u32_vec(result.rr.container);
  };
  rr.result_hash = [&] { return rr_result_hash(result.rr); };
  // Re-derived from the removal result: full-DP containment stats in
  // canonical ascending order.
  rr.derive = [&] {
    return Evidence{
        pace::derive_rr_provenance(set, result.rr, config.pace, &pool),
        result.rr.removed_count()};
  };
  run_phase(rr, ckpt, want_prov, result.phase_log, rr_evidence);
  const std::vector<seq::SeqId> survivors = result.rr.survivors();
  result.non_redundant_sequences = survivors.size();
  PCLUST_INFO << "pipeline: RR kept " << survivors.size() << " of "
              << set.size() << " (" << util::format_duration(result.rr_seconds)
              << ")";

  // ---- Phase 2: connected components -------------------------------------
  pace::PaceParams ccd_params = config.pace;
  ccd_params.phase_label = "ccd";
  const int ccd_masters = std::max(1, ccd_params.masters);
  PhaseSteps ccd{.name = "ccd", .stage = "ccd", .evidence = "ccd",
                 .tag = kTagCcd, .seconds = result.ccd_seconds,
                 .simulated = parallel,
                 .ranks = parallel ? config.processors : 1,
                 .masters = parallel ? ccd_masters : 1,
                 .partial = "ccd_partial.ckpt"};
  ccd.restore = [&](util::CheckpointReader& in) {
    const std::uint64_t count = in.u64();
    result.ccd.components.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
      result.ccd.components.push_back(in.u32_vec());
    }
  };
  std::optional<std::vector<prov::Edge>> ccd_captured;
  ccd.compute = [&](const util::Timer& timer) -> Computed {
    if (parallel) {
      result.ccd = pace::detect_components(
          set, survivors, config.processors, mpsim::MachineModel::bluegene_l(),
          ccd_params, &pool, config.ccd_fault_plan);
      return {result.ccd.run.makespan};
    }
    // Mid-stream progress snapshots (serial path only: the pair stream
    // index is only a meaningful watermark there). `prior_seconds` carries
    // the time the interrupted run(s) already spent, so the recorded phase
    // duration spans every contributing run.
    pace::CcdProgress partial;
    bool have_partial = false;
    double prior_seconds = 0.0;
    if (auto part = ckpt.open(ccd.partial, kTagCcdPartial, &prior_seconds)) {
      partial.parents = part->u32_vec();
      partial.next_pair = part->u64();
      have_partial = partial.parents.size() == survivors.size();
      if (!have_partial) prior_seconds = 0.0;
    }
    const std::uint64_t stride =
        ckpt.enabled() ? config.ccd_checkpoint_stride : 0;
    std::function<void(const pace::CcdProgress&)> on_checkpoint;
    if (stride > 0) {
      on_checkpoint = [&](const pace::CcdProgress& progress) {
        util::CheckpointWriter payload =
            ckpt.payload(prior_seconds + timer.elapsed_seconds());
        payload.u32_vec(progress.parents);
        payload.u64(progress.next_pair);
        ckpt.write(ccd.partial, kTagCcdPartial, payload);
      };
    }
    // From-scratch serial CCD captures its evidence at the point of decision
    // for free (the recorder fires on every successful union-find merge).
    // The parallel path and a partial resume (whose merges before the
    // watermark happened in an earlier process) re-derive by replaying the
    // same serial loop, which yields the same edges by construction.
    std::function<void(const pace::Verdict&)> on_merge;
    if (want_prov && !have_partial) {
      ccd_captured.emplace();
      on_merge = [&](const pace::Verdict& v) {
        ccd_captured->push_back(pace::ccd_edge_from_verdict(v));
      };
    }
    result.ccd = pace::detect_components_serial(
        set, survivors, ccd_params, &pool,
        have_partial ? &partial : nullptr, stride, on_checkpoint, on_merge);
    return {prior_seconds + timer.elapsed_seconds(),
            have_partial ? "resumed-partial" : "computed"};
  };
  ccd.save = [&](util::CheckpointWriter& out) {
    out.u64(result.ccd.components.size());
    for (const auto& component : result.ccd.components) out.u32_vec(component);
  };
  ccd.result_hash = [&] { return components_hash(result.ccd.components); };
  ccd.derive = [&] {
    return Evidence{ccd_captured ? std::move(*ccd_captured)
                                 : pace::derive_ccd_provenance(
                                       set, survivors, ccd_params,
                                       result.ccd.components, &pool),
                    survivors.size() - result.ccd.components.size()};
  };
  run_phase(ccd, ckpt, want_prov, result.phase_log, ccd_evidence);
  static util::SizeHistogram& component_sizes =
      util::metrics().histogram("ccd.component_size");
  for (const auto& component : result.ccd.components) {
    component_sizes.add(component.size());
  }
  result.components_min_size =
      result.ccd.count_with_min_size(config.min_component);
  PCLUST_INFO << "pipeline: CCD found " << result.components_min_size
              << " components of size >= " << config.min_component << " ("
              << util::format_duration(result.ccd_seconds) << ")";

  // ---- Phases 3 + 4: bipartite graphs + dense subgraphs -------------------
  std::vector<const std::vector<seq::SeqId>*> qualifying;
  for (const auto& component : result.ccd.components) {
    if (component.size() >= config.min_component) {
      qualifying.push_back(&component);
    }
  }
  const bool dsd_parallel = config.dsd_processors >= 2 && !qualifying.empty();
  pace::PaceParams dsd_engine = config.pace;
  dsd_engine.masters = dsd_masters(config);
  const bool dsd_flat_fallback =
      dsd_parallel && dsd_engine.masters < config.pace.masters;

  const auto build_graph =
      [&](const std::vector<seq::SeqId>& component) -> bigraph::ComponentGraph {
    if (config.reduction == bigraph::Reduction::kDuplicate) {
      bigraph::BdParams bd;
      bd.pace = config.pace;
      return bigraph::build_bd(set, component, bd, &pool);
    }
    return bigraph::build_bm(set, component, config.bm);
  };
  // The one fold of a graph's DSD record, in component order, for the
  // pooled drain, the simulated stage and the resume replay: note its
  // evidence (surviving Shingle merges, expected merge count) and, unless
  // the phase resumed with final families, add its families. The record
  // already carries the B_d densities, so the fold needs no graph.
  const prov::Rule dsd_rule = config.reduction == bigraph::Reduction::kDuplicate
                                  ? prov::Rule::kBd
                                  : prov::Rule::kBm;
  Evidence dsd_noted;
  bool families_resumed = false;
  const auto fold = [&](GraphFamilies record) {
    dsd_noted.merges += record.s1_nodes - record.raw_components;
    for (const shingle::ShingleMerge& m : record.merges) {
      dsd_noted.edges.push_back(
          {.a = m.a, .b = m.b, .phase = prov::Phase::kDsd, .rule = dsd_rule,
           .score = static_cast<std::int32_t>(m.matches),
           .matches = m.matches, .columns = m.columns});
    }
    if (families_resumed) return;
    for (Family& family : record.families) {
      result.families.push_back(std::move(family));
    }
  };
  // Pooled BGG + DSD: one loop over the qualifying components in component
  // order (largest first), one component per chunk. A lane builds its
  // graph, Shingles it on the same pool (nested loops let idle lanes help
  // inside the largest graphs), measures its densities into the record and
  // frees it, so at most one graph per lane is alive. The fold then walks
  // the records in component order, so families and evidence do not depend
  // on which lane ran which graph; one lane runs the components in order.
  // Merges are captured when provenance is on.
  const auto drain = [&] {
    std::vector<GraphFamilies> records(qualifying.size());
    DrainGate gate(pool.size() > 1);
    pool.for_range(qualifying.size(), 1, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t g = lo; g < hi; ++g) {
        const DrainGate::Slot slot(gate);
        const bigraph::ComponentGraph graph = build_graph(*qualifying[g]);
        const util::MemoryCharge charge("bgg", graph.graph.memory_usage());
        records[g] = shingle_graph(graph, config.shingle, &pool, want_prov);
        // The resume replay runs after its phase has ended: no progress.
        if (families_resumed) continue;
        util::telemetry::progress_done(1);
        util::telemetry::poll_deadline();
      }
    });
    for (GraphFamilies& record : records) fold(std::move(record));
  };

  PhaseSteps families{
      .name = "families", .stage = "bgg+dsd", .evidence = "dsd",
      .tag = kTagFamilies, .seconds = result.bgg_dsd_seconds,
      .simulated = dsd_parallel,
      .ranks = dsd_parallel ? config.dsd_processors : 1,
      .masters = dsd_parallel ? dsd_engine.masters : 1,
      .last = true};
  families.restore = [&](util::CheckpointReader& in) {
    const std::uint64_t count = in.u64();
    result.families.resize(static_cast<std::size_t>(count));
    for (Family& family : result.families) {
      family.members = in.u32_vec();
      family.mean_degree = in.f64();
      family.density = in.f64();
    }
    families_resumed = true;
  };
  families.compute = [&](const util::Timer& timer) -> Computed {
    if (dsd_parallel) {
      // LPT distribution needs every graph's cost estimate up front, so the
      // protocol path always materializes; each graph's charge still makes
      // the footprint visible to the governor and the budget-exceeded exit.
      std::vector<bigraph::ComponentGraph> graphs;
      std::vector<util::MemoryCharge> charges;
      for (const auto* component : qualifying) {
        graphs.push_back(build_graph(*component));
        charges.emplace_back("bgg", graphs.back().graph.memory_usage());
      }
      // The paper's batched distribution (LPT on the estimated shingle
      // cost, ~ edges x c1 hash-and-select operations) on the resilient
      // master-worker protocol: a rank death mid-phase requeues its graphs
      // and replays its generation stream on a survivor, and the
      // graph-keyed verdict slots keep the family output bit-identical to
      // the serial path under any fault plan. See pipeline/dsd.hpp.
      if (dsd_flat_fallback) {
        PCLUST_WARN << "pipeline: dsd: " << config.dsd_processors
                    << " ranks cannot host masters=" << config.pace.masters
                    << " (need >= masters + 2); running the DSD stage flat";
      }
      DsdParallelResult dsd = run_dsd_parallel(
          graphs, config.shingle, config.dsd_processors,
          mpsim::MachineModel::xeon_cluster(), dsd_engine, &pool,
          config.dsd_fault_plan, want_prov);
      result.dsd_run = std::move(dsd.run);
      // Graph order == component order, so the fold is bit-identical to
      // the pooled drain's whichever rank evaluated which graph.
      for (GraphFamilies& record : dsd.per_graph) fold(std::move(record));
    } else {
      // One progress unit per component graph, the same granularity the
      // protocol path reports via its verdict stream, plus each B_d
      // graph's candidate pairs, which its engine run reports as it
      // inspects them.
      util::telemetry::progress_enqueued(qualifying.size());
      drain();
    }
    const double seconds = timer.elapsed_seconds();
    std::sort(result.families.begin(), result.families.end(),
              [](const Family& a, const Family& b) {
                if (a.members.size() != b.members.size()) {
                  return a.members.size() > b.members.size();
                }
                return a.members.front() < b.members.front();
              });
    return {seconds};
  };
  families.save = [&](util::CheckpointWriter& out) {
    out.u64(result.families.size());
    for (const Family& f : result.families) {
      out.u32_vec(f.members);
      out.f64(f.mean_degree);
      out.f64(f.density);
    }
  };
  // DSD evidence is bound to the CCD partition it was derived from.
  families.result_hash = [&] {
    return components_hash(result.ccd.components);
  };
  // A computed phase noted its evidence as it folded. A resumed one
  // replays the drain, whose fold then only notes evidence.
  families.derive = [&] {
    if (families_resumed) drain();
    return std::move(dsd_noted);
  };
  run_phase(families, ckpt, want_prov, result.phase_log, dsd_evidence);

  // Assemble the final ledger (phase order rr, ccd, dsd; expected merge
  // counts come with each phase's evidence — from the phase results or the
  // Shingle tallies, NOT from the edge lists — which is what makes the
  // summary's `complete` flag a real coverage check).
  if (want_prov) {
    prov::Ledger& ledger = result.provenance;
    ledger.sequences = set.size();
    ledger.edges.reserve(rr_evidence.edges.size() + ccd_evidence.edges.size() +
                         dsd_evidence.edges.size());
    for (const Evidence* evidence : {&rr_evidence, &ccd_evidence,
                                     &dsd_evidence}) {
      ledger.edges.insert(ledger.edges.end(), evidence->edges.begin(),
                          evidence->edges.end());
    }
    ledger.recount();
    ledger.counts.rr_merges = rr_evidence.merges;
    ledger.counts.ccd_merges = ccd_evidence.merges;
    ledger.counts.dsd_merges = dsd_evidence.merges;
    if (!ledger.counts.identity_holds()) {
      PCLUST_WARN << "pipeline: provenance merge identity violated (edges "
                  << ledger.counts.total_edges() << ", expected merges "
                  << (ledger.counts.rr_merges + ledger.counts.ccd_merges +
                      ledger.counts.dsd_merges)
                  << ") — the ledger's summary records complete=false";
    }
  }
  result.recovery_log = ckpt.recovery_log();

  // Table-I aggregates (families arrive sorted from either phase path).
  result.dense_subgraph_count = result.families.size();
  double degree_weighted = 0.0;
  double density_sum = 0.0;
  static util::SizeHistogram& family_sizes =
      util::metrics().histogram("families.family_size");
  for (const Family& f : result.families) {
    family_sizes.add(f.members.size());
    result.sequences_in_subgraphs += f.members.size();
    result.largest_subgraph =
        std::max(result.largest_subgraph, f.members.size());
    degree_weighted += f.mean_degree * static_cast<double>(f.members.size());
    density_sum += f.density;
  }
  if (result.sequences_in_subgraphs > 0) {
    result.mean_degree =
        degree_weighted / static_cast<double>(result.sequences_in_subgraphs);
  }
  if (!result.families.empty()) {
    result.mean_density =
        density_sum / static_cast<double>(result.families.size());
  }
  PCLUST_INFO << "pipeline: " << result.dense_subgraph_count
              << " dense subgraphs covering "
              << result.sequences_in_subgraphs << " sequences ("
              << util::format_duration(result.bgg_dsd_seconds) << ")";
  return result;
}

std::string table1_row(const PipelineResult& r) {
  return util::format(
      "%s | %s | %s | %s | %s | %.0f | %.0f%% | %s",
      util::with_commas(static_cast<long long>(r.input_sequences)).c_str(),
      util::with_commas(static_cast<long long>(r.non_redundant_sequences))
          .c_str(),
      util::with_commas(static_cast<long long>(r.components_min_size)).c_str(),
      util::with_commas(static_cast<long long>(r.dense_subgraph_count))
          .c_str(),
      util::with_commas(static_cast<long long>(r.sequences_in_subgraphs))
          .c_str(),
      r.mean_degree, r.mean_density * 100.0,
      util::with_commas(static_cast<long long>(r.largest_subgraph)).c_str());
}

}  // namespace pclust::pipeline
