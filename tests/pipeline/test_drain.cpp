// The pooled BGG+DSD drain: component graphs run concurrently on the
// pool's lanes, each Shingled with nested loops on the same pool, and the
// records fold in component order. So the families TSV, the provenance
// ledger and every report decision counter are byte-identical to the
// one-lane run's, under B_d and B_m, with checkpoints on and across
// --resume; a watchdog deadline that trips inside a lane's B_d build
// surfaces from pipeline::run; and the stream sees one progress unit per
// graph.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "pclust/pipeline/pipeline.hpp"
#include "pclust/pipeline/report.hpp"
#include "pclust/prov/ledger.hpp"
#include "pclust/quality/cluster_io.hpp"
#include "pclust/synth/generator.hpp"
#include "pclust/util/checkpoint.hpp"
#include "pclust/util/json.hpp"
#include "pclust/util/metrics.hpp"
#include "pclust/util/telemetry.hpp"
#include "scoped_temp_dir.hpp"

namespace pclust::pipeline {
namespace {

namespace fs = std::filesystem;
namespace telemetry = util::telemetry;

/// Eight families of similar size: several graphs in flight at once.
synth::Dataset make_data(std::uint64_t seed, std::uint32_t n = 260) {
  synth::DatasetSpec spec;
  spec.seed = seed;
  spec.num_sequences = n;
  spec.num_families = 8;
  spec.mean_length = 80;
  spec.redundant_fraction = 0.1;
  spec.noise_fraction = 0.1;
  return synth::generate(spec);
}

const char* name_of(bigraph::Reduction reduction) {
  return reduction == bigraph::Reduction::kDuplicate ? "B_d" : "B_m";
}

/// Flattens @p v into "path=value" lines.
void flatten(const util::JsonValue& v, const std::string& path,
             std::string& out) {
  if (v.is_object()) {
    for (const auto& [key, member] : v.object) {
      flatten(member, path + "." + key, out);
    }
  } else if (v.is_array()) {
    for (std::size_t k = 0; k < v.array.size(); ++k) {
      flatten(v.array[k], path + "[" + std::to_string(k) + "]", out);
    }
  } else if (v.is_number()) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v.number);
    out += path + "=" + buf + "\n";
  } else {
    out += path + "=" + v.string_value + "\n";
  }
}

/// What a run hands its operator, as bytes: the families TSV (with each
/// family's B_d degree and density), the provenance ledger, and the
/// report's decision counters — everything but times, memory and engine
/// work (SIMD routing, kernel batches, pool jobs), which may move with the
/// lane count.
struct Outputs {
  std::string families;
  std::string ledger;
  std::string decisions;
};

Outputs outputs_of(const seq::SequenceSet& set, const PipelineResult& r,
                   const PipelineConfig& config) {
  Outputs out;
  std::ostringstream tsv;
  quality::write_clustering(tsv, r.family_clustering(), set);
  for (const Family& f : r.families) {
    tsv << std::bit_cast<std::uint64_t>(f.mean_degree) << ' '
        << std::bit_cast<std::uint64_t>(f.density) << '\n';
  }
  out.families = tsv.str();
  out.ledger = prov::render_ledger(r.provenance);

  const util::JsonValue report = util::parse_json(
      render_report(r, config, {"families", "synthetic", ""}));
  const util::JsonValue& phases = report.at("phases");
  for (std::size_t k = 0; k < phases.array.size(); ++k) {
    for (const auto& [key, value] : phases.array[k].object) {
      if (key == "seconds") continue;
      flatten(value, "phases[" + std::to_string(k) + "]." + key,
              out.decisions);
    }
  }
  for (const auto& [key, value] : report.at("alignment").object) {
    if (key == "simd_pairs" || key == "scalar_pairs") continue;
    flatten(value, "alignment." + key, out.decisions);
  }
  flatten(report.at("table1"), "table1", out.decisions);
  for (const auto& [key, value] :
       report.at("metrics").at("counters").object) {
    if (key.rfind("align.", 0) == 0 || key.rfind("exec.", 0) == 0) continue;
    flatten(value, "counters." + key, out.decisions);
  }
  return out;
}

void expect_same_outputs(const Outputs& want, const Outputs& got,
                         const std::string& what) {
  EXPECT_EQ(want.families, got.families) << what;
  EXPECT_EQ(want.ledger, got.ledger) << what;
  EXPECT_EQ(want.decisions, got.decisions) << what;
}

PipelineConfig audit_config(bigraph::Reduction reduction, unsigned threads,
                            const std::string& dir) {
  PipelineConfig config;
  config.reduction = reduction;
  config.threads = threads;
  config.provenance = true;
  config.checkpoint_dir = dir;
  return config;
}

Outputs run_fresh(const synth::Dataset& d, bigraph::Reduction reduction,
                  unsigned threads) {
  const test::ScopedTempDir dir;
  const PipelineConfig config = audit_config(reduction, threads, dir.string());
  util::metrics().reset();
  const PipelineResult r = run(d.sequences, config);
  EXPECT_GE(r.components_min_size, 4u) << "too few graphs to overlap";
  return outputs_of(d.sequences, r, config);
}

void remove_with_backup(const fs::path& path) {
  std::error_code ec;
  fs::remove(path, ec);
  fs::remove(util::checkpoint_backup_path(path), ec);
}

void expect_byte_identical_across_threads(bigraph::Reduction reduction) {
  const auto d = make_data(reduction == bigraph::Reduction::kDuplicate ? 501
                                                                       : 502);
  const Outputs golden = run_fresh(d, reduction, 1);
  for (const unsigned threads : {2u, 4u}) {
    expect_same_outputs(golden, run_fresh(d, reduction, threads),
                        std::string(name_of(reduction)) + " threads=" +
                            std::to_string(threads));
  }
}

TEST(PipelineDrain, BdOutputsByteIdenticalAcrossThreads) {
  expect_byte_identical_across_threads(bigraph::Reduction::kDuplicate);
}

TEST(PipelineDrain, BmOutputsByteIdenticalAcrossThreads) {
  expect_byte_identical_across_threads(bigraph::Reduction::kMatchBased);
}

void expect_resume_byte_identical(bigraph::Reduction reduction) {
  // A checkpointed one-lane run, then --resume at every lane count in two
  // shapes: without families.ckpt the drain recomputes the families;
  // without the DSD sidecar the phase resumes and the drain replays only
  // to derive its evidence. Families and ledger match the fresh run's;
  // the decision counters of each shape match its one-lane resume's.
  const auto d = make_data(reduction == bigraph::Reduction::kDuplicate ? 503
                                                                       : 504);
  const test::ScopedTempDir dir;
  util::metrics().reset();
  const PipelineResult fresh =
      run(d.sequences, audit_config(reduction, 1, dir.string()));
  const Outputs golden = outputs_of(
      d.sequences, fresh, audit_config(reduction, 1, dir.string()));

  for (const char* dropped : {"families.ckpt", "dsd.prov.jsonl"}) {
    Outputs one_lane;
    for (const unsigned threads : {1u, 2u, 4u}) {
      const std::string what = std::string(name_of(reduction)) +
                               " resume without " + dropped +
                               " threads=" + std::to_string(threads);
      remove_with_backup(dir / dropped);
      PipelineConfig config = audit_config(reduction, threads, dir.string());
      config.resume = true;
      util::metrics().reset();
      const PipelineResult r = run(d.sequences, config);
      EXPECT_EQ(r.phase_log[0], "rr:resumed") << what;
      const Outputs got = outputs_of(d.sequences, r, config);
      EXPECT_EQ(golden.families, got.families) << what;
      EXPECT_EQ(golden.ledger, got.ledger) << what;
      if (threads == 1) {
        one_lane = got;
      } else {
        EXPECT_EQ(one_lane.decisions, got.decisions) << what;
      }
    }
  }
}

TEST(PipelineDrain, BdResumeByteIdenticalAcrossThreads) {
  expect_resume_byte_identical(bigraph::Reduction::kDuplicate);
}

TEST(PipelineDrain, BmResumeByteIdenticalAcrossThreads) {
  expect_resume_byte_identical(bigraph::Reduction::kMatchBased);
}

TEST(PipelineDrain, WatchdogDeadlineInALaneSurfaces) {
  // RR and CCD resume from checkpoints, so no phase is active before the
  // drain and the watchdog can only trip inside it: its first poll after
  // the deadline runs in a lane's B_d engine loop (or between graphs), and
  // the pool rethrows it on the calling thread.
  const auto d = make_data(505, 400);
  const test::ScopedTempDir dir;
  PipelineConfig config;
  config.checkpoint_dir = dir.string();
  (void)run(d.sequences, config);
  remove_with_backup(dir / "families.ckpt");

  telemetry::TelemetryConfig stream;
  stream.path = (dir / "watchdog.jsonl").string();
  stream.command = "test_drain";
  stream.interval = 0.001;
  stream.watchdog_deadline = 1e-9;  // any sampled instant is a stall
  telemetry::enable(stream);
  config.threads = 4;
  config.resume = true;
  EXPECT_THROW((void)run(d.sequences, config),
               telemetry::WatchdogDeadlineExceeded);
  telemetry::disable();
}

TEST(PipelineDrain, StreamCountsOneProgressUnitPerGraph) {
  // B_m graphs align nothing, so the drain's progress is exactly one unit
  // per graph, reported by the lane that finished it.
  const auto d = make_data(506);
  const test::ScopedTempDir dir;
  telemetry::TelemetryConfig stream;
  stream.path = (dir / "progress.jsonl").string();
  stream.command = "test_drain";
  stream.interval = 3600.0;  // park the wall sampler
  telemetry::enable(stream);
  PipelineConfig config;
  config.reduction = bigraph::Reduction::kMatchBased;
  config.threads = 4;
  const PipelineResult r = run(d.sequences, config);
  telemetry::disable();
  ASSERT_GE(r.components_min_size, 4u);

  std::ifstream in(stream.path);
  std::string line;
  bool saw_drain = false;
  while (std::getline(in, line)) {
    const util::JsonValue v = util::parse_json(line);
    if (v.at("type").as_string() != "phase" ||
        v.at("event").as_string() != "end" ||
        v.at("phase").as_string() != "bgg+dsd") {
      continue;
    }
    saw_drain = true;
    EXPECT_EQ(v.at("progress").at("done").as_u64(), r.components_min_size);
    EXPECT_EQ(v.at("progress").at("enqueued").as_u64(),
              r.components_min_size);
  }
  EXPECT_TRUE(saw_drain);
}

}  // namespace
}  // namespace pclust::pipeline
