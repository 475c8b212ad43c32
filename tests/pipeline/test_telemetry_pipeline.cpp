// Pipeline-level telemetry guarantees: the stream observes the run without
// perturbing it (families bit-identical on/off), the virtual-domain records
// are a pure function of the communication pattern (byte-identical across
// runs), and a seeded straggler trips the deterministic virtual stall
// watchdog at a threshold a healthy run stays under.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <fstream>
#include <string>
#include <vector>

#include "pclust/mpsim/fault_plan.hpp"
#include "pclust/pipeline/pipeline.hpp"
#include "pclust/synth/generator.hpp"
#include "pclust/util/json.hpp"
#include "pclust/util/telemetry.hpp"

namespace pclust::pipeline {
namespace {

namespace telemetry = util::telemetry;

synth::Dataset telemetry_data(std::uint64_t seed) {
  synth::DatasetSpec spec;
  spec.seed = seed;
  spec.num_sequences = 300;
  spec.num_families = 6;
  spec.mean_length = 80;
  spec.redundant_fraction = 0.15;
  spec.noise_fraction = 0.1;
  spec.max_divergence = 0.18;
  return synth::generate(spec);
}

PipelineConfig parallel_config() {
  PipelineConfig config;
  config.processors = 4;       // simulated RR + CCD
  config.dsd_processors = 3;   // simulated BGG+DSD
  config.shingle.s1 = 3;
  config.shingle.c1 = 80;
  config.shingle.s2 = 2;
  config.shingle.tau = 0.4;
  return config;
}

telemetry::TelemetryConfig stream_config(const std::string& name) {
  telemetry::TelemetryConfig c;
  c.path = ::testing::TempDir() + name;
  c.command = "test_telemetry_pipeline";
  c.interval = 3600.0;       // park the wall sampler: virtual records only
  c.virtual_interval = 0.5;
  return c;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string strip_seq(std::string line) {
  const auto pos = line.find("\"seq\":");
  if (pos == std::string::npos) return line;
  auto end = pos + 6;
  while (end < line.size() &&
         std::isdigit(static_cast<unsigned char>(line[end]))) {
    ++end;
  }
  return line.substr(0, pos + 6) + "0" + line.substr(end);
}

/// All mode:"virtual" sample lines with seq zeroed.
std::vector<std::string> virtual_lines(const std::string& path) {
  std::vector<std::string> out;
  for (const std::string& line : read_lines(path)) {
    // phase-begin records carry mode:"virtual" too; samples only here.
    if (line.find("\"type\":\"sample\"") != std::string::npos &&
        line.find("\"mode\":\"virtual\"") != std::string::npos) {
      out.push_back(strip_seq(line));
    }
  }
  return out;
}

std::vector<std::vector<seq::SeqId>> member_lists(const PipelineResult& r) {
  std::vector<std::vector<seq::SeqId>> out;
  out.reserve(r.families.size());
  for (const auto& f : r.families) out.push_back(f.members);
  return out;
}

TEST(TelemetryPipeline, FamiliesBitIdenticalWithTelemetryOnOrOff) {
  const auto d = telemetry_data(61);
  const PipelineConfig config = parallel_config();

  const PipelineResult plain = run(d.sequences, config);

  telemetry::enable(stream_config("bitident.jsonl"));
  const PipelineResult observed = run(d.sequences, config);
  telemetry::disable();

  // Same families in the same order — observation changed nothing.
  EXPECT_EQ(member_lists(plain), member_lists(observed));
  EXPECT_EQ(plain.rr.removed, observed.rr.removed);
}

TEST(TelemetryPipeline, StreamCoversEveryPhaseWithProgress) {
  const auto d = telemetry_data(62);
  const telemetry::TelemetryConfig cfg = stream_config("phases.jsonl");
  telemetry::enable(cfg);
  const PipelineResult r = run(d.sequences, parallel_config());
  telemetry::disable();
  EXPECT_FALSE(r.families.empty());

  std::vector<std::string> begun, ended;
  std::uint64_t virtual_samples = 0;
  bool saw_rank_deltas = false;
  std::uint64_t last_seq = 0;
  bool first = true;
  const std::vector<std::string> lines = read_lines(cfg.path);
  ASSERT_FALSE(lines.empty());
  for (const std::string& line : lines) {
    const util::JsonValue v = util::parse_json(line);
    const std::uint64_t seq = v.at("seq").as_u64();
    if (!first) {
      EXPECT_EQ(seq, last_seq + 1);
    }
    first = false;
    last_seq = seq;
    const std::string& type = v.at("type").as_string();
    if (type == "phase") {
      const std::string& event = v.at("event").as_string();
      (event == "begin" ? begun : ended).push_back(v.at("phase").as_string());
      if (event == "end") {
        EXPECT_GT(v.at("progress").at("done").as_u64(), 0u)
            << v.at("phase").as_string();
      }
    }
    if (type == "sample" && v.at("mode").as_string() == "virtual") {
      ++virtual_samples;
      if (!v.at("ranks").array.empty()) saw_rank_deltas = true;
    }
  }
  const std::vector<std::string> expected = {"rr", "ccd", "bgg+dsd"};
  EXPECT_EQ(begun, expected);
  EXPECT_EQ(ended, expected);
  EXPECT_GT(virtual_samples, 0u);
  EXPECT_TRUE(saw_rank_deltas);
  EXPECT_EQ(util::parse_json(lines.front()).at("type").as_string(), "start");
  EXPECT_EQ(util::parse_json(lines.back()).at("type").as_string(), "end");
}

TEST(TelemetryPipeline, VirtualSamplesByteIdenticalAcrossRuns) {
  const auto d = telemetry_data(63);
  const PipelineConfig config = parallel_config();

  const telemetry::TelemetryConfig a = stream_config("det_a.jsonl");
  telemetry::enable(a);
  const PipelineResult ra = run(d.sequences, config);
  telemetry::disable();

  const telemetry::TelemetryConfig b = stream_config("det_b.jsonl");
  telemetry::enable(b);
  const PipelineResult rb = run(d.sequences, config);
  telemetry::disable();
  EXPECT_EQ(member_lists(ra), member_lists(rb));

  const auto first = virtual_lines(a.path);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, virtual_lines(b.path));
}

TEST(TelemetryPipeline, SeededStragglerTripsVirtualStallWatchdog) {
  const auto d = telemetry_data(64);
  PipelineConfig config = parallel_config();
  config.dsd_processors = 0;  // focus the stall check on RR + CCD

  // Calibrate the threshold against the healthy run's worst virtual
  // progress gap, exactly as DESIGN.md prescribes for --telemetry-stall.
  telemetry::TelemetryConfig healthy = stream_config("healthy.jsonl");
  double healthy_gap = 0.0;
  healthy.virtual_stall_seconds = 1e9;  // effectively off
  telemetry::enable(healthy);
  const PipelineResult baseline = run(d.sequences, config);
  telemetry::disable();
  ASSERT_FALSE(baseline.families.empty());
  for (const std::string& line : read_lines(healthy.path)) {
    const util::JsonValue v = util::parse_json(line);
    if (v.at("type").as_string() == "phase" &&
        v.at("event").as_string() == "end") {
      healthy_gap = std::max(
          healthy_gap, v.at("max_progress_gap").at("virtual").as_number());
    }
  }
  ASSERT_GT(healthy_gap, 0.0);

  // Rank 1 computes 50x slower; every round it gates stretches the
  // inter-progress gap far beyond the healthy ceiling.
  mpsim::FaultPlan plan;
  plan.straggler_factor = {1.0, 50.0};
  config.rr_fault_plan = &plan;
  config.ccd_fault_plan = &plan;

  telemetry::TelemetryConfig slow = stream_config("straggler.jsonl");
  slow.virtual_stall_seconds = 2.0 * healthy_gap;
  telemetry::enable(slow);
  const PipelineResult degraded = run(d.sequences, config);
  const telemetry::TelemetryStatus status = telemetry::status();
  telemetry::disable();

  EXPECT_GE(status.stalls, 1u);
  bool saw_virtual_stall = false;
  for (const std::string& line : read_lines(slow.path)) {
    const util::JsonValue v = util::parse_json(line);
    if (v.at("type").as_string() == "warning" &&
        v.at("kind").as_string() == "stall" &&
        v.at("mode").as_string() == "virtual") {
      saw_virtual_stall = true;
      EXPECT_GT(v.at("stalled_seconds").as_number(),
                slow.virtual_stall_seconds);
    }
  }
  EXPECT_TRUE(saw_virtual_stall);

  // Stragglers slow the clock, not the answer.
  config.rr_fault_plan = nullptr;
  config.ccd_fault_plan = nullptr;
  const PipelineResult plain = run(d.sequences, config);
  EXPECT_EQ(member_lists(degraded), member_lists(plain));
}

}  // namespace
}  // namespace pclust::pipeline
