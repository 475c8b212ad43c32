// Hierarchical-master scaling bench: the paper's CCD phase on the
// paper_160k analog at the processor counts where the flat single master
// saturates (§V: the master serializes admission once workers outnumber its
// admission throughput). For each p we run CCD flat (masters=1) and with a
// sub-master tier, and record the simulated makespan, the coordinator
// busy/idle profile, the analyzer's saturation verdict, and the virtual
// speedup of the tree over the flat protocol at the same p.
//
// Everything gated downstream (pclust perf-diff) is VIRTUAL time — a pure
// function of the workload and the machine model, bit-stable across hosts —
// so BENCH_hierarchy.json can be compared tightly, unlike wall-clock
// benches. Emits BENCH_hierarchy.json in the working directory.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "pclust/pipeline/analysis.hpp"
#include "pclust/util/json.hpp"

namespace {

struct Row {
  int p = 0;
  int masters = 0;
  double ccd_seconds = 0.0;
  double speedup_vs_flat = 1.0;  // flat makespan / this makespan, same p
  double master_busy_fraction = 0.0;
  double worker_idle_fraction = 0.0;
  double submaster_busy_fraction = 0.0;
  bool saturated = false;
  double wall_seconds = 0.0;  // informational only: host-dependent
};

}  // namespace

int main() {
  using namespace pclust;
  using namespace pclust::bench;

  // The paper's largest input (160K sequences), bench-scaled, with the
  // family divergence/noise knobs turned toward the dense end of the
  // paper's range. Density is what exposes the CCD bottleneck: the cluster
  // filter skips most worker alignments (each skip costs the worker one
  // union-find probe) while the flat master still pays admission for every
  // candidate pair — at p=1024 rank 0 is busy ~74% of the phase while
  // workers idle ~93%, the analyzer's master-saturated regime. RR runs
  // once, flat (it is order-dependent and never hierarchical); the
  // survivors feed every CCD configuration identically.
  synth::DatasetSpec spec = synth::paper_160k(kScale);
  spec.noise_fraction = 0.05;
  spec.max_divergence = 0.22;
  spec.subfamily_divergence = 0.15;
  const synth::Dataset data = synth::generate(spec);
  const auto model = mpsim::MachineModel::bluegene_l();
  const auto params = bench_pace_params();
  pace::PaceParams rr_params = params;
  rr_params.band = 0;
  const auto rr = pace::remove_redundant(data.sequences, 32, model, rr_params);
  const auto survivors = rr.survivors();

  const std::vector<int> processor_counts = {256, 512, 1024};
  const std::vector<int> master_counts = {1, 4, 8};

  std::vector<Row> rows;
  for (const int p : processor_counts) {
    double flat_makespan = 0.0;
    std::vector<std::vector<seq::SeqId>> flat_components;
    for (const int masters : master_counts) {
      pace::PaceParams ccd_params = params;
      ccd_params.masters = masters;
      const auto t0 = std::chrono::steady_clock::now();
      const auto ccd = pace::detect_components(data.sequences, survivors, p,
                                               model, ccd_params);
      const auto t1 = std::chrono::steady_clock::now();

      // The tree must be a pure optimization: identical partition.
      if (masters == 1) {
        flat_makespan = ccd.run.makespan;
        flat_components = ccd.components;
      } else if (ccd.components != flat_components) {
        std::fprintf(stderr,
                     "FATAL: p=%d masters=%d changed the CCD partition\n", p,
                     masters);
        return 1;
      }

      std::vector<pipeline::RankSample> samples(
          static_cast<std::size_t>(p));
      for (int r = 0; r < p; ++r) {
        auto& s = samples[static_cast<std::size_t>(r)];
        s.total = ccd.run.rank_times[static_cast<std::size_t>(r)];
        s.busy = ccd.run.rank_breakdown[static_cast<std::size_t>(r)].busy;
        s.comm = ccd.run.rank_breakdown[static_cast<std::size_t>(r)].comm;
        s.idle = ccd.run.rank_breakdown[static_cast<std::size_t>(r)].idle;
        s.level = ccd.run.rank_levels[static_cast<std::size_t>(r)];
      }
      const pipeline::PhaseAnalysis analysis =
          pipeline::analyze_phase("ccd", samples, {});

      Row row;
      row.p = p;
      row.masters = masters;
      row.ccd_seconds = ccd.run.makespan;
      row.speedup_vs_flat =
          ccd.run.makespan > 0.0 ? flat_makespan / ccd.run.makespan : 1.0;
      row.master_busy_fraction = analysis.master_busy_fraction;
      row.worker_idle_fraction = analysis.worker_idle_fraction;
      row.submaster_busy_fraction = analysis.submaster_busy_fraction;
      row.saturated = analysis.master_saturated;
      row.wall_seconds =
          std::chrono::duration<double>(t1 - t0).count();
      rows.push_back(row);

      std::printf(
          "p=%-5d masters=%-2d  CCD %.2fs  speedup %.2fx  root busy %.2f  "
          "worker idle %.2f  %s\n",
          p, masters, row.ccd_seconds, row.speedup_vs_flat,
          row.master_busy_fraction, row.worker_idle_fraction,
          row.saturated ? "SATURATED" : "clear");
    }
  }

  util::JsonWriter w;
  w.begin_object();
  w.key("schema").value("pclust-hierarchy-bench");
  w.key("version").value(1);
  w.key("input").begin_object();
  w.key("preset").value("synth:paper_160k-analog-dense");
  w.key("sequences").value(static_cast<std::uint64_t>(data.sequences.size()));
  w.key("survivors").value(static_cast<std::uint64_t>(survivors.size()));
  w.end_object();
  w.key("rows").begin_array();
  for (const Row& row : rows) {
    w.begin_object();
    w.key("p").value(row.p);
    w.key("masters").value(row.masters);
    w.key("ccd_virtual_seconds").value(row.ccd_seconds);
    w.key("speedup_vs_flat").value(row.speedup_vs_flat);
    w.key("master_busy_fraction").value(row.master_busy_fraction);
    w.key("worker_idle_fraction").value(row.worker_idle_fraction);
    w.key("submaster_busy_fraction").value(row.submaster_busy_fraction);
    w.key("saturated").value(row.saturated);
    w.key("wall_seconds").value(row.wall_seconds);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  std::FILE* f = std::fopen("BENCH_hierarchy.json", "w");
  if (!f) {
    std::fprintf(stderr, "cannot write BENCH_hierarchy.json\n");
    return 1;
  }
  std::fputs(w.str().c_str(), f);
  std::fputs("\n", f);
  std::fclose(f);
  std::fprintf(stderr, "wrote BENCH_hierarchy.json\n");
  return 0;
}
