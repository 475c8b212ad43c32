// The CCD merge-provenance replay reruns the serial engine: after a
// from-scratch serial run it must return exactly the edges the
// decision-time recorder captured, at every pool and batch size, and it
// must leave the phase's registry counters alone.
#include "pclust/pace/provenance.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "pclust/exec/pool.hpp"
#include "pclust/synth/generator.hpp"
#include "pclust/util/metrics.hpp"

namespace pclust::pace {
namespace {

synth::Dataset make_data(std::uint64_t seed) {
  synth::DatasetSpec spec;
  spec.seed = seed;
  spec.num_sequences = 160;
  spec.num_families = 5;
  spec.mean_length = 70;
  spec.redundant_fraction = 0.15;
  spec.noise_fraction = 0.15;
  return synth::generate(spec);
}

/// Registry counters owned by the CCD phase itself, which a replay must
/// not move.
bool phase_counter(const std::string& name) {
  return name.starts_with("pace.") || name == "ccd.uf_merges";
}

TEST(CcdProvenance, ReplayEqualsDecisionTimeCapture) {
  for (const std::uint64_t seed : {41u, 42u, 43u}) {
    const auto d = make_data(seed);
    const auto survivors = remove_redundant_serial(d.sequences).survivors();
    for (const unsigned threads : {0u, 4u}) {  // 0: no pool
      std::optional<exec::Pool> pool;
      if (threads > 0) pool.emplace(threads);
      exec::Pool* const pool_arg = pool ? &*pool : nullptr;
      for (const std::size_t batch_size : {1u, 256u}) {
        const std::string where = "seed=" + std::to_string(seed) +
                                  " threads=" + std::to_string(threads) +
                                  " batch=" + std::to_string(batch_size);
        PaceParams params;
        params.batch_size = batch_size;
        std::vector<prov::Edge> captured;
        const auto ccd = detect_components_serial(
            d.sequences, survivors, params, pool_arg, nullptr, 0, nullptr,
            [&captured](const Verdict& v) {
              captured.push_back(ccd_edge_from_verdict(v));
            });
        ASSERT_EQ(captured.size(), survivors.size() - ccd.components.size())
            << where;

        const util::MetricsSnapshot before = util::metrics().snapshot();
        const auto replayed = derive_ccd_provenance(
            d.sequences, survivors, params, ccd.components, pool_arg);
        const util::MetricsSnapshot moved =
            util::metrics().snapshot().delta_since(before);

        EXPECT_EQ(replayed, captured) << where;
        for (const auto& [name, value] : moved.counters) {
          if (phase_counter(name)) {
            EXPECT_EQ(value, 0u) << name << " " << where;
          }
        }
        // Every edge took one decisive alignment; provable rejects are
        // skipped, so the replay never aligns more than the capture did.
        const std::uint64_t realigned =
            moved.counter("prov.ccd_replay_alignments");
        EXPECT_GE(realigned, replayed.size()) << where;
        EXPECT_LE(realigned, ccd.counters.aligned_pairs) << where;
      }
    }
  }
}

}  // namespace
}  // namespace pclust::pace
