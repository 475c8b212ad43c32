#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <filesystem>

#include "bench.hpp"
#include "pclust/synth/presets.hpp"

namespace perfbench {

const std::vector<Workload>& workloads() {
  // Sizes are scaled down from the paper analogs (160k: n = 4000, 22k:
  // n = 1200) so that several inputs fit one run; see README.md.
  static const std::vector<Workload> all = {
      {"p160k", false, 500, 40, 0},
      {"p160k_serial", false, 500, 40, 1},
      {"p22k_bm_audit", true, 200, 40, 0},
  };
  return all;
}

std::vector<pc::synth::Dataset> make_inputs(const Workload& w,
                                            std::uint64_t seed) {
  std::vector<pc::synth::Dataset> out;
  for (int k = 0; k < w.inputs; ++k) {
    const std::uint64_t sub = seed * 1000 + static_cast<std::uint64_t>(k);
    out.push_back(pc::synth::generate(
        w.audit ? pc::synth::paper_22k(w.n / 22'186.0, sub)
                : pc::synth::paper_160k(w.n / 160'000.0, sub)));
  }
  return out;
}

pc::pipeline::PipelineConfig make_config(const Workload& w,
                                         const std::string& artifact_dir) {
  pc::pipeline::PipelineConfig c;
  c.pace.psi = 10;
  c.pace.band = 32;
  c.pace.batch_size = 256;
  c.rr_band = 0;
  c.shingle.s1 = 4;
  c.shingle.c1 = 150;
  c.shingle.s2 = 2;
  c.shingle.c2 = 60;
  c.shingle.min_size = 5;
  c.shingle.tau = 0.4;
  c.min_component = 5;
  c.threads = w.threads;
  if (w.audit) {
    c.reduction = pc::bigraph::Reduction::kMatchBased;
    c.provenance = true;
    c.checkpoint_dir = artifact_dir;
  }
  return c;
}

std::string ledger_path(const std::string& dir) {
  return (std::filesystem::path(dir) / "provenance.jsonl").string();
}

std::string report_path(const std::string& dir) {
  return (std::filesystem::path(dir) / "report.json").string();
}

std::uint64_t family_digest(
    const std::vector<pc::pipeline::Family>& families) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(families.size());
  for (const auto& f : families) {
    mix(f.members.size());
    for (const auto m : f.members) mix(m);
  }
  return h;
}

double cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return secs(u.ru_utime) + secs(u.ru_stime);
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
volatile int reference_sink = 0;
}  // namespace

double reference_seconds() {
  // Fixed work in the benchmark's own code: scalar affine-gap local
  // alignment of fixed pseudo-random sequences, all against all.
  constexpr int kSeqs = 16;
  constexpr int kLen = 160;
  static const std::vector<std::vector<std::uint8_t>> seqs = [] {
    std::vector<std::vector<std::uint8_t>> out(kSeqs);
    std::uint32_t x = 12345;
    for (auto& s : out) {
      for (int i = 0; i < kLen; ++i) {
        x = x * 1664525u + 1013904223u;
        s.push_back(static_cast<std::uint8_t>((x >> 24) % 20));
      }
    }
    return out;
  }();
  const auto local_score = [](const std::vector<std::uint8_t>& a,
                              const std::vector<std::uint8_t>& b) {
    std::vector<int> h(b.size() + 1, 0);
    std::vector<int> e(b.size() + 1, 0);
    int best = 0;
    for (std::size_t i = 1; i <= a.size(); ++i) {
      int diag = 0;
      int f = 0;
      int left = 0;
      for (std::size_t j = 1; j <= b.size(); ++j) {
        e[j] = std::max(e[j] - 1, h[j] - 11);
        f = std::max(f - 1, left - 11);
        const int s = diag + (a[i - 1] == b[j - 1] ? 5 : -4);
        diag = h[j];
        left = std::max({0, s, e[j], f});
        h[j] = left;
        best = std::max(best, left);
      }
    }
    return best;
  };
  const double t0 = now_seconds();
  int total = 0;
  for (const auto& a : seqs) {
    for (const auto& b : seqs) total += local_score(a, b);
  }
  reference_sink = total;  // keeps the loop from being optimized away
  return now_seconds() - t0;
}

std::string check_result(const Workload& w,
                         const pc::pipeline::PipelineResult& r,
                         const pc::pipeline::PipelineConfig& c,
                         const std::string& artifact_dir) {
  // Alignment-work identity: every candidate that survived the duplicate
  // filter was either aligned or skipped by the cluster filter.
  const auto identity = [](const pc::pace::EngineCounters& k) {
    return k.aligned_pairs + k.filtered_pairs ==
           k.promising_pairs - k.duplicate_pairs;
  };
  if (!identity(r.rr.counters)) return "rr: attempted + skipped != candidates";
  if (!identity(r.ccd.counters)) return "ccd: attempted + skipped != candidates";

  std::vector<std::uint8_t> seen(r.input_sequences, 0);
  for (const auto& f : r.families) {
    if (f.members.size() < c.min_component) return "family below min_component";
    for (const auto m : f.members) {
      if (m >= seen.size() || seen[m]) return "families are not disjoint";
      seen[m] = 1;
    }
  }

  if (w.audit) {
    if (!r.provenance.counts.identity_holds()) {
      return "provenance ledger merge identity violated";
    }
    namespace fs = std::filesystem;
    for (const char* name :
         {"rr.ckpt", "ccd.ckpt", "families.ckpt", "rr.prov.jsonl",
          "ccd.prov.jsonl", "dsd.prov.jsonl", "provenance.jsonl",
          "report.json"}) {
      if (!fs::exists(fs::path(artifact_dir) / name)) {
        return std::string("missing artifact ") + name;
      }
    }
  }
  return {};
}

// ---- Tracer ----------------------------------------------------------------

Tracer::Scope::Scope(Tracer& tracer, std::string name)
    : tracer_(tracer),
      id_(static_cast<int>(tracer.spans_.size())),
      cpu_start_(cpu_seconds()) {
  Span s;
  s.name = std::move(name);
  s.parent = tracer.open_;
  s.start = now_seconds();
  tracer.spans_.push_back(std::move(s));
  tracer.open_ = id_;
}

Tracer::Scope::~Scope() {
  Span& s = tracer_.spans_[static_cast<std::size_t>(id_)];
  s.end = now_seconds();
  s.cpu = cpu_seconds() - cpu_start_;
  tracer_.open_ = s.parent;
}

double Tracer::Scope::elapsed() const {
  return now_seconds() - tracer_.spans_[static_cast<std::size_t>(id_)].start;
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end - spans_[i].start;
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -=
          spans_[i].end - spans_[i].start;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) out[spans_[i].name] += self[i];
  return out;
}

double Tracer::total(const std::string& name) const {
  double t = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) t += s.end - s.start;
  }
  return t;
}

double Tracer::total_cpu(const std::string& name) const {
  double t = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) t += s.cpu;
  }
  return t;
}

double Tracer::children_total(const std::string& parent) const {
  double t = 0.0;
  for (const Span& s : spans_) {
    if (s.parent >= 0 &&
        spans_[static_cast<std::size_t>(s.parent)].name == parent) {
      t += s.end - s.start;
    }
  }
  return t;
}

}  // namespace perfbench
