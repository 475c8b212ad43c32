#include "cli_common.hpp"

#include <cstdio>

#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "pclust/align/simd.hpp"
#include "pclust/util/strings.hpp"

namespace pclust::cli {

void require_readable(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw IoError("cannot read '" + path + "': no such file or not readable");
  }
}

util::JsonValue load_json(const std::string& path) {
  require_readable(path);
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    return util::parse_json(buffer.str());
  } catch (const util::JsonError& e) {
    throw IoError(path + ": " + e.what());
  }
}

void require_writable(const std::string& path) {
  namespace fs = std::filesystem;
  const fs::path target(path);
  const fs::path parent =
      target.has_parent_path() ? target.parent_path() : fs::path(".");
  std::error_code ec;
  if (!fs::exists(parent, ec)) {
    throw IoError("cannot write '" + path + "': directory '" +
                  parent.string() + "' does not exist");
  }
  // Probe with append mode: creates the file if absent but never truncates
  // an existing one.
  std::ofstream probe(path, std::ios::app);
  if (!probe) {
    throw IoError("cannot write '" + path + "': permission denied");
  }
  probe.close();
  if (fs::exists(target, ec) && fs::file_size(target, ec) == 0) {
    fs::remove(target, ec);  // drop the empty probe artifact
  }
}

long long get_int_in(const util::Options& options, const std::string& name,
                     long long min, long long max) {
  const long long value = options.get_int(name);
  if (value < min || value > max) {
    throw UsageError("--" + name + " must be in [" + std::to_string(min) +
                     ", " + std::to_string(max) + "], got " +
                     std::to_string(value));
  }
  return value;
}

double get_double_in(const util::Options& options, const std::string& name,
                     double min, double max) {
  const double value = options.get_double(name);
  if (!(value >= min && value <= max)) {
    throw UsageError("--" + name + " must be in [" +
                     util::format("%g", min) + ", " +
                     util::format("%g", max) + "], got " +
                     util::format("%g", value));
  }
  return value;
}

std::uint64_t parse_mem_size(const std::string& text, const char* flag) {
  const std::string entry(util::trim(text));
  const auto bad = [&] {
    return UsageError(std::string("--") + flag +
                      ": expected a size like 512m, 2g, or 1048576, got '" +
                      entry + "'");
  };
  if (entry.empty()) throw bad();
  std::uint64_t multiplier = 1;
  std::string digits = entry;
  switch (entry.back()) {
    case 'k': case 'K': multiplier = 1ull << 10; break;
    case 'm': case 'M': multiplier = 1ull << 20; break;
    case 'g': case 'G': multiplier = 1ull << 30; break;
    default:
      if (entry.back() < '0' || entry.back() > '9') throw bad();
  }
  if (multiplier > 1) digits.pop_back();
  if (digits.empty()) throw bad();
  std::uint64_t value = 0;
  try {
    std::size_t used = 0;
    value = std::stoull(digits, &used);
    if (used != digits.size()) throw bad();
  } catch (const UsageError&) {
    throw;
  } catch (const std::exception&) {
    throw bad();
  }
  if (value == 0 || value > std::numeric_limits<std::uint64_t>::max() /
                                multiplier) {
    throw bad();
  }
  return value * multiplier;
}

std::vector<std::pair<int, double>> parse_rank_at(const std::string& text,
                                                  const char* flag) {
  std::vector<std::pair<int, double>> out;
  if (text.empty()) return out;
  for (const std::string& token : util::split(text, ',')) {
    const std::string entry(util::trim(token));
    const auto at = entry.find('@');
    if (at == std::string::npos || at == 0 || at + 1 == entry.size()) {
      throw UsageError(std::string("--") + flag + ": expected rank@value, got '" +
                       entry + "'");
    }
    try {
      std::size_t used = 0;
      const int rank = std::stoi(entry.substr(0, at), &used);
      if (used != at) throw std::invalid_argument(entry);
      const std::string value_text = entry.substr(at + 1);
      const double value = std::stod(value_text, &used);
      if (used != value_text.size()) throw std::invalid_argument(entry);
      out.emplace_back(rank, value);
    } catch (const std::exception&) {
      throw UsageError(std::string("--") + flag + ": expected rank@value, got '" +
                       entry + "'");
    }
  }
  return out;
}

PaceFaultPlans parse_fault_plan(const util::Options& options, int masters) {
  PaceFaultPlans plans;
  const auto slow_down = [](mpsim::FaultPlan& plan, int rank, double factor) {
    if (plan.straggler_factor.size() <= static_cast<std::size_t>(rank)) {
      plan.straggler_factor.resize(static_cast<std::size_t>(rank) + 1, 1.0);
    }
    plan.straggler_factor[static_cast<std::size_t>(rank)] = factor;
  };
  for (const auto& [rank, at] : parse_rank_at(options.get("crash"), "crash")) {
    if (rank == 0) {
      throw UsageError(
          "--crash: rank 0 is the master; crashing it is unrecoverable "
          "(use --checkpoint-dir / --resume for master failures)");
    }
    if (masters > 1 && rank <= masters) {
      throw UsageError(
          "--crash: rank " + std::to_string(rank) +
          " is a sub-master under --masters " + std::to_string(masters) +
          "; use --submaster-crash " + std::to_string(rank) + "@t instead");
    }
    if (at < 0.0) throw UsageError("--crash: time must be >= 0");
    plans.rr.crashes.push_back({rank, at});
    plans.ccd.crashes.push_back({rank, at});
  }
  for (const auto& [rank, at] :
       parse_rank_at(options.get("submaster-crash"), "submaster-crash")) {
    if (masters < 2) {
      throw UsageError(
          "--submaster-crash requires --masters >= 2 (there are no "
          "sub-masters in the flat protocol)");
    }
    if (rank < 1 || rank > masters) {
      throw UsageError(
          "--submaster-crash: sub-master index must be in [1, " +
          std::to_string(masters) + "], got " + std::to_string(rank));
    }
    if (at < 0.0) throw UsageError("--submaster-crash: time must be >= 0");
    plans.ccd.crashes.push_back({rank, at});
  }
  for (const auto& [rank, factor] : parse_rank_at(
           options.get("submaster-straggle"), "submaster-straggle")) {
    if (masters < 2) {
      throw UsageError("--submaster-straggle requires --masters >= 2");
    }
    if (rank < 1 || rank > masters) {
      throw UsageError(
          "--submaster-straggle: sub-master index must be in [1, " +
          std::to_string(masters) + "], got " + std::to_string(rank));
    }
    if (factor < 1.0) {
      throw UsageError("--submaster-straggle: factor must be >= 1");
    }
    slow_down(plans.ccd, rank, factor);
  }
  for (const auto& [rank, factor] :
       parse_rank_at(options.get("straggle"), "straggle")) {
    if (rank < 0) throw UsageError("--straggle: rank must be >= 0");
    if (factor < 1.0) throw UsageError("--straggle: factor must be >= 1");
    slow_down(plans.rr, rank, factor);
    slow_down(plans.ccd, rank, factor);
  }
  for (mpsim::FaultPlan* plan : {&plans.rr, &plans.ccd}) {
    plan->drop_probability = get_double_in(options, "drop", 0.0, 0.999);
    plan->duplicate_probability = get_double_in(options, "dup", 0.0, 0.999);
  }
  return plans;
}

void define_simd_option(util::Options& options) {
  options.define("simd", "auto",
                 "alignment kernel instruction set: auto (widest the host "
                 "supports), avx2, sse2, or off (scalar)");
}

void apply_simd_option(const util::Options& options) {
  const std::string value = options.get("simd");
  const auto requested = align::parse_isa(value);
  if (!requested) {
    throw UsageError("unknown --simd '" + value +
                     "' (use auto, avx2, sse2, or off)");
  }
  const align::Isa effective = align::set_isa(*requested);
  std::printf("alignment SIMD: %s (%u pairs per batch)\n",
              align::isa_name(effective), align::isa_lanes(effective));
}

}  // namespace pclust::cli
