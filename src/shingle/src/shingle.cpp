#include "pclust/shingle/shingle.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "pclust/dsu/union_find.hpp"
#include "pclust/exec/pool.hpp"
#include "pclust/shingle/minwise.hpp"
#include "pclust/util/io.hpp"
#include "pclust/util/log.hpp"
#include "pclust/util/memgov.hpp"
#include "pclust/util/memsize.hpp"
#include "pclust/util/metrics.hpp"
#include "pclust/util/timer.hpp"

namespace pclust::shingle {

namespace {

/// Sorted-unique in place.
void canonicalize(std::vector<std::uint32_t>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

/// Indices per pool lane mapped before their results are folded: bounds
/// the unfolded per-index results alive at once (a vertex's shingle set is
/// ~c1 element lists) while leaving each lane many grains per block.
constexpr std::size_t kBlockPerLane = 256;

/// map(i) for every i in [0, n) on the pool's lanes, handed to
/// fold(i, result) serially in index order, one block at a time.
template <typename Map, typename Fold>
void map_then_fold(exec::Pool& lanes, std::size_t n, const Map& map,
                   const Fold& fold) {
  const std::size_t block = kBlockPerLane * lanes.size();
  for (std::size_t lo = 0; lo < n; lo += block) {
    auto results = exec::parallel_map<decltype(map(lo))>(
        lanes, std::min(block, n - lo), 16,
        [&](std::size_t k) { return map(lo + k); });
    for (std::size_t k = 0; k < results.size(); ++k) fold(lo + k, results[k]);
  }
}

}  // namespace

std::vector<DenseSubgraph> dense_subgraphs(const bigraph::BipartiteGraph& graph,
                                           const ShingleParams& params,
                                           DsdStats* stats, exec::Pool* pool,
                                           std::vector<ShingleMerge>* merges) {
  util::Timer timer;
  DsdStats local;
  exec::Pool& lanes = exec::or_serial(pool);

  // ---- Pass I: (s1, c1)-shingles of every left vertex -----------------
  // Vertices are shingled on the pool's lanes (each vertex's shingle set
  // depends only on its own links), then folded in vertex order.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> tuples;
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> elements_of;
  map_then_fold(
      lanes, graph.left_count(),
      [&](std::size_t l) {
        return shingle_set(graph.out_links(static_cast<std::uint32_t>(l)),
                           params.s1, params.c1, params.seed);
      },
      [&](std::size_t l, std::vector<Shingle>& shingles) {
        for (Shingle& sh : shingles) {
          tuples.emplace_back(sh.value, static_cast<std::uint32_t>(l));
          elements_of.try_emplace(sh.value, std::move(sh.elements));
        }
      });
  local.tuples = tuples.size();
  std::sort(tuples.begin(), tuples.end());

  // Group tuples by shingle value -> first-level shingle nodes.
  struct S1Node {
    std::uint64_t value;
    std::vector<std::uint32_t> producers;  // left vertices, sorted unique
  };
  std::vector<S1Node> s1;
  for (std::size_t i = 0; i < tuples.size();) {
    std::size_t j = i;
    S1Node node;
    node.value = tuples[i].first;
    while (j < tuples.size() && tuples[j].first == node.value) {
      node.producers.push_back(tuples[j].second);
      ++j;
    }
    canonicalize(node.producers);
    s1.push_back(std::move(node));
    i = j;
  }
  local.first_level_shingles = s1.size();

  // Charge the Pass I working set as soon as it exists, so the spill
  // decision below sees the pressure this table actually creates (both
  // charges fold into the whole-stage charge once the peak breakdown is
  // taken after Pass II).
  util::MemoryCharge tuples_charge("shingle.tuples",
                                   util::vector_bytes(tuples));
  util::MemoryCharge elements_charge;
  {
    std::uint64_t bytes = util::hash_container_bytes(elements_of);
    for (const auto& [value, elems] : elements_of) {
      bytes += util::vector_bytes(elems);
    }
    elements_charge.add("shingle.elements", bytes);
  }

  // The element table is cold through all of Pass II — only Pass I fills
  // it and the report phase reads it back — so under memory pressure the
  // governor spills it through the IoEnv (ArtifactClass::kSpill) and the
  // report reloads it. A spill I/O failure just keeps the table in memory:
  // spilling is an optimization, losing spilled data would not be. The
  // reload reconstructs the same key -> elements mapping, so the reported
  // families are bit-identical either way.
  std::unique_ptr<util::io::SpillFile> spill;
  if (!elements_of.empty() && util::governor().should_spill("dsd")) {
    try {
      auto file = std::make_unique<util::io::SpillFile>("shingle-elements");
      for (const auto& [value, elems] : elements_of) {
        const std::uint64_t v = value;
        const auto n = static_cast<std::uint32_t>(elems.size());
        file->write(&v, sizeof v);
        file->write(&n, sizeof n);
        file->write(elems.data(), n * sizeof(std::uint32_t));
      }
      file->finish();
      spill = std::move(file);
      std::unordered_map<std::uint64_t, std::vector<std::uint32_t>>().swap(
          elements_of);
      elements_charge.reset();  // the table now lives on disk
    } catch (const util::io::IoError& err) {
      PCLUST_WARN << "shingle: spill failed, keeping element table in "
                     "memory: "
                  << err.what();
    }
  }

  // ---- Pass II: (s2, c2)-shingles of each first-level shingle ----------
  // First-level shingles sharing a second-level shingle are linked; the
  // S2->S1 connected components are extracted with union-find.
  dsu::UnionFind uf(s1.size());
  std::unordered_map<std::uint64_t, std::uint32_t> s2_first_owner;
  const std::uint64_t seed2 = params.seed ^ 0xD5DEADBEEF00ULL;
  // Provenance sink: surviving merges recorded as node-index pairs at
  // decision time; resolved to ShingleMerge after the (possibly spilled)
  // element table is back in memory.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> merged_nodes;
  const auto fold = [&](std::uint32_t i, std::uint64_t value) {
    const auto [it, inserted] = s2_first_owner.try_emplace(value, i);
    if (!inserted && uf.merge(i, it->second) && merges) {
      merged_nodes.emplace_back(i, it->second);
    }
  };
  // Hash on the pool's lanes, merge serially in node order: union-find
  // state evolves in one fixed order at every pool size.
  map_then_fold(
      lanes, s1.size(),
      [&](std::size_t i) {
        return shingle_values(s1[i].producers, params.s2, params.c2, seed2);
      },
      [&](std::size_t i, const std::vector<std::uint64_t>& values) {
        for (const std::uint64_t value : values) {
          fold(static_cast<std::uint32_t>(i), value);
        }
      });
  local.second_level_shingles = s2_first_owner.size();

  // Peak working set of the two-level shingling pass: everything (except
  // a spilled element table) is alive here. Must scale with V + E of the
  // reduction graph, not |V|^2.
  util::MemoryCharge shingle_charge;
  {
    util::MemoryBreakdown b("shingle");
    b.add("tuples", util::vector_bytes(tuples));
    std::uint64_t s1_bytes = util::vector_bytes(s1);
    for (const S1Node& n : s1) s1_bytes += util::vector_bytes(n.producers);
    b.add("s1_nodes", s1_bytes);
    std::uint64_t elem_bytes = util::hash_container_bytes(elements_of);
    for (const auto& [value, elems] : elements_of) {
      elem_bytes += util::vector_bytes(elems);
    }
    b.add("shingle_elements", elem_bytes);
    b.add("union_find", uf.memory_usage());
    b.add("s2_owners", util::hash_container_bytes(s2_first_owner));
    util::record_memory(b, "dsd");
    // Fold the Pass I charges into the whole-stage charge (b already
    // counts tuples and the — possibly spilled-to-zero — element table).
    tuples_charge.reset();
    elements_charge.reset();
    shingle_charge.add("shingle", b.total());
  }

  // Reload a spilled element table for the report phase.
  if (spill) {
    const std::vector<std::uint8_t> bytes = spill->read_all();
    std::size_t pos = 0;
    while (pos < bytes.size()) {
      std::uint64_t value = 0;
      std::uint32_t n = 0;
      std::memcpy(&value, bytes.data() + pos, sizeof value);
      pos += sizeof value;
      std::memcpy(&n, bytes.data() + pos, sizeof n);
      pos += sizeof n;
      std::vector<std::uint32_t> elems(n);
      std::memcpy(elems.data(), bytes.data() + pos,
                  n * sizeof(std::uint32_t));
      pos += n * sizeof(std::uint32_t);
      elements_of.emplace(value, std::move(elems));
    }
    spill.reset();
  }

  // Resolve the recorded merge decisions now that the element table is
  // guaranteed in memory: producer-overlap counts as evidence, each node's
  // smallest element (shingle elements are sorted) as the endpoint.
  if (merges) {
    merges->reserve(merges->size() + merged_nodes.size());
    for (const auto& [i, j] : merged_nodes) {
      const auto& pa = s1[i].producers;
      const auto& pb = s1[j].producers;
      std::uint32_t inter = 0;
      for (std::size_t x = 0, y = 0; x < pa.size() && y < pb.size();) {
        if (pa[x] < pb[y]) {
          ++x;
        } else if (pb[y] < pa[x]) {
          ++y;
        } else {
          ++inter, ++x, ++y;
        }
      }
      ShingleMerge m;
      m.a = elements_of.at(s1[i].value).front();
      m.b = elements_of.at(s1[j].value).front();
      m.matches = inter;
      m.columns =
          static_cast<std::uint32_t>(pa.size() + pb.size()) - inter;
      merges->push_back(m);
    }
  }

  // ---- Report: components -> (A, B) ------------------------------------
  std::vector<DenseSubgraph> out;
  for (auto& members : uf.extract_sets()) {
    DenseSubgraph ds;
    for (std::uint32_t node : members) {
      const S1Node& n = s1[node];
      ds.left.insert(ds.left.end(), n.producers.begin(), n.producers.end());
      const auto& elems = elements_of.at(n.value);
      ds.right.insert(ds.right.end(), elems.begin(), elems.end());
    }
    canonicalize(ds.left);
    canonicalize(ds.right);
    out.push_back(std::move(ds));
  }
  local.raw_components = out.size();
  std::sort(out.begin(), out.end(),
            [](const DenseSubgraph& a, const DenseSubgraph& b) {
              const std::size_t sa = a.left.size() + a.right.size();
              const std::size_t sb = b.left.size() + b.right.size();
              if (sa != sb) return sa > sb;
              if (a.left != b.left) return a.left < b.left;
              return a.right < b.right;
            });

  local.elapsed_seconds = timer.elapsed_seconds();
  {
    auto& m = util::metrics();
    m.counter("shingle.passes").add(1);
    m.counter("shingle.tuples").add(local.tuples);
    m.counter("shingle.first_level_shingles").add(local.first_level_shingles);
    m.counter("shingle.second_level_shingles").add(local.second_level_shingles);
    m.counter("shingle.raw_components").add(local.raw_components);
  }
  if (stats) *stats = local;
  return out;
}

std::vector<std::vector<seq::SeqId>> report_families(
    const bigraph::ComponentGraph& component, const ShingleParams& params,
    DsdStats* stats, exec::Pool* pool, std::vector<ShingleMerge>* merges) {
  const std::size_t first_merge = merges ? merges->size() : 0;
  const auto candidates =
      dense_subgraphs(component.graph, params, stats, pool, merges);
  // Lift merge endpoints from right-universe vertices to sequence ids.
  if (merges) {
    for (std::size_t k = first_merge; k < merges->size(); ++k) {
      (*merges)[k].a = component.members[(*merges)[k].a];
      (*merges)[k].b = component.members[(*merges)[k].b];
    }
  }

  std::vector<std::vector<seq::SeqId>> families;
  std::unordered_set<std::uint32_t> claimed;  // right-vertex universe
  for (const DenseSubgraph& ds : candidates) {
    std::vector<std::uint32_t> nodes;
    if (component.reduction == bigraph::Reduction::kDuplicate) {
      // A and B live in the same (duplicated) vertex universe: report
      // A ∪ B iff |A ∩ B| / |A ∪ B| >= τ.
      std::vector<std::uint32_t> uni, inter;
      std::set_union(ds.left.begin(), ds.left.end(), ds.right.begin(),
                     ds.right.end(), std::back_inserter(uni));
      std::set_intersection(ds.left.begin(), ds.left.end(), ds.right.begin(),
                            ds.right.end(), std::back_inserter(inter));
      if (uni.empty() ||
          static_cast<double>(inter.size()) / static_cast<double>(uni.size()) <
              params.tau) {
        continue;
      }
      nodes = std::move(uni);
    } else {
      // Domain-based reduction: the family is B.
      nodes = ds.right;
    }

    // Disjointness: families are claimed largest-first; vertices already
    // assigned to an earlier (larger) family drop out.
    std::vector<seq::SeqId> family;
    for (std::uint32_t v : nodes) {
      if (claimed.insert(v).second) family.push_back(component.members[v]);
    }
    if (family.size() >= params.min_size) {
      std::sort(family.begin(), family.end());
      families.push_back(std::move(family));
    }
  }
  std::sort(families.begin(), families.end(),
            [](const auto& a, const auto& b) {
              if (a.size() != b.size()) return a.size() > b.size();
              return a.front() < b.front();
            });
  return families;
}

}  // namespace pclust::shingle
