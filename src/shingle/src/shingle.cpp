#include "pclust/shingle/shingle.hpp"

#include <algorithm>
#include <span>

#include "pclust/dsu/union_find.hpp"
#include "pclust/exec/pool.hpp"
#include "pclust/shingle/minwise.hpp"
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

/// Indices per pool chunk of the Shingle loops.
constexpr std::size_t kGrain = 16;

/// Indices per pool lane sketched before their shingles are folded: bounds
/// the unfolded shingles alive at once (up to c per index) while leaving
/// each lane many chunks per block.
constexpr std::size_t kBlockPerLane = 256;

/// The distinct shingles of links_of(i) for every i in [0, n), sketched on
/// the pool's lanes a block at a time and handed to fold(i, shingles)
/// serially in index order. Chunk c of a block (indices [c * kGrain,
/// (c + 1) * kGrain)) owns slot c, which keeps its Sketch and output
/// buffer from block to block, so once warm the loop allocates nothing per
/// index.
template <typename LinksOf, typename Fold>
void sketch_then_fold(exec::Pool& lanes, std::size_t n, std::uint32_t s,
                      std::span<const std::uint64_t> keys,
                      const LinksOf& links_of, const Fold& fold) {
  struct Slot {
    Sketch sketch;
    std::vector<SketchEntry> shingles;  // the chunk's, index after index
    std::vector<std::size_t> ends;      // where each index's shingles end
  };
  const std::size_t block = kBlockPerLane * lanes.size();
  std::vector<Slot> slots((std::min(block, n) + kGrain - 1) / kGrain,
                          Slot{Sketch(s, keys), {}, {}});
  for (std::size_t lo = 0; lo < n; lo += block) {
    const std::size_t m = std::min(block, n - lo);
    const std::size_t chunks = (m + kGrain - 1) / kGrain;
    lanes.for_range(chunks, 1, [&](std::size_t c0, std::size_t c1) {
      for (std::size_t c = c0; c < c1; ++c) {
        Slot& slot = slots[c];
        slot.shingles.clear();
        slot.ends.clear();
        const std::size_t end = std::min(m, (c + 1) * kGrain);
        for (std::size_t i = c * kGrain; i < end; ++i) {
          const auto shingles = slot.sketch.shingles(links_of(lo + i));
          slot.shingles.insert(slot.shingles.end(), shingles.begin(),
                               shingles.end());
          slot.ends.push_back(slot.shingles.size());
        }
      }
    });
    for (std::size_t c = 0; c < chunks; ++c) {
      const Slot& slot = slots[c];
      const std::span<const SketchEntry> shingles(slot.shingles);
      const std::size_t first = lo + c * kGrain;
      for (std::size_t k = 0, begin = 0; k < slot.ends.size(); ++k) {
        fold(first + k, shingles.subspan(begin, slot.ends[k] - begin));
        begin = slot.ends[k];
      }
    }
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
  const std::size_t s1 = params.s1;

  // Every table of the stage, flat. First-level node i is the run
  // [node_begin[i], node_begin[i+1]) of the value-sorted tuples; its
  // producers are that run's vertices (CSR) and its s1 elements sit at
  // elements[i * s1].
  struct Tuple {
    std::uint64_t value;
    std::uint32_t vertex;
    std::uint32_t perm;  // the lowest permutation that selected the value
  };
  std::vector<Tuple> tuples;
  std::vector<std::uint32_t> node_begin;
  std::vector<std::uint32_t> producers;
  std::vector<std::uint32_t> elements;
  dsu::UnionFind uf;
  OwnerTable owners;
  const auto producers_of = [&](std::size_t i) {
    return std::span<const std::uint32_t>(producers).subspan(
        node_begin[i], node_begin[i + 1] - node_begin[i]);
  };
  // The stage's one charge: each table's part is set as the table is
  // built or freed.
  util::MemoryCharge charge("dsd", util::MemoryBreakdown("shingle"));

  // ---- Pass I: (s1, c1)-shingles of every left vertex -----------------
  // Vertices are sketched on the pool's lanes; each distinct shingle of a
  // vertex becomes one <value, vertex, permutation> tuple.
  const auto keys1 = permutation_keys(params.seed, params.c1);
  sketch_then_fold(
      lanes, graph.left_count(), params.s1, keys1,
      [&](std::size_t l) {
        return graph.out_links(static_cast<std::uint32_t>(l));
      },
      [&](std::size_t l, std::span<const SketchEntry> shingles) {
        for (const SketchEntry& e : shingles) {
          tuples.push_back({e.value, static_cast<std::uint32_t>(l), e.perm});
        }
      });
  local.tuples = tuples.size();
  charge.set("tuples", util::vector_bytes(tuples));
  std::sort(tuples.begin(), tuples.end(), [](const Tuple& a, const Tuple& b) {
    return a.value != b.value ? a.value < b.value : a.vertex < b.vertex;
  });

  // Group the tuples by value: one first-level node per run. A vertex's
  // values are distinct, so each run's vertices are sorted and unique; the
  // run's first tuple is its lowest producer's, and its permutation is all
  // of the tuple the elements need, so the tuples are freed right after.
  std::vector<std::uint32_t> node_perm;
  producers.resize(tuples.size());
  for (std::size_t k = 0; k < tuples.size(); ++k) {
    if (k == 0 || tuples[k].value != tuples[k - 1].value) {
      node_begin.push_back(static_cast<std::uint32_t>(k));
      node_perm.push_back(tuples[k].perm);
    }
    producers[k] = tuples[k].vertex;
  }
  const std::size_t n1 = node_begin.size();
  node_begin.push_back(static_cast<std::uint32_t>(tuples.size()));
  local.first_level_shingles = n1;
  charge.set("s1_nodes",
             util::vector_bytes(node_begin) + util::vector_bytes(producers));
  charge.set("s1_perms", util::vector_bytes(node_perm));
  std::vector<Tuple>().swap(tuples);
  charge.set("tuples", 0);

  // A node's elements are those its lowest producer's permutation selects
  // (equal values mean equal element sets), re-derived on the pool's lanes.
  elements.resize(n1 * s1);
  charge.set("shingle_elements", util::vector_bytes(elements));
  lanes.for_range(n1, kGrain, [&](std::size_t a, std::size_t b) {
    Sketch sketch(params.s1, keys1);
    for (std::size_t i = a; i < b; ++i) {
      const auto e = sketch.select(graph.out_links(producers[node_begin[i]]),
                                   node_perm[i]);
      std::copy(e.begin(), e.end(), elements.begin() + i * s1);
    }
  });
  std::vector<std::uint32_t>().swap(node_perm);
  charge.set("s1_perms", 0);

  // ---- Pass II: (s2, c2)-shingles of each first-level shingle ----------
  // First-level shingles sharing a second-level shingle are linked; the
  // S2->S1 connected components are extracted with union-find. Nodes are
  // sketched on the pool's lanes and folded serially in node order, each
  // node's values ascending, so union-find state evolves in one fixed
  // order at every pool size.
  uf.reset(n1);
  charge.set("union_find", uf.memory_usage().total());
  // Provenance sink: surviving merges recorded as node-index pairs at
  // decision time, resolved to ShingleMerge after the pass.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> merged_nodes;
  const auto keys2 =
      permutation_keys(params.seed ^ 0xD5DEADBEEF00ULL, params.c2);
  sketch_then_fold(
      lanes, n1, params.s2, keys2, producers_of,
      [&](std::size_t i, std::span<const SketchEntry> shingles) {
        const auto node = static_cast<std::uint32_t>(i);
        for (const SketchEntry& e : shingles) {
          const std::uint32_t owner = owners.claim(e.value, node);
          if (owner != node && uf.merge(node, owner) && merges) {
            merged_nodes.emplace_back(node, owner);
          }
        }
      });
  local.second_level_shingles = owners.size();
  charge.set("s2_owners", owners.bytes());

  // Resolve the recorded merge decisions: producer-overlap counts as
  // evidence, each node's smallest element (elements are sorted) as the
  // endpoint.
  if (merges) {
    merges->reserve(merges->size() + merged_nodes.size());
    for (const auto& [i, j] : merged_nodes) {
      const auto pa = producers_of(i);
      const auto pb = producers_of(j);
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
      m.a = elements[i * s1];
      m.b = elements[j * s1];
      m.matches = inter;
      m.columns =
          static_cast<std::uint32_t>(pa.size() + pb.size()) - inter;
      merges->push_back(m);
    }
  }

  // ---- Report: components -> (A, B) ------------------------------------
  std::vector<DenseSubgraph> out;
  for (const auto& members : uf.extract_sets()) {
    DenseSubgraph ds;
    for (const std::uint32_t node : members) {
      const auto p = producers_of(node);
      ds.left.insert(ds.left.end(), p.begin(), p.end());
      const auto e = elements.begin() + node * s1;
      ds.right.insert(ds.right.end(), e, e + s1);
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
  std::vector<bool> claimed(component.members.size());  // right universe
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
      if (claimed[v]) continue;
      claimed[v] = true;
      family.push_back(component.members[v]);
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
