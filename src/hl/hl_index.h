#ifndef ROADNET_HL_HL_INDEX_H_
#define ROADNET_HL_HL_INDEX_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ch/ch_index.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "routing/path_index.h"

namespace roadnet {

struct HlConfig {
  // Worker threads for label construction; 0 picks
  // std::thread::hardware_concurrency(). Construction output is
  // byte-identical for every thread count.
  size_t num_threads = 0;
};

// Hub labeling over a finished contraction hierarchy (Abraham et al.
// 2011; Zhu et al.'s "Towards Bridging Theory and Practice" is the
// practice this follows — see PAPERS.md).
//
// The label of vertex v is its CH upward search space after
// distance-check pruning: vertex u with upward distance d survives only
// if d equals the true dist(v, u), verified with a CH query. Because the
// graph is undirected one label per vertex serves both query roles, and
// CH's correctness argument carries over directly: the apex (the
// highest-ranked vertex of a shortest s-t path) lies in both upward
// search spaces at its true distance, so it survives pruning in both
// labels and the merge below finds it.
//
// A distance query is a single merge-intersection of the two labels —
// no heap, no graph traversal, no scattered loads: hubs are stored as
// contraction ranks in strictly ascending order, in one flat array of
// 8-byte {hub rank, distance} entries addressed by a CSR offset table,
// so the merge streams two contiguous runs and takes
// min(d(s,h) + d(h,t)) over common hubs h.
//
// The index is immutable after construction and holds no query scratch
// at all; the per-thread HlContext exists to carry QueryCounters and the
// CH context that path queries delegate to (labels store distances, not
// parents — path expansion reuses the CH, which must outlive the index
// unless it is adopted via BuildOwning).
class HlIndex : public PathIndex {
 public:
  // One label entry. `hub` is the hub's contraction rank (rank space
  // makes entries sort-stable across identical builds and keeps the
  // high-rank hubs every label shares in a dense id range); `dist` is
  // the exact shortest-path distance to the hub. Road-network distances
  // fit u32 (Weight is u32 and paths are short); construction asserts.
  struct HubEntry {
    uint32_t hub;
    uint32_t dist;
  };

  // Builds labels from ch, which must be built over g and outlive the
  // index. Deterministic for any thread count.
  HlIndex(const Graph& g, const ChIndex& ch, const HlConfig& config);
  HlIndex(const Graph& g, const ChIndex& ch) : HlIndex(g, ch, HlConfig{}) {}

  // Builds labels over a hierarchy the index adopts — the serving path,
  // where nothing else needs the CH afterwards (path queries still use
  // it internally).
  static std::unique_ptr<HlIndex> BuildOwning(
      const Graph& g, std::unique_ptr<const ChIndex> ch,
      const HlConfig& config = HlConfig{});

  // Writes the labels (format v1: magic, version, CRC-checksummed
  // payload) so query servers can skip both contraction and label
  // construction.
  void Serialize(std::ostream& out) const;

  // Restores serialized labels over the same graph and hierarchy they
  // were built on (vertex count, label structure and self-hub ranks are
  // validated). Returns nullptr on malformed input.
  static std::unique_ptr<HlIndex> Deserialize(const Graph& g,
                                              const ChIndex& ch,
                                              std::istream& in,
                                              std::string* error);

  std::string Name() const override { return "HL"; }
  std::unique_ptr<QueryContext> NewContext() const override;
  Distance DistanceQuery(QueryContext* ctx, VertexId s,
                         VertexId t) const override;
  Path PathQuery(QueryContext* ctx, VertexId s, VertexId t) const override;
  using PathIndex::DistanceQuery;
  using PathIndex::PathQuery;
  size_t IndexBytes() const override;

  // Bytes of the label arrays alone (the space the technique adds on
  // top of the CH it was derived from); IndexBytes() additionally
  // counts an adopted hierarchy.
  size_t LabelBytes() const;

  size_t NumLabelEntries() const { return labels_.size(); }
  double AvgLabelEntries() const {
    return offsets_.size() <= 1
               ? 0.0
               : static_cast<double>(labels_.size()) /
                     static_cast<double>(offsets_.size() - 1);
  }
  size_t MaxLabelEntries() const;

  // The label of v: {hub rank, distance} entries, hub ranks strictly
  // ascending. Every label contains v itself (dist 0).
  std::span<const HubEntry> Label(VertexId v) const {
    return {labels_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  const ChIndex& Hierarchy() const { return *ch_; }

 private:
  struct Context : QueryContext {
    // Path queries delegate to the CH (labels cannot reconstruct
    // vertices); this is the per-thread CH scratch they run on, built by
    // the first path query so distance-only callers (an HL server's
    // loops, HL distance batches) never hold its O(n) arrays.
    std::unique_ptr<QueryContext> ch_ctx;
  };

  // Deserialization constructor: arrays filled by the factory.
  struct DeserializeTag {};
  HlIndex(const Graph& g, const ChIndex& ch, DeserializeTag);

  // Runs label construction (see .cc): upward search spaces, batched
  // distance-check pruning on the engine worker pool, CSR flattening.
  void BuildLabels(const HlConfig& config);

  const Graph& graph_;
  const ChIndex* ch_;
  // Set only by BuildOwning: keeps an adopted hierarchy alive.
  std::unique_ptr<const ChIndex> owned_ch_;
  // CSR over labels_, indexed by external VertexId (queries arrive in
  // external ids; one array lookup beats a rank translation here
  // because the label run is the only thing the query touches).
  std::vector<uint64_t> offsets_;
  std::vector<HubEntry> labels_;
};

}  // namespace roadnet

#endif  // ROADNET_HL_HL_INDEX_H_
