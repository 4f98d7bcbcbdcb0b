#include "hl/hl_index.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <sstream>
#include <thread>
#include <utility>

#include "engine/query_engine.h"
#include "io/binary.h"
#include "io/crc32.h"
#include "util/bytes.h"

namespace roadnet {

namespace {

constexpr char kHlMagic[8] = {'R', 'N', 'E', 'T', 'H', 'L', 'I', 'X'};
constexpr uint32_t kHlVersion = 1;

// Vertices per construction round. Bounds the transient memory (search
// spaces plus one pruning batch) to the block instead of the whole
// graph, while keeping each engine batch large enough that the worker
// pool's chunked stealing has something to balance.
constexpr uint32_t kBuildBlock = 4096;

}  // namespace

HlIndex::HlIndex(const Graph& g, const ChIndex& ch, const HlConfig& config)
    : graph_(g), ch_(&ch) {
  BuildLabels(config);
}

HlIndex::HlIndex(const Graph& g, const ChIndex& ch, DeserializeTag)
    : graph_(g), ch_(&ch) {}

std::unique_ptr<HlIndex> HlIndex::BuildOwning(
    const Graph& g, std::unique_ptr<const ChIndex> ch,
    const HlConfig& config) {
  auto index = std::make_unique<HlIndex>(g, *ch, config);
  index->owned_ch_ = std::move(ch);
  return index;
}

void HlIndex::BuildLabels(const HlConfig& config) {
  const uint32_t n = graph_.NumVertices();
  offsets_.assign(static_cast<size_t>(n) + 1, 0);
  labels_.clear();
  if (n == 0) return;

  size_t num_threads = config.num_threads != 0
                           ? config.num_threads
                           : std::thread::hardware_concurrency();
  if (num_threads == 0) num_threads = 1;

  // The distance checks run as batches on the engine worker pool: each
  // candidate (v, hub) becomes one CH distance query, and the pool's
  // work stealing soaks up the wildly uneven per-vertex label sizes.
  QueryEngine engine(*ch_, num_threads);
  BatchOptions batch_options;
  batch_options.record_latencies = false;
  batch_options.record_counters = false;

  // Per-block scratch, reused across rounds.
  std::vector<std::vector<std::pair<VertexId, Distance>>> spaces(kBuildBlock);
  std::vector<std::pair<VertexId, VertexId>> checks;
  std::vector<HubEntry> label;

  for (uint32_t begin = 0; begin < n; begin += kBuildBlock) {
    const uint32_t end = std::min<uint32_t>(begin + kBuildBlock, n);

    // Upward search space of every vertex in the block, in parallel.
    // Results land in slots indexed by vertex, so the output does not
    // depend on scheduling and construction stays deterministic.
    {
      std::atomic<uint32_t> cursor{begin};
      auto worker = [&] {
        std::unique_ptr<QueryContext> ctx = ch_->NewContext();
        std::vector<std::pair<VertexId, Distance>> buf;
        for (;;) {
          const uint32_t v = cursor.fetch_add(1, std::memory_order_relaxed);
          if (v >= end) return;
          ch_->UpwardSearchSpace(ctx.get(), v, &buf);
          spaces[v - begin] = buf;
        }
      };
      std::vector<std::thread> threads;
      threads.reserve(num_threads);
      for (size_t i = 0; i + 1 < num_threads; ++i) {
        threads.emplace_back(worker);
      }
      worker();
      for (std::thread& t : threads) t.join();
    }

    // Distance-check pruning, batched. The self-hub (upward distance 0)
    // is exact by definition and skips the check.
    checks.clear();
    for (uint32_t v = begin; v < end; ++v) {
      for (const auto& [u, d] : spaces[v - begin]) {
        if (u != v) checks.emplace_back(v, u);
      }
    }
    BatchResult result;
    if (!checks.empty()) result = engine.Run(checks, batch_options);

    // Keep a hub only if its upward distance is the true distance, and
    // store survivors in strictly ascending rank order.
    size_t check_index = 0;
    for (uint32_t v = begin; v < end; ++v) {
      label.clear();
      for (const auto& [u, d] : spaces[v - begin]) {
        const bool exact =
            u == v || result.distances[check_index++] == d;
        if (!exact) continue;
        assert(d <= UINT32_MAX);
        label.push_back(HubEntry{ch_->RankOf(u), static_cast<uint32_t>(d)});
      }
      std::sort(label.begin(), label.end(),
                [](const HubEntry& a, const HubEntry& b) {
                  return a.hub < b.hub;
                });
      labels_.insert(labels_.end(), label.begin(), label.end());
      offsets_[v + 1] = labels_.size();
      spaces[v - begin].clear();
    }
  }
  // The index is immutable from here on; drop the growth slack so
  // IndexBytes() (capacity-based, util/bytes.h) reports what a restored
  // index would hold.
  labels_.shrink_to_fit();
}

std::unique_ptr<QueryContext> HlIndex::NewContext() const {
  return std::make_unique<Context>();
}

Distance HlIndex::DistanceQuery(QueryContext* ctx, VertexId s,
                                VertexId t) const {
  ctx->counters.Reset();
  const std::span<const HubEntry> a = Label(s);
  const std::span<const HubEntry> b = Label(t);
  Distance best = kInfDistance;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const uint32_t ha = a[i].hub;
    const uint32_t hb = b[j].hub;
    if (ha == hb) {
      const Distance d = Distance{a[i].dist} + Distance{b[j].dist};
      if (d < best) best = d;
      ++i;
      ++j;
    } else if (ha < hb) {
      ++i;
    } else {
      ++j;
    }
  }
  ctx->counters.TableLookup(i + j);
  return best;
}

Path HlIndex::PathQuery(QueryContext* ctx, VertexId s, VertexId t) const {
  // Labels hold distances, not parents: expansion reuses the CH, whose
  // unpacking already emits original-graph vertices. The counters are
  // the CH query's counters — that is the work this query did.
  Context* hl_ctx = static_cast<Context*>(ctx);
  if (hl_ctx->ch_ctx == nullptr) hl_ctx->ch_ctx = ch_->NewContext();
  Path path = ch_->PathQuery(hl_ctx->ch_ctx.get(), s, t);
  hl_ctx->counters = hl_ctx->ch_ctx->counters;
  return path;
}

size_t HlIndex::IndexBytes() const {
  size_t bytes = LabelBytes();
  if (owned_ch_ != nullptr) bytes += owned_ch_->IndexBytes();
  return bytes;
}

size_t HlIndex::LabelBytes() const {
  return VectorBytes(offsets_) + VectorBytes(labels_);
}

size_t HlIndex::MaxLabelEntries() const {
  size_t max_entries = 0;
  for (size_t v = 0; v + 1 < offsets_.size(); ++v) {
    max_entries = std::max<size_t>(max_entries, offsets_[v + 1] - offsets_[v]);
  }
  return max_entries;
}

void HlIndex::Serialize(std::ostream& out) const {
  WriteMagic(out, kHlMagic);
  WriteScalar<uint32_t>(out, kHlVersion);
  std::ostringstream payload;
  WriteScalar<uint32_t>(payload, graph_.NumVertices());
  WriteVector(payload, offsets_);
  WriteVector(payload, labels_);
  WriteChecksummedPayload(out, payload.view());
}

std::unique_ptr<HlIndex> HlIndex::Deserialize(const Graph& g,
                                              const ChIndex& ch,
                                              std::istream& in,
                                              std::string* error) {
  auto fail = [error](const char* message) {
    if (error != nullptr) *error = message;
    return nullptr;
  };
  if (!CheckMagic(in, kHlMagic)) return fail("hl: bad magic");
  uint32_t version = 0;
  if (!ReadScalar(in, &version) || version != kHlVersion) {
    return fail("hl: unsupported version (re-run preprocess with this build)");
  }
  std::string buffer;
  if (!ReadChecksummedPayload(in, &buffer, "hl", error)) return nullptr;
  std::istringstream body(buffer);
  uint32_t n = 0;
  if (!ReadScalar(body, &n) || n != g.NumVertices()) {
    return fail("hl: vertex count does not match the graph");
  }
  std::unique_ptr<HlIndex> index(new HlIndex(g, ch, DeserializeTag{}));
  if (!ReadVector(body, &index->offsets_) ||
      index->offsets_.size() != static_cast<size_t>(n) + 1) {
    return fail("hl: bad offset block");
  }
  if (!ReadVector(body, &index->labels_) ||
      (n == 0 && !index->labels_.empty())) {
    return fail("hl: bad label block");
  }
  // Structural validation so corrupted input cannot cause out-of-range
  // indexing or wrong merges at query time: offsets form a CSR over the
  // label array, every label is strictly rank-sorted with in-range
  // hubs, and every vertex's label contains the vertex itself at
  // distance 0 (the invariant the merge relies on for s == t).
  if (n > 0 && index->offsets_[0] != 0) return fail("hl: bad offset block");
  for (uint32_t v = 0; v < n; ++v) {
    if (index->offsets_[v + 1] < index->offsets_[v] ||
        index->offsets_[v + 1] > index->labels_.size()) {
      return fail("hl: offsets are not monotone");
    }
  }
  if (n > 0 && index->offsets_[n] != index->labels_.size()) {
    return fail("hl: offsets do not cover the label block");
  }
  for (uint32_t v = 0; v < n; ++v) {
    const std::span<const HubEntry> label = index->Label(v);
    bool has_self = false;
    uint32_t prev_hub = 0;
    for (size_t i = 0; i < label.size(); ++i) {
      if (label[i].hub >= n) return fail("hl: hub rank out of range");
      if (i > 0 && label[i].hub <= prev_hub) {
        return fail("hl: label hubs are not strictly ascending");
      }
      prev_hub = label[i].hub;
      if (label[i].hub == ch.RankOf(v)) {
        if (label[i].dist != 0) return fail("hl: self-hub distance not zero");
        has_self = true;
      }
    }
    if (!has_self) {
      return fail("hl: label is missing its self-hub (wrong hierarchy?)");
    }
  }
  return index;
}

}  // namespace roadnet
