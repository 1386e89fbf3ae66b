// Two-tier hierarchical aggregation (DESIGN.md §16).
//
// The flat Aggregator ingests every machine's samples directly; that is the
// paper's design and tops out around a few thousand machines. This file is
// the warehouse-scale alternative:
//
//   machines ──► CellAggregator (one per cell)      ──► CPI2SKT1 frames
//                  fold samples into CpiSketches         (wire/sketch_codec)
//                                                            │
//   GlobalMerger ◄───────────────────────────────────────────┘
//     merge partials, keep the age-weighted MomentHistory, build the same
//     CpiSpecs the flat path builds
//
// HierarchicalAggregator is the facade the harness drives; it mirrors the
// flat Aggregator's surface (AddSample / Tick / ForceBuild / Checkpoint /
// Restore) so the two are selectable by params.flat_aggregation_path.
//
// Determinism contract, held by ParallelDeterminismTest:
//  - Tiered runs are bit-identical across any cell count and thread count:
//    cell partials are integer sketches (stats/sketch.h) whose merge is
//    exactly associative, sample dedup is global (one SampleDedup, the type
//    the flat path uses, so watermark pruning cannot diverge across
//    partitions), and task identity crosses the tier as a
//    partition-invariant FNV-1a hash, so spec eligibility counts distinct
//    tasks exactly.
//  - Tiered equals flat within sketch quantization (~2^-20 relative) on
//    spec values, with the spec key set, num_samples, and dedup counts
//    exactly equal: the history-count arithmetic never touches quantized
//    values, and the merger runs SpecBuilder::MomentHistory's decay/merge.
//  - Crash semantics match: Restore() resumes from the checkpoint and
//    discards the merger's and cells' in-progress windows, losing exactly
//    the samples a flat restore loses: every sample since the last build,
//    up to one spec_update_interval, however often checkpoints are taken.

#ifndef CPI2_CORE_CELL_AGGREGATOR_H_
#define CPI2_CORE_CELL_AGGREGATOR_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/aggregator_checkpoint.h"
#include "core/dedup_window.h"
#include "core/params.h"
#include "core/spec_builder.h"
#include "core/types.h"
#include "stats/sketch.h"
#include "util/interner.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace cpi2 {

// One cell's shard of the aggregation tier: folds its machines' samples
// into per-(job, platform) sketches and ships them as CPI2SKT1 frames.
// Holds no history — the window resets at every emission, and all
// age-weighting happens in the merger.
class CellAggregator {
 public:
  CellAggregator(const Cpi2Params& params, uint32_t cell_id);

  void AddSample(const CpiSample& sample);

  // Encodes the current window as a CPI2SKT1 frame appended to `*out`
  // (not cleared), then resets the window and bumps the sequence number.
  void EmitFrame(std::string* out);

  // Drops the current window without emitting — the merger restarted, so
  // partials accumulated against its pre-crash epoch must not replay.
  void DiscardWindow();

  uint32_t cell_id() const { return cell_id_; }
  uint64_t sequence() const { return sequence_; }
  size_t window_keys() const { return window_.size(); }

 private:
  using IdKey = uint64_t;  // packed (job id, platform id), as in SpecBuilder
  struct Partial {
    CpiSketch sketch;
    // One entry appended per sample (identity hash, 1) — O(1) on the ingest
    // hot path; EmitFrame sorts and collapses duplicates into the canonical
    // ascending-hash (hash, count) form the wire encoding requires anyway.
    std::vector<std::pair<uint64_t, int64_t>> task_samples;
  };

  Cpi2Params params_;
  uint32_t cell_id_;
  uint64_t sequence_ = 0;
  StringInterner names_;
  InternMemo job_memo_, platform_memo_;
  std::unordered_map<IdKey, Partial> window_;
};

// The top of the tier: merges cell partials and builds specs with exactly
// the arithmetic SpecBuilder::BuildShard uses, so the flat and tiered paths
// produce the same specs up to sketch quantization.
class GlobalMerger {
 public:
  explicit GlobalMerger(const Cpi2Params& params);

  // Decodes one CPI2SKT1 frame and folds its partials into the current
  // window. Damaged partial records are skipped and counted in
  // partials_dropped(); a damaged header rejects (and counts) the frame.
  Status MergeFrame(std::string_view bytes);

  // Closes the window: decays history, merges the window's sketches, and
  // returns the eligible specs in (jobname, platforminfo) order — the flat
  // path's push order. Every returned spec is stamped with `version`.
  std::vector<CpiSpec> BuildSpecs(uint64_t version);

  std::optional<VersionedSpec> LatestSpec(const std::string& jobname,
                                          const std::string& platforminfo) const;

  int64_t partials_dropped() const { return partials_dropped_; }

  // --- checkpoint surface (used by HierarchicalAggregator) -----------------
  // Name-sorted snapshots, mirroring SpecBuilder's. Restoring clears the
  // in-progress window.
  std::vector<SpecBuilder::HistoryEntry> SnapshotHistory() const;
  std::vector<VersionedSpec> SnapshotLatestSpecs() const;
  void RestoreSnapshot(const std::vector<SpecBuilder::HistoryEntry>& history,
                       const std::vector<VersionedSpec>& specs);

 private:
  using IdKey = uint64_t;
  static constexpr IdKey MakeKey(uint32_t job, uint32_t platform) {
    return (static_cast<IdKey>(job) << 32) | platform;
  }
  static constexpr uint32_t JobOf(IdKey key) { return static_cast<uint32_t>(key >> 32); }
  static constexpr uint32_t PlatformOf(IdKey key) { return static_cast<uint32_t>(key); }

  struct MergedPartial {
    CpiSketch sketch;
    // Sorted ascending by hash, duplicates collapsed. Decoded partials
    // arrive in exactly that order (the codec rejects anything else), so
    // folding one in is a linear two-pointer merge, not a map op per task.
    std::vector<std::pair<uint64_t, int64_t>> task_samples;
  };

  bool Eligible(const MergedPartial& merged) const;
  bool NameOrderLess(IdKey a, IdKey b) const;
  template <typename Map>
  std::vector<IdKey> SortedKeys(const Map& map) const;

  Cpi2Params params_;
  StringInterner names_;
  std::unordered_map<IdKey, MergedPartial> window_;
  std::unordered_map<IdKey, SpecBuilder::MomentHistory> history_;
  std::unordered_map<IdKey, VersionedSpec> latest_specs_;
  std::vector<std::pair<uint64_t, int64_t>> merge_scratch_;  // reused per merge
  int64_t partials_dropped_ = 0;
};

// The facade the harness drives in tiered mode: cells + merger behind the
// flat Aggregator's surface, plus per-cell health rollups so a dead cell is
// visible instead of silently shrinking specs.
class HierarchicalAggregator {
 public:
  // Spec push-out, with the build version for subscription bookkeeping.
  using SpecCallback = std::function<void(const CpiSpec&, uint64_t version)>;

  explicit HierarchicalAggregator(const Cpi2Params& params);

  // Routes one sample to `cell` after global dedup — one SampleDedup for all
  // cells, as the flat Aggregator has, which is what makes the dedup outcome
  // independent of the cell partition.
  void AddSample(size_t cell, const CpiSample& sample);

  // Same cadence contract as Aggregator::Tick: first call starts the build
  // clock, later calls ForceBuild once the update interval has elapsed.
  void Tick(MicroTime now);

  // Collects every live cell's frame (encoded in parallel on the attached
  // pool), merges them, and builds + pushes specs.
  std::vector<CpiSpec> ForceBuild(MicroTime now);

  void SetSpecCallback(SpecCallback callback) { callback_ = std::move(callback); }
  void SetThreadPool(ThreadPool* pool) { pool_ = pool; }  // borrowed

  std::optional<CpiSpec> GetSpec(const std::string& jobname,
                                 const std::string& platforminfo) const {
    const auto latest = merger_.LatestSpec(jobname, platforminfo);
    return latest ? std::optional<CpiSpec>(latest->spec) : std::nullopt;
  }
  std::optional<VersionedSpec> LatestSpec(const std::string& jobname,
                                          const std::string& platforminfo) const {
    return merger_.LatestSpec(jobname, platforminfo);
  }

  size_t cell_count() const { return cells_.size(); }
  GlobalMerger& merger() { return merger_; }
  int64_t builds_completed() const { return clock_.builds_completed; }
  int64_t duplicates_dropped() const { return dedup_.dropped(); }
  int64_t samples_seen() const { return samples_seen_; }

  // Simulates a dead cell: it stops emitting frames (its window is dropped
  // at each build, as a dead cell's memory would be) until revived.
  void SetCellDown(size_t cell, bool down);

  // --- per-cell health rollups --------------------------------------------
  // Cells that contributed a frame to the most recent build.
  int64_t cells_reporting() const { return cells_reporting_; }
  // Age (at the last build) of the stalest cell's last merged frame; 0 when
  // every cell reported, grows by one build interval per build a cell
  // misses. Before any build: 0.
  MicroTime stalest_partial_age() const { return stalest_partial_age_; }
  // Partial records (or whole frames) the merger had to drop, cumulative.
  int64_t partials_dropped() const { return merger_.partials_dropped(); }

  // --- checkpoint/restore --------------------------------------------------
  // CPI2HAG2, the flat Aggregator's format (core/aggregator_checkpoint.h),
  // with one H and one S record; Restore reads every format that codec
  // reads. Restore is all-or-nothing and — like the flat path — discards
  // all in-progress windows (merger and cells): a restarted merger must not
  // replay partials from its pre-crash epoch.
  std::string Checkpoint() const;
  Status Restore(const std::string& checkpoint);

 private:
  Cpi2Params params_;
  std::vector<CellAggregator> cells_;
  GlobalMerger merger_;
  SpecCallback callback_;
  ThreadPool* pool_ = nullptr;  // borrowed; frame encoding only
  BuildClock clock_;
  SampleDedup dedup_;
  int64_t samples_seen_ = 0;
  std::vector<bool> cell_down_;
  std::vector<MicroTime> cell_last_merge_;  // -1 until a cell first reports
  int64_t cells_reporting_ = 0;
  MicroTime stalest_partial_age_ = 0;
  std::vector<std::string> frame_scratch_;  // per-cell encode buffers, reused
};

}  // namespace cpi2

#endif  // CPI2_CORE_CELL_AGGREGATOR_H_
