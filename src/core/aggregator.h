// Cluster-level CPI sample aggregation service (Figure 6).
//
// Receives every agent's samples, periodically rebuilds the per-job,
// per-platform CPI specs through SpecBuilder, and pushes fresh specs back
// out through a callback (the harness routes them to the machines running
// each job). The paper rebuilds every 24 hours with a goal of hourly;
// the interval is a parameter.
//
// Fast path: AddSample dedups (serial, deterministic) and stages the sample
// into its SpecBuilder shard; each Tick flushes the accumulated batch — and
// each build runs per shard — on the attached ThreadPool when one is set.
// The shard outputs merge back in the legacy string-sorted order, so spec
// push order is bit-identical to the serial single-map path.
//
// Degraded-mode hardening:
//  - Checkpoint/restore: the spec state (age-weighted history, latest
//    specs with their versions, build clock) and the dedup state serialize
//    to a framed binary CPI2HAG2 blob (core/aggregator_checkpoint.h; the
//    older CPAGCKP3, CPI2HAG1 and text v1/v2 blobs still load), so a
//    restarted aggregator resumes with its age-weighted history instead of
//    starting over. The open accumulation window is not checkpointed: a
//    restore loses every sample accumulated since the last build, up to one
//    spec_update_interval (24 h by default) however often checkpoints are
//    taken. The writer streams shard by shard and reuses each shard's
//    cached serialization until its state changes, so steady-state
//    checkpoints between builds cost O(dedup window), not O(total jobs).
//  - Duplicate-sample idempotence (SampleDedup, core/dedup_window.h): when
//    sample_dedup_window > 0 a replayed (machine, task, timestamp) triple
//    is dropped. The watermark and window persist in the checkpoint, so
//    duplicates replayed across a crash/restore are still absorbed.
//
// Spec versions (SpecBuilder::LatestSpec) are the build numbers, 1 for
// the first, as in the HierarchicalAggregator; the harness fans a spec out
// only to subscribers that lack its version and catches new or restarted
// ones up from LatestSpec.

#ifndef CPI2_CORE_AGGREGATOR_H_
#define CPI2_CORE_AGGREGATOR_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/aggregator_checkpoint.h"
#include "core/dedup_window.h"
#include "core/params.h"
#include "core/spec_builder.h"
#include "core/types.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace cpi2 {

class Aggregator {
 public:
  using SpecCallback = std::function<void(const CpiSpec&)>;
  // Receives checkpoint chunks in order; concatenation is the blob.
  using CheckpointSink = std::function<void(std::string_view)>;

  explicit Aggregator(const Cpi2Params& params)
      : params_(params), builder_(params), dedup_(params.sample_dedup_window) {}

  void AddSample(const CpiSample& sample);

  // Rebuilds specs when the update interval has elapsed, and flushes the
  // tick's staged sample batch into the builder shards. Call regularly.
  void Tick(MicroTime now);

  // Rebuilds immediately regardless of the interval (used to prime specs at
  // experiment start and by the paper's "goal: 1 hour" mode).
  std::vector<CpiSpec> ForceBuild(MicroTime now);

  void SetSpecCallback(SpecCallback callback) { callback_ = std::move(callback); }

  // Worker pool for batch flushes and per-shard builds; nullptr (the
  // default) keeps everything on the calling thread. Borrowed, not owned.
  void SetThreadPool(ThreadPool* pool) { pool_ = pool; }

  std::optional<CpiSpec> GetSpec(const std::string& jobname,
                                 const std::string& platforminfo) const {
    return builder_.GetSpec(jobname, platforminfo);
  }
  std::optional<VersionedSpec> LatestSpec(const std::string& jobname,
                                          const std::string& platforminfo) const {
    return builder_.LatestSpec(jobname, platforminfo);
  }

  SpecBuilder& builder() { return builder_; }
  int64_t builds_completed() const { return clock_.builds_completed; }
  int64_t duplicates_dropped() const { return dedup_.dropped(); }

  // --- checkpoint/restore ---------------------------------------------------
  // Streams the checkpoint (spec history + latest specs + build clock +
  // dedup state) to `sink` chunk by chunk: header and metadata first, then
  // one chunk per builder shard, each reused from a cached serialization
  // when that shard hasn't changed since the last checkpoint. The
  // in-progress accumulation window is excluded; see the header comment.
  // Emits CPI2HAG2.
  void WriteCheckpoint(const CheckpointSink& sink) const;
  // Convenience wrapper materializing the streamed checkpoint as one blob.
  std::string Checkpoint() const;
  // Replaces this aggregator's state with a previously checkpointed blob in
  // any format DecodeCheckpoint reads. Fails (leaving the current state
  // untouched) on a malformed blob: every field is parsed strictly, so a
  // corrupted checkpoint surfaces as InvalidArgumentError naming the bad
  // record or line instead of restoring zeros.
  Status Restore(const std::string& checkpoint);
  // File-backed convenience wrappers around WriteCheckpoint()/Restore().
  // SaveCheckpoint writes crash-atomically (tmp + fsync + rename), so a
  // kill mid-save leaves the previous checkpoint intact.
  Status SaveCheckpoint(const std::string& path) const;
  Status LoadCheckpoint(const std::string& path);

 private:
  Cpi2Params params_;
  SpecBuilder builder_;
  SpecCallback callback_;
  ThreadPool* pool_ = nullptr;  // borrowed; flush/build scheduling only
  BuildClock clock_;
  SampleDedup dedup_;
  // Per-shard checkpoint section cache, keyed by the builder's shard
  // versions. Mutable: WriteCheckpoint is logically const and
  // single-threaded (it runs in the harness's serial phase).
  mutable std::vector<CheckpointSection> shard_sections_;
  mutable std::vector<uint64_t> shard_section_version_;
};

}  // namespace cpi2

#endif  // CPI2_CORE_AGGREGATOR_H_
