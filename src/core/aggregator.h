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
//    specs, build clock) and the dedup state serialize to a framed binary
//    blob (v3; text v1/v2 blobs still load), so a restarted aggregator
//    resumes from its last checkpoint instead of forgetting a day of
//    history. Samples
//    accumulated since the checkpoint are lost — the loss is bounded by the
//    checkpoint interval. The writer streams shard by shard and reuses each
//    shard's cached serialization until its state changes, so steady-state
//    checkpoints between builds cost O(dedup window), not O(total jobs).
//  - Duplicate-sample idempotence: when sample_dedup_window > 0, a
//    (machine, task, timestamp) triple seen twice within the window is
//    dropped, so an agent retrying after a lost ack cannot double-count.
//    The watermark and window contents persist in the checkpoint, so
//    duplicates replayed across a crash/restore are still absorbed.

#ifndef CPI2_CORE_AGGREGATOR_H_
#define CPI2_CORE_AGGREGATOR_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/dedup_window.h"
#include "core/params.h"
#include "core/spec_builder.h"
#include "core/types.h"
#include "util/interner.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace cpi2 {

class Aggregator {
 public:
  using SpecCallback = std::function<void(const CpiSpec&)>;
  // Receives checkpoint chunks in order; concatenation is the blob.
  using CheckpointSink = std::function<void(std::string_view)>;

  explicit Aggregator(const Cpi2Params& params) : params_(params), builder_(params) {}

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

  SpecBuilder& builder() { return builder_; }
  int64_t builds_completed() const { return builds_completed_; }
  int64_t duplicates_dropped() const { return duplicates_dropped_; }

  // --- checkpoint/restore ---------------------------------------------------
  // Streams the checkpoint (spec history + latest specs + build clock +
  // dedup state) to `sink` chunk by chunk: header and metadata first, then
  // one chunk per builder shard, each reused from a cached serialization
  // when that shard hasn't changed since the last checkpoint. The
  // in-progress accumulation window is intentionally excluded; see the
  // header comment. Emits the framed binary v3 encoding; Restore also
  // accepts the text v1/v2 encodings.
  void WriteCheckpoint(const CheckpointSink& sink) const;
  // Convenience wrapper materializing the streamed checkpoint as one blob.
  std::string Checkpoint() const;
  // The same state as a human-readable text v2 checkpoint (what wiredump
  // prints). Restoring it yields an aggregator bit-identical to restoring
  // Checkpoint().
  std::string CheckpointText() const;
  // Replaces this aggregator's state with a previously checkpointed blob.
  // Fails (leaving the current state untouched) on a malformed blob: every
  // numeric field is parsed strictly, so a corrupted checkpoint surfaces as
  // InvalidArgumentError naming the bad line instead of restoring zeros.
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
  StringInterner dedup_ids_;  // machine and task names share one id space
  InternMemo machine_memo_;   // batches deliver one machine's samples in a row
  InternCache task_memo_;     // tasks rotate within a machine's batch
  MicroTime last_build_ = -1;
  int64_t builds_completed_ = 0;
  int64_t duplicates_dropped_ = 0;
  // Sample identity for dedup is (timestamp, machine id, task id); the
  // interned ids make the per-sample membership probe integer compares
  // instead of string compares, and DedupWindow makes it allocation-free.
  DedupWindow recent_samples_;     // only used when dedup enabled
  MicroTime dedup_watermark_ = 0;  // newest timestamp seen
  // Per-shard checkpoint blob cache, keyed by the builder's shard versions.
  // Mutable: WriteCheckpoint is logically const and single-threaded (it runs
  // in the harness's serial phase).
  mutable std::vector<std::string> shard_blob_cache_;
  mutable std::vector<uint64_t> shard_blob_version_;
};

}  // namespace cpi2

#endif  // CPI2_CORE_AGGREGATOR_H_
