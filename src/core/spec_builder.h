// CPI spec aggregation (section 3.1, "CPI data aggregation").
//
// Accumulates CpiSamples per job x platform, and on each build interval
// produces CpiSpecs (mean, stddev, usage mean) for every key that meets the
// eligibility rules (>= 5 tasks and >= 100 samples per task). Earlier days'
// statistics persist with age-weighting: each build multiplies the retained
// history's effective sample count by history_weight (~0.9) before merging
// the fresh day, so long-running jobs converge and behaviour drift decays.
//
// Hot-path layout: every sample's (jobname, platforminfo, task) strings
// intern to dense uint32 ids, and all state keys on a packed uint64 of the
// two ids. The state itself is sharded by key hash (params.spec_shards):
// ingest routes each sample to its key's shard on the calling thread, and
// the per-shard work — applying a staged batch, decaying/merging history at
// build time — runs shard-by-shard, in parallel when a ThreadPool is handed
// in. Samples for one key always land in one shard in arrival order and the
// per-key arithmetic is unchanged, so specs are bit-identical for any shard
// count and any thread count. Names reappear solely at the boundaries: spec
// build-out, GetSpec, and checkpoint snapshots, all of which emit in
// (jobname, platforminfo) order exactly as the old string-keyed maps did, so
// downstream ordering (spec push-out, fault-plane draws, checkpoint blobs)
// is unchanged. Ids never leave the process; checkpoints serialize names,
// and a restore may re-intern them to different ids (and thus different
// shards) with no observable difference.

#ifndef CPI2_CORE_SPEC_BUILDER_H_
#define CPI2_CORE_SPEC_BUILDER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/params.h"
#include "core/types.h"
#include "stats/streaming.h"
#include "util/interner.h"
#include "util/thread_pool.h"

namespace cpi2 {

class SpecBuilder {
 public:
  // Weighted moment history: an (effective_count, mean, m2) triple that can
  // be decayed and merged. GlobalMerger keeps its history in the same type,
  // so the flat and tiered paths run one sequence of double operations and
  // agree exactly on num_samples.
  struct MomentHistory {
    double count = 0.0;
    double mean = 0.0;
    double m2 = 0.0;
    double usage_mean = 0.0;

    void Decay(double weight);
    void Merge(double other_count, double other_mean, double other_m2, double other_usage);
    double Variance() const { return count > 1.0 ? m2 / (count - 1.0) : 0.0; }
  };

  explicit SpecBuilder(const Cpi2Params& params);

  // Feeds one sample into the current accumulation window immediately.
  // Serial-phase only (interns names). Flushes any staged batch first so
  // arrival order is preserved when callers mix the two ingest paths.
  void AddSample(const CpiSample& sample);

  // Batched ingest fast path: interns and routes the sample to its shard's
  // pending queue (serial phase, no accumulation work), to be applied by the
  // next FlushStaged/BuildSpecs. Counts toward samples_seen() immediately.
  void StageSample(const CpiSample& sample);

  // Applies every staged sample to its shard's accumulation window —
  // per-shard in parallel on `pool` (nullptr = serial). Shards only touch
  // their own state and each shard applies its queue in arrival order, so
  // the result is bit-identical to the serial path.
  void FlushStaged(ThreadPool* pool);

  // Closes the current window: merges it into the age-weighted history and
  // returns the specs of every eligible job x platform, in (jobname,
  // platforminfo) order. Keys that fail the eligibility rules are retained
  // in history but produce no spec. Per-shard work runs on `pool` when
  // given; the output order (and therefore spec push order) is the legacy
  // string-sorted order regardless.
  std::vector<CpiSpec> BuildSpecs(ThreadPool* pool = nullptr);

  // The spec from the most recent build, if that key was eligible.
  std::optional<CpiSpec> GetSpec(const std::string& jobname,
                                 const std::string& platforminfo) const;
  // The same spec with its version: the number of the BuildSpecs or
  // SeedHistory call that produced it, counting both from 1.
  std::optional<VersionedSpec> LatestSpec(const std::string& jobname,
                                          const std::string& platforminfo) const;

  // Pre-seeds history for a job (e.g. from a previous run's stored spec), so
  // repeated jobs do not start from scratch. The seeded spec becomes the
  // key's latest spec, with a version of its own.
  void SeedHistory(const CpiSpec& spec);

  int64_t samples_seen() const { return samples_seen_; }

  // --- checkpoint/restore (degraded-mode hardening) -------------------------
  // Exact snapshot of one key's age-weighted moment history. Unlike
  // SeedHistory (which round-trips through a CpiSpec and re-merges), these
  // entries restore the weighted moments bit-for-bit, so a restored builder
  // produces the same specs the crashed one would have. Snapshots translate
  // interned ids back to names (boundary translation) and emit entries in
  // (jobname, platforminfo) order.
  struct HistoryEntry : MomentHistory {
    JobPlatformKey key;
  };
  std::vector<HistoryEntry> SnapshotHistory() const;
  std::vector<VersionedSpec> SnapshotLatestSpecs() const;
  // Replaces history, latest specs, and the sample counter with the snapshot
  // contents. The in-progress accumulation window (staged or applied) is
  // cleared and is not in any snapshot: a restore resumes from the last
  // build before the checkpoint, losing every sample accumulated since it.
  // The next build stamps a version above `spec_version` and above every
  // restored spec's.
  void RestoreSnapshot(const std::vector<HistoryEntry>& history,
                       const std::vector<VersionedSpec>& latest_specs, int64_t samples_seen,
                       uint64_t spec_version);

  // --- per-shard checkpoint surface ----------------------------------------
  // The checkpoint writer serializes shard by shard and caches each shard's
  // blob keyed on its version, so steady-state checkpoints between builds
  // re-serialize nothing. Versions start at 1 and bump whenever the shard's
  // durable state (history / latest specs) changes.
  size_t shard_count() const { return shards_.size(); }
  uint64_t shard_version(size_t shard) const { return shards_[shard].version; }
  // Shard-local snapshots, name-sorted within the shard. Concatenating all
  // shards yields the same record multiset as the global snapshots above.
  std::vector<HistoryEntry> SnapshotShardHistory(size_t shard) const;
  std::vector<VersionedSpec> SnapshotShardLatestSpecs(size_t shard) const;

 private:
  // Packed (jobname id, platforminfo id) map key.
  using IdKey = uint64_t;
  static constexpr IdKey MakeKey(uint32_t job, uint32_t platform) {
    return (static_cast<IdKey>(job) << 32) | platform;
  }
  static constexpr uint32_t JobOf(IdKey key) { return static_cast<uint32_t>(key >> 32); }
  static constexpr uint32_t PlatformOf(IdKey key) { return static_cast<uint32_t>(key); }

  struct Accumulation {
    StreamingStats cpi;
    StreamingStats usage;
    std::unordered_map<uint32_t, int64_t> samples_per_task;  // interned task ids
  };

  // One routed, interned sample waiting in a shard's staging queue.
  struct StagedSample {
    IdKey key = 0;
    uint32_t task = 0;
    bool has_task = false;
    double cpi = 0.0;
    double usage = 0.0;
  };

  // One hash-shard of the builder state. Only its owning worker touches it
  // during a parallel flush/build; the staging queue is filled in the serial
  // ingest phase.
  struct Shard {
    std::unordered_map<IdKey, Accumulation> current;
    std::unordered_map<IdKey, MomentHistory> history;
    std::unordered_map<IdKey, VersionedSpec> latest_specs;
    std::vector<StagedSample> staged;
    std::vector<IdKey> built_keys;  // build scratch: this shard's eligible keys
    uint64_t version = 1;           // durable-state version, for blob caching
  };

  size_t ShardOf(IdKey key) const {
    uint64_t h = key * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 32;
    return static_cast<size_t>(h % shards_.size());
  }

  // Interns, routes, and stages one sample; returns its shard index.
  size_t Route(const CpiSample& sample);
  void ApplyStaged(Shard& shard);
  // Decay + merge + spec build-out for one shard, stamping `version`;
  // fills shard.built_keys.
  void BuildShard(Shard& shard, uint64_t version);

  bool Eligible(const Accumulation& accumulation) const;

  // True when `a` orders before `b` by the interned (jobname, platforminfo)
  // strings — the legacy string-keyed map order.
  bool NameOrderLess(IdKey a, IdKey b) const;
  // The map's keys sorted by NameOrderLess (boundary-only cost).
  template <typename Map>
  std::vector<IdKey> SortedKeys(const Map& map) const;
  // All shards' keys of one map member, globally name-sorted.
  template <typename Map>
  std::vector<IdKey> SortedKeysAllShards(Map Shard::* member) const;

  Cpi2Params params_;
  // Jobnames, platforms, and task names share one id space.
  StringInterner names_;
  // Samples arrive in per-machine batch runs: the platform repeats for a
  // whole batch and jobs cluster, so Route() memoizes both lookups.
  // Platform is near-constant per agent (one-entry memo); jobs and tasks
  // rotate through a machine's working set, so they get the direct-mapped
  // cache instead.
  InternCache job_memo_, task_memo_;
  InternMemo platform_memo_;
  std::vector<Shard> shards_;
  size_t staged_total_ = 0;
  int64_t samples_seen_ = 0;
  // The last spec version stamped. Each BuildSpecs and each SeedHistory
  // call stamps the specs it produces with the next one, starting at 1, so
  // a key's version changes whenever its spec does and is never 0.
  uint64_t spec_version_ = 0;
};

}  // namespace cpi2

#endif  // CPI2_CORE_SPEC_BUILDER_H_
