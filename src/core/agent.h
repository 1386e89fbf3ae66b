// Per-machine CPI2 management agent.
//
// One Agent runs on every machine (Figure 6). It owns the whole local loop:
//   counters -> duty-cycled sampler -> CpiSamples -> outlier detection
//   against pushed specs -> antagonist correlation -> enforcement.
// Samples stream to the cluster aggregator as encoded batches through a
// delivery callback; completed analyses are reported as Incidents. The agent
// is backend-agnostic: give it a simulated Machine or real
// perf_event/cgroupfs backends and it runs identically. All anomaly
// detection is local (no central bottleneck).

#ifndef CPI2_CORE_AGENT_H_
#define CPI2_CORE_AGENT_H_

#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cgroup/cpu_controller.h"
#include "core/antagonist_identifier.h"
#include "core/enforcement.h"
#include "core/incident.h"
#include "core/outlier_detector.h"
#include "core/params.h"
#include "core/types.h"
#include "perf/counter_source.h"
#include "perf/sampler.h"
#include "util/interner.h"
#include "util/rng.h"
#include "util/time_series.h"
#include "wire/sample_codec.h"

namespace cpi2 {

// What the agent must know about a local task to manage it.
struct TaskMeta {
  std::string task;  // container id
  std::string jobname;
  WorkloadClass workload_class = WorkloadClass::kBatch;
  JobPriority priority = JobPriority::kNonProduction;
  // Batch victims are normally not protected; a job can opt in explicitly
  // (section 5: "because it is explicitly marked as eligible").
  bool protection_opt_in = false;
  // Agent-internal: the dense id keying this task's series bookkeeping,
  // filled by Agent::AddTask. Callers registering tasks leave the default.
  uint32_t series_id = 0;
  // Agent-internal: the detector key for THIS incarnation of the task.
  // Unlike series_id (interned per name, so a recycled name maps to the same
  // id forever), detector keys are never reused across incarnations: a stale
  // ForgetTask for a dead incarnation can never clobber the outlier history
  // of a new task running under a recycled name.
  uint32_t detector_key = 0;
};

// One sealed batch of samples on the agent→aggregator wire. The agent keeps
// the encoded bytes, not the structs: a retry re-sends the very same bytes,
// and `consumed` tells the receiver how many leading samples were already
// settled (delivered or lost) by earlier attempts, so no sample is settled
// twice and fault decisions are drawn once per sample.
struct EncodedSampleBatch {
  std::string bytes;       // wire/sample_codec encoding, magic through CRC
  size_t sample_count = 0; // samples encoded in `bytes`
  size_t consumed = 0;     // leading samples already settled (skip on retry)
};

// What the receiver did with one delivery attempt of a batch. `delivered` +
// `lost` samples (counted from `consumed`) are settled; `retry` means the
// receiver stopped there — the next sample was *not* processed and the batch
// must be re-sent after backoff. `decode_failed` means the bytes did not
// decode (corruption); the batch is unsalvageable.
struct BatchDeliveryOutcome {
  int delivered = 0;
  int lost = 0;
  bool retry = false;
  bool decode_failed = false;
  // Windowed transports only: the batch was sent (or already is on the
  // wire) and its ack is pending — nothing settles, no backoff arms, and
  // the flush pass moves on to the next queued batch.
  bool in_flight = false;
};

// Degraded-mode counters for one agent. Every transition into (or event
// within) a degraded mode is counted here, so operators can tell a healthy
// fleet from one that is silently riding out faults.
struct AgentHealth {
  int64_t restarts = 0;                 // crash/restart cycles survived
  int64_t samples_enqueued = 0;         // samples that entered the outbox
  int64_t samples_delivered = 0;        // acked by the pipeline
  int64_t samples_lost = 0;             // dropped in flight, never retried
  int64_t delivery_retries = 0;         // kUnavailable results (backoff arms)
  int64_t outbox_overflow_drops = 0;    // oldest sample evicted, outbox full
  int64_t counter_rejects = 0;          // sanity filter discarded a window
  int64_t stale_spec_widenings = 0;     // detection ran with widened threshold
  int64_t stale_spec_suppressions = 0;  // detection suppressed: spec too old
  int64_t series_points_dropped = 0;    // out-of-order points a task series refused
  int64_t wire_decode_errors = 0;       // sample batches the receiver failed to decode
};

class Agent {
 public:
  struct Options {
    Cpi2Params params;
    std::string machine_name;
    // The machine's CPU type; stamped into every sample and used to select
    // the right spec (CPI is computed per job x platform).
    std::string platforminfo;
    // Seed for the retry-jitter stream. Only drawn from when a delivery
    // fails, so it has no effect on fault-free runs.
    uint64_t jitter_seed = 0xa9e27;
  };

  using SampleCallback = std::function<void(const CpiSample&)>;
  using IncidentCallback = std::function<void(const Incident&)>;
  // Attempts to deliver one encoded batch (starting at `consumed`). Invoked
  // only from FlushOutbox (single-threaded).
  using BatchDeliveryCallback = std::function<BatchDeliveryOutcome(const EncodedSampleBatch&)>;
  // Windowed variant for pipelined transports: `queue_index` is the batch's
  // position in the outbox (0 = oldest). A transport with N outstanding
  // batches answers {in_flight = true} for sent-but-unsettled batches, so
  // one flush pass walks the queue and keeps up to N batches on the wire.
  using WindowedBatchDeliveryCallback =
      std::function<BatchDeliveryOutcome(const EncodedSampleBatch&, size_t queue_index)>;

  Agent(Options options, CounterSource* source, CpuController* controller);

  // --- task lifecycle -------------------------------------------------------
  void AddTask(const TaskMeta& meta, MicroTime now);
  void RemoveTask(const std::string& task);
  bool HasTask(const std::string& task) const { return tasks_.count(task) > 0; }
  size_t task_count() const { return tasks_.size(); }
  // Every task this agent manages, keyed by container id (name order).
  // This is the membership source of truth, so callers syncing against a
  // machine can iterate it directly instead of shadow-tracking membership.
  const std::map<std::string, TaskMeta>& Tasks() const { return tasks_; }

  // Bumped by every AddTask/RemoveTask/Restart. The suspect table rebuilds
  // lazily when its built-against version falls behind this (the same idea
  // as Machine::membership_version gating the harness registry sync).
  uint64_t membership_version() const { return membership_version_; }

  // --- spec distribution (pushed from the aggregator) -----------------------
  // `now` stamps the spec's arrival time for staleness tracking; the
  // one-argument form uses the last Tick time (fine for tests and for specs
  // pushed between ticks).
  void UpdateSpec(const CpiSpec& spec, MicroTime now);
  void UpdateSpec(const CpiSpec& spec) { UpdateSpec(spec, last_tick_); }
  std::optional<CpiSpec> GetSpec(const std::string& jobname) const;
  // Arrival time of the spec for `jobname`, or nullopt if none is cached.
  std::optional<MicroTime> SpecReceivedAt(const std::string& jobname) const;

  // --- main loop -------------------------------------------------------------
  // Drives sampling, detection and cap expiry. Call once per second.
  void Tick(MicroTime now);

  // Simulates the agent process crashing and coming back: every piece of
  // in-memory state — spec cache, detector history, CPI/usage series, task
  // registry, sampler schedule, outbox, cap bookkeeping — is gone. Caps
  // already applied to the CPU controller survive in the kernel; callers
  // model startup reconciliation by clearing them (see
  // ClusterHarness::ReconcileCapsAfterRestart).
  void Restart(MicroTime now);

  void SetSampleCallback(SampleCallback callback) { sample_callback_ = std::move(callback); }
  void SetIncidentCallback(IncidentCallback callback) {
    incident_callback_ = std::move(callback);
  }
  // Installing a delivery callback switches the agent from fire-and-forget
  // sample reporting to the outbox: samples are dictionary-encoded into
  // EncodedSampleBatches as they are emitted, sealed by the flush policy
  // (params.wire_batch_max_samples / wire_batch_max_age), bounded by
  // params.sample_outbox_capacity, and delivered batch-at-a-time by
  // FlushOutbox with retry + exponential backoff + jitter. The plain
  // SampleCallback (if also set) still observes every emitted sample; it is
  // a tap, not the transport.
  //
  // The flush pass walks the whole outbox, skipping over batches the
  // transport reports as in flight — up to a pipelined transport's window of
  // batches ride the wire concurrently instead of one per ack round-trip.
  void SetWindowedBatchDeliveryCallback(WindowedBatchDeliveryCallback callback) {
    windowed_batch_delivery_callback_ = std::move(callback);
  }
  // Stop-and-wait form of the same transport: the callback never reports a
  // batch in flight, so each flush pass only ever settles the front batch.
  void SetBatchDeliveryCallback(BatchDeliveryCallback callback) {
    windowed_batch_delivery_callback_ =
        [callback = std::move(callback)](const EncodedSampleBatch& batch, size_t) {
          return callback(batch);
        };
  }

  // Hands one externally produced sample straight to the delivery outbox,
  // bypassing the counter-sampling path. This is the daemon ingestion hook:
  // cpi2-agentd feeds samples here and the full outbox machinery — bounded
  // queue, overflow eviction, batch sealing, retry/backoff — applies
  // unchanged. Batch sealing happens on capacity here and on age/force in
  // FlushOutbox, so offered samples are on the wire after the next flush.
  // Requires a delivery callback; without one the sample is dropped (there
  // is no transport to queue for).
  void OfferSample(const CpiSample& sample);

  // Attempts to deliver queued batches in FIFO order. Stops at the first
  // retry result and backs off exponentially (with jitter) before the next
  // attempt. Call from a single thread (the harness's merge phase).
  void FlushOutbox(MicroTime now);
  // Samples currently queued for delivery: unsettled samples across sealed
  // batches plus the open one. O(1).
  size_t outbox_size() const { return queued_samples_; }

  EnforcementPolicy& enforcement() { return enforcement_; }
  const AgentHealth& health() const { return health_; }

  // --- diagnostics -----------------------------------------------------------
  int64_t samples_processed() const { return samples_processed_; }
  int64_t outliers_flagged() const { return outliers_flagged_; }
  int64_t anomalies_detected() const { return anomalies_detected_; }
  int64_t incidents_reported() const { return incidents_reported_; }

  // Recent CPU-usage series of a task (for tests and forensics).
  const TimeSeries* UsageSeries(const std::string& task) const;
  const TimeSeries* CpiSeries(const std::string& task) const;

 private:
  struct TaskSeries {
    TimeSeries cpi;
    TimeSeries usage;
  };

  // A cached spec plus when it arrived, for staleness policy.
  struct SpecEntry {
    CpiSpec spec;
    MicroTime received_at = 0;
  };

  // Sampler callback: one completed counting window for `container`.
  void OnWindow(const std::string& container, const CounterDelta& delta);

  // True when the window's deltas are physically impossible (counter reset,
  // garbage values): such windows must never reach detection.
  bool RejectedBySanityFilter(const CounterDelta& delta) const;

  // Runs the anomaly -> identification -> enforcement chain for a victim.
  void HandleAnomaly(const TaskMeta& victim, const CpiSample& sample, double threshold,
                     const CpiSpec& spec);

  // Brings the persistent suspect table back in sync with tasks_ after a
  // membership change. One pointer-gathering walk; no string copies.
  void RebuildSuspectTableIfStale();

  Options options_;
  CpiSampler sampler_;
  OutlierDetector detector_;
  AntagonistIdentifier identifier_;
  EnforcementPolicy enforcement_;

  std::map<std::string, TaskMeta> tasks_;
  // Task names intern to dense ids once (at AddTask); the per-task series
  // live in an integer-keyed map, so the per-window and per-analysis lookups
  // never walk string comparisons. Ids are process-lifetime stable: the
  // interner deliberately survives Restart() so a task re-registered after a
  // crash reuses its id.
  StringInterner task_ids_;
  std::unordered_map<uint32_t, TaskSeries> series_;
  // Specs for this machine's platform, keyed by jobname.
  std::map<std::string, SpecEntry> specs_;

  // Persistent suspect table (DESIGN.md §17): one name-sorted row per task,
  // pointing into tasks_ keys/metadata (std::map nodes are stable) and
  // series_ values (unordered_map values are stable). Rebuilt lazily — only
  // when an anomaly fires after membership changed — and reused across every
  // victim of an anomaly storm. ranked_scratch_ is the reusable batched
  // analysis output.
  std::vector<AntagonistIdentifier::SuspectRow> suspect_rows_;
  uint64_t membership_version_ = 0;
  uint64_t suspect_rows_version_ = ~0ull;  // stale until the first rebuild
  std::vector<AntagonistIdentifier::RankedRef> ranked_scratch_;
  // Next per-incarnation detector key (see TaskMeta::detector_key). Never
  // reused and deliberately NOT reset by Restart, mirroring task_ids_.
  uint32_t next_detector_key_ = 0;

  // Encodes `sample` into the open batch, evicting the oldest queued sample
  // when the outbox is at capacity.
  void EnqueueSample(const CpiSample& sample);
  // Seals the open batch into batch_outbox_ if the flush policy says so
  // (always when wire_batch_max_age == 0, else once the batch is old
  // enough). `force` seals regardless of age (capacity-triggered seals).
  void MaybeSealPendingBatch(MicroTime now, bool force);
  // Arms the retry backoff after a failed delivery attempt (draws jitter
  // exactly once).
  void ArmRetryBackoff(MicroTime now);

  SampleCallback sample_callback_;
  IncidentCallback incident_callback_;
  WindowedBatchDeliveryCallback windowed_batch_delivery_callback_;

  MicroTime outbox_retry_at_ = 0;  // no attempts before this time
  int outbox_attempts_ = 0;        // consecutive failed attempts (backoff)
  Rng jitter_rng_;

  // Outbox state: sealed batches awaiting delivery plus the open batch being
  // encoded. pending_consumed_ counts open-batch samples already
  // evicted by capacity pressure (the seal carries it into the batch).
  std::deque<EncodedSampleBatch> batch_outbox_;
  SampleBatchEncoder batch_encoder_;
  size_t pending_count_ = 0;
  size_t pending_consumed_ = 0;
  MicroTime pending_opened_at_ = 0;
  // Running count of unsettled queued samples across batch_outbox_ and the
  // open batch — outbox_size() in O(1). The summation it replaces was two
  // deque walks per offered sample (capacity check + caller feed loops).
  size_t queued_samples_ = 0;

  MicroTime last_tick_ = 0;
  AgentHealth health_;

  int64_t samples_processed_ = 0;
  int64_t outliers_flagged_ = 0;
  int64_t anomalies_detected_ = 0;
  int64_t incidents_reported_ = 0;
};

}  // namespace cpi2

#endif  // CPI2_CORE_AGENT_H_
