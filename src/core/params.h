// CPI2 configuration parameters (Table 2 of the paper).
//
// Defaults match the paper's deployed values exactly. Experiments that
// shrink timescales (e.g. unit tests that cannot simulate 24 hours) override
// individual fields; the semantics of each knob never change.

#ifndef CPI2_CORE_PARAMS_H_
#define CPI2_CORE_PARAMS_H_

#include <string>

#include "util/clock.h"

namespace cpi2 {

struct Cpi2Params {
  // --- collection (section 3.1) -------------------------------------------
  // "Sampling duration: 10 seconds".
  MicroTime sample_duration = 10 * kMicrosPerSecond;
  // "Sampling frequency: every 1 minute".
  MicroTime sample_period = kMicrosPerMinute;

  // --- aggregation (section 3.1) -------------------------------------------
  // "Predicted CPI recalculated every 24 hours (goal: 1 hour)".
  MicroTime spec_update_interval = 24 * kMicrosPerHour;
  // Historical specs decay: "multiplying the CPI value from the previous
  // day by about 0.9 before averaging it with the most recent day's data".
  double history_weight = 0.9;
  // "We do not perform CPI management for applications with fewer than 5
  // tasks or fewer than 100 CPI samples per task."
  int min_tasks_for_spec = 5;
  int min_samples_per_task = 100;

  // --- anomaly detection (section 4.1) -------------------------------------
  // "Required CPU usage >= 0.25 CPU-sec/sec".
  double min_cpu_usage = 0.25;
  // "Outlier threshold 1: 2 sigma".
  double outlier_sigmas = 2.0;
  // "Outlier threshold 2: 3 violations in 5 minutes".
  int outlier_violations = 3;
  MicroTime violation_window = 5 * kMicrosPerMinute;

  // --- antagonist identification (section 4.2) ------------------------------
  // "we typically use a 10-minute window".
  MicroTime correlation_window = 10 * kMicrosPerMinute;
  // "requiring a correlation value of at least 0.35 works well".
  double correlation_threshold = 0.35;
  // "at most one of these attempts is performed each second".
  MicroTime analysis_interval = kMicrosPerSecond;

  // --- enforcement (section 5) ----------------------------------------------
  // "0.01 CPU-sec/sec for low-importance ('best effort') batch jobs and 0.1
  // CPU-sec/sec for other job types".
  double cap_best_effort = 0.01;
  double cap_other = 0.1;
  // "Performance caps are currently applied for 5 minutes at a time".
  MicroTime cap_duration = 5 * kMicrosPerMinute;
  // Master switch for automatic enforcement (operators can disable it per
  // cluster).
  bool enforcement_enabled = true;
  // Escalation (section 6.2 / future work): "if throttling didn't work, it
  // would ask the cluster scheduler to kill and restart an antagonist task
  // on another machine". After this many incidents whose best suspect is
  // already under a cap, the migration callback fires for that suspect.
  int recaps_before_migration = 3;

  // --- degraded modes (robustness hardening; no paper counterpart) ----------
  // Bounded sample outbox between the agent and the aggregator. Samples wait
  // here until the delivery callback acknowledges them; when the aggregator
  // is unreachable the agent retries with exponential backoff plus jitter.
  // When the outbox is full the oldest sample is dropped (and counted).
  int sample_outbox_capacity = 256;
  MicroTime delivery_retry_backoff = 2 * kMicrosPerSecond;
  MicroTime delivery_retry_backoff_max = kMicrosPerMinute;
  // Jitter as a fraction of the current backoff, drawn uniformly in
  // [0, jitter * backoff). Keeps a fleet of agents from retrying in sync.
  double delivery_retry_jitter = 0.25;
  // Spec staleness TTL: 0 disables staleness tracking entirely (legacy
  // behaviour). When set, a spec older than the TTL widens the outlier
  // threshold by stale_sigma_factor (fewer false alarms on drifting data),
  // and a spec older than stale_suppress_factor * TTL suppresses detection
  // for that job outright: never cap on dead data.
  MicroTime spec_staleness_ttl = 0;
  double stale_sigma_factor = 1.5;
  double stale_suppress_factor = 2.0;
  // Counter sanity filter: windows whose deltas are physically impossible
  // (counter went backwards, absurd CPI or usage) are rejected before they
  // reach detection. The bounds are far outside anything a healthy machine
  // produces, so the filter is inert on clean data.
  bool counter_sanity_filter = true;
  double max_plausible_cpi = 1e4;
  double max_plausible_usage = 1024.0;  // CPU-sec/sec
  // Aggregator duplicate-sample dedup window: 0 disables. When set, a
  // (machine, task, timestamp) triple seen twice within the window is
  // dropped, making retried deliveries after a lost ack idempotent.
  MicroTime sample_dedup_window = 0;

  // --- control-plane fast path (engineering; no paper counterpart) ----------
  // SpecBuilder shards its per-job×platform state by key hash so batched
  // sample ingest and spec builds run per shard, in parallel when a thread
  // pool is attached. Shard outputs merge in the legacy string-sorted key
  // order and the per-key arithmetic is untouched, so specs, push order, and
  // fault-RNG draws are bit-identical for any shard count; 1 reproduces the
  // single-map layout. Values < 1 are clamped to 1.
  int spec_shards = 8;
  // Aggregation topology. The flat path is the paper's design: one
  // Aggregator ingests every machine's samples directly. Clearing this flag
  // selects the two-tier path (DESIGN.md §16): per-cell shard aggregators
  // fold samples into mergeable integer sketches, ship CPI2SKT1 partial
  // frames to a global merger, and the merger builds the same CpiSpecs the
  // flat path produces — bit-identical across any cell count and thread
  // count, equal to the flat path within sketch quantization (~2^-20
  // relative). ParallelDeterminismTest holds both claims. Tiered mode also
  // flips spec distribution from per-machine platform scans to subscription
  // fan-out: machines register interest per job and the merger pushes only
  // to subscribers, with versioned invalidation across restarts.
  bool flat_aggregation_path = true;
  // Cell count for the tiered path (ignored when flat_aggregation_path is
  // set). Values < 1 are clamped to 1.
  int aggregation_cells = 4;

  // --- wire format (engineering; no paper counterpart) ----------------------
  // Flush policy for the binary sample-batch transport. A batch seals when
  // it reaches wire_batch_max_samples, or at the first flush opportunity
  // once it is wire_batch_max_age old (0 = seal at every flush). The default
  // stays 0 because the golden digests and the paper-figure verdicts are
  // pinned to seal-at-every-flush delivery timing; moving to a nonzero age
  // must re-pin them.
  int wire_batch_max_samples = 64;
  MicroTime wire_batch_max_age = 0;

  // Renders the parameter table (used by bench_table2_params and --help
  // style output).
  std::string ToTable() const;
};

}  // namespace cpi2

#endif  // CPI2_CORE_PARAMS_H_
