#include "core/agent.h"

#include <algorithm>

#include "util/logging.h"

namespace cpi2 {

Agent::Agent(Options options, CounterSource* source, CpuController* controller)
    : options_(std::move(options)),
      sampler_(source,
               CpiSampler::Options{options_.params.sample_duration,
                                   options_.params.sample_period,
                                   /*stagger_windows=*/true},
               [this](const std::string& container, const CounterDelta& delta) {
                 OnWindow(container, delta);
               }),
      detector_(options_.params),
      identifier_(options_.params),
      enforcement_(options_.params, controller),
      jitter_rng_(options_.jitter_seed) {}

void Agent::AddTask(const TaskMeta& meta, MicroTime now) {
  const uint32_t id = task_ids_.Intern(meta.task);
  TaskMeta& stored = tasks_[meta.task] = meta;
  stored.series_id = id;  // resolve the name once; the sample path reuses it
  stored.detector_key = next_detector_key_++;  // fresh key per incarnation
  series_.emplace(id, TaskSeries{});
  sampler_.AddContainer(meta.task, now);
  ++membership_version_;  // suspect table is stale until the next rebuild
}

void Agent::RemoveTask(const std::string& task) {
  if (const auto it = tasks_.find(task); it != tasks_.end()) {
    detector_.ForgetTask(it->second.detector_key);
    tasks_.erase(it);
  }
  if (const auto id = task_ids_.Find(task); id.has_value()) {
    series_.erase(*id);
  }
  sampler_.RemoveContainer(task);
  enforcement_.ForgetTask(task);
  ++membership_version_;  // suspect table is stale until the next rebuild
}

void Agent::UpdateSpec(const CpiSpec& spec, MicroTime now) {
  if (spec.platforminfo != options_.platforminfo) {
    return;  // Spec for a different CPU type; not applicable here.
  }
  specs_[spec.jobname] = SpecEntry{spec, now};
}

std::optional<CpiSpec> Agent::GetSpec(const std::string& jobname) const {
  const auto it = specs_.find(jobname);
  if (it == specs_.end()) {
    return std::nullopt;
  }
  return it->second.spec;
}

std::optional<MicroTime> Agent::SpecReceivedAt(const std::string& jobname) const {
  const auto it = specs_.find(jobname);
  if (it == specs_.end()) {
    return std::nullopt;
  }
  return it->second.received_at;
}

void Agent::Tick(MicroTime now) {
  last_tick_ = now;
  sampler_.Tick(now);
  enforcement_.Tick(now);
}

void Agent::Restart(MicroTime now) {
  tasks_.clear();
  series_.clear();  // task_ids_ survives: ids are process-lifetime stable
  specs_.clear();
  suspect_rows_.clear();
  suspect_rows_version_ = ~0ull;  // rows pointed into the cleared registry
  ++membership_version_;
  // next_detector_key_ survives, like task_ids_: keys stay unique across the
  // crash so a pre-crash ForgetTask can never hit a post-crash incarnation.
  sampler_.Clear();
  detector_.Clear();
  enforcement_.Reset();
  batch_outbox_.clear();
  batch_encoder_.Reset();
  pending_count_ = 0;
  pending_consumed_ = 0;
  queued_samples_ = 0;
  pending_opened_at_ = 0;
  outbox_retry_at_ = 0;
  outbox_attempts_ = 0;
  last_tick_ = now;
  // Diagnostic counters lived in the dead process's memory; only health_
  // (conceptually scraped by monitoring) carries across the restart.
  samples_processed_ = 0;
  outliers_flagged_ = 0;
  anomalies_detected_ = 0;
  incidents_reported_ = 0;
  ++health_.restarts;
}

void Agent::ArmRetryBackoff(MicroTime now) {
  // Exponential backoff, capped, with uniform jitter so a fleet of agents
  // does not hammer a recovering aggregator in lockstep.
  MicroTime backoff = options_.params.delivery_retry_backoff;
  for (int i = 0; i < outbox_attempts_ && backoff < options_.params.delivery_retry_backoff_max;
       ++i) {
    backoff *= 2;
  }
  if (backoff > options_.params.delivery_retry_backoff_max) {
    backoff = options_.params.delivery_retry_backoff_max;
  }
  if (options_.params.delivery_retry_jitter > 0.0) {
    backoff += static_cast<MicroTime>(
        jitter_rng_.Uniform(0.0, options_.params.delivery_retry_jitter *
                                     static_cast<double>(backoff)));
  }
  outbox_retry_at_ = now + backoff;
  ++outbox_attempts_;
}

void Agent::MaybeSealPendingBatch(MicroTime now, bool force) {
  if (pending_count_ == 0) {
    return;
  }
  if (!force && options_.params.wire_batch_max_age > 0 &&
      now - pending_opened_at_ < options_.params.wire_batch_max_age) {
    return;  // Let the open batch accumulate a little longer.
  }
  if (pending_consumed_ < pending_count_) {
    EncodedSampleBatch batch;
    batch.bytes = batch_encoder_.Finish();
    batch.sample_count = pending_count_;
    batch.consumed = pending_consumed_;
    batch_outbox_.push_back(std::move(batch));
  }
  // else: capacity pressure evicted every sample; nothing worth sending.
  batch_encoder_.Reset();
  pending_count_ = 0;
  pending_consumed_ = 0;
}

void Agent::FlushOutbox(MicroTime now) {
  if (!windowed_batch_delivery_callback_) {
    return;  // no transport installed
  }
  // Sealing is independent of backoff: an aged-out open batch must join the
  // queue even while the transport is waiting out a retry.
  MaybeSealPendingBatch(now, /*force=*/options_.params.wire_batch_max_age == 0);
  if (now < outbox_retry_at_) {
    return;
  }
  // Walk the queue by index instead of hammering the front: a windowed
  // transport answers {in_flight} for batches riding the wire, and the pass
  // advances past them to launch the next ones — up to the transport's
  // window of batches are outstanding after one pass. A stop-and-wait
  // callback never sets in_flight, so the index stays at 0 and this is the
  // classic front-only loop.
  size_t idx = 0;
  while (idx < batch_outbox_.size()) {
    EncodedSampleBatch& batch = batch_outbox_[idx];
    const BatchDeliveryOutcome outcome = windowed_batch_delivery_callback_(batch, idx);
    if (outcome.in_flight) {
      ++idx;  // sent, unsettled: nothing to account, keep the batch queued
      continue;
    }
    health_.samples_delivered += outcome.delivered;
    health_.samples_lost += outcome.lost;
    const size_t settled = static_cast<size_t>(outcome.delivered) +
                           static_cast<size_t>(outcome.lost);
    batch.consumed += settled;
    queued_samples_ -= settled;
    if (outcome.decode_failed) {
      // The bytes are damaged; retrying cannot help. Every unsettled sample
      // in the batch is gone.
      ++health_.wire_decode_errors;
      health_.samples_lost +=
          static_cast<int64_t>(batch.sample_count - batch.consumed);
      queued_samples_ -= batch.sample_count - batch.consumed;
      batch_outbox_.erase(batch_outbox_.begin() + static_cast<long>(idx));
      outbox_attempts_ = 0;
      outbox_retry_at_ = 0;
      continue;
    }
    if (outcome.retry) {
      ++health_.delivery_retries;
      if (outcome.delivered + outcome.lost > 0) {
        // Forward progress resets the backoff ladder.
        outbox_attempts_ = 0;
      }
      ArmRetryBackoff(now);
      return;
    }
    batch_outbox_.erase(batch_outbox_.begin() + static_cast<long>(idx));
    outbox_attempts_ = 0;
    outbox_retry_at_ = 0;
  }
}

void Agent::EnqueueSample(const CpiSample& sample) {
  // The bound counts *samples*, not batches. Evict the oldest unsettled
  // sample by advancing the front batch's consumed cursor (or the open
  // batch's, when nothing is sealed) — the receiver will simply never see
  // it: bounded queue, evict oldest, keep freshest.
  if (static_cast<int>(queued_samples_) >= options_.params.sample_outbox_capacity) {
    while (!batch_outbox_.empty() &&
           batch_outbox_.front().consumed >= batch_outbox_.front().sample_count) {
      batch_outbox_.pop_front();  // fully-evicted husk; shed it
    }
    if (!batch_outbox_.empty()) {
      ++batch_outbox_.front().consumed;
    } else {
      ++pending_consumed_;
    }
    --queued_samples_;
    ++health_.outbox_overflow_drops;
  }
  if (pending_count_ == 0) {
    pending_opened_at_ = sample.timestamp;
  }
  batch_encoder_.Add(sample);
  ++pending_count_;
  ++queued_samples_;
  ++health_.samples_enqueued;
  const int max_samples = options_.params.wire_batch_max_samples;
  if (max_samples > 0 && pending_count_ >= static_cast<size_t>(max_samples)) {
    MaybeSealPendingBatch(sample.timestamp, /*force=*/true);
  }
}

void Agent::OfferSample(const CpiSample& sample) {
  if (!windowed_batch_delivery_callback_) {
    return;  // no transport installed; nothing to queue for
  }
  if (sample_callback_) {
    sample_callback_(sample);  // the tap still observes offered samples
  }
  EnqueueSample(sample);
}

const TimeSeries* Agent::UsageSeries(const std::string& task) const {
  const auto id = task_ids_.Find(task);
  if (!id.has_value()) {
    return nullptr;
  }
  const auto it = series_.find(*id);
  return it != series_.end() ? &it->second.usage : nullptr;
}

const TimeSeries* Agent::CpiSeries(const std::string& task) const {
  const auto id = task_ids_.Find(task);
  if (!id.has_value()) {
    return nullptr;
  }
  const auto it = series_.find(*id);
  return it != series_.end() ? &it->second.cpi : nullptr;
}

bool Agent::RejectedBySanityFilter(const CounterDelta& delta) const {
  if (!options_.params.counter_sanity_filter) {
    return false;
  }
  // Counter went backwards: a reset/zeroed counter makes the CPU-seconds
  // delta negative (the unsigned cycle counters wrap to huge values, but the
  // signed CPU time is the reliable tell).
  if (delta.cpu_seconds < 0.0) {
    return true;
  }
  // More CPU than any machine has, or a CPI no real core can produce:
  // garbage, not measurement.
  if (delta.UsageRate() > options_.params.max_plausible_usage) {
    return true;
  }
  if (delta.Cpi() > options_.params.max_plausible_cpi) {
    return true;
  }
  // Cycles burned with zero instructions retired over a full window cannot
  // happen outside a glitch (our platforms always retire alongside cycles).
  if (delta.instructions == 0 && delta.cycles > 0) {
    return true;
  }
  return false;
}

void Agent::OnWindow(const std::string& container, const CounterDelta& delta) {
  const auto meta_it = tasks_.find(container);
  if (meta_it == tasks_.end()) {
    return;  // Task vanished between scheduling the window and finishing it.
  }
  if (RejectedBySanityFilter(delta)) {
    ++health_.counter_rejects;
    return;
  }
  const TaskMeta& meta = meta_it->second;
  const MicroTime now = delta.window_end;

  CpiSample sample;
  sample.jobname = meta.jobname;
  sample.platforminfo = options_.platforminfo;
  sample.timestamp = now;
  sample.cpu_usage = delta.UsageRate();
  sample.cpi = delta.Cpi();
  sample.task = meta.task;
  sample.machine = options_.machine_name;
  sample.l3_miss_per_instruction = delta.L3MissesPerInstruction();
  ++samples_processed_;

  TaskSeries& series = series_[meta.series_id];
  if (!series.usage.Append(now, sample.cpu_usage)) {
    ++health_.series_points_dropped;
  }
  if (sample.cpi > 0.0 && !series.cpi.Append(now, sample.cpi)) {
    ++health_.series_points_dropped;
  }
  // Bound memory: keep a bit more than the correlation window.
  const MicroTime cutoff = now - 2 * options_.params.correlation_window;
  series.usage.TrimBefore(cutoff);
  series.cpi.TrimBefore(cutoff);

  if (sample_callback_) {
    sample_callback_(sample);
  }
  if (windowed_batch_delivery_callback_) {
    EnqueueSample(sample);
  }

  if (sample.cpi <= 0.0) {
    return;  // No instructions retired in the window; nothing to score.
  }
  const auto spec_it = specs_.find(meta.jobname);
  if (spec_it == specs_.end()) {
    return;  // No robust prediction for this job yet.
  }
  // Staleness policy: a spec that has outlived its TTL is a weakening
  // prediction — widen the outlier threshold; one past the suppression
  // horizon is dead data — never cap anyone on it.
  double sigma_scale = 1.0;
  if (options_.params.spec_staleness_ttl > 0) {
    const MicroTime age = now - spec_it->second.received_at;
    const double suppress_age = options_.params.stale_suppress_factor *
                                static_cast<double>(options_.params.spec_staleness_ttl);
    if (static_cast<double>(age) > suppress_age) {
      ++health_.stale_spec_suppressions;
      return;
    }
    if (age > options_.params.spec_staleness_ttl) {
      sigma_scale = options_.params.stale_sigma_factor;
      ++health_.stale_spec_widenings;
    }
  }
  const OutlierDetector::Result result =
      detector_.Observe(meta.detector_key, sample, spec_it->second.spec, sigma_scale);
  if (result.outlier) {
    ++outliers_flagged_;
  }
  if (result.anomaly) {
    ++anomalies_detected_;
    if (identifier_.Allowed(now)) {
      HandleAnomaly(meta, sample, result.threshold, spec_it->second.spec);
    }
  }
}

void Agent::RebuildSuspectTableIfStale() {
  if (suspect_rows_version_ == membership_version_) {
    return;  // Table still matches the registry; reuse it as-is.
  }
  suspect_rows_.clear();
  suspect_rows_.reserve(tasks_.size());
  for (const auto& [task, meta] : tasks_) {
    const auto series_it = series_.find(meta.series_id);
    AntagonistIdentifier::SuspectRow row;
    row.task = &task;  // map nodes are stable; pointers outlive the rebuild
    row.jobname = &meta.jobname;
    row.workload_class = meta.workload_class;
    row.priority = meta.priority;
    // A task with no series slot scores as "no data" (null usage) and is
    // skipped by the analysis.
    row.usage = series_it != series_.end() ? &series_it->second.usage : nullptr;
    suspect_rows_.push_back(row);
  }
  // tasks_ iterates in ascending name order, so the rows arrive name-sorted —
  // the invariant AnalyzeBatched's integer tie-break leans on.
  suspect_rows_version_ = membership_version_;
}

void Agent::HandleAnomaly(const TaskMeta& victim, const CpiSample& sample, double threshold,
                          const CpiSpec& spec) {
  const auto victim_series = series_.find(victim.series_id);
  if (victim_series == series_.end()) {
    return;
  }

  // Sync the persistent suspect table if membership moved, then score every
  // co-resident in one batched sweep. During an anomaly storm every victim
  // after the first reuses the table and the kernel scratch untouched — the
  // whole storm runs without a single allocation until incidents
  // materialize.
  RebuildSuspectTableIfStale();
  const auto victim_row = std::lower_bound(
      suspect_rows_.begin(), suspect_rows_.end(), victim.task,
      [](const AntagonistIdentifier::SuspectRow& row, const std::string& name) {
        return *row.task < name;
      });
  const size_t skip_row =
      victim_row != suspect_rows_.end() && *victim_row->task == victim.task
          ? static_cast<size_t>(victim_row - suspect_rows_.begin())
          : AntagonistIdentifier::kNoSkip;
  identifier_.AnalyzeBatched(victim_series->second.cpi, threshold, suspect_rows_, skip_row,
                             sample.timestamp, &ranked_scratch_);
  // Materialize Suspect records only now that an incident is actually being
  // built; the analysis itself never copied a string.
  std::vector<Suspect> ranked;
  ranked.reserve(ranked_scratch_.size());
  for (const AntagonistIdentifier::RankedRef& ref : ranked_scratch_) {
    const AntagonistIdentifier::SuspectRow& row = suspect_rows_[ref.row];
    ranked.push_back(
        {*row.task, *row.jobname, row.workload_class, row.priority, ref.correlation});
  }

  Incident incident;
  incident.timestamp = sample.timestamp;
  incident.machine = options_.machine_name;
  incident.victim_task = victim.task;
  incident.victim_job = victim.jobname;
  incident.platforminfo = options_.platforminfo;
  incident.victim_class = victim.workload_class;
  incident.victim_cpi = sample.cpi;
  incident.cpi_threshold = threshold;
  incident.spec_mean = spec.cpi_mean;
  incident.spec_stddev = spec.cpi_stddev;
  incident.suspects = ranked;

  const EnforcementPolicy::Decision decision = enforcement_.OnIncident(
      victim.workload_class, victim.protection_opt_in, ranked, sample.timestamp);
  incident.action = decision.action;
  incident.action_target = decision.target;
  incident.cap_level = decision.cap_level;
  incident.note = decision.reason;

  ++incidents_reported_;
  if (incident_callback_) {
    incident_callback_(incident);
  }
}

}  // namespace cpi2
