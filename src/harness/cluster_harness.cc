#include "harness/cluster_harness.h"

#include <algorithm>

#include "util/logging.h"

namespace cpi2 {

TaskMeta MetaFromSpec(const std::string& task_name, const TaskSpec& spec) {
  TaskMeta meta;
  meta.task = task_name;
  meta.jobname = spec.job_name;
  meta.workload_class = spec.sched_class;
  meta.priority = spec.priority;
  meta.protection_opt_in = spec.protection_opt_in;
  return meta;
}

ClusterHarness::ClusterHarness(Options options)
    : options_(options),
      cluster_(options_.cluster),
      aggregator_(options.params) {
  if (!options_.params.flat_aggregation_path) {
    hier_aggregator_ = std::make_unique<HierarchicalAggregator>(options_.params);
  }
}

void ClusterHarness::WireAgents() {
  if (wired_) {
    return;
  }
  wired_ = true;
  const std::vector<Machine*>& machines = cluster_.machines();

  FaultPlane::Options fault_options = options_.faults;
  fault_options.seed = options_.cluster.seed;
  fault_plane_ = std::make_unique<FaultPlane>(fault_options, static_cast<int>(machines.size()));
  const bool flaky_counters = fault_options.counter_zero_rate > 0 ||
                              fault_options.counter_garbage_rate > 0 ||
                              fault_options.counter_stuck_rate > 0;

  channels_.resize(machines.size());
  flaky_sources_.resize(machines.size());
  for (size_t i = 0; i < machines.size(); ++i) {
    Machine* machine = machines[i];
    CounterSource* source = machine;
    if (flaky_counters) {
      FlakyCounterSource::Options flaky;
      flaky.seed = fault_plane_->CounterSeedFor(static_cast<int>(i));
      flaky.zero_rate = fault_options.counter_zero_rate;
      flaky.garbage_rate = fault_options.counter_garbage_rate;
      flaky.stuck_rate = fault_options.counter_stuck_rate;
      flaky_sources_[i] = std::make_unique<FlakyCounterSource>(machine, flaky);
      source = flaky_sources_[i].get();
    }
    Agent::Options agent_options;
    agent_options.params = options_.params;
    agent_options.machine_name = machine->name();
    agent_options.platforminfo = machine->platform().name;
    // Decorrelate the fleet's retry jitter per machine (only drawn from on
    // delivery failure, so fault-free runs never touch it).
    agent_options.jitter_seed =
        options_.cluster.seed ^ 0xa9e27 ^ (static_cast<uint64_t>(i) * 0x9e3779b97f4a7c15ULL);
    auto agent = std::make_unique<Agent>(agent_options, source, machine);
    // Callbacks fire while agents tick in parallel, so samples queue in the
    // agent's own outbox and incidents append to this machine's channel; the
    // shared sinks (fault draws, aggregator_, incident_log_) are fed from
    // the deterministic machine-order drain in OnTick.
    AgentChannel& channel = channels_[i];
    channel.machine = machine;
    agent->SetBatchDeliveryCallback(
        [this, i](const EncodedSampleBatch& batch) { return DeliverBatch(i, batch); });
    agent->SetIncidentCallback(
        [&channel](const Incident& incident) { channel.incidents.push_back(incident); });
    channel.agent = agent.get();
    agents_[machine->name()] = std::move(agent);
  }
  // Spec push-back: every rebuilt spec goes through the fault plane, then
  // fans out to its job's subscribers. Agents still verify the platform
  // match themselves.
  if (hier_aggregator_ != nullptr) {
    hier_aggregator_->SetSpecCallback(
        [this](const CpiSpec& spec, uint64_t version) { OnSpecPush(spec, version); });
    hier_aggregator_->SetThreadPool(cluster_.pool());
  } else {
    aggregator_.SetSpecCallback([this](const CpiSpec& spec) {
      OnSpecPush(spec, aggregator_.LatestSpec(spec.jobname, spec.platforminfo)->version);
    });
  }
  // Batched sample flushes and per-shard spec builds ride the cluster's
  // pool (nullptr when threads == 1 — everything stays on this thread).
  // Both run in OnTick's serial merge phase, never inside a pool task.
  aggregator_.SetThreadPool(cluster_.pool());
  // A crash before the first checkpoint recovers to this pristine state.
  empty_checkpoint_blob_ = AggregatorCheckpoint();
  cluster_.AddTickListener([this](MicroTime now) { OnTick(now); });
  cluster_.AddTickListener([this](MicroTime now) { traces_.OnTick(now); });
}

Agent* ClusterHarness::agent(const std::string& machine_name) {
  const auto it = agents_.find(machine_name);
  return it != agents_.end() ? it->second.get() : nullptr;
}

Agent* ClusterHarness::AgentForTask(const std::string& task_name) {
  for (Machine* machine : cluster_.machines()) {
    if (machine->FindTask(task_name) != nullptr) {
      return agent(machine->name());
    }
  }
  return nullptr;
}

void ClusterHarness::TickChannel(AgentChannel& channel, MicroTime now) {
  Machine* machine = channel.machine;
  Agent* machine_agent = channel.agent;
  // Sync: register newly arrived tasks, drop departed ones. Both sides
  // iterate in name order, so sampler stagger assignment is deterministic.
  // The machine's membership version gates the scan: at steady state (no
  // arrivals/exits since the last sync) the reconciliation — once a string
  // lookup per task per tick — is skipped entirely. Agent restarts reset
  // channel.synced_membership, forcing a full re-registration.
  const uint64_t version = machine->membership_version();
  if (channel.synced_membership != version) {
    for (Task* task : machine->Tasks()) {
      if (!machine_agent->HasTask(task->name())) {
        machine_agent->AddTask(MetaFromSpec(task->name(), task->spec()), now);
      }
    }
    channel.departed.clear();
    for (const auto& [name, meta] : machine_agent->Tasks()) {
      if (machine->FindTask(name) == nullptr) {
        channel.departed.push_back(name);
      }
    }
    for (const std::string& name : channel.departed) {
      machine_agent->RemoveTask(name);
    }
    channel.synced_membership = version;

    // The machine's job set is its subscription set. Recompute here
    // (parallel phase, own channel only); the serial merge phase folds it
    // into the global index when subs_dirty is set.
    std::vector<std::string> jobs;
    jobs.reserve(machine_agent->Tasks().size());
    for (const auto& [name, meta] : machine_agent->Tasks()) {
      jobs.push_back(meta.jobname);
    }
    std::sort(jobs.begin(), jobs.end());
    jobs.erase(std::unique(jobs.begin(), jobs.end()), jobs.end());
    if (jobs != channel.sub_jobs) {
      channel.sub_jobs = std::move(jobs);
      channel.subs_dirty = true;
    }
  }

  machine_agent->Tick(now);
}

ClusterHarness::DeliveryResult ClusterHarness::DeliverSample(size_t machine_index,
                                                             const CpiSample& sample) {
  if (fault_plane_->SampleBurstActive(static_cast<int>(machine_index))) {
    return DeliveryResult::kLost;  // ToR brownout: gone, not queued anywhere
  }
  if (fault_plane_->DrawSampleLost(static_cast<int>(machine_index))) {
    return DeliveryResult::kLost;  // i.i.d. loss in flight
  }
  if (fault_plane_->AggregatorDown()) {
    return DeliveryResult::kUnavailable;  // agent keeps it and backs off
  }
  ++samples_collected_;
  AggregatorAddSample(machine_index, sample);
  if (fault_plane_->DrawAckLost(static_cast<int>(machine_index))) {
    // The aggregator has the sample but the agent doesn't know: it will
    // retry, and the aggregator's dedup must absorb the duplicate.
    return DeliveryResult::kUnavailable;
  }
  return DeliveryResult::kAck;
}

BatchDeliveryOutcome ClusterHarness::DeliverBatch(size_t machine_index,
                                                  const EncodedSampleBatch& batch) {
  BatchDeliveryOutcome outcome;
  // One corruption draw per delivery attempt, before any per-sample draw
  // (rate 0 draws nothing, so a clean run's fault stream is untouched).
  std::string_view bytes = batch.bytes;
  std::string corrupted;
  if (fault_plane_->DrawWireCorrupt(static_cast<int>(machine_index))) {
    corrupted = batch.bytes;
    corrupted[corrupted.size() / 2] ^= 0x40;  // one flipped bit in flight
    bytes = corrupted;
  }
  if (!DecodeSampleBatch(bytes, &batch_scratch_).ok()) {
    outcome.decode_failed = true;
    return outcome;
  }
  for (size_t s = batch.consumed; s < batch_scratch_.size(); ++s) {
    const DeliveryResult result = DeliverSample(machine_index, batch_scratch_[s]);
    if (result == DeliveryResult::kAck) {
      ++outcome.delivered;
    } else if (result == DeliveryResult::kLost) {
      ++outcome.lost;
    } else {
      outcome.retry = true;
      break;
    }
  }
  return outcome;
}

void ClusterHarness::FanOutSpec(const CpiSpec& spec, uint64_t version) {
  const auto it = subscribers_by_job_.find(spec.jobname);
  if (it == subscribers_by_job_.end()) {
    return;
  }
  for (size_t i : it->second) {
    AgentChannel& channel = channels_[i];
    if (channel.machine->platform().name != spec.platforminfo) {
      continue;  // the job also runs on other platforms; not this spec
    }
    if (fault_plane_->AgentDown(static_cast<int>(i))) {
      continue;  // dead process: versioned catch-up redelivers after restart
    }
    uint64_t& delivered = channel.delivered_versions[spec.jobname];
    if (delivered == version) {
      continue;  // subscriber already holds this build's spec
    }
    channel.agent->UpdateSpec(spec, cluster_.now());
    delivered = version;
    ++spec_pushes_delivered_;
  }
}

void ClusterHarness::OnSpecPush(const CpiSpec& spec, uint64_t version) {
  if (fault_plane_->DrawSpecPushLost()) {
    return;
  }
  if (fault_plane_->DrawSpecPushDelayed()) {
    delayed_pushes_.push_back(
        DelayedPush{cluster_.now() + fault_plane_->options().spec_push_delay, spec, version});
    return;
  }
  FanOutSpec(spec, version);
  if (fault_plane_->DrawSpecPushDuplicated()) {
    // Idempotent: every subscriber the first copy reached already holds
    // `version`, so the duplicate's fan-out is a no-op.
    FanOutSpec(spec, version);
  }
}

void ClusterHarness::UpdateSubscriptions(size_t i) {
  AgentChannel& channel = channels_[i];
  // Drop registrations for jobs the machine no longer runs.
  for (const std::string& job : channel.registered_jobs) {
    if (std::binary_search(channel.sub_jobs.begin(), channel.sub_jobs.end(), job)) {
      continue;
    }
    const auto it = subscribers_by_job_.find(job);
    if (it != subscribers_by_job_.end()) {
      std::vector<size_t>& subs = it->second;
      subs.erase(std::remove(subs.begin(), subs.end(), i), subs.end());
      if (subs.empty()) {
        subscribers_by_job_.erase(it);
      }
    }
    channel.delivered_versions.erase(job);
  }
  // Register new interest; a fresh subscription needs the current spec.
  for (const std::string& job : channel.sub_jobs) {
    std::vector<size_t>& subs = subscribers_by_job_[job];
    const auto pos = std::lower_bound(subs.begin(), subs.end(), i);
    if (pos == subs.end() || *pos != i) {
      subs.insert(pos, i);
      channel.needs_catchup = true;
    }
  }
  channel.registered_jobs = channel.sub_jobs;
}

void ClusterHarness::CatchUpChannel(size_t i, MicroTime now) {
  AgentChannel& channel = channels_[i];
  for (const std::string& job : channel.registered_jobs) {
    const auto latest = AggregatorLatestSpec(job, channel.machine->platform().name);
    if (!latest.has_value()) {
      continue;  // nothing built for this job yet
    }
    uint64_t& delivered = channel.delivered_versions[job];
    if (delivered == latest->version) {
      continue;
    }
    channel.agent->UpdateSpec(latest->spec, now);
    delivered = latest->version;
    ++spec_pushes_delivered_;
  }
  channel.needs_catchup = false;
}

std::optional<VersionedSpec> ClusterHarness::AggregatorLatestSpec(
    const std::string& jobname, const std::string& platforminfo) const {
  return hier_aggregator_ != nullptr ? hier_aggregator_->LatestSpec(jobname, platforminfo)
                                     : aggregator_.LatestSpec(jobname, platforminfo);
}

void ClusterHarness::AggregatorAddSample(size_t machine_index, const CpiSample& sample) {
  if (hier_aggregator_ != nullptr) {
    // Cell assignment is by machine index; any fixed assignment works — the
    // merged result is partition-invariant (stats/sketch.h).
    hier_aggregator_->AddSample(machine_index, sample);
  } else {
    aggregator_.AddSample(sample);
  }
}

void ClusterHarness::AggregatorTick(MicroTime now) {
  if (hier_aggregator_ != nullptr) {
    hier_aggregator_->Tick(now);
  } else {
    aggregator_.Tick(now);
  }
}

std::string ClusterHarness::AggregatorCheckpoint() const {
  return hier_aggregator_ != nullptr ? hier_aggregator_->Checkpoint()
                                     : aggregator_.Checkpoint();
}

Status ClusterHarness::AggregatorRestore(const std::string& blob) {
  return hier_aggregator_ != nullptr ? hier_aggregator_->Restore(blob)
                                     : aggregator_.Restore(blob);
}

std::optional<CpiSpec> ClusterHarness::GetSpec(const std::string& jobname,
                                               const std::string& platforminfo) const {
  const auto latest = AggregatorLatestSpec(jobname, platforminfo);
  return latest ? std::optional<CpiSpec>(latest->spec) : std::nullopt;
}

void ClusterHarness::RestartAgent(AgentChannel& channel, MicroTime now) {
  // The dead process's kernel caps outlive it. A restarting agent has no
  // record of them, so startup reconciliation lifts every cap it finds —
  // deliberately failing open: a missed cap is re-imposed by fresh
  // detection, while a stuck cap would throttle a task forever.
  Machine* machine = channel.machine;
  for (Task* task : machine->Tasks()) {
    if (machine->GetCap(task->name()).has_value() && machine->RemoveCap(task->name()).ok()) {
      ++caps_cleared_on_restart_;
    }
  }
  channel.agent->Restart(now);
  // The restarted process has an empty task registry; force a full resync
  // on its next tick even if the machine's membership has not changed.
  channel.synced_membership = AgentChannel::kNeverSynced;
  // Versioned invalidation: the new process holds no specs, so every
  // delivered version is void. The catch-up pass re-pushes current specs
  // for its subscriptions once the agent is back up.
  channel.delivered_versions.clear();
  channel.needs_catchup = true;
}

void ClusterHarness::OnTick(MicroTime now) {
  // Fault phase (serial, machine order): advance every fault schedule and
  // apply the transitions that must precede agent ticking.
  fault_plane_->BeginTick(now);
  while (!delayed_pushes_.empty() && delayed_pushes_.front().due <= now) {
    FanOutSpec(delayed_pushes_.front().spec, delayed_pushes_.front().version);
    delayed_pushes_.pop_front();
  }
  for (size_t i = 0; i < channels_.size(); ++i) {
    if (fault_plane_->AgentRestarting(static_cast<int>(i))) {
      RestartAgent(channels_[i], now);
    }
  }
  if (fault_plane_->AggregatorRecoveredThisTick()) {
    // The crash wiped the aggregator's memory; it comes back from the last
    // checkpoint (or pristine, if it never checkpointed).
    const std::string& blob =
        last_checkpoint_blob_.empty() ? empty_checkpoint_blob_ : last_checkpoint_blob_;
    const Status restored = AggregatorRestore(blob);
    if (restored.ok()) {
      ++aggregator_restores_;
      // The restored aggregator counts builds from the checkpoint again, so
      // its next build may reuse a version it issued before the crash: void
      // every delivered version so that build is not suppressed.
      for (AgentChannel& channel : channels_) {
        channel.delivered_versions.clear();
      }
    } else {
      CPI2_LOG(WARNING) << "aggregator restore failed: " << restored.message();
    }
  }
  if (fault_plane_->CheckpointDue()) {
    last_checkpoint_blob_ = AggregatorCheckpoint();
    ++aggregator_checkpoints_;
  }

  // Parallel phase: every channel touches only its own machine and agent. A
  // machine whose agent is down still runs its tasks — only the agent work
  // is skipped.
  ThreadPool* pool = cluster_.pool();
  if (pool != nullptr && channels_.size() > 1) {
    pool->ParallelFor(channels_.size(), [&](size_t i) {
      if (!fault_plane_->AgentDown(static_cast<int>(i))) {
        TickChannel(channels_[i], now);
      }
    });
  } else {
    for (size_t i = 0; i < channels_.size(); ++i) {
      if (!fault_plane_->AgentDown(static_cast<int>(i))) {
        TickChannel(channels_[i], now);
      }
    }
  }
  // Merge phase: flush outboxes and drain buffered incidents in machine
  // order, so loss/ack draws, sample counts, and log order match a serial
  // run.
  for (size_t i = 0; i < channels_.size(); ++i) {
    AgentChannel& channel = channels_[i];
    if (!fault_plane_->AgentDown(static_cast<int>(i))) {
      channel.agent->FlushOutbox(now);
    }
    for (const Incident& incident : channel.incidents) {
      incident_log_.Add(incident);
    }
    channel.incidents.clear();
    if (channel.subs_dirty) {
      UpdateSubscriptions(i);
      channel.subs_dirty = false;
    }
  }
  if (!fault_plane_->AggregatorDown()) {
    AggregatorTick(now);
  }
  // Catch-up after the tick (and any build it ran): a machine that just
  // subscribed or restarted leaves this phase holding the newest spec of
  // every job it runs.
  for (size_t i = 0; i < channels_.size(); ++i) {
    if (channels_[i].needs_catchup && !fault_plane_->AgentDown(static_cast<int>(i))) {
      CatchUpChannel(i, now);
    }
  }
}

ClusterHealthReport ClusterHarness::Health() const {
  ClusterHealthReport report;
  for (const auto& [name, machine_agent] : agents_) {
    const AgentHealth& h = machine_agent->health();
    report.agents.restarts += h.restarts;
    report.agents.samples_enqueued += h.samples_enqueued;
    report.agents.samples_delivered += h.samples_delivered;
    report.agents.samples_lost += h.samples_lost;
    report.agents.delivery_retries += h.delivery_retries;
    report.agents.outbox_overflow_drops += h.outbox_overflow_drops;
    report.agents.counter_rejects += h.counter_rejects;
    report.agents.stale_spec_widenings += h.stale_spec_widenings;
    report.agents.stale_spec_suppressions += h.stale_spec_suppressions;
    report.agents.series_points_dropped += h.series_points_dropped;
    report.agents.wire_decode_errors += h.wire_decode_errors;
  }
  for (const auto& flaky : flaky_sources_) {
    if (flaky != nullptr) {
      report.counter_glitches_injected +=
          flaky->zeroes_injected() + flaky->garbage_injected() + flaky->stuck_injected();
    }
  }
  if (fault_plane_ != nullptr) {
    report.faults = fault_plane_->stats();
  }
  report.caps_cleared_on_restart = caps_cleared_on_restart_;
  report.aggregator_checkpoints = aggregator_checkpoints_;
  report.aggregator_restores = aggregator_restores_;
  if (hier_aggregator_ != nullptr) {
    report.duplicates_dropped = hier_aggregator_->duplicates_dropped();
    report.cells_reporting = hier_aggregator_->cells_reporting();
    report.stalest_partial_age = hier_aggregator_->stalest_partial_age();
    report.partials_dropped = hier_aggregator_->partials_dropped();
  } else {
    report.duplicates_dropped = aggregator_.duplicates_dropped();
  }
  report.spec_pushes_delivered = spec_pushes_delivered_;
  return report;
}

Status ClusterHarness::InjectAgentCrash(const std::string& machine_name,
                                        MicroTime restart_delay) {
  for (size_t i = 0; i < channels_.size(); ++i) {
    if (channels_[i].machine->name() == machine_name) {
      fault_plane_->InjectAgentCrash(static_cast<int>(i), restart_delay);
      return Status::Ok();
    }
  }
  return NotFoundError("no wired agent for machine " + machine_name);
}

void ClusterHarness::SetEnforcementEnabled(bool enabled) {
  for (auto& [name, machine_agent] : agents_) {
    machine_agent->enforcement().SetEnabled(enabled);
  }
}

Status ClusterHarness::OperatorCap(const std::string& task, double cpu_sec_per_sec,
                                   MicroTime duration) {
  Agent* machine_agent = AgentForTask(task);
  if (machine_agent == nullptr) {
    return NotFoundError("no machine runs task " + task);
  }
  return machine_agent->enforcement().ManualCap(task, cpu_sec_per_sec, duration,
                                                cluster_.now());
}

Status ClusterHarness::OperatorUncap(const std::string& task) {
  Agent* machine_agent = AgentForTask(task);
  if (machine_agent == nullptr) {
    return NotFoundError("no machine runs task " + task);
  }
  return machine_agent->enforcement().ManualUncap(task);
}

Status ClusterHarness::OperatorMigrate(const std::string& task) {
  return cluster_.scheduler().MigrateTask(task);
}

void ClusterHarness::PrimeSpecs(MicroTime warmup) {
  RunFor(warmup);
  if (hier_aggregator_ != nullptr) {
    hier_aggregator_->ForceBuild(cluster_.now());
  } else {
    aggregator_.ForceBuild(cluster_.now());
  }
}

}  // namespace cpi2
