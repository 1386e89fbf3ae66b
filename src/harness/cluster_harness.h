// End-to-end wiring of CPI2 onto the cluster simulator.
//
// ClusterHarness owns a Cluster plus the full CPI2 deployment on it: one
// Agent per machine (fed by the machine's counters, capping through the
// machine's CPU controller), a cluster-level Aggregator, the spec push-back
// path, and an IncidentLog. Task arrivals/exits/migrations are synced to the
// agents every tick, exactly as a production agent tracks its cgroups.
//
// Per-machine agent work is sharded across the cluster's thread pool (see
// Cluster::Options::threads). Each machine's samples queue in the agent's
// bounded outbox during the parallel phase and are flushed into the
// aggregator — and incidents drained into the incident log — in machine
// order afterwards, so sample-loss draws, sample counts, and incident
// sequences are bit-identical for any thread count.
//
// Spec push-back is subscription fan-out on both aggregation paths: a
// machine subscribes to the jobs it runs, a rebuilt spec goes only to the
// subscribers on its platform that do not hold its version yet, and a new
// or restarted subscriber catches up to the current spec of each of its
// jobs (the paper's "pushes predicted CPI distributions back to every
// machine running tasks of that job").
//
// A FaultPlane sits at every pipeline boundary (Options::faults): agent
// crash/restart, aggregator outage windows with optional checkpoint/restore,
// spec-push loss/delay/duplication, per-machine sample-loss bursts and
// i.i.d. sample loss, ack loss, and counter glitches (via a
// FlakyCounterSource wrapped around each machine's counters). With every
// fault rate at zero the harness behaves — bit for bit — like the fault
// plane does not exist.
//
// This is the substrate for the integration tests, every figure harness in
// bench/, and examples/cluster_sim.

#ifndef CPI2_HARNESS_CLUSTER_HARNESS_H_
#define CPI2_HARNESS_CLUSTER_HARNESS_H_

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/cell_aggregator.h"
#include "core/cpi2.h"
#include "perf/flaky_counter_source.h"
#include "sim/cluster.h"
#include "sim/fault_plane.h"
#include "sim/trace.h"

namespace cpi2 {

// Cluster-wide degraded-mode accounting: the hardening side (what the
// agents/aggregator absorbed) next to the injection side (what the fault
// plane actually threw at them).
struct ClusterHealthReport {
  AgentHealth agents;              // summed over every agent
  FaultPlane::Stats faults;        // injection-side event counts
  int64_t caps_cleared_on_restart = 0;  // kernel caps reconciled at restart
  int64_t aggregator_checkpoints = 0;
  int64_t aggregator_restores = 0;      // crash recoveries from a checkpoint
  int64_t duplicates_dropped = 0;       // dedup absorbed a retried sample
  int64_t spec_pushes_delivered = 0;    // per-agent spec deliveries
  int64_t counter_glitches_injected = 0;
  // Tiered-path rollups (zero on the flat path). Deliberately absent from
  // flat-vs-tiered equivalence comparisons: they describe the aggregation
  // topology, not the workload.
  int64_t cells_reporting = 0;          // cells merged into the last build
  MicroTime stalest_partial_age = 0;    // worst cell's partial age at last build
  int64_t partials_dropped = 0;         // partial records the merger lost
};

class ClusterHarness {
 public:
  struct Options {
    Cluster::Options cluster;
    Cpi2Params params;
    // Fault-injection config. `faults.seed` is overridden with
    // cluster.seed, so one knob reseeds the whole experiment.
    FaultPlane::Options faults;
  };

  explicit ClusterHarness(Options options);

  Cluster& cluster() { return cluster_; }
  // The flat-path aggregator (the paper's design). Only meaningful when
  // params.flat_aggregation_path is set; tiered runs drive
  // hierarchical_aggregator() instead.
  Aggregator& aggregator() { return aggregator_; }
  // The tiered control plane; nullptr on the flat path.
  HierarchicalAggregator* hierarchical_aggregator() { return hier_aggregator_.get(); }
  // Path-independent spec lookup: whichever aggregation path is active.
  std::optional<CpiSpec> GetSpec(const std::string& jobname,
                                 const std::string& platforminfo) const;
  IncidentLog& incidents() { return incident_log_; }
  TraceRecorder& traces() { return traces_; }
  // The fault plane; valid after WireAgents.
  FaultPlane* fault_plane() { return fault_plane_.get(); }

  // Creates one agent per machine and hooks the pipeline together. Call
  // after machines exist (cluster().AddMachines + BuildScheduler) and
  // before the first Tick.
  void WireAgents();

  Agent* agent(const std::string& machine_name);
  // The agent managing `task_name`, or nullptr.
  Agent* AgentForTask(const std::string& task_name);

  // Runs the cluster for `warmup`, then force-builds specs from everything
  // observed and pushes them to all agents. Gives experiments a trained
  // CPI2 without simulating a full 24 h aggregation cycle.
  void PrimeSpecs(MicroTime warmup);

  void RunFor(MicroTime duration) { cluster_.RunFor(duration); }
  MicroTime now() const { return cluster_.now(); }

  // Total samples routed to the aggregator so far (post-loss, pre-dedup).
  int64_t samples_collected() const { return samples_collected_; }

  // Degraded-mode accounting across the whole deployment. Per-agent detail
  // is available via agent(name)->health().
  ClusterHealthReport Health() const;

  // Crashes `machine_name`'s agent at the next tick (a drill, independent
  // of the configured crash rate). `restart_delay` < 0 uses the configured
  // default. Call after WireAgents.
  Status InjectAgentCrash(const std::string& machine_name, MicroTime restart_delay = -1);

  // --- operator interface (section 5) ------------------------------------
  // "We provide an interface to system operators so they can hard-cap
  // suspects, and turn CPI protection on or off for an entire cluster."

  // Master switch for automatic enforcement across every agent.
  void SetEnforcementEnabled(bool enabled);

  // Hard-caps `task` wherever it currently runs (0 duration = default).
  Status OperatorCap(const std::string& task, double cpu_sec_per_sec, MicroTime duration = 0);
  Status OperatorUncap(const std::string& task);

  // Manual migration: kill the task and restart it on a different machine
  // through the scheduler (loses work since the last checkpoint, which is
  // why the paper keeps this manual).
  Status OperatorMigrate(const std::string& task);

 private:
  // One machine's lane through the parallel phase: its agent plus buffers
  // for the cross-machine effects produced while ticking it. Each channel is
  // touched by exactly one worker per tick; the buffers are drained (in
  // machine order) on the single merging thread.
  struct AgentChannel {
    // Sentinel: the agent has never synced (or just restarted) and must
    // reconcile its task registry regardless of the machine's version.
    static constexpr uint64_t kNeverSynced = ~0ull;

    Machine* machine = nullptr;
    Agent* agent = nullptr;
    std::vector<Incident> incidents;
    std::vector<std::string> departed;  // sync scratch, reused across ticks
    // Machine::membership_version() at the last registry sync; while it is
    // unchanged the per-tick reconciliation scan is skipped.
    uint64_t synced_membership = kNeverSynced;

    // --- subscription fan-out state ----------------------------------------
    // Jobs this machine currently runs, sorted unique — recomputed in
    // TickChannel whenever the membership sync runs (parallel phase, own
    // channel only) and folded into the global subscription index in the
    // serial merge phase when `subs_dirty` is set.
    std::vector<std::string> sub_jobs;
    // Jobs currently registered for this machine in subscribers_by_job_.
    std::vector<std::string> registered_jobs;
    // Last spec version delivered to this machine, per job. Cleared on
    // restart — the versioned invalidation that makes a restarted agent
    // resubscribe and catch up instead of running on a stale (or no) spec —
    // and on aggregator restore, after which versions may repeat.
    std::map<std::string, uint64_t> delivered_versions;
    bool subs_dirty = false;     // sub_jobs changed; index update pending
    bool needs_catchup = false;  // deliver current specs at next serial phase
  };

  // A spec push the fault plane delayed in flight, with its build version.
  struct DelayedPush {
    MicroTime due = 0;
    CpiSpec spec;
    uint64_t version = 0;
  };

  // Tick listener: advance the fault plane, sync agents' task registries
  // with their machines and tick the agents (sharded), then flush outboxes /
  // drain incidents in machine order and tick the aggregator.
  void OnTick(MicroTime now);

  // The per-machine share of OnTick; runs concurrently across channels.
  void TickChannel(AgentChannel& channel, MicroTime now);

  // One delivery attempt of an encoded batch from machine `machine_index`'s
  // outbox. Draws the per-batch corruption fault, decodes, then runs every
  // unsettled sample through DeliverSample. Stops at the first retryable
  // sample so the agent re-sends the same bytes from that offset after
  // backoff.
  BatchDeliveryOutcome DeliverBatch(size_t machine_index, const EncodedSampleBatch& batch);

  // What became of one sample inside a batch delivery attempt.
  enum class DeliveryResult {
    kAck,          // accepted by the aggregator; done
    kLost,         // dropped in flight (network loss); do not retry
    kUnavailable,  // pipeline unreachable; keep the sample and retry later
  };
  // DeliverBatch's per-sample fault step. Applies, in order: burst loss,
  // i.i.d. sample loss, aggregator outage (retryable), then hands the
  // sample to the aggregator; a lost ack after acceptance reports
  // kUnavailable so the agent retries (and dedup absorbs the duplicate).
  DeliveryResult DeliverSample(size_t machine_index, const CpiSample& sample);

  // The fault step of one spec push, with the build version that produced
  // the spec. Draw order: lost, delayed, duplicated.
  void OnSpecPush(const CpiSpec& spec, uint64_t version);
  // Subscription fan-out: hands `spec` only to the up agents subscribed to
  // its job (on the matching platform) that have not seen `version` yet.
  void FanOutSpec(const CpiSpec& spec, uint64_t version);
  // Serial merge phase: reconciles subscribers_by_job_ with channel i's
  // recomputed sub_jobs.
  void UpdateSubscriptions(size_t i);
  // Serial catch-up: delivers the current spec of every job channel i
  // subscribes to whose version it has not seen (new subscription or agent
  // restart). No fault-plane draws — this models the subscriber pulling
  // state it knows it lacks, not a push in flight.
  void CatchUpChannel(size_t i, MicroTime now);

  // Aggregation-path dispatch helpers (flat vs tiered).
  std::optional<VersionedSpec> AggregatorLatestSpec(const std::string& jobname,
                                                    const std::string& platforminfo) const;
  void AggregatorAddSample(size_t machine_index, const CpiSample& sample);
  void AggregatorTick(MicroTime now);
  std::string AggregatorCheckpoint() const;
  Status AggregatorRestore(const std::string& blob);

  // Models the dead agent process coming back: clears kernel caps the old
  // process left behind (startup reconciliation), then cold-starts the
  // agent.
  void RestartAgent(AgentChannel& channel, MicroTime now);

  Options options_;
  Cluster cluster_;
  Aggregator aggregator_;
  // Non-null exactly when !params.flat_aggregation_path; the flat
  // aggregator_ above then sits idle (it is cheap when unfed).
  std::unique_ptr<HierarchicalAggregator> hier_aggregator_;
  IncidentLog incident_log_;
  TraceRecorder traces_;
  std::unique_ptr<FaultPlane> fault_plane_;
  // Per-machine counter-glitch decorators (only populated when any counter
  // fault rate is non-zero); parallel to channels_.
  std::vector<std::unique_ptr<FlakyCounterSource>> flaky_sources_;
  std::map<std::string, std::unique_ptr<Agent>> agents_;  // by machine name
  std::vector<AgentChannel> channels_;                    // machine order
  // Subscription index: channel indices subscribed to each job, kept
  // sorted so fan-out visits machines in machine order.
  std::map<std::string, std::vector<size_t>> subscribers_by_job_;
  std::deque<DelayedPush> delayed_pushes_;  // due-time order (FIFO insert)
  // Decode scratch for DeliverBatch (merge phase only): element and string
  // capacity is reused across every batch the harness receives.
  std::vector<CpiSample> batch_scratch_;
  std::string last_checkpoint_blob_;
  std::string empty_checkpoint_blob_;  // pristine state, for crashes before any checkpoint
  bool wired_ = false;
  int64_t samples_collected_ = 0;
  int64_t caps_cleared_on_restart_ = 0;
  int64_t aggregator_checkpoints_ = 0;
  int64_t aggregator_restores_ = 0;
  int64_t spec_pushes_delivered_ = 0;
};

// Converts a sim TaskSpec to the agent-facing metadata record.
TaskMeta MetaFromSpec(const std::string& task_name, const TaskSpec& spec);

}  // namespace cpi2

#endif  // CPI2_HARNESS_CLUSTER_HARNESS_H_
