// Deterministic fault-injection plane for the CPI2 pipeline.
//
// The paper's pipeline (per-machine sampling -> cluster aggregation -> spec
// push-back -> local enforcement) silently assumes samples arrive, specs
// stay fresh, and counters never glitch. FaultPlane makes every one of
// those assumptions breakable on purpose, at every pipeline boundary:
//
//   - agent crash/restart: a machine's agent process dies, losing its spec
//     cache, detector history, and outbox; it restarts after a delay,
//   - aggregator outage windows: the collection service is unreachable on a
//     periodic schedule (deploys, failovers); optionally it also loses its
//     in-memory state at outage start (crash, not just partition),
//   - spec-push faults: a pushed spec is lost, delayed, or duplicated,
//   - sample loss: i.i.d. per-sample loss in flight, and per-machine loss
//     bursts (a ToR switch brownout drops every sample a machine emits for
//     a while, a heavier-tailed pattern),
//   - ack loss: delivery succeeded but the acknowledgement did not, so the
//     agent retries and the aggregator must deduplicate,
//   - counter glitches: rates handed to perf/FlakyCounterSource.
//
// Determinism contract: every fault draw comes from a dedicated per-machine
// RNG stream (forked from the seed in machine order) or from the single
// spec-push stream, and all draws happen on the driving thread — BeginTick
// in machine order before the parallel phase, per-sample draws during the
// serial merge phase. A run with faults active is therefore bit-identical
// across thread counts, which tests/harness/parallel_determinism_test.cc
// pins down.

#ifndef CPI2_SIM_FAULT_PLANE_H_
#define CPI2_SIM_FAULT_PLANE_H_

#include <cstdint>
#include <vector>

#include "util/clock.h"
#include "util/rng.h"

namespace cpi2 {

class FaultPlane {
 public:
  struct Options {
    // Typically Cluster::Options::seed; the per-machine streams fork from it
    // so a different cluster seed produces different fault schedules.
    uint64_t seed = 20130415;

    // --- agent process faults --------------------------------------------
    // Per machine, per tick probability that the agent crashes. The agent
    // is down (no sampling, no detection, no enforcement bookkeeping) for
    // `agent_restart_delay`, then restarts cold.
    double agent_crash_per_tick = 0.0;
    MicroTime agent_restart_delay = 5 * kMicrosPerSecond;

    // --- aggregator outages ----------------------------------------------
    // The aggregator is unreachable during [phase + k*period,
    // phase + k*period + duration) for every k >= 0. 0 period = never.
    MicroTime aggregator_outage_period = 0;
    MicroTime aggregator_outage_duration = 0;
    MicroTime aggregator_outage_phase = 0;
    // When true each outage is a crash: the aggregator's in-memory spec
    // state is lost at outage start and restored from the harness's last
    // checkpoint (if any) at outage end.
    bool aggregator_crash_on_outage = false;
    // How often the harness checkpoints the aggregator (0 = never). Only
    // meaningful with aggregator_crash_on_outage.
    MicroTime aggregator_checkpoint_interval = 0;

    // --- spec push-back channel ------------------------------------------
    double spec_push_loss_rate = 0.0;
    double spec_push_duplicate_rate = 0.0;
    double spec_push_delay_rate = 0.0;
    MicroTime spec_push_delay = 30 * kMicrosPerSecond;

    // --- sample transport -------------------------------------------------
    // Probability that a delivered sample is lost in flight, drawn per
    // sample from the machine's own stream. Independent of bursts; both
    // may be active at once.
    double sample_loss_rate = 0.0;
    // Per machine, per tick probability that a loss burst starts; while a
    // burst is active every sample the machine delivers is lost.
    double sample_burst_per_tick = 0.0;
    MicroTime sample_burst_duration = 0;
    // Probability that a successful delivery's ack is lost: the aggregator
    // has the sample, the agent retries it anyway (exercises dedup).
    double ack_loss_rate = 0.0;
    // Per-batch probability that a sample batch arrives bit-flipped: the
    // receiver's CRC check rejects it and every unsettled sample in the
    // batch is lost (counted as a wire decode error). Only meaningful on
    // the binary wire path — per-sample struct delivery has no bytes to
    // corrupt.
    double wire_corrupt_rate = 0.0;

    // --- counter substrate (consumed by perf/FlakyCounterSource) ---------
    double counter_zero_rate = 0.0;
    double counter_garbage_rate = 0.0;
    double counter_stuck_rate = 0.0;
  };

  // Event counters, aggregated cluster-wide.
  struct Stats {
    int64_t agent_crashes = 0;
    int64_t agent_restarts = 0;
    int64_t aggregator_outages = 0;
    int64_t aggregator_outage_ticks = 0;
    int64_t sample_bursts = 0;
    int64_t samples_lost = 0;
    int64_t spec_pushes_lost = 0;
    int64_t spec_pushes_delayed = 0;
    int64_t spec_pushes_duplicated = 0;
    int64_t acks_lost = 0;
    int64_t batches_corrupted = 0;
  };

  FaultPlane(const Options& options, int machines);

  // True when any fault class has a non-zero rate/schedule; lets the
  // harness skip the fault plane entirely on clean runs.
  bool AnyFaultsEnabled() const;

  // Advances all schedules to `now`. MUST run on the driving thread before
  // the parallel agent phase: it draws from the per-machine streams in
  // machine order and computes this tick's crash/restart/burst/outage
  // state. Call exactly once per tick.
  void BeginTick(MicroTime now);

  // --- per-tick state (valid after BeginTick, stable within the tick) ----
  // The machine's agent is down this tick (crashed, not yet restarted).
  bool AgentDown(int machine) const { return machines_[machine].agent_down; }
  // The machine's agent restarts this tick: the harness must reset the
  // agent and reconcile leftover caps before ticking it.
  bool AgentRestarting(int machine) const { return machines_[machine].agent_restarting; }
  bool SampleBurstActive(int machine) const { return machines_[machine].burst_active; }
  bool AggregatorDown() const { return aggregator_down_; }
  // The outage boundary transitions, each true for exactly one tick.
  bool AggregatorCrashedThisTick() const { return aggregator_crashed_this_tick_; }
  bool AggregatorRecoveredThisTick() const { return aggregator_recovered_this_tick_; }
  // A checkpoint is due this tick (schedule only; the harness takes it).
  bool CheckpointDue() const { return checkpoint_due_; }

  // --- serial-phase draws ------------------------------------------------
  // Per-sample loss draw for `machine` (merge phase, machine order), before
  // the sample reaches the aggregator; draws from that machine's stream.
  bool DrawSampleLost(int machine);
  // Per-sample ack-loss draw for `machine`. Only call from the merge phase
  // (machine order); draws from that machine's stream.
  bool DrawAckLost(int machine);
  // Per-batch corruption draw for `machine` (merge phase, machine order):
  // one draw per batch delivery attempt, before any per-sample draws.
  bool DrawWireCorrupt(int machine);
  // Per-push spec-channel draws, in this order, from the spec stream.
  bool DrawSpecPushLost();
  bool DrawSpecPushDelayed();
  bool DrawSpecPushDuplicated();

  // Schedules a one-shot agent crash at `now` (tests and operator drills);
  // takes effect at the next BeginTick. `restart_delay` < 0 uses the
  // configured default.
  void InjectAgentCrash(int machine, MicroTime restart_delay = -1);

  const Options& options() const { return options_; }
  const Stats& stats() const { return stats_; }

  // The fault-stream seed for machine `i`'s counter glitches, distinct from
  // the stream used for crash/burst draws.
  uint64_t CounterSeedFor(int machine) const;

 private:
  struct MachineState {
    Rng rng;                         // crash/burst/loss/ack draws for this machine
    MicroTime agent_down_until = 0;  // 0 = agent up
    MicroTime burst_until = 0;
    MicroTime pending_crash_delay = -2;  // >= -1: a manual crash is queued
    bool agent_down = false;
    bool agent_restarting = false;
    bool burst_active = false;

    explicit MachineState(Rng stream) : rng(stream) {}
  };

  // One Bernoulli(rate) draw from `rng`, counted in `*count` when it hits.
  static bool Draw(Rng& rng, double rate, int64_t* count);

  Options options_;
  std::vector<MachineState> machines_;
  Rng spec_rng_;
  MicroTime last_checkpoint_ = -1;
  bool aggregator_down_ = false;
  bool aggregator_crashed_this_tick_ = false;
  bool aggregator_recovered_this_tick_ = false;
  bool checkpoint_due_ = false;
  Stats stats_;
};

}  // namespace cpi2

#endif  // CPI2_SIM_FAULT_PLANE_H_
