#include "sim/fault_plane.h"

namespace cpi2 {
namespace {

// Stream-domain separators so the crash/burst stream, the counter-glitch
// stream, and the spec-push stream are distinct even for machine 0 / seed 0.
constexpr uint64_t kFaultDomain = 0xfa17'0000'0000'0001ULL;
constexpr uint64_t kCounterDomain = 0xfa17'0000'0000'0002ULL;
constexpr uint64_t kSpecDomain = 0xfa17'0000'0000'0003ULL;

}  // namespace

FaultPlane::FaultPlane(const Options& options, int machines)
    : options_(options), spec_rng_(options.seed ^ kSpecDomain) {
  machines_.reserve(machines);
  Rng root(options.seed ^ kFaultDomain);
  for (int i = 0; i < machines; ++i) {
    // Fork in machine order: machine i's stream depends only on the seed and
    // i, never on how many machines come after it or on thread scheduling.
    machines_.emplace_back(root.Fork());
  }
}

bool FaultPlane::AnyFaultsEnabled() const {
  return options_.agent_crash_per_tick > 0 || options_.aggregator_outage_period > 0 ||
         options_.spec_push_loss_rate > 0 || options_.spec_push_duplicate_rate > 0 ||
         options_.spec_push_delay_rate > 0 || options_.sample_loss_rate > 0 ||
         options_.sample_burst_per_tick > 0 ||
         options_.ack_loss_rate > 0 || options_.wire_corrupt_rate > 0 ||
         options_.counter_zero_rate > 0 ||
         options_.counter_garbage_rate > 0 || options_.counter_stuck_rate > 0;
}

void FaultPlane::BeginTick(MicroTime now) {
  // Aggregator outage schedule: pure arithmetic on the clock, no draws, so
  // it is trivially deterministic and easy to line up with spec pushes in
  // tests.
  aggregator_crashed_this_tick_ = false;
  aggregator_recovered_this_tick_ = false;
  bool down = false;
  if (options_.aggregator_outage_period > 0 && options_.aggregator_outage_duration > 0 &&
      now >= options_.aggregator_outage_phase) {
    const MicroTime offset =
        (now - options_.aggregator_outage_phase) % options_.aggregator_outage_period;
    down = offset < options_.aggregator_outage_duration;
  }
  if (down && !aggregator_down_) {
    ++stats_.aggregator_outages;
    aggregator_crashed_this_tick_ = options_.aggregator_crash_on_outage;
  } else if (!down && aggregator_down_) {
    aggregator_recovered_this_tick_ = options_.aggregator_crash_on_outage;
  }
  aggregator_down_ = down;
  if (down) {
    ++stats_.aggregator_outage_ticks;
  }

  checkpoint_due_ = false;
  if (options_.aggregator_checkpoint_interval > 0 && !down &&
      (last_checkpoint_ < 0 || now - last_checkpoint_ >= options_.aggregator_checkpoint_interval)) {
    checkpoint_due_ = true;
    last_checkpoint_ = now;
  }

  // Per-machine draws, in machine order. Every machine draws the same
  // number of variates per tick regardless of its current state, so one
  // machine's crash never shifts another machine's stream.
  for (MachineState& m : machines_) {
    m.agent_restarting = false;

    const bool crash_drawn =
        options_.agent_crash_per_tick > 0 && m.rng.Bernoulli(options_.agent_crash_per_tick);
    const bool burst_drawn =
        options_.sample_burst_per_tick > 0 && m.rng.Bernoulli(options_.sample_burst_per_tick);

    if (m.agent_down && now >= m.agent_down_until) {
      m.agent_down = false;
      m.agent_restarting = true;
      ++stats_.agent_restarts;
    }
    MicroTime crash_delay = -1;
    bool crash = false;
    if (m.pending_crash_delay >= -1) {  // manual InjectAgentCrash wins
      crash = true;
      crash_delay = m.pending_crash_delay;
      m.pending_crash_delay = -2;
    } else if (crash_drawn) {
      crash = true;
    }
    if (crash && !m.agent_down) {
      m.agent_down = true;
      m.agent_restarting = false;
      m.agent_down_until =
          now + (crash_delay >= 0 ? crash_delay : options_.agent_restart_delay);
      ++stats_.agent_crashes;
    }

    if (burst_drawn && m.burst_until < now + options_.sample_burst_duration) {
      if (m.burst_until <= now) {
        ++stats_.sample_bursts;
      }
      m.burst_until = now + options_.sample_burst_duration;
    }
    m.burst_active = m.burst_until > now;
  }
}

bool FaultPlane::Draw(Rng& rng, double rate, int64_t* count) {
  // Rate 0 draws nothing, so a disabled fault never shifts its stream.
  if (rate <= 0 || !rng.Bernoulli(rate)) {
    return false;
  }
  ++*count;
  return true;
}

bool FaultPlane::DrawSampleLost(int machine) {
  return Draw(machines_[machine].rng, options_.sample_loss_rate, &stats_.samples_lost);
}

bool FaultPlane::DrawAckLost(int machine) {
  return Draw(machines_[machine].rng, options_.ack_loss_rate, &stats_.acks_lost);
}

bool FaultPlane::DrawWireCorrupt(int machine) {
  return Draw(machines_[machine].rng, options_.wire_corrupt_rate, &stats_.batches_corrupted);
}

bool FaultPlane::DrawSpecPushLost() {
  return Draw(spec_rng_, options_.spec_push_loss_rate, &stats_.spec_pushes_lost);
}

bool FaultPlane::DrawSpecPushDelayed() {
  return Draw(spec_rng_, options_.spec_push_delay_rate, &stats_.spec_pushes_delayed);
}

bool FaultPlane::DrawSpecPushDuplicated() {
  return Draw(spec_rng_, options_.spec_push_duplicate_rate, &stats_.spec_pushes_duplicated);
}

void FaultPlane::InjectAgentCrash(int machine, MicroTime restart_delay) {
  machines_[machine].pending_crash_delay = restart_delay >= 0 ? restart_delay : -1;
}

uint64_t FaultPlane::CounterSeedFor(int machine) const {
  return options_.seed ^ kCounterDomain ^ (static_cast<uint64_t>(machine) * 0x9e3779b97f4a7c15ULL);
}

}  // namespace cpi2
