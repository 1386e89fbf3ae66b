#include "sim_workloads.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "core/agent.h"
#include "core/aggregator.h"
#include "core/incident_log.h"
#include "harness/cluster_harness.h"
#include "sim/cluster.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "wire/sample_codec.h"
#include "workload/cluster_builder.h"
#include "workload/profiles.h"

namespace perfbench {
namespace {

using cpi2::Agent;
using cpi2::AgentHealth;
using cpi2::Aggregator;
using cpi2::BatchDeliveryOutcome;
using cpi2::Cluster;
using cpi2::ClusterHarness;
using cpi2::Cpi2Params;
using cpi2::CpiSample;
using cpi2::CpiSpec;
using cpi2::EncodedSampleBatch;
using cpi2::Incident;
using cpi2::IncidentAction;
using cpi2::IncidentLog;
using cpi2::Machine;
using cpi2::MicroTime;
using cpi2::StrFormat;
using cpi2::Task;
using cpi2::ThreadPool;

constexpr int kFleetMachines = 1000;
constexpr int kStormMachines = 200;
// Simulated warm-up before specs are force-built (PrimeSpecs).
constexpr MicroTime kPrime = 8 * cpi2::kMicrosPerMinute;
// Specs rebuild and push every 5 simulated minutes instead of every 24 h, so
// spec build and push take a visible share of the measured window.
constexpr MicroTime kSpecInterval = 5 * cpi2::kMicrosPerMinute;
// The cluster ticks once per simulated second, so fleet builds and pushes
// specs every 300 ticks, exactly. Fleet's noise-filter blocks are whole
// multiples of this period, so every block carries the same share of it.
constexpr size_t kTicksPerSpecInterval = kSpecInterval / cpi2::kMicrosPerSecond;
// The mirror traces alternate blocks of this many ticks.
constexpr int kTraceBlockTicks = static_cast<int>(kTicksPerSpecInterval);
// Set-ups timed per run; setup_s is their median.
constexpr int kSetups = 5;
// Forensic query mix (storm): distinct queries per kind, and passes over them.
constexpr int kQueriesPerKind = 64;
constexpr int kQueryRounds = 8;
// Storm must cap at least half of the injected antagonists.
constexpr double kMinRecall = 0.5;

struct Shape {
  bool storm = false;
  uint64_t seed = 1;
  int machines = 0;
  int threads = 1;
};

// Both workloads lower min_samples_per_task so PrimeSpecs can build specs
// from a short warm-up (tasks sample once a minute: 5 samples in 5 minutes).
// Only `fleet` also rebuilds specs every 5 minutes; `storm` keeps the 24 h
// default, so the specs the antagonists are judged against stay the primed
// ones for the whole measured window.
Cpi2Params Params(bool storm) {
  Cpi2Params params;
  params.min_samples_per_task = 5;
  if (!storm) {
    params.spec_update_interval = kSpecInterval;
  }
  return params;
}

Cluster::Options ClusterOptions(const Shape& shape) {
  Cluster::Options options;
  options.seed = shape.seed;
  options.threads = shape.threads;
  return options;
}

// Builds the workload's machines and tasks into a fresh cluster. Returns the
// number of task placements that failed (0 expected).
int Populate(Cluster* cluster, const Shape& shape) {
  cpi2::ClusterMixOptions mix;
  mix.machines = shape.machines;
  mix.seed = kJobMixSeed;
  cpi2::BuildRepresentativeCluster(cluster, mix);
  int failed = 0;
  if (shape.storm) {
    for (size_t i = 0; i < cluster->machine_count(); ++i) {
      if (!cluster->machine(i)->AddTask(StrFormat("storm-leaf.%04zu", i), cpi2::WebSearchLeafSpec())
               .ok()) {
        ++failed;
      }
    }
  }
  return failed;
}

// The seeded quarter of machines that receive an antagonist at onset.
std::vector<size_t> AntagonistMachines(const Shape& shape) {
  std::vector<size_t> order(static_cast<size_t>(shape.machines));
  std::iota(order.begin(), order.end(), 0);
  cpi2::Rng rng(shape.seed ^ 0x570a3ull);
  const size_t count = order.size() / 4;
  for (size_t i = 0; i < count; ++i) {
    const auto j = static_cast<size_t>(
        rng.UniformInt(static_cast<int64_t>(i), static_cast<int64_t>(order.size() - 1)));
    std::swap(order[i], order[j]);
  }
  order.resize(count);
  std::sort(order.begin(), order.end());
  return order;
}

std::string AntagonistName(size_t machine) { return StrFormat("storm-video.%04zu", machine); }

// Injects the storm's antagonists; returns the injected task names.
std::set<std::string> InjectAntagonists(Cluster* cluster, const Shape& shape, int* failed) {
  std::set<std::string> injected;
  for (size_t m : AntagonistMachines(shape)) {
    const std::string name = AntagonistName(m);
    if (cluster->machine(m)->AddTask(name, cpi2::VideoProcessingSpec()).ok()) {
      injected.insert(name);
    } else {
      ++*failed;
    }
  }
  return injected;
}

// --- end state ---------------------------------------------------------------

struct EndState {
  int64_t samples_collected = 0;
  size_t incidents = 0;
  uint64_t incident_digest = 0;
  int64_t caps_active = 0;
  uint64_t cap_digest = 0;
  uint64_t state_hash = 0;

  bool operator==(const EndState& o) const {
    return samples_collected == o.samples_collected && incidents == o.incidents &&
           incident_digest == o.incident_digest && caps_active == o.caps_active &&
           cap_digest == o.cap_digest && state_hash == o.state_hash;
  }
  std::string ToString() const {
    return StrFormat("samples=%lld incidents=%zu incident_digest=%016llx caps=%lld "
                     "cap_digest=%016llx state_hash=%016llx",
                     static_cast<long long>(samples_collected), incidents,
                     static_cast<unsigned long long>(incident_digest),
                     static_cast<long long>(caps_active),
                     static_cast<unsigned long long>(cap_digest),
                     static_cast<unsigned long long>(state_hash));
  }
};

template <typename T>
uint64_t Mix(uint64_t h, const T& value) {
  return Fnv(h, &value, sizeof(value));
}
uint64_t MixString(uint64_t h, const std::string& s) {
  return Mix(Fnv(h, s.data(), s.size()), s.size());
}

// Every task's end-of-run counters, machine by machine (FNV-1a).
uint64_t StateHash(Cluster& cluster) {
  uint64_t h = kFnvBasis;
  for (Machine* machine : cluster.machines()) {
    for (Task* task : machine->Tasks()) {
      h = MixString(h, task->name());
      h = Mix(h, task->cycles());
      h = Mix(h, task->instructions());
      h = Mix(h, task->l3_misses());
      h = Mix(h, task->cpu_seconds());
      h = Mix(h, task->last_cpi());
      h = Mix(h, task->last_latency_ms());
    }
  }
  return h;
}

// Caps in force at the end of the run: which task, where, at what level.
uint64_t CapDigest(Cluster& cluster, int64_t* active) {
  uint64_t h = kFnvBasis;
  *active = 0;
  for (Machine* machine : cluster.machines()) {
    for (Task* task : machine->Tasks()) {
      const std::optional<double> cap = machine->GetCap(task->name());
      if (cap.has_value()) {
        ++*active;
        h = MixString(MixString(h, machine->name()), task->name());
        h = Mix(h, *cap);
      }
    }
  }
  return h;
}

// The ordered incident sequence: who, where, when, and what was done.
uint64_t IncidentDigest(const IncidentLog& log) {
  uint64_t h = kFnvBasis;
  for (const Incident& incident : log.incidents()) {
    h = Mix(h, incident.timestamp);
    h = MixString(h, incident.machine);
    h = MixString(h, incident.victim_task);
    h = Mix(h, incident.victim_cpi);
    h = Mix(h, static_cast<int>(incident.action));
    h = MixString(h, incident.action_target);
    h = Mix(h, incident.cap_level);
    for (const cpi2::Suspect& suspect : incident.suspects) {
      h = MixString(h, suspect.task);
      h = Mix(h, suspect.correlation);
    }
  }
  return h;
}

EndState CaptureEnd(Cluster& cluster, const IncidentLog& log, int64_t samples_collected) {
  EndState end;
  end.samples_collected = samples_collected;
  end.incidents = log.size();
  end.incident_digest = IncidentDigest(log);
  end.cap_digest = CapDigest(cluster, &end.caps_active);
  end.state_hash = StateHash(cluster);
  return end;
}

// --- ground truth ----------------------------------------------------------

struct Score {
  int injected = 0;
  int capped = 0;               // injected antagonists hard-capped at least once
  std::vector<double> ttc_s;    // onset -> first hard cap, per capped antagonist
  int hard_caps = 0;            // hard caps after onset, any target
  int collateral = 0;           // ... whose target was not injected
};

Score ScoreStorm(const IncidentLog& log, const std::set<std::string>& injected, MicroTime onset) {
  Score score;
  score.injected = static_cast<int>(injected.size());
  std::map<std::string, MicroTime> first_cap;
  for (const Incident& incident : log.incidents()) {
    if (incident.action != IncidentAction::kHardCap || incident.timestamp < onset) {
      continue;
    }
    ++score.hard_caps;
    if (injected.count(incident.action_target) > 0) {
      first_cap.emplace(incident.action_target, incident.timestamp);
    } else {
      ++score.collateral;
    }
  }
  score.capped = static_cast<int>(first_cap.size());
  for (const auto& [task, at] : first_cap) {
    score.ttc_s.push_back(static_cast<double>(at - onset) / cpi2::kMicrosPerSecond);
  }
  return score;
}

// --- forensic queries --------------------------------------------------------

struct Forensics {
  SpanStat select_job, select_machine, time_range, top_antagonists;
  bool correct = true;
  std::string detail;

  int64_t queries() const {
    return select_job.count + select_machine.count + time_range.count + top_antagonists.count;
  }
  int64_t total_ns() const {
    return select_job.total_ns + select_machine.total_ns + time_range.total_ns +
           top_antagonists.total_ns;
  }
};

bool SameStats(const std::vector<IncidentLog::AntagonistStats>& a,
               const std::vector<IncidentLog::AntagonistStats>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(), [](const auto& x, const auto& y) {
    return x.jobname == y.jobname && x.incidents == y.incidents &&
           x.times_capped == y.times_capped && x.max_correlation == y.max_correlation &&
           x.mean_correlation == y.mean_correlation;
  });
}

// A seeded mix of Select-by-job, Select-by-machine, Select-by-time-range and
// TopAntagonists over `log`, each answer first checked in full against the
// log's reference scans (SelectLegacy, TopAntagonistsLegacy).
Forensics RunForensics(const IncidentLog& log, uint64_t seed) {
  Forensics out;
  const std::deque<Incident>& rows = log.incidents();
  if (rows.empty()) {
    out.correct = false;
    out.detail = "incident log is empty";
    return out;
  }
  cpi2::Rng rng(seed ^ 0xf0e1ull);
  const auto pick = [&]() -> const Incident& {
    return rows[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(rows.size()) - 1))];
  };
  std::vector<IncidentLog::Query> by_job(kQueriesPerKind), by_machine(kQueriesPerKind),
      by_time(kQueriesPerKind);
  std::vector<std::string> top_jobs(kQueriesPerKind);
  for (int q = 0; q < kQueriesPerKind; ++q) {
    by_job[q].victim_job = pick().victim_job;
    by_machine[q].machine = pick().machine;
    by_time[q].begin = pick().timestamp;
    by_time[q].end = by_time[q].begin + 30 * cpi2::kMicrosPerMinute;
    top_jobs[q] = q % 4 == 0 ? std::string() : pick().victim_job;
  }

  for (int q = 0; q < kQueriesPerKind && out.correct; ++q) {
    for (const IncidentLog::Query* query : {&by_job[q], &by_machine[q], &by_time[q]}) {
      if (log.Select(*query) != log.SelectLegacy(*query)) {
        out.correct = false;
        out.detail = StrFormat("Select differs from SelectLegacy (job '%s', machine '%s')",
                               query->victim_job.c_str(), query->machine.c_str());
      }
    }
    if (!SameStats(log.TopAntagonists(top_jobs[q], 0, 0, 5),
                   log.TopAntagonistsLegacy(top_jobs[q], 0, 0, 5))) {
      out.correct = false;
      out.detail = StrFormat("TopAntagonists differs from TopAntagonistsLegacy (job '%s')",
                             top_jobs[q].c_str());
    }
  }

  size_t sink = 0;
  for (int round = 0; round < kQueryRounds; ++round) {
    for (int q = 0; q < kQueriesPerKind; ++q) {
      int64_t t0 = NowNs();
      sink += log.Select(by_job[q]).size();
      int64_t t1 = NowNs();
      out.select_job.Add(t1 - t0);
      sink += log.Select(by_machine[q]).size();
      t0 = NowNs();
      out.select_machine.Add(t0 - t1);
      sink += log.Select(by_time[q]).size();
      t1 = NowNs();
      out.time_range.Add(t1 - t0);
      sink += log.TopAntagonists(top_jobs[q], 0, 0, 5).size();
      out.top_antagonists.Add(NowNs() - t1);
    }
  }
  if (sink == 0) {
    out.correct = false;
    out.detail = "every forensic query came back empty";
  }
  return out;
}

// --- the mirror pipeline -----------------------------------------------------

// The harness's fault-free flat path rebuilt from public calls, with a span
// around each call into a layer. Call order matches ClusterHarness::OnTick
// step for step, which is what makes its end state comparable bit for bit.
// Counts at the pipeline's boundaries cover every tick; clocks are read and
// spans recorded on traced ticks only.
class Mirror {
 public:
  Mirror(const Shape& shape, Ledger* ledger)
      : cluster_(ClusterOptions(shape)),
        params_(Params(shape.storm)),
        aggregator_(params_),
        ledger_(ledger) {
    flush_ = ledger_->Stat("core.agent.flush");
    decode_ = ledger_->Stat("wire.decode");
    ingest_ = ledger_->Stat("core.aggregator.ingest");
    push_ = ledger_->Stat("core.aggregator.spec_push");
    build_ = ledger_->Stat("core.aggregator.build");
    agg_flush_ = ledger_->Stat("core.aggregator.tick_flush");
    incident_add_ = ledger_->Stat("core.incident_log.add");
    agent_quiet_ = ledger_->Stat("core.agent.tick_quiet");
    agent_window_ = ledger_->Stat("core.agent.tick_window");
    agent_anomaly_ = ledger_->Stat("core.agent.tick_anomaly");
    machine_tick_ = ledger_->Stat("sim.machine_tick");
    parallel_ = ledger_->Stat("harness.parallel_phase");
    merge_ = ledger_->Stat("harness.merge_phase");
    sync_ = ledger_->Stat("harness.sync");
  }
  Mirror(const Mirror&) = delete;
  Mirror& operator=(const Mirror&) = delete;

  Cluster& cluster() { return cluster_; }
  const IncidentLog& log() const { return log_; }
  int64_t samples_collected() const { return samples_collected_; }

  // ClusterHarness::WireAgents, fault plane omitted (every rate is zero).
  void Wire(uint64_t seed) {
    const std::vector<Machine*>& machines = cluster_.machines();
    channels_.resize(machines.size());
    for (size_t i = 0; i < machines.size(); ++i) {
      Machine* machine = machines[i];
      Agent::Options options;
      options.params = params_;
      options.machine_name = machine->name();
      options.platforminfo = machine->platform().name;
      options.jitter_seed = seed ^ 0xa9e27 ^ (static_cast<uint64_t>(i) * 0x9e3779b97f4a7c15ULL);
      Channel& channel = channels_[i];
      channel.machine = machine;
      channel.agent = std::make_unique<Agent>(options, machine, machine);
      channel.agent->SetBatchDeliveryCallback(
          [this](const EncodedSampleBatch& batch) { return DeliverBatch(batch); });
      channel.agent->SetIncidentCallback(
          [&channel](const Incident& incident) { channel.incidents.push_back(incident); });
      channels_by_platform_[machine->platform().name].push_back(i);
    }
    aggregator_.SetSpecCallback([this](const CpiSpec& spec) { DeliverSpec(spec); });
    aggregator_.SetThreadPool(cluster_.pool());
    cluster_.AddTickListener([this](MicroTime now) { OnTick(now); });
  }

  // ClusterHarness::PrimeSpecs.
  void Prime() {
    cluster_.RunFor(kPrime);
    aggregator_.ForceBuild(cluster_.now());
  }

  // Runs `ticks` ticks, tracing alternate blocks of kTraceBlockTicks, the
  // first block traced. Untraced ticks read no clock inside the tick, so
  // the interleaved halves differ only by the cost of tracing, and a host
  // slowdown lands on both alike.
  void Run(int ticks) {
    caps = builds = specs_built = spec_deliveries = batches = wire_bytes = wire_samples = 0;
    const Totals before = Snapshot();
    const int paired = ticks / (2 * kTraceBlockTicks) * (2 * kTraceBlockTicks);
    for (int t = 0; t < ticks; ++t) {
      tracing_ = t / kTraceBlockTicks % 2 == 0;
      tick_start_ns_ = NowNs();
      cluster_.Tick();
      const int64_t ns = NowNs() - tick_start_ns_;
      traced_ns += tracing_ ? ns : 0;
      if (t < paired) {
        (tracing_ ? paired_traced_ns : paired_untraced_ns) += ns;
      }
    }
    tracing_ = false;
    window_ = Snapshot() - before;
  }

  // Counters summed over the fleet, for Run's whole window.
  struct Totals {
    int64_t samples = 0, outliers = 0, anomalies = 0, incidents = 0;
    Totals operator-(const Totals& o) const {
      return {samples - o.samples, outliers - o.outliers, anomalies - o.anomalies,
              incidents - o.incidents};
    }
  };
  const Totals& window() const { return window_; }

  // Counts at the pipeline's boundaries, over Run's whole window.
  int64_t caps = 0;
  int64_t builds = 0;
  int64_t specs_built = 0;
  int64_t spec_deliveries = 0;
  int64_t batches = 0;
  int64_t wire_bytes = 0;
  int64_t wire_samples = 0;
  // Traced ticks only.
  int64_t busy_ns = 0;            // Σ per-channel sync + agent tick
  int64_t lane_ns = 0;            // Σ parallel phase wall × lanes
  int64_t agent_tick_ns = 0;      // Σ Agent::Tick
  int64_t ticks_traced = 0;
  int64_t traced_ns = 0;          // Σ wall time of traced ticks
  // Ticks in whole traced + untraced block pairs, by half.
  int64_t paired_traced_ns = 0;
  int64_t paired_untraced_ns = 0;

 private:
  struct Channel {
    Machine* machine = nullptr;
    std::unique_ptr<Agent> agent;
    std::vector<Incident> incidents;
    std::vector<std::string> departed;
    uint64_t synced_membership = ~0ull;
    // Written only by the worker ticking this channel; read after the
    // ParallelFor barrier.
    int64_t sync_ns = 0;
    int64_t tick_ns = 0;
    int64_t samples_before = 0;
    int64_t anomalies_before = 0;
  };

  int64_t Clock() const { return tracing_ ? NowNs() : 0; }

  Totals Snapshot() const {
    Totals t;
    for (const Channel& channel : channels_) {
      t.samples += channel.agent->samples_processed();
      t.outliers += channel.agent->outliers_flagged();
      t.anomalies += channel.agent->anomalies_detected();
      t.incidents += channel.agent->incidents_reported();
    }
    return t;
  }

  // ClusterHarness::TickChannel: registry sync gated on the machine's
  // membership version, then the agent's tick.
  void TickChannel(Channel& channel, MicroTime now) {
    const int64_t t0 = Clock();
    Machine* machine = channel.machine;
    Agent* agent = channel.agent.get();
    const uint64_t version = machine->membership_version();
    if (channel.synced_membership != version) {
      for (Task* task : machine->Tasks()) {
        if (!agent->HasTask(task->name())) {
          agent->AddTask(cpi2::MetaFromSpec(task->name(), task->spec()), now);
        }
      }
      channel.departed.clear();
      for (const auto& [name, meta] : agent->Tasks()) {
        if (machine->FindTask(name) == nullptr) {
          channel.departed.push_back(name);
        }
      }
      for (const std::string& name : channel.departed) {
        agent->RemoveTask(name);
      }
      channel.synced_membership = version;
    }
    const int64_t t1 = Clock();
    channel.samples_before = agent->samples_processed();
    channel.anomalies_before = agent->anomalies_detected();
    agent->Tick(now);
    channel.sync_ns = t1 - t0;
    channel.tick_ns = Clock() - t1;
  }

  // ClusterHarness::DeliverBatch with every fault draw at zero: decode, then
  // hand each unsettled sample to the aggregator.
  BatchDeliveryOutcome DeliverBatch(const EncodedSampleBatch& batch) {
    BatchDeliveryOutcome outcome;
    const int64_t t0 = Clock();
    const bool decoded = cpi2::DecodeSampleBatch(batch.bytes, &scratch_).ok();
    const int64_t t1 = Clock();
    if (!decoded) {
      outcome.decode_failed = true;
      return outcome;
    }
    for (size_t s = batch.consumed; s < scratch_.size(); ++s) {
      ++samples_collected_;
      aggregator_.AddSample(scratch_[s]);
      ++outcome.delivered;
    }
    ++batches;
    wire_bytes += static_cast<int64_t>(batch.bytes.size());
    wire_samples += static_cast<int64_t>(batch.sample_count);
    if (tracing_) {
      decode_->Add(t1 - t0);
      ingest_->count += outcome.delivered;  // one ingest span per sample
      ingest_->total_ns += NowNs() - t1;
    }
    return outcome;
  }

  // ClusterHarness::DeliverSpec: a platform broadcast.
  void DeliverSpec(const CpiSpec& spec) {
    const int64_t t0 = Clock();
    const auto it = channels_by_platform_.find(spec.platforminfo);
    int64_t delivered = 0;
    if (it != channels_by_platform_.end()) {
      for (size_t i : it->second) {
        channels_[i].agent->UpdateSpec(spec, cluster_.now());
        ++delivered;
      }
    }
    ++specs_built;
    spec_deliveries += delivered;
    if (tracing_) {
      const int64_t ns = NowNs() - t0;
      push_->Add(ns);
      push_ns_in_tick_ += ns;
    }
  }

  // ClusterHarness::OnTick, fault-free flat path.
  void OnTick(MicroTime now) {
    const int64_t t_listener = Clock();
    ThreadPool* pool = cluster_.pool();
    if (pool != nullptr && channels_.size() > 1) {
      pool->ParallelFor(channels_.size(), [&](size_t i) { TickChannel(channels_[i], now); });
    } else {
      for (Channel& channel : channels_) {
        TickChannel(channel, now);
      }
    }
    const int64_t t_parallel = Clock();

    for (Channel& channel : channels_) {
      const int64_t f0 = Clock();
      channel.agent->FlushOutbox(now);
      if (tracing_) {
        flush_->Add(NowNs() - f0);
      }
      for (const Incident& incident : channel.incidents) {
        const int64_t a0 = Clock();
        log_.Add(incident);
        if (tracing_) {
          incident_add_->Add(NowNs() - a0);
        }
        caps += incident.action == IncidentAction::kHardCap;
      }
      channel.incidents.clear();
    }
    const int64_t t_merge = Clock();

    const int64_t builds_before = aggregator_.builds_completed();
    push_ns_in_tick_ = 0;
    aggregator_.Tick(now);
    const int64_t t_aggregator = Clock();
    const bool built = aggregator_.builds_completed() != builds_before;
    builds += built;
    if (!tracing_) {
      return;
    }

    ++ticks_traced;
    ledger_->Record("sim.machine_tick", tick_start_ns_, t_listener);
    ledger_->Record("harness.parallel_phase", t_listener, t_parallel);
    ledger_->Record("harness.merge_phase", t_parallel, t_merge);
    ledger_->Record("core.aggregator.tick", t_merge, t_aggregator);
    machine_tick_->Add(t_listener - tick_start_ns_);
    parallel_->Add(t_parallel - t_listener);
    merge_->Add(t_merge - t_parallel);
    if (built) {
      build_->Add(t_aggregator - t_merge - push_ns_in_tick_);  // self time
    } else {
      agg_flush_->Add(t_aggregator - t_merge);
    }

    const int lanes = pool != nullptr && channels_.size() > 1 ? pool->size() + 1 : 1;
    lane_ns += (t_parallel - t_listener) * lanes;
    int64_t sync_total = 0;
    for (const Channel& channel : channels_) {
      sync_total += channel.sync_ns;
      busy_ns += channel.sync_ns + channel.tick_ns;
      agent_tick_ns += channel.tick_ns;
      if (channel.agent->anomalies_detected() != channel.anomalies_before) {
        agent_anomaly_->Add(channel.tick_ns);
      } else if (channel.agent->samples_processed() != channel.samples_before) {
        agent_window_->Add(channel.tick_ns);
      } else {
        agent_quiet_->Add(channel.tick_ns);
      }
    }
    sync_->Add(sync_total);
  }

  Cluster cluster_;
  Cpi2Params params_;
  Aggregator aggregator_;
  IncidentLog log_;
  Ledger* ledger_;
  std::vector<Channel> channels_;
  std::map<std::string, std::vector<size_t>> channels_by_platform_;
  std::vector<CpiSample> scratch_;  // decode scratch, reused across batches
  int64_t samples_collected_ = 0;
  bool tracing_ = false;
  int64_t tick_start_ns_ = 0;
  int64_t push_ns_in_tick_ = 0;
  Totals window_;

  SpanStat *flush_, *decode_, *ingest_, *push_, *build_, *agg_flush_, *incident_add_;
  SpanStat *agent_quiet_, *agent_window_, *agent_anomaly_;
  SpanStat *machine_tick_, *parallel_, *merge_, *sync_;
};

// --- the two halves ------------------------------------------------------------

std::unique_ptr<ClusterHarness> SetUpHarness(const Shape& shape, int* failed_adds) {
  ClusterHarness::Options options;
  options.cluster = ClusterOptions(shape);
  options.params = Params(shape.storm);
  auto harness = std::make_unique<ClusterHarness>(options);
  *failed_adds = Populate(&harness->cluster(), shape);
  harness->WireAgents();
  harness->PrimeSpecs(kPrime);
  return harness;
}

void PrintHuman(const char* name, double value, const char* unit, const std::string& note = "") {
  std::printf("  %-26s %14.4f %-6s %s\n", name, value, unit, note.c_str());
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }
double Us(double ns) { return ns / 1e3; }

}  // namespace

void RunSim(const SimOptions& options, Report* report) {
  Shape shape;
  shape.storm = options.storm;
  shape.seed = options.seed;
  shape.machines = options.storm ? kStormMachines : kFleetMachines;
  shape.threads = options.threads;
  const char* workload = options.storm ? "storm" : "fleet";
  std::printf("%s: %d machines, %d thread(s), seed %llu, %d measured ticks\n", workload,
              shape.machines, shape.threads, static_cast<unsigned long long>(shape.seed),
              options.ticks);

  // ---- half 1: the harness, untraced ----
  std::vector<double> setup_s;
  std::unique_ptr<ClusterHarness> harness;
  int failed_adds = 0;
  for (int i = 0; i < kSetups; ++i) {
    harness.reset();  // free the previous set-up before timing the next
    const int64_t t0 = NowNs();
    harness = SetUpHarness(shape, &failed_adds);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  Cluster& cluster = harness->cluster();
  const MicroTime onset = cluster.now();
  std::set<std::string> injected;
  if (shape.storm) {
    injected = InjectAntagonists(&cluster, shape, &failed_adds);
  }
  report->Check("placement", failed_adds == 0,
                StrFormat("%d task placements failed", failed_adds));

  // Every tick is timed; throughput and percentiles are the best decile
  // over blocks of consecutive ticks (ledger.h's noise filter). Fleet's
  // blocks are whole spec intervals; storm never rebuilds specs here.
  const size_t period = shape.storm ? 1 : kTicksPerSpecInterval;
  const int64_t samples_before = harness->samples_collected();
  std::vector<double> tick_ms, tick_s, tick_samples, tick_machines;
  tick_ms.reserve(static_cast<size_t>(options.ticks));
  int64_t samples = samples_before;
  const int64_t run_start = NowNs();
  for (int t = 0; t < options.ticks; ++t) {
    const int64_t t0 = NowNs();
    cluster.Tick();
    const int64_t ns = NowNs() - t0;
    tick_ms.push_back(Ms(ns));
    tick_s.push_back(static_cast<double>(ns) / 1e9);
    tick_samples.push_back(static_cast<double>(harness->samples_collected() - samples));
    tick_machines.push_back(shape.machines);
    samples = harness->samples_collected();
  }
  const double wall_s = static_cast<double>(NowNs() - run_start) / 1e9;
  const double peak_rss = PeakRssMb();
  const int64_t window_samples = harness->samples_collected() - samples_before;
  const double machine_ticks_per_s = BlockRate(tick_machines, tick_s, period);
  const double samples_per_s = BlockRate(tick_samples, tick_s, period);
  size_t block = 0;
  const double tick_tail = BlockTail(tick_ms, period, &block);
  const double tail_q = TailQuantile(block);
  const double tick_p50 = BlockMedian(tick_ms, period);

  const cpi2::ClusterHealthReport health = harness->Health();
  int64_t outbox_residue = 0;
  for (Machine* machine : cluster.machines()) {
    outbox_residue += static_cast<int64_t>(harness->agent(machine->name())->outbox_size());
  }
  const AgentHealth& h = health.agents;
  const int64_t failed = h.samples_lost + h.outbox_overflow_drops + h.wire_decode_errors;
  report->Count("attempted", h.samples_enqueued);
  report->Count("failed", failed);
  report->Check("sample_conservation",
                failed == 0 &&
                    h.samples_enqueued == h.samples_delivered + outbox_residue &&
                    h.samples_delivered == harness->samples_collected(),
                StrFormat("enqueued=%lld delivered=%lld queued=%lld collected=%lld failed=%lld",
                          static_cast<long long>(h.samples_enqueued),
                          static_cast<long long>(h.samples_delivered),
                          static_cast<long long>(outbox_residue),
                          static_cast<long long>(harness->samples_collected()),
                          static_cast<long long>(failed)));
  report->Check("specs_pushed",
                harness->aggregator().builds_completed() >= 1 && health.spec_pushes_delivered > 0,
                StrFormat("%lld builds, %lld spec deliveries",
                          static_cast<long long>(harness->aggregator().builds_completed()),
                          static_cast<long long>(health.spec_pushes_delivered)));

  std::printf("end-to-end (%s, untraced harness):\n", workload);
  PrintHuman("machine_ticks_per_s", machine_ticks_per_s, "1/s",
             StrFormat("%d machines x %d ticks in %.3f s; best decile of blocks",
                       shape.machines, options.ticks, wall_s));
  PrintHuman("tick_p50_ms", tick_p50, "ms", StrFormat("n=%zu ticks", tick_ms.size()));
  PrintHuman("tick_p99_ms", tick_tail, "ms",
             StrFormat("quantile %.4f per block of %zu ticks, %zu beyond in each", tail_q, block,
                       block - static_cast<size_t>(tail_q * block)));
  PrintHuman("samples_per_s", samples_per_s, "1/s",
             StrFormat("%lld samples collected in window", static_cast<long long>(window_samples)));
  PrintHuman("failed_ratio",
             h.samples_enqueued > 0 ? static_cast<double>(failed) / h.samples_enqueued : 0.0,
             "ratio",
             StrFormat("%lld of %lld enqueued", static_cast<long long>(failed),
                       static_cast<long long>(h.samples_enqueued)));

  if (shape.storm) {
    const Score score = ScoreStorm(harness->incidents(), injected, onset);
    const double recall = score.injected > 0 ? static_cast<double>(score.capped) / score.injected : 0;
    PrintHuman("time_to_cap_s", Median(score.ttc_s), "s",
               StrFormat("median over %d capped antagonists", score.capped));
    PrintHuman("antagonist_recall", recall, "ratio",
               StrFormat("%d of %d injected capped", score.capped, score.injected));
    PrintHuman("collateral_caps", score.collateral, "count",
               StrFormat("of %d hard caps after onset", score.hard_caps));
    report->Check("storm_recall", recall >= kMinRecall,
                  StrFormat("recall %.3f (%d/%d), need >= %.2f", recall, score.capped,
                            score.injected, kMinRecall));
    const Forensics forensics = RunForensics(harness->incidents(), shape.seed);
    report->Check("forensics", forensics.correct, forensics.detail);
    PrintHuman("forensics_queries_per_s",
               forensics.total_ns() > 0 ? forensics.queries() / (forensics.total_ns() / 1e9) : 0,
               "1/s",
               StrFormat("%lld queries over %zu incidents",
                         static_cast<long long>(forensics.queries()), harness->incidents().size()));
    report->Metric("accuracy.antagonist_recall", recall, "ratio");
    report->Metric("accuracy.time_to_cap_s", Median(score.ttc_s), "s");
    report->Metric("accuracy.collateral_caps", score.collateral, "count");
    report->Metric("core.incident_log.queries_per_s",
                   forensics.total_ns() > 0 ? forensics.queries() / (forensics.total_ns() / 1e9)
                                            : 0,
                   "1/s");
  }
  PrintHuman("setup_s", Median(setup_s), "s", StrFormat("median of %zu set-ups", setup_s.size()));
  PrintHuman("peak_rss_mb", peak_rss, "MiB");

  report->Metric("samples_per_s", samples_per_s, "1/s");
  report->Metric("latency.p50_ms", tick_p50, "ms");
  report->Metric("latency.p99_ms", tick_tail, "ms");
  report->Metric("setup_s", Median(setup_s), "s");
  report->Metric("peak_rss_mb", peak_rss, "MB");

  if (!options.trace) {
    return;
  }
  const EndState harness_end =
      CaptureEnd(cluster, harness->incidents(), harness->samples_collected());
  harness.reset();

  // ---- half 2: the traced mirror ----
  Ledger ledger;
  Mirror mirror(shape, &ledger);
  int mirror_failed_adds = Populate(&mirror.cluster(), shape);
  mirror.Wire(shape.seed);
  mirror.Prime();
  const MicroTime mirror_onset = mirror.cluster().now();
  if (shape.storm) {
    InjectAntagonists(&mirror.cluster(), shape, &mirror_failed_adds);
  }
  mirror.Run(options.ticks);
  const EndState mirror_end =
      CaptureEnd(mirror.cluster(), mirror.log(), mirror.samples_collected());
  std::printf("harness end state: %s\nmirror end state:  %s\n", harness_end.ToString().c_str(),
              mirror_end.ToString().c_str());
  report->Check("mirror_matches_harness",
                mirror_end == harness_end && mirror_onset == onset && mirror_failed_adds == 0,
                "traced pipeline reproduces the harness run");

  // ---- per-layer ledger ----
  const double ticks = static_cast<double>(std::max<int64_t>(1, mirror.ticks_traced));
  const Mirror::Totals& w = mirror.window();
  const auto mean_us = [&](const char* name) { return Us(ledger.Get(name).MeanNs()); };
  report->Metric("sim.machine_tick_ms", Ms(ledger.Get("sim.machine_tick").total_ns) / ticks, "ms");
  report->Metric("harness.sync_ms", Ms(ledger.Get("harness.sync").total_ns) / ticks, "ms");
  report->Metric("harness.parallel_phase_ms",
                 Ms(ledger.Get("harness.parallel_phase").total_ns) / ticks, "ms");
  report->Metric("harness.merge_phase_ms", Ms(ledger.Get("harness.merge_phase").total_ns) / ticks,
                 "ms");
  report->Metric("harness.parallel_efficiency",
                 mirror.lane_ns > 0 ? static_cast<double>(mirror.busy_ns) / mirror.lane_ns : 0.0,
                 "ratio");
  report->Metric("core.agent.tick_busy_ms", Ms(mirror.agent_tick_ns) / ticks, "ms");
  report->Metric("core.agent.tick_quiet_us", mean_us("core.agent.tick_quiet"), "us");
  report->Metric("core.agent.tick_window_us", mean_us("core.agent.tick_window"), "us");
  report->Metric("core.agent.tick_anomaly_us", mean_us("core.agent.tick_anomaly"), "us");
  report->Metric("core.agent.flush_us", mean_us("core.agent.flush"), "us");
  report->Metric("wire.decode_us", mean_us("wire.decode"), "us");
  report->Metric("core.aggregator.ingest_ns", ledger.Get("core.aggregator.ingest").MeanNs(), "ns");
  report->Metric("core.aggregator.tick_flush_us", mean_us("core.aggregator.tick_flush"), "us");
  report->Metric("core.aggregator.build_ms", ledger.Get("core.aggregator.build").MeanNs() / 1e6,
                 "ms");
  report->Metric("core.aggregator.spec_push_us", mean_us("core.aggregator.spec_push"), "us");
  report->Metric("core.incident_log.add_us", mean_us("core.incident_log.add"), "us");
  report->Metric("core.agent.samples", w.samples, "count");
  report->Metric("core.agent.outliers", w.outliers, "count");
  report->Metric("core.agent.anomalies", w.anomalies, "count");
  report->Metric("core.agent.incidents", w.incidents, "count");
  report->Metric("core.agent.caps", mirror.caps, "count");
  report->Metric("core.agent.incidents_per_anomaly",
                 w.anomalies > 0 ? static_cast<double>(w.incidents) / w.anomalies : 0.0, "ratio");
  report->Metric("core.agent.caps_per_incident",
                 w.incidents > 0 ? static_cast<double>(mirror.caps) / w.incidents : 0.0, "ratio");
  report->Metric("core.aggregator.builds", mirror.builds, "count");
  report->Metric("core.aggregator.specs_built", mirror.specs_built, "count");
  report->Metric("core.aggregator.spec_deliveries", mirror.spec_deliveries, "count");
  report->Metric("wire.batches", mirror.batches, "count");
  report->Metric("wire.bytes_per_sample",
                 mirror.wire_samples > 0
                     ? static_cast<double>(mirror.wire_bytes) / mirror.wire_samples
                     : 0.0,
                 "bytes");
  if (shape.storm) {
    const Forensics traced = RunForensics(mirror.log(), shape.seed);
    report->Metric("core.incident_log.query_us.select_job", Us(traced.select_job.MeanNs()), "us");
    report->Metric("core.incident_log.query_us.select_machine",
                   Us(traced.select_machine.MeanNs()), "us");
    report->Metric("core.incident_log.query_us.time_range", Us(traced.time_range.MeanNs()), "us");
    report->Metric("core.incident_log.query_us.top_antagonists",
                   Us(traced.top_antagonists.MeanNs()), "us");
  }
  report->Metric("trace.coverage",
                 mirror.traced_ns > 0
                     ? static_cast<double>(ledger.SpineNs()) / static_cast<double>(mirror.traced_ns)
                     : 0.0,
                 "ratio");
  // 1 - traced / untraced machine-ticks per second, over equal tick counts.
  report->Metric("trace.overhead",
                 mirror.paired_traced_ns > 0
                     ? 1.0 - static_cast<double>(mirror.paired_untraced_ns) /
                                 static_cast<double>(mirror.paired_traced_ns)
                     : 0.0,
                 "ratio");
  if (!options.spans_path.empty() && !ledger.WriteSpans(options.spans_path)) {
    std::fprintf(stderr, "warning: could not write %s\n", options.spans_path.c_str());
  }
}

}  // namespace perfbench
