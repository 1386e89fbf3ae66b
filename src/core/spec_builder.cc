#include "core/spec_builder.h"

#include <algorithm>
#include <cmath>

namespace cpi2 {
namespace {

// Below this many staged samples a parallel flush costs more in pool
// round-trips than it saves; apply serially instead. Purely a scheduling
// choice — the arithmetic is identical either way.
constexpr size_t kMinStagedForParallelFlush = 256;

}  // namespace

SpecBuilder::SpecBuilder(const Cpi2Params& params) : params_(params) {
  shards_.resize(params.spec_shards < 1 ? 1 : static_cast<size_t>(params.spec_shards));
}

void SpecBuilder::MomentHistory::Decay(double weight) {
  count *= weight;
  m2 *= weight;
  // mean and usage_mean are location parameters; decay shrinks their weight
  // in the next merge, not their value.
}

void SpecBuilder::MomentHistory::Merge(double other_count, double other_mean, double other_m2,
                                       double other_usage) {
  if (other_count <= 0.0) {
    return;
  }
  if (count <= 0.0) {
    count = other_count;
    mean = other_mean;
    m2 = other_m2;
    usage_mean = other_usage;
    return;
  }
  const double total = count + other_count;
  const double delta = other_mean - mean;
  m2 += other_m2 + delta * delta * count * other_count / total;
  mean += delta * other_count / total;
  usage_mean += (other_usage - usage_mean) * other_count / total;
  count = total;
}

size_t SpecBuilder::Route(const CpiSample& sample) {
  ++samples_seen_;
  StagedSample staged;
  staged.key = MakeKey(job_memo_.Intern(names_, sample.jobname),
                       platform_memo_.Intern(names_, sample.platforminfo));
  if (!sample.task.empty()) {
    staged.task = task_memo_.Intern(names_, sample.task);
    staged.has_task = true;
  }
  staged.cpi = sample.cpi;
  staged.usage = sample.cpu_usage;
  const size_t shard = ShardOf(staged.key);
  shards_[shard].staged.push_back(staged);
  ++staged_total_;
  return shard;
}

void SpecBuilder::StageSample(const CpiSample& sample) { (void)Route(sample); }

void SpecBuilder::AddSample(const CpiSample& sample) {
  if (staged_total_ > 0) {
    // Keep arrival order when the two ingest paths are mixed.
    FlushStaged(nullptr);
  }
  ApplyStaged(shards_[Route(sample)]);
  staged_total_ = 0;
}

void SpecBuilder::ApplyStaged(Shard& shard) {
  for (const StagedSample& staged : shard.staged) {
    Accumulation& accumulation = shard.current[staged.key];
    accumulation.cpi.Add(staged.cpi);
    accumulation.usage.Add(staged.usage);
    if (staged.has_task) {
      ++accumulation.samples_per_task[staged.task];
    }
  }
  shard.staged.clear();
}

void SpecBuilder::FlushStaged(ThreadPool* pool) {
  if (staged_total_ == 0) {
    return;
  }
  if (pool != nullptr && shards_.size() > 1 && staged_total_ >= kMinStagedForParallelFlush) {
    pool->ParallelFor(shards_.size(), [this](size_t i) { ApplyStaged(shards_[i]); });
  } else {
    for (Shard& shard : shards_) {
      ApplyStaged(shard);
    }
  }
  staged_total_ = 0;
}

bool SpecBuilder::Eligible(const Accumulation& accumulation) const {
  if (static_cast<int>(accumulation.samples_per_task.size()) < params_.min_tasks_for_spec) {
    return false;
  }
  // "fewer than 100 CPI samples per task": require the average per-task
  // sample count to clear the bar, so a few young tasks don't block a job
  // with abundant data.
  const double average =
      static_cast<double>(accumulation.cpi.count()) /
      static_cast<double>(accumulation.samples_per_task.size());
  return average >= static_cast<double>(params_.min_samples_per_task);
}

bool SpecBuilder::NameOrderLess(IdKey a, IdKey b) const {
  const std::string& job_a = names_.NameOf(JobOf(a));
  const std::string& job_b = names_.NameOf(JobOf(b));
  if (job_a != job_b) {
    return job_a < job_b;
  }
  return names_.NameOf(PlatformOf(a)) < names_.NameOf(PlatformOf(b));
}

template <typename Map>
std::vector<SpecBuilder::IdKey> SpecBuilder::SortedKeys(const Map& map) const {
  std::vector<IdKey> keys;
  keys.reserve(map.size());
  for (const auto& [key, unused] : map) {
    keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end(), [this](IdKey a, IdKey b) { return NameOrderLess(a, b); });
  return keys;
}

template <typename Map>
std::vector<SpecBuilder::IdKey> SpecBuilder::SortedKeysAllShards(Map Shard::* member) const {
  std::vector<IdKey> keys;
  for (const Shard& shard : shards_) {
    for (const auto& [key, unused] : shard.*member) {
      keys.push_back(key);
    }
  }
  std::sort(keys.begin(), keys.end(), [this](IdKey a, IdKey b) { return NameOrderLess(a, b); });
  return keys;
}

void SpecBuilder::BuildShard(Shard& shard, uint64_t version) {
  shard.built_keys.clear();
  const bool durable_state_touched = !shard.history.empty() || !shard.current.empty();

  // Decay all history first: a day with no fresh samples still ages.
  for (auto& [key, history] : shard.history) {
    history.Decay(params_.history_weight);
  }

  // Per-key merges are independent of each other and of visit order; only
  // the cross-shard output merge fixes the push-out order.
  for (auto& [key, accumulation] : shard.current) {
    MomentHistory& history = shard.history[key];
    const bool eligible_now = Eligible(accumulation);
    history.Merge(static_cast<double>(accumulation.cpi.count()), accumulation.cpi.mean(),
                  // StreamingStats keeps m2 implicitly; reconstruct it.
                  accumulation.cpi.population_variance() *
                      static_cast<double>(accumulation.cpi.count()),
                  accumulation.usage.mean());
    if (!eligible_now) {
      continue;
    }
    CpiSpec spec;
    spec.jobname = names_.NameOf(JobOf(key));  // read-only interner access
    spec.platforminfo = names_.NameOf(PlatformOf(key));
    spec.num_samples = static_cast<int64_t>(history.count);
    spec.cpu_usage_mean = history.usage_mean;
    spec.cpi_mean = history.mean;
    spec.cpi_stddev = std::sqrt(history.Variance());
    shard.latest_specs[key] = VersionedSpec{std::move(spec), version};
    shard.built_keys.push_back(key);
  }
  shard.current.clear();
  if (durable_state_touched) {
    ++shard.version;
  }
}

std::vector<CpiSpec> SpecBuilder::BuildSpecs(ThreadPool* pool) {
  FlushStaged(pool);
  const uint64_t version = ++spec_version_;
  if (pool != nullptr && shards_.size() > 1) {
    pool->ParallelFor(shards_.size(),
                      [this, version](size_t i) { BuildShard(shards_[i], version); });
  } else {
    for (Shard& shard : shards_) {
      BuildShard(shard, version);
    }
  }

  // Deterministic merge: the shard outputs interleave into the legacy
  // string-sorted key order, so spec push order (and everything downstream
  // of it, e.g. fault-plane RNG draws) is independent of sharding.
  std::vector<IdKey> keys;
  for (const Shard& shard : shards_) {
    keys.insert(keys.end(), shard.built_keys.begin(), shard.built_keys.end());
  }
  std::sort(keys.begin(), keys.end(), [this](IdKey a, IdKey b) { return NameOrderLess(a, b); });

  std::vector<CpiSpec> specs;
  specs.reserve(keys.size());
  for (const IdKey key : keys) {
    specs.push_back(shards_[ShardOf(key)].latest_specs.at(key).spec);
  }
  return specs;
}

std::optional<CpiSpec> SpecBuilder::GetSpec(const std::string& jobname,
                                            const std::string& platforminfo) const {
  const auto latest = LatestSpec(jobname, platforminfo);
  return latest ? std::optional<CpiSpec>(latest->spec) : std::nullopt;
}

std::optional<VersionedSpec> SpecBuilder::LatestSpec(const std::string& jobname,
                                                     const std::string& platforminfo) const {
  const auto job = names_.Find(jobname);
  const auto platform = names_.Find(platforminfo);
  if (!job.has_value() || !platform.has_value()) {
    return std::nullopt;
  }
  const IdKey key = MakeKey(*job, *platform);
  const Shard& shard = shards_[ShardOf(key)];
  const auto it = shard.latest_specs.find(key);
  if (it == shard.latest_specs.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::vector<SpecBuilder::HistoryEntry> SpecBuilder::SnapshotHistory() const {
  std::vector<HistoryEntry> entries;
  for (const IdKey key : SortedKeysAllShards(&Shard::history)) {
    entries.push_back(HistoryEntry{{shards_[ShardOf(key)].history.at(key)},
                                   {names_.NameOf(JobOf(key)), names_.NameOf(PlatformOf(key))}});
  }
  return entries;
}

std::vector<VersionedSpec> SpecBuilder::SnapshotLatestSpecs() const {
  std::vector<VersionedSpec> specs;
  for (const IdKey key : SortedKeysAllShards(&Shard::latest_specs)) {
    specs.push_back(shards_[ShardOf(key)].latest_specs.at(key));
  }
  return specs;
}

std::vector<SpecBuilder::HistoryEntry> SpecBuilder::SnapshotShardHistory(size_t shard) const {
  std::vector<HistoryEntry> entries;
  const Shard& s = shards_[shard];
  entries.reserve(s.history.size());
  for (const IdKey key : SortedKeys(s.history)) {
    entries.push_back(HistoryEntry{
        {s.history.at(key)}, {names_.NameOf(JobOf(key)), names_.NameOf(PlatformOf(key))}});
  }
  return entries;
}

std::vector<VersionedSpec> SpecBuilder::SnapshotShardLatestSpecs(size_t shard) const {
  std::vector<VersionedSpec> specs;
  const Shard& s = shards_[shard];
  specs.reserve(s.latest_specs.size());
  for (const IdKey key : SortedKeys(s.latest_specs)) {
    specs.push_back(s.latest_specs.at(key));
  }
  return specs;
}

void SpecBuilder::RestoreSnapshot(const std::vector<HistoryEntry>& history,
                                  const std::vector<VersionedSpec>& latest_specs,
                                  int64_t samples_seen, uint64_t spec_version) {
  for (Shard& shard : shards_) {
    shard.history.clear();
    shard.latest_specs.clear();
    shard.current.clear();
    shard.staged.clear();
    ++shard.version;
  }
  staged_total_ = 0;
  for (const HistoryEntry& entry : history) {
    const IdKey key = MakeKey(names_.Intern(entry.key.jobname),
                              names_.Intern(entry.key.platforminfo));
    shards_[ShardOf(key)].history[key] = entry;
  }
  spec_version_ = spec_version;
  for (const VersionedSpec& versioned : latest_specs) {
    const IdKey key = MakeKey(names_.Intern(versioned.spec.jobname),
                              names_.Intern(versioned.spec.platforminfo));
    shards_[ShardOf(key)].latest_specs[key] = versioned;
    spec_version_ = std::max(spec_version_, versioned.version);
  }
  samples_seen_ = samples_seen;
}

void SpecBuilder::SeedHistory(const CpiSpec& spec) {
  const IdKey key =
      MakeKey(names_.Intern(spec.jobname), names_.Intern(spec.platforminfo));
  Shard& shard = shards_[ShardOf(key)];
  MomentHistory& history = shard.history[key];
  MomentHistory seeded;
  seeded.count = static_cast<double>(spec.num_samples);
  seeded.mean = spec.cpi_mean;
  seeded.m2 = spec.cpi_stddev * spec.cpi_stddev * static_cast<double>(spec.num_samples);
  seeded.usage_mean = spec.cpu_usage_mean;
  history.Merge(seeded.count, seeded.mean, seeded.m2, seeded.usage_mean);
  shard.latest_specs[key] = VersionedSpec{spec, ++spec_version_};
  ++shard.version;
}

}  // namespace cpi2
