#include "core/cell_aggregator.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "wire/sketch_codec.h"

namespace cpi2 {

// --- CellAggregator ---------------------------------------------------------

CellAggregator::CellAggregator(const Cpi2Params& params, uint32_t cell_id)
    : params_(params), cell_id_(cell_id) {}

void CellAggregator::AddSample(const CpiSample& sample) {
  const IdKey key =
      (static_cast<IdKey>(job_memo_.Intern(names_, sample.jobname)) << 32) |
      platform_memo_.Intern(names_, sample.platforminfo);
  Partial& partial = window_[key];
  partial.sketch.Add(sample.cpi, sample.cpu_usage);
  if (!sample.task.empty()) {
    partial.task_samples.emplace_back(TaskIdentityHash(sample.task), 1);
  }
}

void CellAggregator::EmitFrame(std::string* out) {
  SketchFrame frame;
  frame.cell_id = cell_id_;
  frame.sequence = sequence_++;

  // Emit partials in (jobname, platforminfo) order with a first-use name
  // dictionary: the frame bytes become a pure function of the window's
  // contents, independent of interner id assignment or map iteration order.
  std::vector<IdKey> keys;
  keys.reserve(window_.size());
  for (const auto& [key, unused] : window_) {
    keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end(), [this](IdKey a, IdKey b) {
    const std::string& job_a = names_.NameOf(static_cast<uint32_t>(a >> 32));
    const std::string& job_b = names_.NameOf(static_cast<uint32_t>(b >> 32));
    if (job_a != job_b) {
      return job_a < job_b;
    }
    return names_.NameOf(static_cast<uint32_t>(a)) < names_.NameOf(static_cast<uint32_t>(b));
  });

  std::unordered_map<uint32_t, uint32_t> dict;  // interner id -> frame index
  const auto frame_index = [&](uint32_t interned) {
    const auto [it, inserted] = dict.try_emplace(interned, static_cast<uint32_t>(dict.size()));
    if (inserted) {
      frame.names.push_back(names_.NameOf(interned));
    }
    return it->second;
  };

  frame.partials.reserve(keys.size());
  for (const IdKey key : keys) {
    Partial& window_partial = window_.at(key);
    SketchPartial partial;
    partial.job = frame_index(static_cast<uint32_t>(key >> 32));
    partial.platform = frame_index(static_cast<uint32_t>(key));
    partial.sketch = window_partial.sketch;
    // Canonicalize the per-sample append log: ascending hash, duplicate
    // hashes collapsed by summing counts (what the old per-sample map did).
    std::sort(window_partial.task_samples.begin(), window_partial.task_samples.end());
    partial.task_samples.reserve(window_partial.task_samples.size());
    for (const auto& [hash, count] : window_partial.task_samples) {
      if (!partial.task_samples.empty() && partial.task_samples.back().first == hash) {
        partial.task_samples.back().second += count;
      } else {
        partial.task_samples.emplace_back(hash, count);
      }
    }
    frame.partials.push_back(std::move(partial));
  }
  EncodeSketchFrame(frame, out);
  window_.clear();
}

void CellAggregator::DiscardWindow() { window_.clear(); }

// --- GlobalMerger -----------------------------------------------------------

GlobalMerger::GlobalMerger(const Cpi2Params& params) : params_(params) {}

Status GlobalMerger::MergeFrame(std::string_view bytes) {
  SketchFrame frame;
  SketchFrameDecodeStats stats;
  const Status status = DecodeSketchFrame(bytes, &frame, &stats);
  partials_dropped_ += stats.records_skipped;
  if (!status.ok()) {
    ++partials_dropped_;  // the whole frame: at least its header is gone
    return status;
  }
  for (SketchPartial& partial : frame.partials) {
    const IdKey key = MakeKey(names_.Intern(frame.names[partial.job]),
                              names_.Intern(frame.names[partial.platform]));
    MergedPartial& merged = window_[key];
    merged.sketch.Merge(partial.sketch);
    if (merged.task_samples.empty()) {
      merged.task_samples = std::move(partial.task_samples);
      continue;
    }
    // Both sides are ascending by hash (the decoder enforces it for the
    // incoming partial): linear merge, summing counts on hash collisions.
    merge_scratch_.clear();
    merge_scratch_.reserve(merged.task_samples.size() + partial.task_samples.size());
    auto a = merged.task_samples.begin();
    auto b = partial.task_samples.begin();
    while (a != merged.task_samples.end() && b != partial.task_samples.end()) {
      if (a->first < b->first) {
        merge_scratch_.push_back(*a++);
      } else if (b->first < a->first) {
        merge_scratch_.push_back(*b++);
      } else {
        merge_scratch_.emplace_back(a->first, a->second + b->second);
        ++a;
        ++b;
      }
    }
    merge_scratch_.insert(merge_scratch_.end(), a, merged.task_samples.end());
    merge_scratch_.insert(merge_scratch_.end(), b, partial.task_samples.end());
    merged.task_samples.swap(merge_scratch_);
  }
  return Status::Ok();
}

bool GlobalMerger::Eligible(const MergedPartial& merged) const {
  // SpecBuilder::Eligible restated over the sketch: distinct tasks via the
  // identity-hash union (exact across any cell partition), average samples
  // per task from the sketch's total count.
  if (static_cast<int>(merged.task_samples.size()) < params_.min_tasks_for_spec) {
    return false;
  }
  const double average = static_cast<double>(merged.sketch.count()) /
                         static_cast<double>(merged.task_samples.size());
  return average >= static_cast<double>(params_.min_samples_per_task);
}

bool GlobalMerger::NameOrderLess(IdKey a, IdKey b) const {
  const std::string& job_a = names_.NameOf(JobOf(a));
  const std::string& job_b = names_.NameOf(JobOf(b));
  if (job_a != job_b) {
    return job_a < job_b;
  }
  return names_.NameOf(PlatformOf(a)) < names_.NameOf(PlatformOf(b));
}

template <typename Map>
std::vector<GlobalMerger::IdKey> GlobalMerger::SortedKeys(const Map& map) const {
  std::vector<IdKey> keys;
  keys.reserve(map.size());
  for (const auto& [key, unused] : map) {
    keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end(), [this](IdKey a, IdKey b) { return NameOrderLess(a, b); });
  return keys;
}

std::vector<CpiSpec> GlobalMerger::BuildSpecs(uint64_t version) {
  // SpecBuilder::BuildShard's sequence, with the sketch supplying the
  // window moments: decay all history first, then per-key merge + build.
  for (auto& [key, history] : history_) {
    history.Decay(params_.history_weight);
  }
  std::vector<IdKey> built;
  for (auto& [key, merged] : window_) {
    SpecBuilder::MomentHistory& history = history_[key];
    const bool eligible_now = Eligible(merged);
    history.Merge(static_cast<double>(merged.sketch.count()), merged.sketch.cpi_mean(),
                  merged.sketch.cpi_m2(), merged.sketch.usage_mean());
    if (!eligible_now) {
      continue;
    }
    CpiSpec spec;
    spec.jobname = names_.NameOf(JobOf(key));
    spec.platforminfo = names_.NameOf(PlatformOf(key));
    spec.num_samples = static_cast<int64_t>(history.count);
    spec.cpu_usage_mean = history.usage_mean;
    spec.cpi_mean = history.mean;
    spec.cpi_stddev = std::sqrt(history.Variance());
    latest_specs_[key] = VersionedSpec{std::move(spec), version};
    built.push_back(key);
  }
  window_.clear();

  std::sort(built.begin(), built.end(),
            [this](IdKey a, IdKey b) { return NameOrderLess(a, b); });
  std::vector<CpiSpec> specs;
  specs.reserve(built.size());
  for (const IdKey key : built) {
    specs.push_back(latest_specs_.at(key).spec);
  }
  return specs;
}

std::optional<VersionedSpec> GlobalMerger::LatestSpec(
    const std::string& jobname, const std::string& platforminfo) const {
  const auto job = names_.Find(jobname);
  const auto platform = names_.Find(platforminfo);
  if (!job.has_value() || !platform.has_value()) {
    return std::nullopt;
  }
  const auto it = latest_specs_.find(MakeKey(*job, *platform));
  if (it == latest_specs_.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::vector<SpecBuilder::HistoryEntry> GlobalMerger::SnapshotHistory() const {
  std::vector<SpecBuilder::HistoryEntry> entries;
  entries.reserve(history_.size());
  for (const IdKey key : SortedKeys(history_)) {
    entries.push_back(SpecBuilder::HistoryEntry{
        {history_.at(key)}, {names_.NameOf(JobOf(key)), names_.NameOf(PlatformOf(key))}});
  }
  return entries;
}

std::vector<VersionedSpec> GlobalMerger::SnapshotLatestSpecs() const {
  std::vector<VersionedSpec> specs;
  specs.reserve(latest_specs_.size());
  for (const IdKey key : SortedKeys(latest_specs_)) {
    specs.push_back(latest_specs_.at(key));
  }
  return specs;
}

void GlobalMerger::RestoreSnapshot(const std::vector<SpecBuilder::HistoryEntry>& history,
                                   const std::vector<VersionedSpec>& specs) {
  history_.clear();
  latest_specs_.clear();
  window_.clear();
  for (const SpecBuilder::HistoryEntry& entry : history) {
    history_[MakeKey(names_.Intern(entry.key.jobname), names_.Intern(entry.key.platforminfo))] =
        entry;
  }
  for (const VersionedSpec& versioned : specs) {
    latest_specs_[MakeKey(names_.Intern(versioned.spec.jobname),
                          names_.Intern(versioned.spec.platforminfo))] = versioned;
  }
}

// --- HierarchicalAggregator -------------------------------------------------

HierarchicalAggregator::HierarchicalAggregator(const Cpi2Params& params)
    : params_(params), merger_(params), dedup_(params.sample_dedup_window) {
  const size_t cells =
      params.aggregation_cells < 1 ? 1 : static_cast<size_t>(params.aggregation_cells);
  cells_.reserve(cells);
  for (size_t i = 0; i < cells; ++i) {
    cells_.emplace_back(params, static_cast<uint32_t>(i));
  }
  cell_down_.assign(cells, false);
  cell_last_merge_.assign(cells, -1);
  frame_scratch_.resize(cells);
}

void HierarchicalAggregator::AddSample(size_t cell, const CpiSample& sample) {
  if (!dedup_.Admit(sample)) {
    return;
  }
  ++samples_seen_;
  cells_[cell % cells_.size()].AddSample(sample);
}

void HierarchicalAggregator::Tick(MicroTime now) {
  if (clock_.Due(now, params_.spec_update_interval)) {
    ForceBuild(now);
  }
}

std::vector<CpiSpec> HierarchicalAggregator::ForceBuild(MicroTime now) {
  clock_.RecordBuild(now);
  const uint64_t version = static_cast<uint64_t>(clock_.builds_completed);

  // Frame encoding is per-cell independent work (sort + serialize), so it
  // parallelizes; the fold below is serial but order-insensitive — sketch
  // merging is associative and commutative, so any schedule yields the same
  // merger state bit for bit.
  const auto encode_cell = [this](size_t i) {
    frame_scratch_[i].clear();
    if (cell_down_[i]) {
      cells_[i].DiscardWindow();  // a dead cell's window dies with it
    } else {
      cells_[i].EmitFrame(&frame_scratch_[i]);
    }
  };
  if (pool_ != nullptr && cells_.size() > 1) {
    pool_->ParallelFor(cells_.size(), encode_cell);
  } else {
    for (size_t i = 0; i < cells_.size(); ++i) {
      encode_cell(i);
    }
  }

  cells_reporting_ = 0;
  for (size_t i = 0; i < cells_.size(); ++i) {
    if (frame_scratch_[i].empty()) {
      continue;
    }
    if (merger_.MergeFrame(frame_scratch_[i]).ok()) {
      cell_last_merge_[i] = now;
      ++cells_reporting_;
    }
  }
  stalest_partial_age_ = 0;
  for (const MicroTime last : cell_last_merge_) {
    // A cell that has never reported is as stale as the whole run.
    const MicroTime age = last < 0 ? now : now - last;
    stalest_partial_age_ = std::max(stalest_partial_age_, age);
  }

  std::vector<CpiSpec> specs = merger_.BuildSpecs(version);
  if (callback_) {
    for (const CpiSpec& spec : specs) {
      callback_(spec, version);
    }
  }
  return specs;
}

void HierarchicalAggregator::SetCellDown(size_t cell, bool down) {
  if (cell < cell_down_.size()) {
    cell_down_[cell] = down;
  }
}

std::string HierarchicalAggregator::Checkpoint() const {
  CheckpointSection section;
  EncodeCheckpointSection(merger_.SnapshotHistory(), merger_.SnapshotLatestSpecs(), &section);
  std::string out;
  WriteCheckpoint(clock_, samples_seen_, dedup_, {&section, 1},
                  [&out](std::string_view chunk) { out.append(chunk); });
  return out;
}

Status HierarchicalAggregator::Restore(const std::string& checkpoint) {
  CheckpointState parsed;
  const Status status = DecodeCheckpoint(checkpoint, &parsed);
  if (!status.ok()) {
    return status;
  }
  merger_.RestoreSnapshot(parsed.history, parsed.specs);
  clock_ = parsed.clock;
  samples_seen_ = parsed.samples_seen;
  dedup_.Restore(parsed.watermark, parsed.dedup_entries);
  // The restart starts a new epoch: partials the cells accumulated against
  // the pre-crash merger must not replay, exactly as a flat restore drops
  // the builder's in-progress window.
  for (CellAggregator& cell : cells_) {
    cell.DiscardWindow();
  }
  return Status::Ok();
}

}  // namespace cpi2
