#include "core/aggregator.h"

#include "util/file_util.h"

namespace cpi2 {

void Aggregator::AddSample(const CpiSample& sample) {
  if (dedup_.Admit(sample)) {
    builder_.StageSample(sample);
  }
}

void Aggregator::Tick(MicroTime now) {
  // Apply the tick's staged batch across the builder shards (in parallel
  // when a pool is attached) before any build can close the window.
  builder_.FlushStaged(pool_);
  if (clock_.Due(now, params_.spec_update_interval)) {
    ForceBuild(now);
  }
}

std::vector<CpiSpec> Aggregator::ForceBuild(MicroTime now) {
  clock_.RecordBuild(now);
  std::vector<CpiSpec> specs = builder_.BuildSpecs(pool_);
  if (callback_) {
    for (const CpiSpec& spec : specs) {
      callback_(spec);
    }
  }
  return specs;
}

void Aggregator::WriteCheckpoint(const CheckpointSink& sink) const {
  // Spec state, shard by shard: one H and one S record per shard. A shard
  // whose durable state hasn't changed since the last checkpoint replays
  // its cached section, so steady-state checkpoints between builds don't
  // re-render every job.
  const size_t shards = builder_.shard_count();
  shard_sections_.resize(shards);
  shard_section_version_.resize(shards, 0);
  for (size_t shard = 0; shard < shards; ++shard) {
    const uint64_t version = builder_.shard_version(shard);
    if (shard_section_version_[shard] != version) {
      EncodeCheckpointSection(builder_.SnapshotShardHistory(shard),
                              builder_.SnapshotShardLatestSpecs(shard), &shard_sections_[shard]);
      shard_section_version_[shard] = version;
    }
  }
  cpi2::WriteCheckpoint(clock_, builder_.samples_seen(), dedup_, shard_sections_, sink);
}

std::string Aggregator::Checkpoint() const {
  std::string out;
  WriteCheckpoint([&out](std::string_view chunk) { out.append(chunk); });
  return out;
}

Status Aggregator::Restore(const std::string& checkpoint) {
  CheckpointState parsed;
  const Status status = DecodeCheckpoint(checkpoint, &parsed);
  if (!status.ok()) {
    return status;
  }
  // Resuming the version count at the restored build count keeps a spec's
  // version equal to the build that produced it.
  builder_.RestoreSnapshot(parsed.history, parsed.specs, parsed.samples_seen,
                           static_cast<uint64_t>(parsed.clock.builds_completed));
  clock_ = parsed.clock;
  // Text v1 blobs carry no dedup state, so a v1 restore degrades to the old
  // re-accept-after-crash behaviour.
  dedup_.Restore(parsed.watermark, parsed.dedup_entries);
  return Status::Ok();
}

Status Aggregator::SaveCheckpoint(const std::string& path) const {
  // Materialize then write atomically: a crash mid-save must never replace
  // the previous good checkpoint with a torn one.
  return AtomicWriteFile(path, Checkpoint());
}

Status Aggregator::LoadCheckpoint(const std::string& path) {
  StatusOr<std::string> contents = ReadFileToString(path);
  if (!contents.ok()) {
    return contents.status();
  }
  return Restore(*contents);
}

}  // namespace cpi2
