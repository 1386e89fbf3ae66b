#include "core/aggregator.h"

#include <sstream>

#include "util/file_util.h"
#include "util/string_util.h"
#include "wire/framing.h"

namespace cpi2 {
namespace {

// v2 adds the dedup state (W/D records) and per-shard record interleaving;
// v1 blobs (global H-then-S order, no dedup records) still load. Restoring
// a text blob and restoring the equivalent binary CPAGCKP3 blob yield
// bit-identical state (%.17g round-trips doubles exactly).
constexpr char kCheckpointHeaderV1[] = "cpi2-aggregator-ckpt-v1";
constexpr char kCheckpointHeaderV2[] = "cpi2-aggregator-ckpt-v2";

Status ParseTextCheckpoint(const std::string& checkpoint, CheckpointState* parsed) {
  std::istringstream in(checkpoint);
  std::string line;
  if (!std::getline(in, line) ||
      (line != kCheckpointHeaderV1 && line != kCheckpointHeaderV2)) {
    return InvalidArgumentError("aggregator checkpoint: missing or wrong header");
  }
  bool have_meta = false;
  int line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields_in(line);
    std::vector<std::string> fields;
    std::string field;
    while (std::getline(fields_in, field, '\t')) {
      fields.push_back(field);
    }
    const auto malformed = [&] {
      return InvalidArgumentError(
          StrFormat("aggregator checkpoint line %d: malformed record", line_number));
    };
    // Strict numeric parsing: a corrupted field must fail the restore with
    // the offending line, never silently come back as zero.
    const auto bad_number = [&](const std::string& value) {
      return InvalidArgumentError(
          StrFormat("aggregator checkpoint line %d: bad numeric field '%s'", line_number,
                    value.c_str()));
    };
    const auto parse_int = [&](const std::string& value, int64_t* out, Status* error) {
      if (!ParseInt64(value, out)) {
        *error = bad_number(value);
        return false;
      }
      return true;
    };
    const auto parse_double = [&](const std::string& value, double* out, Status* error) {
      if (!ParseDouble(value, out)) {
        *error = bad_number(value);
        return false;
      }
      return true;
    };
    Status error = Status::Ok();
    if (fields[0] == "M") {
      if (fields.size() != 4) {
        return malformed();
      }
      if (!parse_int(fields[1], &parsed->clock.last_build, &error) ||
          !parse_int(fields[2], &parsed->clock.builds_completed, &error) ||
          !parse_int(fields[3], &parsed->samples_seen, &error)) {
        return error;
      }
      have_meta = true;
    } else if (fields[0] == "W") {
      if (fields.size() != 2) {
        return malformed();
      }
      if (!parse_int(fields[1], &parsed->watermark, &error)) {
        return error;
      }
    } else if (fields[0] == "D") {
      if (fields.size() != 4) {
        return malformed();
      }
      SampleDedup::NamedEntry entry;
      if (!parse_int(fields[1], &entry.timestamp, &error)) {
        return error;
      }
      entry.machine = fields[2];
      entry.task = fields[3];
      parsed->dedup_entries.push_back(std::move(entry));
    } else if (fields[0] == "H") {
      if (fields.size() != 7) {
        return malformed();
      }
      SpecBuilder::HistoryEntry entry;
      entry.key.jobname = fields[1];
      entry.key.platforminfo = fields[2];
      if (!parse_double(fields[3], &entry.count, &error) ||
          !parse_double(fields[4], &entry.mean, &error) ||
          !parse_double(fields[5], &entry.m2, &error) ||
          !parse_double(fields[6], &entry.usage_mean, &error)) {
        return error;
      }
      parsed->history.push_back(std::move(entry));
    } else if (fields[0] == "S") {
      if (fields.size() != 7) {
        return malformed();
      }
      CpiSpec spec;
      spec.jobname = fields[1];
      spec.platforminfo = fields[2];
      if (!parse_int(fields[3], &spec.num_samples, &error) ||
          !parse_double(fields[4], &spec.cpu_usage_mean, &error) ||
          !parse_double(fields[5], &spec.cpi_mean, &error) ||
          !parse_double(fields[6], &spec.cpi_stddev, &error)) {
        return error;
      }
      parsed->specs.push_back(std::move(spec));
    } else {
      return InvalidArgumentError(
          StrFormat("aggregator checkpoint line %d: unknown record '%s'", line_number,
                    fields[0].c_str()));
    }
  }
  if (!have_meta) {
    return InvalidArgumentError("aggregator checkpoint: missing metadata record");
  }
  return Status::Ok();
}

}  // namespace

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

std::string Aggregator::CheckpointText() const {
  // Line-oriented records: M = metadata, W = dedup watermark, D = one dedup
  // window entry, H = one history entry, S = one latest spec. %.17g
  // round-trips doubles exactly, so restoring this text yields the state
  // the binary checkpoint restores. Rendered fresh every call: the shard
  // blob cache holds binary records only.
  std::string out = std::string(kCheckpointHeaderV2) + "\n";
  out += StrFormat("M\t%lld\t%lld\t%lld\n", static_cast<long long>(clock_.last_build),
                   static_cast<long long>(clock_.builds_completed),
                   static_cast<long long>(builder_.samples_seen()));
  out += StrFormat("W\t%lld\n", static_cast<long long>(dedup_.watermark()));
  for (const DedupWindow::Entry& key : dedup_.SortedEntries()) {
    out += StrFormat("D\t%lld\t%s\t%s\n", static_cast<long long>(key.timestamp),
                     dedup_.NameOf(key.machine).c_str(), dedup_.NameOf(key.task).c_str());
  }
  for (size_t shard = 0; shard < builder_.shard_count(); ++shard) {
    for (const SpecBuilder::HistoryEntry& entry : builder_.SnapshotShardHistory(shard)) {
      out += StrFormat("H\t%s\t%s\t%.17g\t%.17g\t%.17g\t%.17g\n", entry.key.jobname.c_str(),
                       entry.key.platforminfo.c_str(), entry.count, entry.mean, entry.m2,
                       entry.usage_mean);
    }
    for (const CpiSpec& spec : builder_.SnapshotShardLatestSpecs(shard)) {
      out += StrFormat("S\t%s\t%s\t%lld\t%.17g\t%.17g\t%.17g\n", spec.jobname.c_str(),
                       spec.platforminfo.c_str(), static_cast<long long>(spec.num_samples),
                       spec.cpu_usage_mean, spec.cpi_mean, spec.cpi_stddev);
    }
  }
  return out;
}

void Aggregator::WriteCheckpoint(const CheckpointSink& sink) const {
  WriteCheckpointHead(kFlatCheckpointMagic, clock_, builder_.samples_seen(), dedup_, sink);
  // Spec state, shard by shard: one framed H record and one framed S record
  // per shard. A shard whose durable state hasn't changed since the last
  // checkpoint replays its cached records, so steady-state checkpoints
  // between builds don't re-render every job.
  const size_t shards = builder_.shard_count();
  shard_blob_cache_.resize(shards);
  shard_blob_version_.resize(shards, 0);
  for (size_t shard = 0; shard < shards; ++shard) {
    const uint64_t version = builder_.shard_version(shard);
    std::string& blob = shard_blob_cache_[shard];
    if (shard_blob_version_[shard] != version) {
      blob.clear();
      AppendHistoryRecord(builder_.SnapshotShardHistory(shard), &blob);
      AppendSpecRecord(builder_.SnapshotShardLatestSpecs(shard), /*versions=*/nullptr, &blob);
      shard_blob_version_[shard] = version;
    }
    if (!blob.empty()) {
      sink(blob);
    }
  }
}

std::string Aggregator::Checkpoint() const {
  std::string out;
  WriteCheckpoint([&out](std::string_view chunk) { out.append(chunk); });
  return out;
}

Status Aggregator::Restore(const std::string& checkpoint) {
  // Auto-detect the encoding: binary blobs open with the CPAGCKP3 magic,
  // text blobs with a version header line.
  CheckpointState parsed;
  const Status status = HasWireMagic(checkpoint, kFlatCheckpointMagic)
                            ? DecodeCheckpoint(kFlatCheckpointMagic, checkpoint, &parsed)
                            : ParseTextCheckpoint(checkpoint, &parsed);
  if (!status.ok()) {
    return status;
  }
  builder_.RestoreSnapshot(parsed.history, parsed.specs, parsed.samples_seen);
  clock_ = parsed.clock;
  // v1 blobs carry no dedup state, so a v1 restore degrades to the old
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
