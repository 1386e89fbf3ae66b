#include "core/aggregator.h"

#include <sstream>
#include <unordered_map>

#include "util/file_util.h"
#include "util/string_util.h"
#include "wire/framing.h"

namespace cpi2 {
namespace {

// v2 adds the dedup state (W/D records) and per-shard record interleaving;
// v1 blobs (global H-then-S order, no dedup records) still load.
constexpr char kCheckpointHeaderV1[] = "cpi2-aggregator-ckpt-v1";
constexpr char kCheckpointHeaderV2[] = "cpi2-aggregator-ckpt-v2";
// v3 is the binary encoding: same logical records, framed with per-record
// CRCs (wire/framing.h), doubles as raw bits instead of %.17g. Restoring a
// v3 blob and restoring the equivalent v2 text yield bit-identical state.
constexpr char kCheckpointMagicV3[] = "CPAGCKP3";

// Record tags shared by the v2 text and v3 binary encodings: M = metadata,
// W = dedup watermark, D = dedup window entries, H = history entries,
// S = latest specs.
constexpr uint8_t kMetaTag = 'M';
constexpr uint8_t kWatermarkTag = 'W';
constexpr uint8_t kDedupTag = 'D';
constexpr uint8_t kHistoryTag = 'H';
constexpr uint8_t kSpecTag = 'S';

// Dedup records accumulate into a buffer and flush to the sink in chunks,
// so a large window never materializes as one giant string.
constexpr size_t kSinkChunkBytes = 64 * 1024;
// Dedup entries per framed binary 'D' record.
constexpr size_t kDedupEntriesPerRecord = 2048;

// Checkpoint state as parsed from either encoding, before any of it is
// applied (parse-all-then-apply keeps a failed restore side-effect free).
struct ParsedCheckpoint {
  bool have_meta = false;
  MicroTime last_build = -1;
  int64_t builds_completed = 0;
  int64_t samples_seen = 0;
  MicroTime watermark = 0;
  struct DedupEntry {
    MicroTime timestamp = 0;
    std::string machine;
    std::string task;
  };
  std::vector<DedupEntry> dedup_entries;
  std::vector<SpecBuilder::HistoryEntry> history;
  std::vector<CpiSpec> latest_specs;
};

Status ParseTextCheckpoint(const std::string& checkpoint, ParsedCheckpoint* parsed) {
  std::istringstream in(checkpoint);
  std::string line;
  if (!std::getline(in, line) ||
      (line != kCheckpointHeaderV1 && line != kCheckpointHeaderV2)) {
    return InvalidArgumentError("aggregator checkpoint: missing or wrong header");
  }
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
      if (!parse_int(fields[1], &parsed->last_build, &error) ||
          !parse_int(fields[2], &parsed->builds_completed, &error) ||
          !parse_int(fields[3], &parsed->samples_seen, &error)) {
        return error;
      }
      parsed->have_meta = true;
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
      ParsedCheckpoint::DedupEntry entry;
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
      parsed->latest_specs.push_back(std::move(spec));
    } else {
      return InvalidArgumentError(
          StrFormat("aggregator checkpoint line %d: unknown record '%s'", line_number,
                    fields[0].c_str()));
    }
  }
  return Status::Ok();
}

// A checkpoint is all-or-nothing (a half-restored aggregator is worse than
// none), so unlike the incident loader any damaged record rejects the blob —
// naming the record that was damaged.
Status ParseBinaryCheckpoint(std::string_view checkpoint, ParsedCheckpoint* parsed) {
  WireReader reader(checkpoint.substr(kWireMagicSize));
  int record_number = 0;
  std::string_view payload;
  while (true) {
    ++record_number;
    const FrameResult frame = ReadFramedRecord(reader, &payload);
    if (frame == FrameResult::kEnd) {
      return Status::Ok();
    }
    const auto damaged = [&](const char* what) {
      return InvalidArgumentError(
          StrFormat("aggregator checkpoint record %d: %s", record_number, what));
    };
    if (frame == FrameResult::kCorrupt) {
      return damaged("bad CRC");
    }
    if (frame == FrameResult::kTruncated) {
      return damaged("truncated");
    }
    WireReader record(payload);
    const uint8_t tag = record.GetByte();
    switch (tag) {
      case kMetaTag:
        parsed->last_build = record.GetZigzag();
        parsed->builds_completed = static_cast<int64_t>(record.GetVarint());
        parsed->samples_seen = static_cast<int64_t>(record.GetVarint());
        parsed->have_meta = true;
        break;
      case kWatermarkTag:
        parsed->watermark = record.GetZigzag();
        break;
      case kDedupTag: {
        const uint64_t name_count = record.GetVarint();
        if (record.failed() || name_count > record.remaining()) {
          return damaged("malformed dedup dictionary");
        }
        std::vector<std::string_view> names(static_cast<size_t>(name_count));
        for (auto& name : names) {
          name = record.GetString();
        }
        const uint64_t entry_count = record.GetVarint();
        if (record.failed() || entry_count > record.remaining()) {
          return damaged("malformed dedup entries");
        }
        MicroTime prev = 0;
        for (uint64_t i = 0; i < entry_count; ++i) {
          ParsedCheckpoint::DedupEntry entry;
          const uint64_t machine_idx = record.GetVarint();
          const uint64_t task_idx = record.GetVarint();
          entry.timestamp = prev + record.GetZigzag();
          prev = entry.timestamp;
          if (record.failed() || machine_idx >= names.size() || task_idx >= names.size()) {
            return damaged("malformed dedup entries");
          }
          entry.machine.assign(names[static_cast<size_t>(machine_idx)]);
          entry.task.assign(names[static_cast<size_t>(task_idx)]);
          parsed->dedup_entries.push_back(std::move(entry));
        }
        break;
      }
      case kHistoryTag: {
        const uint64_t entry_count = record.GetVarint();
        if (record.failed() || entry_count > record.remaining()) {
          return damaged("malformed history entries");
        }
        for (uint64_t i = 0; i < entry_count; ++i) {
          SpecBuilder::HistoryEntry entry;
          entry.key.jobname.assign(record.GetString());
          entry.key.platforminfo.assign(record.GetString());
          entry.count = record.GetDouble();
          entry.mean = record.GetDouble();
          entry.m2 = record.GetDouble();
          entry.usage_mean = record.GetDouble();
          if (record.failed()) {
            return damaged("malformed history entries");
          }
          parsed->history.push_back(std::move(entry));
        }
        break;
      }
      case kSpecTag: {
        const uint64_t spec_count = record.GetVarint();
        if (record.failed() || spec_count > record.remaining()) {
          return damaged("malformed spec entries");
        }
        for (uint64_t i = 0; i < spec_count; ++i) {
          CpiSpec spec;
          spec.jobname.assign(record.GetString());
          spec.platforminfo.assign(record.GetString());
          spec.num_samples = static_cast<int64_t>(record.GetVarint());
          spec.cpu_usage_mean = record.GetDouble();
          spec.cpi_mean = record.GetDouble();
          spec.cpi_stddev = record.GetDouble();
          if (record.failed()) {
            return damaged("malformed spec entries");
          }
          parsed->latest_specs.push_back(std::move(spec));
        }
        break;
      }
      default:
        return damaged("unknown record tag");
    }
    if (record.failed()) {
      return damaged("record underran its payload");
    }
  }
}

}  // namespace

void Aggregator::AddSample(const CpiSample& sample) {
  if (params_.sample_dedup_window > 0 && !sample.machine.empty()) {
    if (sample.timestamp > dedup_watermark_) {
      dedup_watermark_ = sample.timestamp;
      // Prune entries older than the window; timestamps only move forward,
      // so the set stays bounded by window x arrival rate.
      recent_samples_.PruneOlderThan(dedup_watermark_ - params_.sample_dedup_window);
    }
    if (!recent_samples_.Insert(sample.timestamp,
                                machine_memo_.Intern(dedup_ids_, sample.machine),
                                task_memo_.Intern(dedup_ids_, sample.task))) {
      ++duplicates_dropped_;
      return;
    }
  }
  builder_.StageSample(sample);
}

void Aggregator::Tick(MicroTime now) {
  // Apply the tick's staged batch across the builder shards (in parallel
  // when a pool is attached) before any build can close the window.
  builder_.FlushStaged(pool_);
  if (last_build_ < 0) {
    // First tick: start the clock; the first build lands one interval later.
    last_build_ = now;
    return;
  }
  if (now - last_build_ >= params_.spec_update_interval) {
    ForceBuild(now);
  }
}

std::vector<CpiSpec> Aggregator::ForceBuild(MicroTime now) {
  last_build_ = now;
  ++builds_completed_;
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
  out += StrFormat("M\t%lld\t%lld\t%lld\n", static_cast<long long>(last_build_),
                   static_cast<long long>(builds_completed_),
                   static_cast<long long>(builder_.samples_seen()));
  out += StrFormat("W\t%lld\n", static_cast<long long>(dedup_watermark_));
  for (const DedupWindow::Entry& key : recent_samples_.SortedEntries()) {
    out += StrFormat("D\t%lld\t%s\t%s\n", static_cast<long long>(key.timestamp),
                     dedup_ids_.NameOf(key.machine).c_str(),
                     dedup_ids_.NameOf(key.task).c_str());
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
  std::string buffer;
  AppendWireMagic(&buffer, kCheckpointMagicV3);
  std::string payload;
  const auto frame_out = [&] {
    AppendFramedRecord(&buffer, payload);
    payload.clear();
    if (buffer.size() >= kSinkChunkBytes) {
      sink(buffer);
      buffer.clear();
    }
  };

  WireWriter meta(&payload);
  meta.PutByte(kMetaTag);
  meta.PutZigzag(last_build_);
  meta.PutVarint(static_cast<uint64_t>(builds_completed_));
  meta.PutVarint(static_cast<uint64_t>(builder_.samples_seen()));
  frame_out();

  WireWriter watermark(&payload);
  watermark.PutByte(kWatermarkTag);
  watermark.PutZigzag(dedup_watermark_);
  frame_out();

  // Dedup window, chunked into framed records of bounded size; each record
  // carries its own machine/task-name dictionary and timestamp delta chain,
  // so records stay independently decodable.
  const std::vector<DedupWindow::Entry> dedup_entries = recent_samples_.SortedEntries();
  auto dedup_it = dedup_entries.begin();
  while (dedup_it != dedup_entries.end()) {
    std::unordered_map<uint32_t, uint32_t> local_ids;  // interner id -> record idx
    std::string names_buf;
    std::string entries_buf;
    WireWriter names(&names_buf);
    WireWriter entries(&entries_buf);
    const auto local_index = [&](uint32_t interned) {
      const auto [it, inserted] =
          local_ids.try_emplace(interned, static_cast<uint32_t>(local_ids.size()));
      if (inserted) {
        names.PutString(dedup_ids_.NameOf(interned));
      }
      return it->second;
    };
    size_t count = 0;
    MicroTime prev = 0;
    for (; dedup_it != dedup_entries.end() && count < kDedupEntriesPerRecord;
         ++dedup_it, ++count) {
      entries.PutVarint(local_index(dedup_it->machine));
      entries.PutVarint(local_index(dedup_it->task));
      entries.PutZigzag(dedup_it->timestamp - prev);
      prev = dedup_it->timestamp;
    }
    WireWriter record(&payload);
    record.PutByte(kDedupTag);
    record.PutVarint(local_ids.size());
    payload.append(names_buf);
    record.PutVarint(count);
    payload.append(entries_buf);
    frame_out();
  }
  if (!buffer.empty()) {
    sink(buffer);
    buffer.clear();
  }

  // Spec state, shard by shard: one framed H record and one framed S record
  // per shard. A shard whose durable state hasn't changed since the last
  // checkpoint replays its cached records, so steady-state checkpoints
  // between builds don't re-render every job.
  const size_t shards = builder_.shard_count();
  shard_blob_cache_.resize(shards);
  shard_blob_version_.resize(shards, 0);
  for (size_t shard = 0; shard < shards; ++shard) {
    const uint64_t version = builder_.shard_version(shard);
    if (shard_blob_version_[shard] != version) {
      std::string& blob = shard_blob_cache_[shard];
      blob.clear();
      const std::vector<SpecBuilder::HistoryEntry> history =
          builder_.SnapshotShardHistory(shard);
      const std::vector<CpiSpec> specs = builder_.SnapshotShardLatestSpecs(shard);
      if (!history.empty()) {
        WireWriter record(&payload);
        record.PutByte(kHistoryTag);
        record.PutVarint(history.size());
        for (const SpecBuilder::HistoryEntry& entry : history) {
          record.PutString(entry.key.jobname);
          record.PutString(entry.key.platforminfo);
          record.PutDouble(entry.count);
          record.PutDouble(entry.mean);
          record.PutDouble(entry.m2);
          record.PutDouble(entry.usage_mean);
        }
        AppendFramedRecord(&blob, payload);
        payload.clear();
      }
      if (!specs.empty()) {
        WireWriter record(&payload);
        record.PutByte(kSpecTag);
        record.PutVarint(specs.size());
        for (const CpiSpec& spec : specs) {
          record.PutString(spec.jobname);
          record.PutString(spec.platforminfo);
          record.PutVarint(static_cast<uint64_t>(spec.num_samples));
          record.PutDouble(spec.cpu_usage_mean);
          record.PutDouble(spec.cpi_mean);
          record.PutDouble(spec.cpi_stddev);
        }
        AppendFramedRecord(&blob, payload);
        payload.clear();
      }
      shard_blob_version_[shard] = version;
    }
    if (!shard_blob_cache_[shard].empty()) {
      sink(shard_blob_cache_[shard]);
    }
  }
}

std::string Aggregator::Checkpoint() const {
  std::string out;
  WriteCheckpoint([&out](std::string_view chunk) { out.append(chunk); });
  return out;
}

Status Aggregator::Restore(const std::string& checkpoint) {
  // Auto-detect the encoding: binary blobs open with the v3 magic, text
  // blobs with a version header line. A restored aggregator's state is
  // bit-identical either way.
  ParsedCheckpoint parsed;
  const Status status = HasWireMagic(checkpoint, kCheckpointMagicV3)
                            ? ParseBinaryCheckpoint(checkpoint, &parsed)
                            : ParseTextCheckpoint(checkpoint, &parsed);
  if (!status.ok()) {
    return status;
  }
  if (!parsed.have_meta) {
    return InvalidArgumentError("aggregator checkpoint: missing metadata record");
  }
  builder_.RestoreSnapshot(parsed.history, parsed.latest_specs, parsed.samples_seen);
  last_build_ = parsed.last_build;
  builds_completed_ = parsed.builds_completed;
  // Dedup state comes back from the checkpoint (v1 blobs carry none, so a
  // v1 restore degrades to the old re-accept-after-crash behaviour).
  recent_samples_.Clear();
  dedup_watermark_ = parsed.watermark;
  for (const ParsedCheckpoint::DedupEntry& entry : parsed.dedup_entries) {
    recent_samples_.Insert(entry.timestamp, dedup_ids_.Intern(entry.machine),
                           dedup_ids_.Intern(entry.task));
  }
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
