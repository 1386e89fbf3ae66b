#include "core/aggregator_checkpoint.h"

#include <unordered_map>

#include "util/string_util.h"
#include "wire/framing.h"

namespace cpi2 {
namespace {

constexpr uint8_t kMetaTag = 'M';
constexpr uint8_t kWatermarkTag = 'W';
constexpr uint8_t kDedupTag = 'D';
constexpr uint8_t kHistoryTag = 'H';
constexpr uint8_t kSpecTag = 'S';

constexpr size_t kSinkChunkBytes = 64 * 1024;
constexpr size_t kDedupEntriesPerRecord = 2048;

}  // namespace

void WriteCheckpointHead(std::string_view magic, const BuildClock& clock, int64_t samples_seen,
                         const SampleDedup& dedup,
                         const std::function<void(std::string_view)>& sink) {
  std::string buffer;
  AppendWireMagic(&buffer, magic);
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
  meta.PutZigzag(clock.last_build);
  meta.PutVarint(static_cast<uint64_t>(clock.builds_completed));
  meta.PutVarint(static_cast<uint64_t>(samples_seen));
  frame_out();

  WireWriter watermark(&payload);
  watermark.PutByte(kWatermarkTag);
  watermark.PutZigzag(dedup.watermark());
  frame_out();

  const std::vector<DedupWindow::Entry> dedup_entries = dedup.SortedEntries();
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
        names.PutString(dedup.NameOf(interned));
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
  }
}

void AppendHistoryRecord(const std::vector<SpecBuilder::HistoryEntry>& history,
                         std::string* out) {
  if (history.empty()) {
    return;
  }
  std::string payload;
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
  AppendFramedRecord(out, payload);
}

void AppendSpecRecord(const std::vector<CpiSpec>& specs, const std::vector<uint64_t>* versions,
                      std::string* out) {
  if (specs.empty()) {
    return;
  }
  std::string payload;
  WireWriter record(&payload);
  record.PutByte(kSpecTag);
  record.PutVarint(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    const CpiSpec& spec = specs[i];
    record.PutString(spec.jobname);
    record.PutString(spec.platforminfo);
    record.PutVarint(static_cast<uint64_t>(spec.num_samples));
    record.PutDouble(spec.cpu_usage_mean);
    record.PutDouble(spec.cpi_mean);
    record.PutDouble(spec.cpi_stddev);
    if (versions != nullptr) {
      record.PutVarint((*versions)[i]);
    }
  }
  AppendFramedRecord(out, payload);
}

Status DecodeCheckpoint(std::string_view magic, std::string_view blob, CheckpointState* state) {
  const bool versioned_specs = magic == kTieredCheckpointMagic;
  const char* const format = versioned_specs ? "hierarchical checkpoint" : "aggregator checkpoint";
  if (!HasWireMagic(blob, magic)) {
    return InvalidArgumentError(StrFormat("%s: missing or wrong magic", format));
  }
  bool have_meta = false;
  WireReader reader(blob.substr(kWireMagicSize));
  int record_number = 0;
  std::string_view payload;
  while (true) {
    ++record_number;
    const FrameResult frame = ReadFramedRecord(reader, &payload);
    if (frame == FrameResult::kEnd) {
      break;
    }
    const auto damaged = [&](const char* what) {
      return InvalidArgumentError(
          StrFormat("%s record %d: %s", format, record_number, what));
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
        state->clock.last_build = record.GetZigzag();
        state->clock.builds_completed = static_cast<int64_t>(record.GetVarint());
        state->samples_seen = static_cast<int64_t>(record.GetVarint());
        have_meta = true;
        break;
      case kWatermarkTag:
        state->watermark = record.GetZigzag();
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
          SampleDedup::NamedEntry entry;
          const uint64_t machine_idx = record.GetVarint();
          const uint64_t task_idx = record.GetVarint();
          entry.timestamp = prev + record.GetZigzag();
          prev = entry.timestamp;
          if (record.failed() || machine_idx >= names.size() || task_idx >= names.size()) {
            return damaged("malformed dedup entries");
          }
          entry.machine.assign(names[static_cast<size_t>(machine_idx)]);
          entry.task.assign(names[static_cast<size_t>(task_idx)]);
          state->dedup_entries.push_back(std::move(entry));
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
          state->history.push_back(std::move(entry));
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
          if (versioned_specs) {
            state->spec_versions.push_back(record.GetVarint());
          }
          if (record.failed()) {
            return damaged("malformed spec entries");
          }
          state->specs.push_back(std::move(spec));
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
  if (!have_meta) {
    return InvalidArgumentError(StrFormat("%s: missing metadata record", format));
  }
  return Status::Ok();
}

}  // namespace cpi2
