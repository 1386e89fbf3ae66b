#include "core/aggregator_checkpoint.h"

#include <algorithm>
#include <sstream>
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
constexpr uint8_t kEndTag = 'E';

constexpr size_t kSinkChunkBytes = 64 * 1024;
constexpr size_t kDedupEntriesPerRecord = 2048;

// v2 adds the dedup state (W/D records); v1 blobs (no dedup records) still
// load. %.17g text round-trips doubles exactly.
constexpr char kTextHeaderV1[] = "cpi2-aggregator-ckpt-v1";
constexpr char kTextHeaderV2[] = "cpi2-aggregator-ckpt-v2";

Status ParseTextCheckpoint(std::string_view checkpoint, CheckpointState* parsed) {
  std::istringstream in{std::string(checkpoint)};
  std::string line;
  if (!std::getline(in, line) || (line != kTextHeaderV1 && line != kTextHeaderV2)) {
    return InvalidArgumentError("aggregator checkpoint: missing or wrong header");
  }
  parsed->format = line;
  bool have_meta = false;
  for (int line_number = 2; std::getline(in, line); ++line_number) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields_in(line);
    std::vector<std::string> f;
    for (std::string field; std::getline(fields_in, field, '\t');) {
      f.push_back(field);
    }
    const auto error = [&](const std::string& what) {
      return InvalidArgumentError(
          StrFormat("aggregator checkpoint line %d: %s", line_number, what.c_str()));
    };
    // Strict numeric parsing: a corrupted field must fail the restore with
    // the offending line, never silently come back as zero.
    const std::string* bad = nullptr;
    const auto int_at = [&](size_t i, int64_t* out) {
      if (!ParseInt64(f[i], out) && bad == nullptr) {
        bad = &f[i];
      }
    };
    const auto double_at = [&](size_t i, double* out) {
      if (!ParseDouble(f[i], out) && bad == nullptr) {
        bad = &f[i];
      }
    };
    const std::string& tag = f[0];
    const size_t want = tag == "M" || tag == "D" ? 4 : tag == "W" ? 2 : 7;
    if (tag != "M" && tag != "W" && tag != "D" && tag != "H" && tag != "S") {
      return error(StrFormat("unknown record '%s'", tag.c_str()));
    }
    if (f.size() != want) {
      return error("malformed record");
    }
    if (tag == "M") {
      int_at(1, &parsed->clock.last_build);
      int_at(2, &parsed->clock.builds_completed);
      int_at(3, &parsed->samples_seen);
      have_meta = true;
    } else if (tag == "W") {
      int_at(1, &parsed->watermark);
    } else if (tag == "D") {
      SampleDedup::NamedEntry& entry = parsed->dedup_entries.emplace_back();
      int_at(1, &entry.timestamp);
      entry.machine = f[2];
      entry.task = f[3];
    } else if (tag == "H") {
      SpecBuilder::HistoryEntry& entry = parsed->history.emplace_back();
      entry.key = {f[1], f[2]};
      double_at(3, &entry.count);
      double_at(4, &entry.mean);
      double_at(5, &entry.m2);
      double_at(6, &entry.usage_mean);
    } else {
      CpiSpec& spec = parsed->specs.emplace_back().spec;
      spec.jobname = f[1];
      spec.platforminfo = f[2];
      int_at(3, &spec.num_samples);
      double_at(4, &spec.cpu_usage_mean);
      double_at(5, &spec.cpi_mean);
      double_at(6, &spec.cpi_stddev);
    }
    if (bad != nullptr) {
      return error(StrFormat("bad numeric field '%s'", bad->c_str()));
    }
  }
  if (!have_meta) {
    return InvalidArgumentError("aggregator checkpoint: missing metadata record");
  }
  return Status::Ok();
}

// Decodes the framed records after `magic`. `versioned_specs`: S entries end
// in a version. `end_record`: the blob must close with a matching E record.
Status DecodeBinaryCheckpoint(std::string_view blob, std::string_view magic,
                              bool versioned_specs, bool end_record, CheckpointState* state) {
  state->format.assign(magic);
  const std::string format = StrFormat("%s checkpoint", state->format.c_str());
  bool have_meta = false;
  bool have_end = false;
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
          StrFormat("%s record %d: %s", format.c_str(), record_number, what));
    };
    if (frame == FrameResult::kCorrupt) {
      return damaged("bad CRC");
    }
    if (frame == FrameResult::kTruncated) {
      return damaged("truncated");
    }
    if (have_end) {
      return damaged("record after the end record");
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
          VersionedSpec versioned;
          CpiSpec& spec = versioned.spec;
          spec.jobname.assign(record.GetString());
          spec.platforminfo.assign(record.GetString());
          spec.num_samples = static_cast<int64_t>(record.GetVarint());
          spec.cpu_usage_mean = record.GetDouble();
          spec.cpi_mean = record.GetDouble();
          spec.cpi_stddev = record.GetDouble();
          if (versioned_specs) {
            versioned.version = record.GetVarint();
          }
          if (record.failed() || (versioned_specs && versioned.version == 0)) {
            return damaged("malformed spec entries");
          }
          state->specs.push_back(std::move(versioned));
        }
        break;
      }
      case kEndTag:
        if (!end_record) {
          return damaged("unknown record tag");
        }
        if (record.GetVarint() != static_cast<uint64_t>(record_number - 1)) {
          return damaged("end record miscounts the records");
        }
        have_end = true;
        break;
      default:
        return damaged("unknown record tag");
    }
    if (record.failed()) {
      return damaged("record underran its payload");
    }
  }
  if (!have_meta) {
    return InvalidArgumentError(StrFormat("%s: missing metadata record", format.c_str()));
  }
  if (end_record && !have_end) {
    return InvalidArgumentError(StrFormat("%s: missing end record", format.c_str()));
  }
  return Status::Ok();
}

}  // namespace

void EncodeCheckpointSection(const std::vector<SpecBuilder::HistoryEntry>& history,
                             const std::vector<VersionedSpec>& specs,
                             CheckpointSection* section) {
  section->records.clear();
  section->record_count = 0;
  std::string payload;
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
    AppendFramedRecord(&section->records, payload);
    ++section->record_count;
  }
  if (!specs.empty()) {
    payload.clear();
    WireWriter record(&payload);
    record.PutByte(kSpecTag);
    record.PutVarint(specs.size());
    for (const VersionedSpec& versioned : specs) {
      const CpiSpec& spec = versioned.spec;
      record.PutString(spec.jobname);
      record.PutString(spec.platforminfo);
      record.PutVarint(static_cast<uint64_t>(spec.num_samples));
      record.PutDouble(spec.cpu_usage_mean);
      record.PutDouble(spec.cpi_mean);
      record.PutDouble(spec.cpi_stddev);
      record.PutVarint(versioned.version);
    }
    AppendFramedRecord(&section->records, payload);
    ++section->record_count;
  }
}

void WriteCheckpoint(const BuildClock& clock, int64_t samples_seen, const SampleDedup& dedup,
                     std::span<const CheckpointSection> sections,
                     const std::function<void(std::string_view)>& sink) {
  std::string buffer;
  AppendWireMagic(&buffer, kCheckpointMagic);
  uint64_t records = 0;
  std::string payload;
  const auto frame_out = [&] {
    AppendFramedRecord(&buffer, payload);
    payload.clear();
    ++records;
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

  // Sections go to the sink whole: the flat writer caches one per shard,
  // so handing it over directly avoids a copy through the buffer.
  for (const CheckpointSection& section : sections) {
    if (section.records.empty()) {
      continue;
    }
    if (!buffer.empty()) {
      sink(buffer);
      buffer.clear();
    }
    sink(section.records);
    records += static_cast<uint64_t>(section.record_count);
  }

  WireWriter end(&payload);
  end.PutByte(kEndTag);
  end.PutVarint(records);
  AppendFramedRecord(&buffer, payload);
  sink(buffer);
}

Status DecodeCheckpoint(std::string_view blob, CheckpointState* state) {
  struct BinaryFormat {
    const char* magic;
    bool versioned_specs;
    bool end_record;
  };
  static constexpr BinaryFormat kFormats[] = {{kCheckpointMagic, true, true},
                                              {kCheckpointMagicV1Tiered, true, false},
                                              {kCheckpointMagicV3Flat, false, false}};
  bool versioned = false;
  Status status = Status::Ok();
  const auto binary =
      std::find_if(std::begin(kFormats), std::end(kFormats),
                   [&](const BinaryFormat& format) { return HasWireMagic(blob, format.magic); });
  if (binary != std::end(kFormats)) {
    versioned = binary->versioned_specs;
    status = DecodeBinaryCheckpoint(blob, binary->magic, versioned, binary->end_record, state);
  } else {
    status = ParseTextCheckpoint(blob, state);
  }
  if (!status.ok() || versioned) {
    return status;
  }
  // A version-less spec came from one of the builds the checkpoint counts:
  // stamping it with the newest keeps every version real (>= 1) and no
  // newer than the next build's.
  const auto version = static_cast<uint64_t>(std::max<int64_t>(1, state->clock.builds_completed));
  for (VersionedSpec& versioned_spec : state->specs) {
    versioned_spec.version = version;
  }
  return Status::Ok();
}

}  // namespace cpi2
