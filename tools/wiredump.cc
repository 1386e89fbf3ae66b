// wiredump: pretty-prints any CPI2 binary wire/storage artifact.
//
// Sniffs the 8-byte magic and renders the file for humans:
//   CPI2SMB1  sample batch      -> one row per sample
//   CPI2INC2  incident log v2   -> one row per incident + skip report
//   CPI2HAG2, CPI2HAG1, CPAGCKP3  aggregator checkpoint -> build clock,
//             dedup window, history and specs (with versions), as decoded
//   CPI2NET1  captured socket stream -> one line per frame, with the BYTE
//             OFFSET of any corrupt or truncated frame (triage for tcpdump
//             captures of the agentd->aggregatord data plane)
//   CPI2SKT1  partial-spec frame (cell -> global tier) -> one row per
//             job x platform partial with the sketch's derived moments
// Text checkpoints (cpi2-aggregator-ckpt-v*) render like the binary ones.
// Other text-era files (cpi2-incidents-v1, cpi2-samples-v1) are already
// human-readable and are echoed through.
//
// Usage: wiredump [--summary] <file> [file...]
//        wiredump -            (read one artifact from stdin)
//
// --summary suppresses per-record output: CPI2NET1 streams get a per-type
// frame/byte table plus corrupt/truncated tallies and total samples carried
// (triage for multi-megabyte captures of the pipelined path); the other
// formats print just their headline counts.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/aggregator_checkpoint.h"
#include "core/incident.h"
#include "net/frame.h"
#include "util/file_util.h"
#include "util/status.h"
#include "wire/framing.h"
#include "wire/incident_codec.h"
#include "wire/sample_codec.h"
#include "wire/sketch_codec.h"

namespace {

using namespace cpi2;  // NOLINT: tool brevity

bool g_summary = false;

int DumpSampleBatch(const std::string& contents) {
  std::vector<CpiSample> samples;
  const Status status = DecodeSampleBatch(contents, &samples);
  if (!status.ok()) {
    std::fprintf(stderr, "undecodable sample batch: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("sample batch: %zu samples, %zu bytes (%.1f bytes/sample)\n",
              samples.size(), contents.size(),
              samples.empty() ? 0.0
                              : static_cast<double>(contents.size()) /
                                    static_cast<double>(samples.size()));
  if (g_summary) {
    return 0;
  }
  std::printf("%-14s %-24s %-20s %-14s %8s %8s %10s\n", "timestamp", "task", "job",
              "machine", "cpu", "cpi", "l3miss/i");
  for (const CpiSample& sample : samples) {
    std::printf("%-14lld %-24s %-20s %-14s %8.4f %8.4f %10.6f\n",
                static_cast<long long>(sample.timestamp), sample.task.c_str(),
                sample.jobname.c_str(), sample.machine.c_str(), sample.cpu_usage,
                sample.cpi, sample.l3_miss_per_instruction);
  }
  return 0;
}

int DumpIncidentFile(const std::string& contents) {
  std::vector<Incident> incidents;
  IncidentDecodeStats stats;
  const Status status = DecodeIncidentFile(contents, &incidents, &stats);
  if (!status.ok()) {
    std::fprintf(stderr, "undecodable incident file: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("incident file: %zu incidents, %zu bytes", incidents.size(),
              contents.size());
  if (stats.records_skipped > 0) {
    std::printf(", %lld records lost to damage",
                static_cast<long long>(stats.records_skipped));
  }
  std::printf("\n");
  for (const std::string& reason : stats.skip_reasons) {
    std::printf("  !! %s\n", reason.c_str());
  }
  if (g_summary) {
    return 0;
  }
  for (const Incident& incident : incidents) {
    std::printf("t=%-14lld %-12s victim=%s cpi=%.3f thr=%.3f action=%d target=%s\n",
                static_cast<long long>(incident.timestamp), incident.machine.c_str(),
                incident.victim_task.c_str(), incident.victim_cpi,
                incident.cpi_threshold, static_cast<int>(incident.action),
                incident.action_target.c_str());
    for (const Suspect& suspect : incident.suspects) {
      std::printf("    suspect %-24s %-16s corr=%.3f\n", suspect.task.c_str(),
                  suspect.jobname.c_str(), suspect.correlation);
    }
  }
  return 0;
}

int DumpCheckpoint(const std::string& contents) {
  // Every format decodes to one CheckpointState, so every format renders
  // the same way; doubles print with %.17g, which round-trips exactly.
  CheckpointState state;
  const Status status = DecodeCheckpoint(contents, &state);
  if (!status.ok()) {
    std::fprintf(stderr, "undecodable checkpoint: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("aggregator checkpoint %s (%zu bytes): last_build=%lld builds=%lld "
              "samples_seen=%lld watermark=%lld dedup=%zu history=%zu specs=%zu\n",
              state.format.c_str(), contents.size(),
              static_cast<long long>(state.clock.last_build),
              static_cast<long long>(state.clock.builds_completed),
              static_cast<long long>(state.samples_seen),
              static_cast<long long>(state.watermark), state.dedup_entries.size(),
              state.history.size(), state.specs.size());
  if (g_summary) {
    return 0;
  }
  for (const SampleDedup::NamedEntry& entry : state.dedup_entries) {
    std::printf("  D %lld %s %s\n", static_cast<long long>(entry.timestamp),
                entry.machine.c_str(), entry.task.c_str());
  }
  for (const SpecBuilder::HistoryEntry& entry : state.history) {
    std::printf("  H %s %s count=%.17g mean=%.17g m2=%.17g usage_mean=%.17g\n",
                entry.key.jobname.c_str(), entry.key.platforminfo.c_str(), entry.count,
                entry.mean, entry.m2, entry.usage_mean);
  }
  for (const VersionedSpec& versioned : state.specs) {
    const CpiSpec& spec = versioned.spec;
    std::printf("  S %s %s version=%llu n=%lld usage=%.17g mean=%.17g stddev=%.17g\n",
                spec.jobname.c_str(), spec.platforminfo.c_str(),
                static_cast<unsigned long long>(versioned.version),
                static_cast<long long>(spec.num_samples), spec.cpu_usage_mean, spec.cpi_mean,
                spec.cpi_stddev);
  }
  return 0;
}

int DumpSketchFrame(const std::string& contents) {
  SketchFrame frame;
  SketchFrameDecodeStats stats;
  const Status status = DecodeSketchFrame(contents, &frame, &stats);
  if (!status.ok()) {
    std::fprintf(stderr, "undecodable sketch frame: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("sketch frame: cell=%u seq=%llu, %zu partials, %zu bytes",
              frame.cell_id, static_cast<unsigned long long>(frame.sequence),
              frame.partials.size(), contents.size());
  if (stats.records_skipped > 0) {
    std::printf(", %lld partials lost to damage",
                static_cast<long long>(stats.records_skipped));
  }
  std::printf("\n");
  if (g_summary) {
    return stats.records_skipped > 0 ? 1 : 0;
  }
  std::printf("%-24s %-20s %10s %6s %8s %8s %8s %8s %8s\n", "job", "platform",
              "samples", "tasks", "cpi_mean", "cpi_sd", "usage", "~p50", "~p99");
  for (const SketchPartial& partial : frame.partials) {
    const auto name = [&frame](uint32_t index) -> const char* {
      return index < frame.names.size() ? frame.names[index].c_str() : "<bad-index>";
    };
    const CpiSketch& sketch = partial.sketch;
    std::printf("%-24s %-20s %10llu %6zu %8.4f %8.4f %8.4f %8.4f %8.4f\n",
                name(partial.job), name(partial.platform),
                static_cast<unsigned long long>(sketch.count()),
                partial.task_samples.size(), sketch.cpi_mean(),
                std::sqrt(sketch.cpi_variance()), sketch.usage_mean(),
                sketch.ApproxQuantile(0.5), sketch.ApproxQuantile(0.99));
    if (sketch.underflow() > 0 || sketch.overflow() > 0) {
      std::printf("    histogram out of range: %llu underflow, %llu overflow\n",
                  static_cast<unsigned long long>(sketch.underflow()),
                  static_cast<unsigned long long>(sketch.overflow()));
    }
  }
  return stats.records_skipped > 0 ? 1 : 0;
}

// Renders one CPI2NET1 frame payload as a single line.
void PrintNetFrame(size_t offset, std::string_view payload) {
  FrameType type;
  if (!ParseFrameType(payload, &type)) {
    std::printf("%08zu  ?? unknown tag 0x%02x (%zu bytes)\n", offset,
                static_cast<unsigned>(static_cast<unsigned char>(payload.empty() ? 0 : payload[0])),
                payload.size());
    return;
  }
  switch (type) {
    case FrameType::kHello:
    case FrameType::kHelloAck: {
      HelloFrame hello;
      bool is_ack = false;
      if (ParseHelloPayload(payload, &hello, &is_ack)) {
        std::printf("%08zu  %-10s v%u role=%c peer=%s flags=0x%llx\n", offset,
                    is_ack ? "hello-ack" : "hello", hello.version,
                    static_cast<char>(hello.role), hello.peer_name.c_str(),
                    static_cast<unsigned long long>(hello.feature_flags));
      } else {
        std::printf("%08zu  hello (malformed payload, %zu bytes)\n", offset, payload.size());
      }
      return;
    }
    case FrameType::kSampleBatch: {
      uint64_t seq = 0;
      uint64_t consumed = 0;
      std::string_view raw;
      if (ParseSampleBatchPayload(payload, &seq, &consumed, &raw)) {
        std::vector<CpiSample> samples;
        const bool decodes = DecodeSampleBatch(raw, &samples).ok();
        std::printf("%08zu  batch      seq=%llu consumed=%llu samples=%zu inner=%zuB%s\n",
                    offset, static_cast<unsigned long long>(seq),
                    static_cast<unsigned long long>(consumed), samples.size(), raw.size(),
                    decodes ? "" : " [INNER BATCH UNDECODABLE]");
      } else {
        std::printf("%08zu  batch (malformed payload, %zu bytes)\n", offset, payload.size());
      }
      return;
    }
    case FrameType::kBatchAck: {
      BatchAckFrame ack;
      if (ParseBatchAckPayload(payload, &ack)) {
        std::printf("%08zu  batch-ack  seq=%llu delivered=%u lost=%u%s\n", offset,
                    static_cast<unsigned long long>(ack.seq), ack.delivered, ack.lost,
                    ack.decode_failed ? " DECODE-FAILED" : "");
      } else {
        std::printf("%08zu  batch-ack (malformed payload)\n", offset);
      }
      return;
    }
    case FrameType::kHeartbeat:
    case FrameType::kHeartbeatAck: {
      MicroTime send_time = 0;
      bool is_ack = false;
      if (ParseHeartbeatPayload(payload, &send_time, &is_ack)) {
        std::printf("%08zu  %-10s t=%lld\n", offset, is_ack ? "pong" : "ping",
                    static_cast<long long>(send_time));
      } else {
        std::printf("%08zu  heartbeat (malformed payload)\n", offset);
      }
      return;
    }
    case FrameType::kGoaway: {
      std::string_view reason;
      if (ParseGoawayPayload(payload, &reason)) {
        std::printf("%08zu  goaway     \"%.*s\"\n", offset, static_cast<int>(reason.size()),
                    reason.data());
      } else {
        std::printf("%08zu  goaway (malformed payload)\n", offset);
      }
      return;
    }
  }
}

// Per-frame-type rollup for --summary: one row per type, wire bytes
// measured as consumed stream offset (varint length + payload + CRC).
struct NetStreamSummary {
  struct Tally {
    size_t frames = 0;
    size_t bytes = 0;
  };
  static constexpr size_t kTypes = 9;  // 8 known labels + unknown
  Tally by_type[kTypes];
  size_t batches = 0;
  size_t samples_carried = 0;
  size_t inner_undecodable = 0;

  static size_t Slot(std::string_view payload) {
    FrameType type;
    if (!ParseFrameType(payload, &type)) {
      return kTypes - 1;
    }
    switch (type) {
      case FrameType::kHello: return 0;
      case FrameType::kHelloAck: return 1;
      case FrameType::kSampleBatch: return 2;
      case FrameType::kBatchAck: return 3;
      case FrameType::kHeartbeat: return 4;
      case FrameType::kHeartbeatAck: return 5;
      case FrameType::kGoaway: return 6;
    }
    return 7;  // valid tag the switch doesn't know (future type)
  }

  void Add(std::string_view payload, size_t wire_bytes) {
    const size_t slot = Slot(payload);
    ++by_type[slot].frames;
    by_type[slot].bytes += wire_bytes;
    if (slot == 2) {
      ++batches;
      uint64_t seq = 0;
      uint64_t consumed = 0;
      std::string_view raw;
      std::vector<CpiSample> samples;
      if (ParseSampleBatchPayload(payload, &seq, &consumed, &raw) &&
          DecodeSampleBatch(raw, &samples).ok()) {
        samples_carried += samples.size();
      } else {
        ++inner_undecodable;
      }
    }
  }

  void Print() const {
    static const char* kLabels[kTypes] = {"hello",     "hello-ack", "batch",
                                          "batch-ack", "ping",      "pong",
                                          "goaway",    "future",    "unknown"};
    std::printf("%-12s %10s %14s\n", "type", "frames", "bytes");
    for (size_t i = 0; i < kTypes; ++i) {
      if (by_type[i].frames == 0) {
        continue;
      }
      std::printf("%-12s %10zu %14zu\n", kLabels[i], by_type[i].frames,
                  by_type[i].bytes);
    }
    std::printf("batches carried %zu samples", samples_carried);
    if (inner_undecodable > 0) {
      std::printf(" (%zu inner batches undecodable)", inner_undecodable);
    }
    std::printf("\n");
  }
};

// Walks one direction of a captured CPI2NET1 socket stream with the same
// FrameAssembler a live connection uses, so the verdicts (and their byte
// offsets) are exactly what the receiving daemon would have counted.
int DumpNetStream(const std::string& contents) {
  std::printf("CPI2NET1 stream: %zu bytes\n", contents.size());
  FrameAssembler assembler;
  assembler.Feed(contents);
  NetStreamSummary summary;
  size_t frames = 0;
  int rc = 0;
  while (true) {
    // The assembler consumes the 8-byte magic lazily inside the first
    // Next(), so the first frame's length byte is at kWireMagicSize even
    // though stream_offset() still reads 0 before the call.
    const size_t offset = std::max(assembler.stream_offset(), kWireMagicSize);
    std::string_view payload;
    const FrameAssembler::Result result = assembler.Next(&payload);
    if (result == FrameAssembler::Result::kFrame) {
      ++frames;
      if (g_summary) {
        summary.Add(payload, assembler.stream_offset() - offset);
      } else {
        PrintNetFrame(offset, payload);
      }
      continue;
    }
    if (result == FrameAssembler::Result::kNeedMore) {
      if (assembler.HasPartialFrame()) {
        std::printf("%08zu  !! TRUNCATED TAIL: stream ends mid-frame (%zu bytes dangling)\n",
                    assembler.stream_offset(), contents.size() - assembler.stream_offset());
        rc = 1;
      }
      break;
    }
    if (result == FrameAssembler::Result::kBadMagic) {
      std::fprintf(stderr, "stream does not start with CPI2NET1\n");
      return 1;
    }
    std::printf("%08zu  !! CORRUPT FRAME: CRC failure or hostile length at this offset; "
                "everything after is unreadable\n",
                assembler.stream_offset());
    rc = 1;
    break;
  }
  if (g_summary) {
    summary.Print();
  }
  std::printf("%zu frames decoded\n", frames);
  return rc;
}

int DumpContents(const std::string& contents);

int DumpFile(const char* path) {
  if (std::string_view(path) == "-") {
    std::string contents;
    char buf[65536];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), stdin)) > 0) {
      contents.append(buf, n);
    }
    std::printf("== (stdin) ==\n");
    return DumpContents(contents);
  }
  StatusOr<std::string> contents = ReadFileToString(path);
  if (!contents.ok()) {
    std::fprintf(stderr, "%s: %s\n", path, contents.status().ToString().c_str());
    return 1;
  }
  std::printf("== %s ==\n", path);
  return DumpContents(*contents);
}

int DumpContents(const std::string& contents) {
  if (HasWireMagic(contents, kSampleBatchMagic)) {
    return DumpSampleBatch(contents);
  }
  if (HasWireMagic(contents, kIncidentFileMagic)) {
    return DumpIncidentFile(contents);
  }
  if (HasWireMagic(contents, kNetStreamMagic)) {
    return DumpNetStream(contents);
  }
  if (HasWireMagic(contents, kSketchFrameMagic)) {
    return DumpSketchFrame(contents);
  }
  if (HasWireMagic(contents, kCheckpointMagic) ||
      HasWireMagic(contents, kCheckpointMagicV1Tiered) ||
      HasWireMagic(contents, kCheckpointMagicV3Flat) ||
      contents.rfind("cpi2-aggregator-ckpt-", 0) == 0) {
    return DumpCheckpoint(contents);
  }
  if (contents.rfind("cpi2-", 0) == 0) {
    // A text-era artifact: already human-readable.
    std::fwrite(contents.data(), 1, contents.size(), stdout);
    return 0;
  }
  std::fprintf(stderr, "unrecognized format (no known magic)\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Flags first regardless of position, so `wiredump cap --summary` and
  // `wiredump --summary cap` behave the same.
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--summary") {
      g_summary = true;
    }
  }
  int rc = 0;
  int files = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--summary") {
      continue;
    }
    ++files;
    rc |= DumpFile(argv[i]);
  }
  if (files == 0) {
    std::fprintf(stderr, "usage: %s [--summary] <file|-> [file...]\n", argv[0]);
    return 2;
  }
  return rc;
}
