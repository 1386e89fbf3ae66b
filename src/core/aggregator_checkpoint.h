// The binary aggregator checkpoint, one codec for both aggregators: the flat
// Aggregator writes CPAGCKP3 and the HierarchicalAggregator writes CPI2HAG1.
// Both are an 8-byte magic followed by framed records (wire/framing.h: one
// CRC per record), each opening with a one-byte tag:
//
//   M  zigzag last_build, varint builds_completed, varint samples_seen
//   W  zigzag dedup watermark
//   D  dedup window entries, at most 2048 per record; each record carries
//      its own machine/task name dictionary and timestamp delta chain, so
//      records stay independently decodable
//   H  varint count, then per key: job, platform, and the four moment
//      doubles (count, mean, m2, usage_mean) as raw bits
//   S  varint count, then per key: job, platform, varint num_samples, usage
//      mean, cpi mean, cpi stddev and, in CPI2HAG1 only, a varint version
//
// The magic alone decides whether S entries carry a version. Writers emit M,
// W and the D records, then H/S records: the flat writer one pair per
// builder shard, the tiered writer one pair. The in-progress accumulation
// window is in no record, so a restore loses every sample accumulated since
// the last build.

#ifndef CPI2_CORE_AGGREGATOR_CHECKPOINT_H_
#define CPI2_CORE_AGGREGATOR_CHECKPOINT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/dedup_window.h"
#include "core/spec_builder.h"
#include "core/types.h"
#include "util/status.h"

namespace cpi2 {

inline constexpr char kFlatCheckpointMagic[] = "CPAGCKP3";
inline constexpr char kTieredCheckpointMagic[] = "CPI2HAG1";

// When an aggregator last built specs and how many builds it has completed.
// Both aggregators keep one and checkpoint it in their M record.
struct BuildClock {
  MicroTime last_build = -1;
  int64_t builds_completed = 0;

  // The first call starts the clock, so the first build lands one interval
  // later; afterwards true once `interval` has passed since the last build.
  bool Due(MicroTime now, MicroTime interval) {
    if (last_build < 0) {
      last_build = now;
      return false;
    }
    return now - last_build >= interval;
  }
  void RecordBuild(MicroTime now) {
    last_build = now;
    ++builds_completed;
  }
};

// A checkpoint's contents, decoded in full before any of it is applied, so a
// rejected blob leaves the aggregator untouched.
struct CheckpointState {
  BuildClock clock;
  int64_t samples_seen = 0;
  MicroTime watermark = 0;
  std::vector<SampleDedup::NamedEntry> dedup_entries;
  std::vector<SpecBuilder::HistoryEntry> history;
  std::vector<CpiSpec> specs;
  std::vector<uint64_t> spec_versions;  // CPI2HAG1 only; parallel to specs
};

// Streams the magic and the M, W and D records to `sink` in chunks of about
// 64 KiB, so a large dedup window never materializes as one string.
void WriteCheckpointHead(std::string_view magic, const BuildClock& clock, int64_t samples_seen,
                         const SampleDedup& dedup,
                         const std::function<void(std::string_view)>& sink);

// Append one framed H or S record to `*out`; nothing when the list is empty.
// `versions`, when given, is parallel to `specs` and makes the S record the
// CPI2HAG1 kind.
void AppendHistoryRecord(const std::vector<SpecBuilder::HistoryEntry>& history,
                         std::string* out);
void AppendSpecRecord(const std::vector<CpiSpec>& specs, const std::vector<uint64_t>* versions,
                      std::string* out);

// Decodes a blob that must open with `magic`. All-or-nothing: a wrong magic,
// a damaged or unknown record, or a missing M record rejects the blob with
// InvalidArgumentError naming the record.
Status DecodeCheckpoint(std::string_view magic, std::string_view blob, CheckpointState* state);

}  // namespace cpi2

#endif  // CPI2_CORE_AGGREGATOR_CHECKPOINT_H_
