// The aggregator checkpoint, one codec for both aggregators. Both the flat
// Aggregator and the HierarchicalAggregator write CPI2HAG2: an 8-byte magic
// followed by framed records (wire/framing.h: one CRC per record), each
// opening with a one-byte tag:
//
//   M  zigzag last_build, varint builds_completed, varint samples_seen
//   W  zigzag dedup watermark
//   D  dedup window entries, at most 2048 per record; each record carries
//      its own machine/task name dictionary and timestamp delta chain, so
//      records stay independently decodable
//   H  varint count, then per key: job, platform, and the four moment
//      doubles (count, mean, m2, usage_mean) as raw bits
//   S  varint count, then per key: job, platform, varint num_samples, usage
//      mean, cpi mean, cpi stddev and a varint version
//   E  varint count of the records before it; always last
//
// The writer emits M, W and the D records, then the H/S records of each
// spec section (the flat aggregator one section per builder shard, the
// tiered one a single section), then E. The end record makes a blob cut
// exactly between two records detectable. The in-progress accumulation
// window is in no record, so a restore loses every sample accumulated since
// the last build.
//
// Older formats are read, never written: CPI2HAG1 (the same records without
// E), CPAGCKP3 (no E, and S entries carry no version) and the
// line-oriented text v1/v2 checkpoints (`cpi2-aggregator-ckpt-v1|v2`
// header, then tab-separated M/W/D/H/S lines; v1 has no W/D). Specs from a
// version-less format are given version max(1, builds_completed), so a
// decoded spec never carries version 0.

#ifndef CPI2_CORE_AGGREGATOR_CHECKPOINT_H_
#define CPI2_CORE_AGGREGATOR_CHECKPOINT_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/dedup_window.h"
#include "core/spec_builder.h"
#include "core/types.h"
#include "util/status.h"

namespace cpi2 {

inline constexpr char kCheckpointMagic[] = "CPI2HAG2";
// Read-only formats.
inline constexpr char kCheckpointMagicV1Tiered[] = "CPI2HAG1";
inline constexpr char kCheckpointMagicV3Flat[] = "CPAGCKP3";

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
  std::string format;  // the magic, or the text header line, it came from
  BuildClock clock;
  int64_t samples_seen = 0;
  MicroTime watermark = 0;
  std::vector<SampleDedup::NamedEntry> dedup_entries;
  std::vector<SpecBuilder::HistoryEntry> history;
  std::vector<VersionedSpec> specs;  // every version >= 1
};

// A run of framed H and S records, ready to splice into a checkpoint.
struct CheckpointSection {
  std::string records;
  int64_t record_count = 0;
};

// Replaces `*section` with one H record for `history` and one S record for
// `specs`, each left out when its list is empty.
void EncodeCheckpointSection(const std::vector<SpecBuilder::HistoryEntry>& history,
                             const std::vector<VersionedSpec>& specs,
                             CheckpointSection* section);

// The one checkpoint writer: streams a CPI2HAG2 blob (the magic, the M, W
// and D records, every section in order, then E) to `sink` in chunks of
// about 64 KiB, so a large dedup window never materializes as one string.
void WriteCheckpoint(const BuildClock& clock, int64_t samples_seen, const SampleDedup& dedup,
                     std::span<const CheckpointSection> sections,
                     const std::function<void(std::string_view)>& sink);

// Decodes a blob in any of the formats above, chosen by its opening bytes.
// All-or-nothing: an unknown format, a damaged or unknown record, a missing
// M record, or (CPI2HAG2) a missing, miscounted or non-final E record
// rejects the blob with InvalidArgumentError naming the record or line.
Status DecodeCheckpoint(std::string_view blob, CheckpointState* state);

}  // namespace cpi2

#endif  // CPI2_CORE_AGGREGATOR_CHECKPOINT_H_
