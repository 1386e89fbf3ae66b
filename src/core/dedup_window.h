// DedupWindow: the aggregator's duplicate-sample membership window.
//
// Semantically a set of (timestamp, machine, task) keys supporting
// insert-if-absent and prune-everything-older-than — exactly what
// std::set<tuple> provided, but shaped for the ingest hot path. The wire
// transport retransmits whole batches after a reconnect, so at high sample
// rates this set sees one insert per sample and can hold millions of live
// entries; a node-based tree pays an allocation plus a deep pointer chase
// per sample, which dominated the decode->dedup->stage pipeline.
//
// Layout: an open-addressed hash table (linear probing, power-of-two
// capacity) answers membership, and a binary min-heap ordered by timestamp
// drives pruning. The heap doubles as the dense entry list: every live key
// appears exactly once in heap_, so rehashes rebuild from it and snapshots
// sort a copy of it. Timestamps from a live agent are nearly monotonic, so
// the common-case heap push is a single leaf write with zero sift-up swaps
// and the common-case insert touches two contiguous arrays — no allocation
// at steady state.
//
// Checkpoint writers need the std::set iteration order (ascending by
// timestamp, then machine id, then task id) so restored-and-rewritten
// checkpoints stay byte-identical; SortedEntries() materializes exactly
// that ordering on demand, paying the sort only at checkpoint time.
//
// SampleDedup wraps the window into the filter both aggregators run on every
// ingested sample: name interning, the watermark prune, the drop counter and
// the checkpoint view.

#ifndef CPI2_CORE_DEDUP_WINDOW_H_
#define CPI2_CORE_DEDUP_WINDOW_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/types.h"
#include "util/interner.h"

namespace cpi2 {

class DedupWindow {
 public:
  struct Entry {
    MicroTime timestamp = 0;
    uint32_t machine = 0;
    uint32_t task = 0;

    bool SameKey(const Entry& other) const {
      return timestamp == other.timestamp && machine == other.machine &&
             task == other.task;
    }
  };

  // Inserts the key if absent; returns false (a duplicate) if present.
  bool Insert(MicroTime timestamp, uint32_t machine, uint32_t task) {
    const Entry entry{timestamp, machine, task};
    if ((heap_.size() + tombstones_ + 1) * 8 > capacity() * 7) {
      Rehash();
    }
    const uint64_t mask = capacity() - 1;
    size_t i = Hash(entry) & mask;
    size_t target = capacity();  // first tombstone seen, reusable
    while (true) {
      const uint8_t s = state_[i];
      if (s == kEmpty) {
        break;
      }
      if (s == kTombstone) {
        if (target == capacity()) {
          target = i;
        }
      } else if (slots_[i].SameKey(entry)) {
        return false;
      }
      i = (i + 1) & mask;
    }
    if (target == capacity()) {
      target = i;
    } else {
      --tombstones_;
    }
    slots_[target] = entry;
    state_[target] = kFull;
    HeapPush(entry);
    return true;
  }

  // Removes every entry with timestamp < cutoff (same boundary as the old
  // lower_bound({cutoff, 0, 0}) prune: entries AT the cutoff survive).
  void PruneOlderThan(MicroTime cutoff) {
    while (!heap_.empty() && heap_.front().timestamp < cutoff) {
      Erase(heap_.front());
      HeapPopMin();
    }
    // A long-lived window builds up tombstones even though the live count
    // stays flat; fold them back into capacity once they dominate.
    if (tombstones_ > 0 && tombstones_ * 4 > capacity()) {
      Rehash();
    }
  }

  size_t size() const { return heap_.size(); }
  bool empty() const { return heap_.empty(); }

  void Clear() {
    state_.assign(state_.size(), kEmpty);
    heap_.clear();
    tombstones_ = 0;
  }

  // Every live entry, ascending by (timestamp, machine, task) — the exact
  // iteration order of the std::set<tuple> this structure replaced, which
  // the checkpoint formats depend on.
  std::vector<Entry> SortedEntries() const {
    std::vector<Entry> entries = heap_;
    std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
      if (a.timestamp != b.timestamp) {
        return a.timestamp < b.timestamp;
      }
      if (a.machine != b.machine) {
        return a.machine < b.machine;
      }
      return a.task < b.task;
    });
    return entries;
  }

 private:
  static constexpr uint8_t kEmpty = 0;
  static constexpr uint8_t kFull = 1;
  static constexpr uint8_t kTombstone = 2;
  static constexpr size_t kMinCapacity = 64;

  size_t capacity() const { return state_.size(); }

  static uint64_t Hash(const Entry& entry) {
    // SplitMix64 finalizer over the packed key fields.
    uint64_t x = static_cast<uint64_t>(entry.timestamp);
    x ^= (static_cast<uint64_t>(entry.machine) << 32) | entry.task;
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
  }

  void Rehash() {
    size_t new_capacity = std::max(kMinCapacity, capacity());
    // Grow only when genuinely full of live entries; a tombstone-heavy
    // rehash reuses the current footprint.
    while ((heap_.size() + 1) * 2 > new_capacity) {
      new_capacity *= 2;
    }
    slots_.assign(new_capacity, Entry{});
    state_.assign(new_capacity, kEmpty);
    tombstones_ = 0;
    const uint64_t mask = new_capacity - 1;
    for (const Entry& entry : heap_) {
      size_t i = Hash(entry) & mask;
      while (state_[i] != kEmpty) {
        i = (i + 1) & mask;
      }
      slots_[i] = entry;
      state_[i] = kFull;
    }
  }

  // Marks the slot holding `entry` (which must be present) as a tombstone.
  void Erase(const Entry& entry) {
    const uint64_t mask = capacity() - 1;
    size_t i = Hash(entry) & mask;
    while (state_[i] != kFull || !slots_[i].SameKey(entry)) {
      i = (i + 1) & mask;
    }
    state_[i] = kTombstone;
    ++tombstones_;
  }

  void HeapPush(const Entry& entry) {
    heap_.push_back(entry);
    size_t i = heap_.size() - 1;
    while (i > 0) {
      const size_t parent = (i - 1) / 2;
      if (heap_[parent].timestamp <= heap_[i].timestamp) {
        break;
      }
      std::swap(heap_[parent], heap_[i]);
      i = parent;
    }
  }

  void HeapPopMin() {
    heap_.front() = heap_.back();
    heap_.pop_back();
    size_t i = 0;
    while (true) {
      const size_t left = 2 * i + 1;
      const size_t right = left + 1;
      size_t smallest = i;
      if (left < heap_.size() && heap_[left].timestamp < heap_[smallest].timestamp) {
        smallest = left;
      }
      if (right < heap_.size() && heap_[right].timestamp < heap_[smallest].timestamp) {
        smallest = right;
      }
      if (smallest == i) {
        return;
      }
      std::swap(heap_[i], heap_[smallest]);
      i = smallest;
    }
  }

  std::vector<Entry> slots_;   // hash table payload (valid where state_ == kFull)
  std::vector<uint8_t> state_;
  std::vector<Entry> heap_;    // min-heap by timestamp; also the dense live list
  size_t tombstones_ = 0;
};

// Duplicate-sample idempotence (params.sample_dedup_window): a (machine,
// task, timestamp) triple seen twice within the window is dropped, so an
// agent retrying after a lost ack cannot double-count. The interned ids make
// the per-sample probe integer compares; the watermark (newest timestamp
// seen) prunes the window, which stays bounded by window x arrival rate.
class SampleDedup {
 public:
  // One window entry by name, as checkpoints carry it.
  struct NamedEntry {
    MicroTime timestamp = 0;
    std::string machine;
    std::string task;
  };

  // window <= 0 turns dedup off: every sample is admitted.
  explicit SampleDedup(MicroTime window) : window_(window) {}

  // False for a duplicate (counted in dropped()); true otherwise, including
  // samples with no machine name, which carry no identity to dedup on.
  bool Admit(const CpiSample& sample) {
    if (window_ <= 0 || sample.machine.empty()) {
      return true;
    }
    if (sample.timestamp > watermark_) {
      watermark_ = sample.timestamp;
      recent_.PruneOlderThan(watermark_ - window_);
    }
    if (recent_.Insert(sample.timestamp, machine_memo_.Intern(ids_, sample.machine),
                       task_memo_.Intern(ids_, sample.task))) {
      return true;
    }
    ++dropped_;
    return false;
  }

  int64_t dropped() const { return dropped_; }
  MicroTime watermark() const { return watermark_; }
  std::vector<DedupWindow::Entry> SortedEntries() const { return recent_.SortedEntries(); }
  const std::string& NameOf(uint32_t id) const { return ids_.NameOf(id); }

  // Replaces the watermark and window with checkpointed contents; dropped()
  // keeps counting across the restore.
  void Restore(MicroTime watermark, const std::vector<NamedEntry>& entries) {
    recent_.Clear();
    watermark_ = watermark;
    for (const NamedEntry& entry : entries) {
      recent_.Insert(entry.timestamp, ids_.Intern(entry.machine), ids_.Intern(entry.task));
    }
  }

 private:
  MicroTime window_;
  StringInterner ids_;      // machine and task names share one id space
  InternMemo machine_memo_;  // batches deliver one machine's samples in a row
  InternCache task_memo_;    // tasks rotate within a machine's batch
  DedupWindow recent_;
  MicroTime watermark_ = 0;
  int64_t dropped_ = 0;
};

}  // namespace cpi2

#endif  // CPI2_CORE_DEDUP_WINDOW_H_
