#include "core/antagonist_identifier.h"

#include <algorithm>
#include <cstring>

#include "core/correlation.h"

namespace cpi2 {

namespace {

// Order-preserving integer key for descending-double sort: ascending order
// on the transformed bits is descending order on the doubles. Valid for all
// finite doubles and infinities; the caller must never feed NaN (a NaN
// correlation would already be undefined behaviour under std::sort's
// strict-weak-ordering requirement in the comparator form).
uint64_t DescendingDoubleKey(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  const uint64_t ascending =
      (bits & 0x8000000000000000ULL) ? ~bits : bits ^ 0x8000000000000000ULL;
  return ~ascending;
}

}  // namespace

void AntagonistIdentifier::AnalyzeBatched(const TimeSeries& victim_cpi, double cpi_threshold,
                                          const std::vector<SuspectRow>& rows, size_t skip_row,
                                          MicroTime now, std::vector<RankedRef>* ranked) {
  last_analysis_ = now;
  ++analyses_run_;

  const MicroTime begin = now - params_.correlation_window;
  const MicroTime tolerance = params_.sample_period / 2;

  const size_t n = rows.size();
  batch_usages_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    batch_usages_[i] = i == skip_row ? nullptr : rows[i].usage;
  }
  BatchedAntagonistCorrelation(victim_cpi, batch_usages_.data(), n, begin, now + 1, tolerance,
                               cpi_threshold, &batch_scratch_);

  // The ranking order: correlation descending, ties by ascending task id.
  // Rows are name-sorted, so comparing row indices IS comparing task ids —
  // the sort never touches a string. And instead of a two-field comparator,
  // each scoring suspect gets ONE branchless 96-bit key: sign-flipped
  // correlation bits (ascending integer order == descending double order)
  // over the row index (the ascending tie-break). The bit order and the
  // double order can only disagree on -0.0 vs +0.0, and the correlation
  // fold can never produce -0.0: its accumulator starts at +0.0, IEEE
  // addition of -0.0 to +0.0 yields +0.0, and exact cancellation rounds to
  // +0.0 — so key order IS the (correlation, task id) order.
  rank_keys_.clear();
  for (size_t i = 0; i < n; ++i) {
    if (batch_usages_[i] == nullptr || batch_scratch_.aligned_pairs(i) == 0) {
      continue;  // skip rules: no series, or no overlapping data
    }
    rank_keys_.push_back(
        (static_cast<unsigned __int128>(DescendingDoubleKey(batch_scratch_.correlation(i)))
         << 32) |
        static_cast<uint32_t>(i));
  }
  std::sort(rank_keys_.begin(), rank_keys_.end());
  ranked->clear();
  ranked->reserve(rank_keys_.size());  // no-op at steady state: vector reused
  for (const unsigned __int128 key : rank_keys_) {
    const uint32_t row = static_cast<uint32_t>(key);
    ranked->push_back({row, batch_scratch_.correlation(row)});
  }
}

}  // namespace cpi2
