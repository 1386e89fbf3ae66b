// Benchmark-side tracing and result reporting.
//
// Spans are timed from outside the program: the benchmark reads a monotonic
// clock around each call it makes into a layer. Two kinds of record:
//
//   - SpanStat: count + total nanoseconds for hot, repeated boundaries (one
//     sample ingest, one batch decode). Looked up once, then bumped.
//   - Ledger spine spans: individually recorded (name, start, end) for the
//     coarse serial stages of a tick, kept in memory and written out as TSV
//     when the run ends. Their sum over the traced wall time is
//     trace.coverage.
//
// Report collects what the binary prints: human-readable lines for people,
// plus "METRIC name value unit", "CHECK name pass|FAIL detail" and
// "COUNT name n" lines that run.py turns into the final JSON object.

#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanStat {
  int64_t count = 0;
  int64_t total_ns = 0;

  void Add(int64_t ns) {
    ++count;
    total_ns += ns;
  }
  double MeanNs() const { return count > 0 ? static_cast<double>(total_ns) / count : 0.0; }
};

class Ledger {
 public:
  // Hot-path accumulator for `name`; the pointer stays valid for the
  // ledger's lifetime (map nodes are stable).
  SpanStat* Stat(const std::string& name) { return &stats_[name]; }
  const SpanStat& Get(const std::string& name) { return stats_[name]; }

  // Records one spine span.
  void Record(const char* name, int64_t start_ns, int64_t end_ns) {
    spans_.push_back(Span{name, start_ns, end_ns});
  }

  // Sum of spine spans, nanoseconds.
  int64_t SpineNs() const;

  // Writes every spine span as "name start_ns end_ns" rows, times relative
  // to the first span. Returns false on an I/O failure.
  bool WriteSpans(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
  };
  std::map<std::string, SpanStat> stats_;
  std::vector<Span> spans_;
};

class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Check(const std::string& name, bool pass, const std::string& detail);
  void Count(const std::string& name, int64_t value);
  bool all_passed() const { return all_passed_; }

 private:
  bool all_passed_ = true;
};

// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

// Value at quantile q of `values` (sorted in place), nearest-rank.
double Quantile(std::vector<double>& values, double q);

// The tail quantile this benchmark reports for `n` observations: 0.99 when
// at least ten observations lie beyond it, otherwise the highest quantile
// that still leaves ten beyond (0 when n <= 10).
double TailQuantile(size_t n);

double Median(std::vector<double> values);

// Noise-filtered per-run summaries. On a shared host, memory contention
// from neighbours comes in episodes of seconds that slow a run by up to a
// third. So `values` (in time order) are cut into up to 40 consecutive
// blocks, each block is summarised, and the best decile of the block
// summaries is reported: the 10th percentile for timings, the 90th for
// rates. An episode covering up to nine tenths of the run then leaves the
// figure alone, while a change that slows every block still shows.
//
// Work that recurs every `period` steps (fleet's spec rebuild and push)
// must weigh the same in every block, or the best decile would pick the
// blocks that miss it. So each block is a whole number of periods, and a
// partial block at the end of the series is left out.
//
//   BlockMedian: per-block median, blocks of >= 250 observations.
//   BlockTail:   per-block TailQuantile (p99 when >= 10 lie beyond it),
//                blocks of >= 1000 observations; `block_size`, when given,
//                receives the observations per block.
//   BlockRate:   per-block Σ work / Σ seconds, for per-step work counts and
//                step durations recorded side by side; blocks of >= 250.
double BlockMedian(const std::vector<double>& values, size_t period = 1);
double BlockTail(const std::vector<double>& values, size_t period = 1,
                 size_t* block_size = nullptr);
double BlockRate(const std::vector<double>& work, const std::vector<double>& seconds,
                 size_t period = 1);

// FNV-1a, 64-bit, over raw bytes; chainable through `h`.
uint64_t Fnv(uint64_t h, const void* data, size_t len);
inline constexpr uint64_t kFnvBasis = 1469598103934665603ull;

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
