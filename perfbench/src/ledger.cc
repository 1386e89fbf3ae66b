#include "ledger.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace perfbench {

int64_t Ledger::SpineNs() const {
  int64_t total = 0;
  for (const Span& span : spans_) {
    total += span.end_ns - span.start_ns;
  }
  return total;
}

bool Ledger::WriteSpans(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "name\tstart_ns\tend_ns\n");
  for (const Span& span : spans_) {
    std::fprintf(f, "%s\t%" PRId64 "\t%" PRId64 "\n", span.name, span.start_ns - origin,
                 span.end_ns - origin);
  }
  return std::fclose(f) == 0;
}

void Report::Metric(const std::string& name, double value, const std::string& unit) {
  std::printf("METRIC %s %.9g %s\n", name.c_str(), value, unit.c_str());
}

void Report::Check(const std::string& name, bool pass, const std::string& detail) {
  all_passed_ = all_passed_ && pass;
  std::printf("CHECK %s %s %s\n", name.c_str(), pass ? "pass" : "FAIL", detail.c_str());
}

void Report::Count(const std::string& name, int64_t value) {
  std::printf("COUNT %s %" PRId64 "\n", name.c_str(), value);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double Quantile(std::vector<double>& values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double TailQuantile(size_t n) {
  if (n <= 10) {
    return 0.0;
  }
  return std::min(0.99, 1.0 - 10.0 / static_cast<double>(n));
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

namespace {

constexpr size_t kMaxBlocks = 40;

// Best decile over blocks of `summarize(first, last)`, the blocks being
// consecutive index ranges [first, last) of an n-element series, each at
// least min_block long and a whole number of periods; the partial block at
// the end is left out (one block of all n when n is shorter than a block).
template <typename Summarize>
double OverBlocks(size_t n, size_t min_block, size_t period, bool higher_is_better,
                  Summarize summarize, size_t* block_size) {
  period = std::max<size_t>(1, period);
  size_t size = std::max(min_block, (n + kMaxBlocks - 1) / kMaxBlocks);
  size = std::min(n, (size + period - 1) / period * period);
  const size_t blocks = size > 0 ? n / size : 0;
  if (block_size != nullptr) {
    *block_size = size;
  }
  std::vector<double> results;
  for (size_t b = 0; b < blocks; ++b) {
    results.push_back(summarize(b * size, (b + 1) * size));
  }
  return Quantile(results, higher_is_better ? 0.9 : 0.1);
}

}  // namespace

double BlockMedian(const std::vector<double>& values, size_t period) {
  return OverBlocks(
      values.size(), 250, period, false,
      [&](size_t first, size_t last) {
        std::vector<double> block(values.begin() + first, values.begin() + last);
        return Quantile(block, 0.5);
      },
      nullptr);
}

double BlockTail(const std::vector<double>& values, size_t period, size_t* block_size) {
  return OverBlocks(
      values.size(), 1000, period, false,
      [&](size_t first, size_t last) {
        std::vector<double> block(values.begin() + first, values.begin() + last);
        return Quantile(block, TailQuantile(block.size()));
      },
      block_size);
}

double BlockRate(const std::vector<double>& work, const std::vector<double>& seconds,
                 size_t period) {
  return OverBlocks(
      std::min(work.size(), seconds.size()), 250, period, true,
      [&](size_t first, size_t last) {
        double w = 0.0;
        double s = 0.0;
        for (size_t i = first; i < last; ++i) {
          w += work[i];
          s += seconds[i];
        }
        return s > 0.0 ? w / s : 0.0;
      },
      nullptr);
}

uint64_t Fnv(uint64_t h, const void* data, size_t len) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace perfbench
