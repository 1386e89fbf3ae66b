// Control-plane fast path: sharded SpecBuilder ingest + spec builds vs the
// single-map serial path, at cluster-scale key counts (~10k job x platform
// keys), plus the streamed checkpoint writer's cold-vs-warm cost.
//
// Each measurement first proves the sharded path bit-identical to serial
// (same specs, same order — the determinism contract the harness relies on),
// then times full ingest+build rounds through both. The checkpoint section
// measures a cold write (every shard re-serializes) against a warm one
// (nothing changed since the last write, every shard replays its cached
// blob). Writes BENCH_control_plane.json (one JSON line) unless --smoke.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench/common/report.h"
#include "core/aggregator.h"
#include "core/spec_builder.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace cpi2 {
namespace {

struct SampleStream {
  std::vector<CpiSample> samples;
  int keys = 0;
};

// One ingest round: `samples_per_key` samples for each of `keys` job x
// platform keys, tasks rotating so every key clears the (relaxed)
// eligibility bar. Deterministic order — arrival order is part of what the
// bit-identity check covers.
SampleStream MakeStream(int keys, int samples_per_key) {
  SampleStream stream;
  stream.keys = keys;
  stream.samples.reserve(static_cast<size_t>(keys) * samples_per_key);
  Rng rng(17);
  for (int s = 0; s < samples_per_key; ++s) {
    for (int k = 0; k < keys; ++k) {
      CpiSample sample;
      sample.jobname = StrFormat("job.%d", k);
      sample.platforminfo = StrFormat("platform.%d", k % 4);
      sample.task = StrFormat("job.%d/%d", k, s % 3);
      sample.timestamp = static_cast<MicroTime>(s) * kMicrosPerMinute;
      sample.cpi = rng.Uniform(1.0, 4.0);
      sample.cpu_usage = rng.Uniform(0.1, 2.0);
      stream.samples.push_back(std::move(sample));
    }
  }
  return stream;
}

Cpi2Params BenchParams(int shards) {
  Cpi2Params params;
  params.spec_shards = shards;
  // Relaxed eligibility so every key produces a spec from a short stream;
  // the arithmetic per key is what's being timed, not the 24h bar.
  params.min_tasks_for_spec = 2;
  params.min_samples_per_task = 2;
  return params;
}

// One full ingest+build round. The serial path uses the legacy per-sample
// AddSample; the sharded path stages in per-tick batches (one batch per
// sample timestamp, like the harness) and flushes on the pool.
std::vector<CpiSpec> RunRound(SpecBuilder& builder, const SampleStream& stream,
                              ThreadPool* pool, int samples_per_key) {
  if (pool == nullptr) {
    for (const CpiSample& sample : stream.samples) {
      builder.AddSample(sample);
    }
  } else {
    const size_t batch = stream.samples.size() / static_cast<size_t>(samples_per_key);
    for (size_t i = 0; i < stream.samples.size(); ++i) {
      builder.StageSample(stream.samples[i]);
      if ((i + 1) % batch == 0) {
        builder.FlushStaged(pool);
      }
    }
  }
  return builder.BuildSpecs(pool);
}

bool SpecsIdentical(const std::vector<CpiSpec>& a, const std::vector<CpiSpec>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].jobname != b[i].jobname || a[i].platforminfo != b[i].platforminfo ||
        a[i].num_samples != b[i].num_samples || a[i].cpu_usage_mean != b[i].cpu_usage_mean ||
        a[i].cpi_mean != b[i].cpi_mean || a[i].cpi_stddev != b[i].cpi_stddev) {
      return false;
    }
  }
  return true;
}

// Samples ingested (and built into specs) per wall second over repeated
// rounds against a fresh builder each round.
double MeasureRounds(const Cpi2Params& params, const SampleStream& stream, ThreadPool* pool,
                     int samples_per_key, int min_reps, double min_seconds) {
  int reps = 0;
  const auto start = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  do {
    SpecBuilder builder(params);
    volatile size_t sink = RunRound(builder, stream, pool, samples_per_key).size();
    (void)sink;
    ++reps;
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  } while (reps < min_reps || elapsed < min_seconds);
  return elapsed > 0.0 ? static_cast<double>(reps) * stream.samples.size() / elapsed : 0.0;
}

// Checkpoint writes per wall second through Aggregator::WriteCheckpoint,
// the production streaming writer. `mutate` dirties one key and rebuilds
// between writes, so the cold variant re-serializes every shard the build
// touched while warm replays every cached shard blob.
double MeasureCheckpoints(Aggregator& aggregator, bool mutate, int min_reps,
                          double min_seconds) {
  CpiSample sample;
  sample.jobname = "job.0";
  sample.platforminfo = "platform.0";
  sample.task = "job.0/0";
  sample.cpi = 2.0;
  sample.cpu_usage = 0.5;

  int reps = 0;
  const auto start = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  do {
    if (mutate) {
      aggregator.builder().AddSample(sample);
      (void)aggregator.builder().BuildSpecs();
    }
    size_t bytes = 0;
    aggregator.WriteCheckpoint([&bytes](std::string_view chunk) { bytes += chunk.size(); });
    volatile size_t sink = bytes;
    (void)sink;
    ++reps;
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  } while (reps < min_reps || elapsed < min_seconds);
  return elapsed > 0.0 ? reps / elapsed : 0.0;
}

int Main(bool smoke) {
  SetMinLogLevel(LogLevel::kWarning);
  PrintHeader("control_plane",
              "Sharded SpecBuilder ingest+build vs the serial single-map path at "
              "~10k job x platform keys, plus streamed checkpoint cold vs warm");
  PrintPaperClaim("(engineering benchmark, no paper counterpart: section 3.1's spec "
                  "recalculation is daily with an hourly goal; this measures the "
                  "aggregation headroom sharding buys at cluster key counts)");

  const int keys = smoke ? 200 : 10000;
  const int samples_per_key = 6;
  const int min_reps = smoke ? 1 : 3;
  const double min_seconds = smoke ? 0.0 : 0.5;
  const SampleStream stream = MakeStream(keys, samples_per_key);

  const Cpi2Params serial_params = BenchParams(/*shards=*/1);
  const Cpi2Params sharded_params = BenchParams(/*shards=*/8);
  ThreadPool pool(/*threads=*/4);

  // Bit-identity before timing anything: serial single-map output vs the
  // sharded build on the pool, over the same stream.
  bool identical = false;
  {
    SpecBuilder serial(serial_params);
    SpecBuilder sharded(sharded_params);
    const std::vector<CpiSpec> serial_specs =
        RunRound(serial, stream, nullptr, samples_per_key);
    const std::vector<CpiSpec> sharded_specs =
        RunRound(sharded, stream, &pool, samples_per_key);
    identical = !serial_specs.empty() && SpecsIdentical(serial_specs, sharded_specs);
    PrintResult("specs_built", static_cast<double>(serial_specs.size()));
  }

  const double serial_per_sec =
      MeasureRounds(serial_params, stream, nullptr, samples_per_key, min_reps, min_seconds);
  const double sharded_per_sec =
      MeasureRounds(sharded_params, stream, &pool, samples_per_key, min_reps, min_seconds);
  const double speedup = serial_per_sec > 0.0 ? sharded_per_sec / serial_per_sec : 0.0;
  PrintResult("serial_samples_per_sec", serial_per_sec);
  PrintResult("sharded_samples_per_sec", sharded_per_sec);
  PrintResult("ingest_build_speedup", speedup);

  // Checkpoint cost: cold (state keeps changing) vs warm (cached blobs).
  Aggregator ckpt_aggregator(sharded_params);
  (void)RunRound(ckpt_aggregator.builder(), stream, &pool, samples_per_key);
  const double cold_per_sec = MeasureCheckpoints(ckpt_aggregator, /*mutate=*/true, min_reps,
                                                 smoke ? 0.0 : 0.25);
  const double warm_per_sec = MeasureCheckpoints(ckpt_aggregator, /*mutate=*/false, min_reps,
                                                 smoke ? 0.0 : 0.25);
  const double warm_speedup = cold_per_sec > 0.0 ? warm_per_sec / cold_per_sec : 0.0;
  PrintResult("checkpoint_cold_per_sec", cold_per_sec);
  PrintResult("checkpoint_warm_per_sec", warm_per_sec);
  PrintResult("checkpoint_warm_speedup", warm_speedup);
  if (!identical) {
    PrintResult("BIT_IDENTITY_FAILED", 1.0);
  }

  const std::string json = StrFormat(
      "{\"bench\":\"control_plane\",\"identical\":%s,\"keys\":%d,"
      "\"serial_samples_per_sec\":%.0f,\"sharded_samples_per_sec\":%.0f,"
      "\"ingest_build_speedup\":%.2f,\"checkpoint_cold_per_sec\":%.1f,"
      "\"checkpoint_warm_per_sec\":%.1f,\"checkpoint_warm_speedup\":%.2f}",
      identical ? "true" : "false", keys, serial_per_sec, sharded_per_sec, speedup,
      cold_per_sec, warm_per_sec, warm_speedup);
  std::printf("%s\n", json.c_str());
  if (!smoke) {
    // Smoke shapes are not comparable across PRs; don't overwrite the record.
    if (FILE* f = std::fopen("BENCH_control_plane.json", "w"); f != nullptr) {
      std::fprintf(f, "%s\n", json.c_str());
      std::fclose(f);
    }
  }
  return identical ? 0 : 1;
}

}  // namespace
}  // namespace cpi2

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  return cpi2::Main(smoke);
}
