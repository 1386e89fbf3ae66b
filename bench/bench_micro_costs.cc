// Microbenchmarks for CPI2's own overheads.
//
// Section 4.2: "A single correlation-analysis typically takes about 100 us
// to perform" (on 2011 hardware, against ~50 suspects). Section 3.1: total
// sampling overhead below 0.1%. These google-benchmark measurements confirm
// the analysis costs are negligible next to a one-minute sampling cadence.

#include <benchmark/benchmark.h>

#include <algorithm>

#include "core/aggregator.h"
#include "core/antagonist_identifier.h"
#include "stats/sketch.h"
#include "core/correlation.h"
#include "core/incident_log.h"
#include "core/outlier_detector.h"
#include "core/spec_builder.h"
#include "harness/cluster_harness.h"
#include "perf/sampler.h"
#include "sim/machine.h"
#include "tests/testing/reference_correlation.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "wire/sample_codec.h"
#include "workload/profiles.h"

namespace cpi2 {
namespace {

std::vector<AlignedPair> MakeWindow(int samples, Rng& rng) {
  std::vector<AlignedPair> pairs;
  for (int i = 0; i < samples; ++i) {
    pairs.push_back({static_cast<MicroTime>(i) * kMicrosPerMinute, rng.Uniform(1.0, 4.0),
                     rng.Uniform(0.0, 2.0)});
  }
  return pairs;
}

void BM_AntagonistCorrelation(benchmark::State& state) {
  Rng rng(1);
  const auto pairs = MakeWindow(static_cast<int>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(AntagonistCorrelation(pairs, 2.0));
  }
}
BENCHMARK(BM_AntagonistCorrelation)->Arg(10)->Arg(60)->Arg(600);

// Two series with 1 Hz points over `samples` seconds, plus 100% extra
// history behind the window (Agent retains 2x the correlation window).
void MakeSeriesPair(int samples, Rng& rng, TimeSeries* victim, TimeSeries* usage) {
  for (int i = -samples; i < samples; ++i) {
    const MicroTime t = (static_cast<MicroTime>(i) + samples) * kMicrosPerSecond;
    victim->Append(t, rng.Uniform(1.0, 4.0));
    usage->Append(t, rng.Uniform(0.0, 2.0));
  }
}

// Reference alignment (tests/testing/reference_correlation.h): binary-searched
// NearestValue per victim point plus the materialized pair vector.
void BM_AlignSeriesLegacy(benchmark::State& state) {
  Rng rng(4);
  TimeSeries victim;
  TimeSeries usage;
  const int samples = static_cast<int>(state.range(0));
  MakeSeriesPair(samples, rng, &victim, &usage);
  const MicroTime begin = samples * kMicrosPerSecond;
  const MicroTime end = 2 * samples * kMicrosPerSecond;
  for (auto _ : state) {
    benchmark::DoNotOptimize(AlignSeries(victim, usage, begin, end, kMicrosPerSecond / 2));
  }
}
BENCHMARK(BM_AlignSeriesLegacy)->Arg(10)->Arg(60)->Arg(600);

// The fused merge-join reference over the same shapes: alignment +
// correlation in one allocation-free sweep (compare against
// BM_AlignSeriesLegacy + BM_AntagonistCorrelation at the same arg).
void BM_FusedCorrelation(benchmark::State& state) {
  Rng rng(4);
  TimeSeries victim;
  TimeSeries usage;
  const int samples = static_cast<int>(state.range(0));
  MakeSeriesPair(samples, rng, &victim, &usage);
  const MicroTime begin = samples * kMicrosPerSecond;
  const MicroTime end = 2 * samples * kMicrosPerSecond;
  for (auto _ : state) {
    size_t aligned = 0;
    benchmark::DoNotOptimize(FusedAntagonistCorrelation(victim, usage, begin, end,
                                                        kMicrosPerSecond / 2, 2.0, &aligned));
  }
}
BENCHMARK(BM_FusedCorrelation)->Arg(10)->Arg(60)->Arg(600);

// The batched one-pass kernel at suspect-table width: ONE victim-major sweep
// scores `suspects` co-residents (each with its own usage series) against
// the victim. Items processed = suspects, so items/sec here against
// BM_FusedCorrelation's 1-suspect rate shows the per-suspect cost drop.
void BM_BatchedCorrelation(benchmark::State& state) {
  Rng rng(4);
  TimeSeries victim;
  const int samples = 60;
  const int suspects = static_cast<int>(state.range(0));
  std::vector<TimeSeries> usage(static_cast<size_t>(suspects));
  {
    TimeSeries first_usage;
    MakeSeriesPair(samples, rng, &victim, &first_usage);
    usage[0] = std::move(first_usage);
  }
  for (int s = 1; s < suspects; ++s) {
    for (int i = -samples; i < samples; ++i) {
      const MicroTime t = (static_cast<MicroTime>(i) + samples) * kMicrosPerSecond;
      usage[static_cast<size_t>(s)].Append(t, rng.Uniform(0.0, 2.0));
    }
  }
  std::vector<const TimeSeries*> pointers;
  for (const TimeSeries& series : usage) {
    pointers.push_back(&series);
  }
  const MicroTime begin = samples * kMicrosPerSecond;
  const MicroTime end = 2 * samples * kMicrosPerSecond;
  BatchedCorrelationScratch scratch;
  for (auto _ : state) {
    BatchedAntagonistCorrelation(victim, pointers.data(), pointers.size(), begin, end,
                                 kMicrosPerSecond / 2, 2.0, &scratch);
    benchmark::DoNotOptimize(scratch.correlation(0));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * suspects);
}
BENCHMARK(BM_BatchedCorrelation)->Arg(10)->Arg(50)->Arg(200);

// The paper's full analysis: one victim against ~50 suspects over a
// 10-minute window (their ~100 us number), through the production batched
// engine over a name-sorted suspect table.
void BM_FullAnalysisAgainstSuspects(benchmark::State& state) {
  const int suspects = static_cast<int>(state.range(0));
  Cpi2Params params;
  AntagonistIdentifier identifier(params);
  Rng rng(2);
  TimeSeries victim;
  for (int i = 0; i < 10; ++i) {
    victim.Append(i * kMicrosPerMinute, rng.Uniform(1.0, 4.0));
  }
  std::vector<TimeSeries> usage(static_cast<size_t>(suspects));
  std::vector<std::string> names(static_cast<size_t>(suspects));
  const std::string job = "job";
  std::vector<AntagonistIdentifier::SuspectRow> rows;
  for (int s = 0; s < suspects; ++s) {
    for (int i = 0; i < 10; ++i) {
      usage[static_cast<size_t>(s)].Append(i * kMicrosPerMinute, rng.Uniform(0.0, 2.0));
    }
    names[static_cast<size_t>(s)] = StrFormat("task.%04d", s);
    rows.push_back({&names[static_cast<size_t>(s)], &job, WorkloadClass::kBatch,
                    JobPriority::kBestEffort, &usage[static_cast<size_t>(s)]});
  }
  std::vector<AntagonistIdentifier::RankedRef> ranked;
  for (auto _ : state) {
    identifier.AnalyzeBatched(victim, 2.0, rows, AntagonistIdentifier::kNoSkip,
                              10 * kMicrosPerMinute, &ranked);
    benchmark::DoNotOptimize(ranked.data());
  }
}
BENCHMARK(BM_FullAnalysisAgainstSuspects)->Arg(10)->Arg(50)->Arg(100);

void BM_OutlierDetectorObserve(benchmark::State& state) {
  OutlierDetector detector(Cpi2Params{});
  CpiSpec spec;
  spec.cpi_mean = 2.0;
  spec.cpi_stddev = 0.2;
  CpiSample sample;
  sample.task = "job.0";
  sample.cpu_usage = 0.5;
  sample.cpi = 2.2;
  MicroTime t = 0;
  for (auto _ : state) {
    sample.timestamp = (t += kMicrosPerMinute);
    benchmark::DoNotOptimize(detector.Observe(/*key=*/0, sample, spec));
  }
}
BENCHMARK(BM_OutlierDetectorObserve);

// The aggregator's full per-sample ingest cost with dedup enabled: the
// interned-key window insert plus routing into the builder's shard staging.
void BM_AggregatorAddSample(benchmark::State& state) {
  Cpi2Params params;
  params.sample_dedup_window = 5 * kMicrosPerMinute;
  Aggregator aggregator(params);
  Rng rng(7);
  CpiSample sample;
  sample.jobname = "job";
  sample.platforminfo = "xeon";
  sample.machine = "m.42";
  sample.task = "job.17";
  MicroTime t = 0;
  for (auto _ : state) {
    sample.timestamp = (t += kMicrosPerMinute);
    sample.cpi = rng.Uniform(1.0, 3.0);
    sample.cpu_usage = rng.Uniform(0.0, 2.0);
    aggregator.AddSample(sample);
  }
}
BENCHMARK(BM_AggregatorAddSample);

// One TopAntagonists pull against a populated log: columnar index (arg 0)
// vs the reference scan (arg 1), 10k incidents over 50 victim jobs.
void BM_IncidentTopAntagonists(benchmark::State& state) {
  const bool legacy = state.range(0) != 0;
  IncidentLog log;
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    Incident incident;
    incident.timestamp = static_cast<MicroTime>(i) * kMicrosPerSecond;
    incident.victim_job = StrFormat("victim.%d", i % 50);
    incident.machine = StrFormat("m.%d", i % 200);
    Suspect suspect;
    suspect.jobname = StrFormat("antagonist.%d", i % 20);
    suspect.task = suspect.jobname + "/0";
    suspect.correlation = rng.Uniform(0.35, 1.0);
    incident.suspects.push_back(std::move(suspect));
    log.Add(incident);
  }
  int victim = 0;
  for (auto _ : state) {
    const std::string job = StrFormat("victim.%d", victim++ % 50);
    benchmark::DoNotOptimize(legacy ? log.TopAntagonistsLegacy(job, 0, 0, 10)
                                    : log.TopAntagonists(job, 0, 0, 10));
  }
}
BENCHMARK(BM_IncidentTopAntagonists)->Arg(0)->Arg(1);

void BM_SpecBuilderAddSample(benchmark::State& state) {
  Cpi2Params params;
  SpecBuilder builder(params);
  Rng rng(3);
  CpiSample sample;
  sample.jobname = "job";
  sample.platforminfo = "xeon";
  sample.task = "job.17";
  for (auto _ : state) {
    sample.cpi = rng.Uniform(1.0, 3.0);
    sample.cpu_usage = rng.Uniform(0.0, 2.0);
    builder.AddSample(sample);
  }
}
BENCHMARK(BM_SpecBuilderAddSample);

// One simulated-machine tick with a realistic tenant count: bounds the cost
// of the whole interference model. Arg = tasks on the machine.
void BM_MachineTick(benchmark::State& state) {
  Machine machine("m", ReferencePlatform(), 4);
  const int tasks = static_cast<int>(state.range(0));
  for (int i = 0; i < tasks; ++i) {
    (void)machine.AddTask(StrFormat("t.%d", i), FillerServiceSpec(0.2));
  }
  MicroTime now = 0;
  for (auto _ : state) {
    machine.Tick(now += kMicrosPerSecond, kMicrosPerSecond);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * tasks);
}
BENCHMARK(BM_MachineTick)->Arg(10)->Arg(50)->Arg(100);

// The batched interference kernel alone: one ComputeInterferenceBatch sweep
// over n co-resident tasks (two name-order total reductions + one
// vectorizable per-task pass), vs the legacy in-place ComputeInterference
// over the same inputs (arg 1 = 1).
void BM_ComputeInterferenceBatch(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const bool legacy = state.range(1) != 0;
  const Platform platform = ReferencePlatform();
  const InterferenceParams params;
  Rng rng(21);
  std::vector<double> cpu, footprint, mi, sens_cw, w_sens, half_mi, baseline;
  std::vector<TaskLoad> loads;
  for (int i = 0; i < n; ++i) {
    const double sensitivity = rng.Uniform(0.1, 0.9);
    TaskLoad load;
    load.cpu = rng.Uniform(0.0, 1.5);
    load.cache_mb = rng.Uniform(1.0, 30.0);
    load.memory_intensity = rng.Uniform(0.0, 1.0);
    load.sensitivity = sensitivity;
    loads.push_back(load);
    cpu.push_back(load.cpu);
    footprint.push_back(std::min(1.0, load.cache_mb / platform.l3_cache_mb));
    mi.push_back(load.memory_intensity);
    sens_cw.push_back(sensitivity * params.cache_weight);
    w_sens.push_back(params.mpi_contention_weight * sensitivity);
    half_mi.push_back(0.5 + 0.5 * load.memory_intensity);
    baseline.push_back(params.base_mpi + params.mpi_per_intensity * load.memory_intensity);
  }
  std::vector<double> cpi_out(static_cast<size_t>(n));
  std::vector<double> mpi_out(static_cast<size_t>(n));
  std::vector<InterferenceResult> results;
  for (auto _ : state) {
    if (legacy) {
      ComputeInterference(platform, params, loads, &results);
      benchmark::DoNotOptimize(results.data());
    } else {
      InterferenceBatchInputs inputs;
      inputs.cpu = cpu.data();
      inputs.footprint = footprint.data();
      inputs.memory_intensity = mi.data();
      inputs.sens_cw = sens_cw.data();
      inputs.w_sens = w_sens.data();
      inputs.half_mi = half_mi.data();
      inputs.baseline_mpi = baseline.data();
      ComputeInterferenceBatch(platform, params, static_cast<size_t>(n), inputs,
                               cpi_out.data(), mpi_out.data());
      benchmark::DoNotOptimize(cpi_out.data());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_ComputeInterferenceBatch)
    ->Args({10, 0})
    ->Args({50, 0})
    ->Args({200, 0})
    ->Args({10, 1})
    ->Args({50, 1})
    ->Args({200, 1});

// The whole cluster tick path (machines + scheduler + agents) at a given
// thread count; bench_tick_engine measures the same loop at full scale and
// tracks it across PRs in BENCH_tick_engine.json.
void BM_ClusterHarnessTick(benchmark::State& state) {
  ClusterHarness::Options options;
  options.cluster.seed = 11;
  options.cluster.threads = static_cast<int>(state.range(0));
  ClusterHarness harness(options);
  harness.cluster().AddMachines(ReferencePlatform(), 64);
  harness.cluster().BuildScheduler();
  for (size_t m = 0; m < harness.cluster().machine_count(); ++m) {
    for (int t = 0; t < 16; ++t) {
      (void)harness.cluster().machine(m)->AddTask(
          StrFormat("t.%zu.%d", m, t), FillerServiceSpec(0.2));
    }
  }
  harness.WireAgents();
  for (auto _ : state) {
    harness.cluster().Tick();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(harness.cluster().machine_count()));
}
BENCHMARK(BM_ClusterHarnessTick)->Arg(1)->Arg(4);

// One agent flush worth of samples with the dictionary shape a real machine
// produces: one job/platform/machine name, a handful of tasks, monotone
// timestamps. bench_wire_format measures the same codec against the text
// baseline at stream scale; this tracks the absolute per-batch cost.
std::vector<CpiSample> MakeWireBatch(int samples) {
  std::vector<CpiSample> batch;
  Rng rng(13);
  for (int i = 0; i < samples; ++i) {
    CpiSample sample;
    sample.jobname = StrFormat("websearch-frontend-%d", i % 3);
    sample.platforminfo = "intel-xeon-e5-2.6GHz-dl380";
    sample.task = StrFormat("websearch-frontend-%d/%d", i % 3, i % 16);
    sample.machine = "cell-a-rack07-machine4";
    sample.timestamp = static_cast<MicroTime>(i) * kMicrosPerSecond;
    sample.cpu_usage = rng.Uniform(0.0, 2.0);
    sample.cpi = rng.Uniform(0.5, 4.0);
    sample.l3_miss_per_instruction = rng.Uniform(0.0, 0.05);
    batch.push_back(std::move(sample));
  }
  return batch;
}

void BM_EncodeSampleBatch(benchmark::State& state) {
  const auto batch = MakeWireBatch(static_cast<int>(state.range(0)));
  SampleBatchEncoder encoder;
  for (auto _ : state) {
    encoder.Reset();
    for (const auto& sample : batch) {
      encoder.Add(sample);
    }
    benchmark::DoNotOptimize(encoder.Finish());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch.size()));
}
BENCHMARK(BM_EncodeSampleBatch)->Arg(64)->Arg(1000);

void BM_DecodeSampleBatch(benchmark::State& state) {
  const auto batch = MakeWireBatch(static_cast<int>(state.range(0)));
  SampleBatchEncoder encoder;
  for (const auto& sample : batch) {
    encoder.Add(sample);
  }
  const std::string bytes = encoder.Finish();
  std::vector<CpiSample> decoded;
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecodeSampleBatch(bytes, &decoded));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch.size()));
}
BENCHMARK(BM_DecodeSampleBatch)->Arg(64)->Arg(1000);

// Per-sample cost of the mergeable integer sketch (DESIGN.md §16): quantize,
// two 128-bit accumulations, one histogram bucket from double-bit inspection.
// This is the cell tier's AddSample hot loop; compare against
// BM_SpecBuilderAddSample for the flat path's per-sample cost.
void BM_SketchInsert(benchmark::State& state) {
  Rng rng(17);
  // Pre-drawn values so the RNG is not part of the measured loop.
  std::vector<double> cpi, usage;
  for (int i = 0; i < 1024; ++i) {
    cpi.push_back(rng.Uniform(0.5, 4.0));
    usage.push_back(rng.Uniform(0.0, 2.0));
  }
  CpiSketch sketch;
  size_t i = 0;
  for (auto _ : state) {
    sketch.Add(cpi[i & 1023], usage[i & 1023]);
    ++i;
  }
  benchmark::DoNotOptimize(sketch);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SketchInsert);

// One cell→global merge: pure integer addition over the fixed-size state
// (count, three 128-bit sums, 64+2 histogram cells). This is the entire
// marginal cost of an extra aggregation tier per (job, platform) key.
void BM_SketchMerge(benchmark::State& state) {
  Rng rng(19);
  CpiSketch partial;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    partial.Add(rng.Uniform(0.5, 4.0), rng.Uniform(0.0, 2.0));
  }
  CpiSketch total;
  for (auto _ : state) {
    total.Merge(partial);
  }
  benchmark::DoNotOptimize(total);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SketchMerge)->Arg(10)->Arg(1000);

// Spec distribution per updated job: subscription fan-out (arg 1 = 0)
// touches only that job's subscribers; the legacy broadcast (arg 1 = 1)
// scans every machine and asks whether it runs the job. Arg 0 = machines;
// 100 jobs, each machine running (and thus subscribed to) two of them, so
// the subscriber list is ~2% of the cluster per job.
void BM_SubscriptionFanout(benchmark::State& state) {
  const int machines = static_cast<int>(state.range(0));
  const bool broadcast = state.range(1) != 0;
  constexpr int kJobs = 100;
  std::vector<std::vector<int>> machine_jobs(static_cast<size_t>(machines));
  std::vector<std::vector<int>> subscribers(kJobs);
  for (int m = 0; m < machines; ++m) {
    for (int job : {m % kJobs, (m + 1) % kJobs}) {
      machine_jobs[static_cast<size_t>(m)].push_back(job);
      subscribers[static_cast<size_t>(job)].push_back(m);
    }
  }
  std::vector<uint64_t> delivered(static_cast<size_t>(machines) * kJobs, 0);
  uint64_t version = 0;
  int job = 0;
  int64_t deliveries = 0;
  for (auto _ : state) {
    ++version;
    if (broadcast) {
      for (int m = 0; m < machines; ++m) {
        for (int j : machine_jobs[static_cast<size_t>(m)]) {
          if (j == job) {
            delivered[static_cast<size_t>(m) * kJobs + static_cast<size_t>(j)] = version;
            ++deliveries;
          }
        }
      }
    } else {
      for (int m : subscribers[static_cast<size_t>(job)]) {
        delivered[static_cast<size_t>(m) * kJobs + static_cast<size_t>(job)] = version;
        ++deliveries;
      }
    }
    job = (job + 1) % kJobs;
  }
  benchmark::DoNotOptimize(delivered.data());
  state.SetItemsProcessed(deliveries);
}
BENCHMARK(BM_SubscriptionFanout)
    ->Args({1000, 0})
    ->Args({10000, 0})
    ->Args({1000, 1})
    ->Args({10000, 1});

// Sampler bookkeeping for a full machine (the per-second agent cost outside
// the counter windows themselves).
void BM_SamplerTick(benchmark::State& state) {
  FakeCounterSource source;
  CounterSnapshot snapshot;
  snapshot.cycles = 1000;
  snapshot.instructions = 500;
  CpiSampler sampler(&source, CpiSampler::Options{}, nullptr);
  for (int i = 0; i < 50; ++i) {
    const std::string name = StrFormat("t.%d", i);
    source.SetSnapshot(name, snapshot);
    sampler.AddContainer(name, 0);
  }
  MicroTime now = 0;
  for (auto _ : state) {
    sampler.Tick(now += kMicrosPerSecond);
  }
}
BENCHMARK(BM_SamplerTick);

}  // namespace
}  // namespace cpi2

BENCHMARK_MAIN();
