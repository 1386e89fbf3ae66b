#include "loopback.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/agent.h"
#include "core/aggregator.h"
#include "net/agent_transport.h"
#include "net/client.h"
#include "net/event_loop.h"
#include "net/frame.h"
#include "net/server.h"
#include "sim/cluster.h"
#include "sim_workloads.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "wire/sample_codec.h"
#include "workload/cluster_builder.h"

namespace perfbench {
namespace {

using cpi2::Agent;
using cpi2::AgentTransport;
using cpi2::Aggregator;
using cpi2::CpiSample;
using cpi2::EventLoop;
using cpi2::kMicrosPerSecond;
using cpi2::NetClient;
using cpi2::NetServer;
using cpi2::StrFormat;

// Machines in the representative mix the job and task names come from.
constexpr int kNameMachines = 64;
// Seeded (cpu_usage, cpi, l3_miss_per_instruction) triples per stream.
constexpr size_t kValuePool = size_t{1} << 14;
// The closed loop keeps at least this many samples queued per agent.
constexpr size_t kOutboxTarget = 8192;
// The open loop's offered rate, all clients together. The 4-client closed
// loop saturates at 1.8-2.8 M samples/s on a shared 4-vCPU VM, but the open
// loop flushes smaller batches and queues well before that: at 0.9 M/s its
// p50 moved by half between runs. At 300 k/s the loop has headroom to drain
// after a host stall, so the tail measures the transport rather than the
// queue.
constexpr double kOpenLoopRate = 300000.0;
// Set-ups timed per run; setup_s is their median.
constexpr int kSetups = 9;
// Every kLatencyStride-th open-loop sample has its ack latency recorded.
constexpr int64_t kLatencyStride = 4;
// A traced saturating phase switches tracing on and off this often.
constexpr int64_t kTraceSliceNs = 100'000'000;
constexpr double kDrainTimeoutS = 20.0;
constexpr double kConnectTimeoutS = 10.0;

double Since(int64_t start_ns) { return static_cast<double>(NowNs() - start_ns) / 1e9; }

// One agent's seeded sample stream over its machine's tasks. Timestamps
// advance one simulated second per pass over the tasks, so every
// (machine, task, timestamp) is unique and the aggregator's dedup window
// would catch any sample accepted twice.
struct Stream {
  std::vector<CpiSample> protos;  // one per task; names filled in
  std::vector<std::array<double, 3>> values;
  int64_t next = 0;

  const CpiSample& Make() {
    const size_t tasks = protos.size();
    CpiSample& sample = protos[static_cast<size_t>(next) % tasks];
    sample.timestamp = (next / static_cast<int64_t>(tasks) + 1) * kMicrosPerSecond;
    const std::array<double, 3>& v = values[static_cast<size_t>(next) % values.size()];
    sample.cpu_usage = v[0];
    sample.cpi = v[1];
    sample.l3_miss_per_instruction = v[2];
    ++next;
    return sample;
  }
};

// Names come from a representative job mix: stream c carries the tasks of
// the mix's c-th non-empty machine.
std::vector<Stream> MakeStreams(uint64_t seed, int clients) {
  cpi2::Cluster::Options cluster_options;
  cluster_options.seed = seed;
  cluster_options.threads = 1;
  cpi2::Cluster cluster(cluster_options);
  cpi2::ClusterMixOptions mix;
  mix.machines = kNameMachines;
  mix.seed = kJobMixSeed;
  cpi2::BuildRepresentativeCluster(&cluster, mix);

  cpi2::Rng rng(seed ^ 0x1009bacull);
  std::vector<Stream> streams;
  for (cpi2::Machine* machine : cluster.machines()) {
    if (static_cast<int>(streams.size()) == clients) {
      break;
    }
    if (machine->Tasks().empty()) {
      continue;
    }
    Stream stream;
    for (cpi2::Task* task : machine->Tasks()) {
      CpiSample proto;
      proto.jobname = task->spec().job_name;
      proto.task = task->name();
      proto.machine = machine->name();
      proto.platforminfo = machine->platform().name;
      stream.protos.push_back(std::move(proto));
    }
    stream.values.resize(kValuePool);
    for (std::array<double, 3>& v : stream.values) {
      v = {rng.Uniform(0.05, 2.0), rng.LogNormal(0.3, 0.25), rng.Uniform(0.0, 0.01)};
    }
    streams.push_back(std::move(stream));
  }
  return streams;
}

class Rig {
 public:
  struct Client {
    Stream stream;
    std::unique_ptr<Agent> agent;
    std::unique_ptr<NetClient> net;
    std::unique_ptr<AgentTransport> transport;  // borrows agent and net
    std::deque<int64_t> due_ns;  // open loop: due time of each unacked sample
    int64_t offered = 0;
    int64_t acked_seen = 0;
  };

  Rig(std::vector<Stream> streams, uint64_t seed, Ledger* ledger)
      : server_(&loop_, ServerOptions()), aggregator_(AggregatorParams()), seed_(seed) {
    decode_ = ledger->Stat("wire.decode");
    ingest_ = ledger->Stat("core.aggregator.ingest");
    ack_build_ = ledger->Stat("net.ack_build");
    offer_ = ledger->Stat("core.agent.offer");
    flush_ = ledger->Stat("net.transport_flush");
    loop_once_ = ledger->Stat("net.loop");
    tick_flush_ = ledger->Stat("core.aggregator.tick_flush");
    server_.set_frame_handler([this](const NetServer::PeerInfo& peer, std::string_view payload) {
      OnFrame(peer, payload);
    });
    for (Stream& stream : streams) {
      clients_.push_back(std::make_unique<Client>());
      clients_.back()->stream = std::move(stream);
    }
  }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  ~Rig() {
    for (auto& client : clients_) {
      if (client->transport != nullptr) {
        client->transport->Stop();
      }
      if (client->net != nullptr) {
        client->net->Shutdown();
      }
    }
    server_.Stop();
  }

  // Listens, connects every client and waits for their handshakes.
  bool Start() {
    if (!server_.Start().ok()) {
      return false;
    }
    cpi2::Cpi2Params params;
    params.sample_outbox_capacity = 1 << 16;
    params.wire_batch_max_samples = 512;
    params.wire_batch_max_age = 0;
    params.delivery_retry_backoff = 0;
    params.delivery_retry_backoff_max = 0;
    params.delivery_retry_jitter = 0.0;
    for (size_t c = 0; c < clients_.size(); ++c) {
      Client& client = *clients_[c];
      Agent::Options agent_options;
      agent_options.params = params;
      agent_options.machine_name = client.stream.protos.front().machine;
      agent_options.platforminfo = client.stream.protos.front().platforminfo;
      client.agent = std::make_unique<Agent>(agent_options, nullptr, nullptr);
      NetClient::Options net_options;
      net_options.server_address = StrFormat("127.0.0.1:%d", server_.bound_port());
      net_options.peer_name = agent_options.machine_name;
      net_options.jitter_seed = seed_ ^ (0x5eed5ull + c);
      client.net = std::make_unique<NetClient>(&loop_, net_options);
      client.transport = std::make_unique<AgentTransport>(&loop_, client.agent.get(),
                                                          client.net.get(),
                                                          AgentTransport::Options{});
      client.net->Start();
      client.transport->Start();
    }
    const int64_t start = NowNs();
    while (!AllReady()) {
      if (Since(start) > kConnectTimeoutS) {
        return false;
      }
      loop_.RunOnce(2 * cpi2::kMicrosPerMilli);
    }
    return true;
  }

  // Accepted samples and wall seconds of a saturating phase, by half:
  // [0] untraced, [1] traced.
  struct Halves {
    double accepted[2] = {0.0, 0.0};
    double seconds[2] = {0.0, 0.0};
    double Rate(int half) const { return seconds[half] > 0 ? accepted[half] / seconds[half] : 0; }
  };

  // Closed loop for `seconds`: every outbox is topped up to kOutboxTarget
  // before each pass. Returns samples accepted per wall second, the best
  // decile over blocks of consecutive passes (ledger.h's noise filter).
  // With `halves`, tracing is on and off in alternate slices of
  // kTraceSliceNs, and each pass is summed into its half.
  double Saturate(double seconds, Halves* halves = nullptr) {
    std::vector<double> pass_accepted, pass_s;
    const int64_t start = NowNs();
    for (int64_t pass_start = start; pass_start - start < static_cast<int64_t>(seconds * 1e9);) {
      if (halves != nullptr) {
        tracing_ = (pass_start - start) / kTraceSliceNs % 2 == 0;
      }
      const int64_t accepted_before = accepted_;
      for (auto& client : clients_) {
        const int64_t t0 = Clock();
        int64_t n = 0;
        while (client->agent->outbox_size() < kOutboxTarget) {
          client->agent->OfferSample(client->stream.Make());
          ++n;
        }
        client->offered += n;
        if (tracing_ && n > 0) {
          offer_->count += n;  // one offer span per sample
          offer_->total_ns += NowNs() - t0;
        }
      }
      Pump(/*record_latency=*/false);
      const int64_t pass_end = NowNs();
      pass_accepted.push_back(static_cast<double>(accepted_ - accepted_before));
      pass_s.push_back(static_cast<double>(pass_end - pass_start) / 1e9);
      if (halves != nullptr) {
        halves->accepted[tracing_] += pass_accepted.back();
        halves->seconds[tracing_] += pass_s.back();
      }
      pass_start = pass_end;
    }
    return BlockRate(pass_accepted, pass_s);
  }

  // Open loop at `rate` samples/s for `seconds`: sample j is due at
  // start + j / rate and goes to client j mod clients.
  void OpenLoop(double rate, double seconds) {
    for (auto& client : clients_) {
      client->due_ns.clear();
      client->acked_seen = client->agent->health().samples_delivered;
    }
    // Reserved up front: growing these mid-run would copy megabytes inside
    // the measured loop and show up as stalls in the latency tail.
    const auto expected = static_cast<size_t>(rate * seconds / kLatencyStride * 1.25) + 1024;
    ack_latency_ns_.reserve(ack_latency_ns_.size() + expected);
    lag_ns_.reserve(lag_ns_.size() + expected);
    const double period_ns = 1e9 / rate;
    const int64_t start = NowNs();
    const auto end = start + static_cast<int64_t>(seconds * 1e9);
    int64_t j = 0;
    for (int64_t now = NowNs(); now < end; now = NowNs()) {
      int64_t due = start + static_cast<int64_t>(static_cast<double>(j) * period_ns);
      int64_t n = 0;
      while (due <= now) {
        Client& client = *clients_[static_cast<size_t>(j) % clients_.size()];
        client.agent->OfferSample(client.stream.Make());
        client.due_ns.push_back(due);
        ++client.offered;
        if (j % kLatencyStride == 0) {
          lag_ns_.push_back(static_cast<double>(now - due));
        }
        ++j;
        ++n;
        due = start + static_cast<int64_t>(static_cast<double>(j) * period_ns);
      }
      if (tracing_ && n > 0) {
        offer_->count += n;
        offer_->total_ns += NowNs() - now;
      }
      Pump(/*record_latency=*/true);
    }
  }

  // Runs the loop with no new offers until every offered sample is acked
  // and every transport window is empty.
  bool Drain(bool record_latency) {
    const int64_t start = NowNs();
    while (!Drained()) {
      if (Since(start) > kDrainTimeoutS) {
        return false;
      }
      Pump(record_latency);
    }
    return true;
  }

  void set_tracing(bool on) { tracing_ = on; }

  const std::vector<std::unique_ptr<Client>>& clients() const { return clients_; }
  Aggregator& aggregator() { return aggregator_; }
  int64_t accepted() const { return accepted_; }
  int64_t decode_failures() const { return decode_failures_; }
  int64_t ack_send_failures() const { return ack_send_failures_; }
  int64_t offered() const {
    int64_t total = 0;
    for (const auto& client : clients_) {
      total += client->offered;
    }
    return total;
  }
  const std::vector<double>& ack_latency_ns() const { return ack_latency_ns_; }
  const std::vector<double>& lag_ns() const { return lag_ns_; }

 private:
  int64_t Clock() const { return tracing_ ? NowNs() : 0; }

  static NetServer::Options ServerOptions() {
    NetServer::Options options;
    options.listen_address = "127.0.0.1:0";
    return options;
  }
  static cpi2::Cpi2Params AggregatorParams() {
    cpi2::Cpi2Params params;
    // Wide enough to hold any replay a reconnect could cause (the streams
    // advance one simulated second per pass over ~20 tasks).
    params.sample_dedup_window = 10 * cpi2::kMicrosPerMinute;
    return params;
  }

  bool AllReady() const {
    for (const auto& client : clients_) {
      if (!client->net->ready()) {
        return false;
      }
    }
    return true;
  }

  bool Drained() const {
    for (const auto& client : clients_) {
      if (client->agent->health().samples_delivered != client->offered ||
          client->transport->in_flight() || client->agent->outbox_size() != 0) {
        return false;
      }
    }
    return true;
  }

  // One pass: flush every transport, one non-blocking loop turn (server
  // decode/ingest/ack and client ack handling), the aggregator's staged
  // batch flush, then account newly acked samples.
  void Pump(bool record_latency) {
    for (auto& client : clients_) {
      const int64_t t0 = Clock();
      client->transport->Flush();
      if (tracing_) {
        flush_->Add(NowNs() - t0);
      }
    }
    const int64_t t1 = Clock();
    loop_.RunOnce(0);
    const int64_t t2 = Clock();
    aggregator_.Tick(0);
    const int64_t t3 = NowNs();
    if (tracing_) {
      loop_once_->Add(t2 - t1);
      tick_flush_->Add(t3 - t2);
    }
    for (auto& client : clients_) {
      const int64_t delivered = client->agent->health().samples_delivered;
      while (client->acked_seen < delivered) {
        if (record_latency && !client->due_ns.empty()) {
          if (client->acked_seen % kLatencyStride == 0) {
            ack_latency_ns_.push_back(static_cast<double>(t3 - client->due_ns.front()));
          }
          client->due_ns.pop_front();
        }
        ++client->acked_seen;
      }
    }
  }

  void OnFrame(const NetServer::PeerInfo& peer, std::string_view payload) {
    cpi2::FrameType type;
    uint64_t seq = 0;
    uint64_t consumed = 0;
    std::string_view raw;
    if (!cpi2::ParseFrameType(payload, &type) || type != cpi2::FrameType::kSampleBatch ||
        !cpi2::ParseSampleBatchPayload(payload, &seq, &consumed, &raw)) {
      return;
    }
    cpi2::BatchAckFrame ack;
    ack.seq = seq;
    const int64_t t0 = Clock();
    const bool decoded = cpi2::DecodeSampleBatch(raw, &scratch_).ok();
    const int64_t t1 = Clock();
    if (decoded) {
      for (size_t i = consumed; i < scratch_.size(); ++i) {
        const int64_t dups = aggregator_.duplicates_dropped();
        aggregator_.AddSample(scratch_[i]);
        accepted_ += aggregator_.duplicates_dropped() == dups;
        ++ack.delivered;
      }
    } else {
      ack.decode_failed = true;
      ++decode_failures_;
    }
    const int64_t t2 = Clock();
    reply_.clear();
    cpi2::BuildBatchAckPayload(ack, &reply_);
    if (!server_.SendToPeer(peer.id, reply_)) {
      ++ack_send_failures_;
    }
    if (tracing_) {
      decode_->Add(t1 - t0);
      ingest_->count += ack.delivered;
      ingest_->total_ns += t2 - t1;
      ack_build_->Add(NowNs() - t2);
    }
  }

  EventLoop loop_;
  NetServer server_;
  Aggregator aggregator_;
  uint64_t seed_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<CpiSample> scratch_;  // server decode scratch
  std::string reply_;               // server ack buffer
  int64_t accepted_ = 0;
  int64_t decode_failures_ = 0;
  int64_t ack_send_failures_ = 0;
  bool tracing_ = false;
  std::vector<double> ack_latency_ns_;
  std::vector<double> lag_ns_;
  SpanStat *decode_, *ingest_, *ack_build_, *offer_, *flush_, *loop_once_, *tick_flush_;
};

}  // namespace

void RunLoopback(const LoopbackOptions& options, Report* report) {
  std::printf("loopback: %d clients on one event loop, seed %llu, %.2f s per phase, "
              "open loop at %.0f samples/s\n",
              options.clients, static_cast<unsigned long long>(options.seed),
              options.phase_seconds, kOpenLoopRate);
  Ledger ledger;
  std::vector<double> setup_s;
  std::unique_ptr<Rig> rig;
  bool started = false;
  for (int i = 0; i < kSetups; ++i) {
    rig.reset();
    const int64_t t0 = NowNs();
    rig = std::make_unique<Rig>(MakeStreams(options.seed, options.clients), options.seed,
                                &ledger);
    started = rig->Start();
    setup_s.push_back(Since(t0));
    if (!started) {
      break;
    }
  }
  report->Check("connect", started && static_cast<int>(rig->clients().size()) == options.clients,
                StrFormat("%zu clients handshaken", rig->clients().size()));
  if (!started) {
    return;
  }

  bool drained = true;
  const double untraced_rate = rig->Saturate(options.phase_seconds);
  drained = rig->Drain(false) && drained;
  // Traced runs add a saturating phase traced in alternate slices, then
  // trace the open loop.
  Rig::Halves halves;
  if (options.trace) {
    rig->Saturate(options.phase_seconds, &halves);
    rig->set_tracing(false);
    drained = rig->Drain(false) && drained;
    rig->set_tracing(true);
  }
  const int64_t t_open = NowNs();
  rig->OpenLoop(kOpenLoopRate, options.phase_seconds);
  drained = rig->Drain(true) && drained;
  const double traced_wall = halves.seconds[1] + Since(t_open);
  rig->set_tracing(false);
  const double peak_rss = PeakRssMb();

  // ---- correctness ----
  const int64_t offered = rig->offered();
  int64_t lost = 0, overflow = 0, decode_errors = 0;
  bool balanced = true;
  cpi2::AgentTransport::Stats net;
  for (const auto& client : rig->clients()) {
    const cpi2::AgentHealth& h = client->agent->health();
    lost += h.samples_lost;
    overflow += h.outbox_overflow_drops;
    decode_errors += h.wire_decode_errors;
    const cpi2::AgentTransport::Stats& s = client->transport->stats();
    balanced = balanced && !client->transport->in_flight() &&
               s.batches_sent == s.batches_acked + s.implied_acks + s.inflight_reset;
    net.batches_sent += s.batches_sent;
    net.batches_acked += s.batches_acked;
    net.implied_acks += s.implied_acks;
    net.inflight_reset += s.inflight_reset;
    net.window_stalls += s.window_stalls;
    net.send_backpressure += s.send_backpressure;
    net.window_depth_peak = std::max(net.window_depth_peak, s.window_depth_peak);
  }
  const int64_t failed = lost + overflow + decode_errors + rig->decode_failures() +
                         std::max<int64_t>(0, offered - rig->accepted());
  report->Count("attempted", offered);
  report->Count("failed", failed);
  report->Check("drained", drained, "every offered sample acked, every window empty");
  report->Check("exactly_once",
                rig->accepted() == offered && rig->aggregator().duplicates_dropped() == 0 &&
                    failed == 0 && rig->ack_send_failures() == 0,
                StrFormat("offered=%lld accepted=%lld duplicates=%lld failed=%lld",
                          static_cast<long long>(offered),
                          static_cast<long long>(rig->accepted()),
                          static_cast<long long>(rig->aggregator().duplicates_dropped()),
                          static_cast<long long>(failed)));
  report->Check("transport_balance", balanced,
                StrFormat("sent=%lld acked=%lld implied=%lld reset=%lld",
                          static_cast<long long>(net.batches_sent),
                          static_cast<long long>(net.batches_acked),
                          static_cast<long long>(net.implied_acks),
                          static_cast<long long>(net.inflight_reset)));

  // ---- end-to-end ----
  const std::vector<double>& latency = rig->ack_latency_ns();
  const std::vector<double>& lag = rig->lag_ns();
  size_t block = 0;
  const double ack_tail_ms = BlockTail(latency, 1, &block) / 1e6;
  const double tail_q = TailQuantile(block);
  const double ack_p50_ms = BlockMedian(latency) / 1e6;
  const double lag_p50_us = BlockMedian(lag) / 1e3;
  const double lag_tail_us = BlockTail(lag) / 1e3;
  std::printf("end-to-end (loopback):\n");
  std::printf("  %-26s %14.1f 1/s    saturating closed loop, %d clients\n", "samples_per_s",
              untraced_rate, options.clients);
  std::printf("  %-26s %14.2f us     open loop at %.0f/s, n=%zu acks sampled\n", "ack_p50_us",
              ack_p50_ms * 1e3, kOpenLoopRate, latency.size());
  std::printf("  %-26s %14.2f us     quantile %.4f per block of %zu acks\n", "ack_p99_us",
              ack_tail_ms * 1e3, tail_q, block);
  std::printf("  %-26s %14.2f us     p50; tail %.2f us\n", "generator_lag_us", lag_p50_us,
              lag_tail_us);
  std::printf("  %-26s %14.6f ratio  %lld of %lld offered\n", "failed_ratio",
              offered > 0 ? static_cast<double>(failed) / offered : 0.0,
              static_cast<long long>(failed), static_cast<long long>(offered));
  std::printf("  %-26s %14.4f s      median of %zu set-ups\n", "setup_s", Median(setup_s),
              setup_s.size());
  std::printf("  %-26s %14.1f MiB\n", "peak_rss_mb", peak_rss);
  report->Metric("samples_per_s", untraced_rate, "1/s");
  report->Metric("latency.p50_ms", ack_p50_ms, "ms");
  report->Metric("latency.p99_ms", ack_tail_ms, "ms");
  report->Metric("setup_s", Median(setup_s), "s");
  report->Metric("peak_rss_mb", peak_rss, "MB");
  report->Metric("net.generator_lag_us", lag_p50_us, "us");

  if (!options.trace) {
    return;
  }
  // ---- per-layer ledger ----
  const auto mean_us = [&](const char* name) { return ledger.Get(name).MeanNs() / 1e3; };
  report->Metric("core.agent.offer_ns", ledger.Get("core.agent.offer").MeanNs(), "ns");
  report->Metric("net.transport_flush_us", mean_us("net.transport_flush"), "us");
  report->Metric("net.loop_us", mean_us("net.loop"), "us");
  report->Metric("wire.decode_us", mean_us("wire.decode"), "us");
  report->Metric("core.aggregator.ingest_ns", ledger.Get("core.aggregator.ingest").MeanNs(), "ns");
  report->Metric("core.aggregator.tick_flush_us", mean_us("core.aggregator.tick_flush"), "us");
  report->Metric("net.ack_build_us", mean_us("net.ack_build"), "us");
  report->Metric("net.batches_sent", static_cast<double>(net.batches_sent), "count");
  report->Metric("net.batches_acked", static_cast<double>(net.batches_acked), "count");
  report->Metric("net.window_stalls", static_cast<double>(net.window_stalls), "count");
  report->Metric("net.send_backpressure", static_cast<double>(net.send_backpressure), "count");
  report->Metric("net.window_depth_peak", static_cast<double>(net.window_depth_peak), "count");
  report->Metric("net.samples_per_batch",
                 net.batches_sent > 0 ? static_cast<double>(offered) / net.batches_sent : 0.0,
                 "count");
  const int64_t spine_ns = ledger.Get("core.agent.offer").total_ns +
                           ledger.Get("net.transport_flush").total_ns +
                           ledger.Get("net.loop").total_ns +
                           ledger.Get("core.aggregator.tick_flush").total_ns;
  report->Metric("trace.coverage", traced_wall > 0 ? spine_ns / (traced_wall * 1e9) : 0.0,
                 "ratio");
  report->Metric("trace.overhead",
                 halves.Rate(0) > 0 ? 1.0 - halves.Rate(1) / halves.Rate(0) : 0.0, "ratio");
}

}  // namespace perfbench
