// cpi2-aggregatord: the cluster-side daemon of the networked data plane.
//
// Listens for CPI2NET1 connections from cpi2-agentd processes, decodes each
// SampleBatch frame (skipping the already-settled `consumed` prefix), runs
// every sample through the REAL core Aggregator — whose dedup window is
// what makes retried and regenerated agent streams idempotent — and acks
// the batch back to the sender.
//
// Exactness across its own SIGKILL comes from write-ahead state saving:
// with --state=PATH, every batch is (process → persist → ack). The persisted
// file carries the daemon's acceptance counters AND the aggregator's binary
// checkpoint (dedup watermark + window contents) in ONE atomic write, so
// counters and dedup state can never diverge: a kill before the save loses
// the batch (the agent re-sends it), a kill after the save but before the
// ack re-delivers it (the restored dedup window drops every sample). Either
// way the unique-sample totals are exact after restart.
//
// State file layout: one JSON line (the counters), '\n', then the raw
// CPI2HAG2 aggregator checkpoint blob (an older CPAGCKP3 blob still loads).
//
// Flags:
//   --listen=ADDR          "host:port" (port 0 = pick) or "unix:/path"
//   --stats=PATH           JSON stats file, atomically rewritten
//   --stats-ms=MS          stats rewrite cadence (default 50)
//   --state=PATH           write-ahead counters+checkpoint file (see above)
//   --dedup-window-us=N    aggregator dedup window (default: effectively
//                          unbounded, for the synthetic campaign)
//   --heartbeat-timeout-ms=MS  idle-peer reap limit (default 3000)
//   --drain-ms=MS          lame-duck drain bound on SIGTERM (default 500)
//   --faults=SPEC          NetFaultInjector spec applied to *outgoing*
//                          frames (acks) — lets campaigns damage the
//                          reverse path too
//   --stale-ack-flood=N    adversarial mode: after every real ack, send N
//                          extra BatchAck frames with sequence numbers no
//                          agent ever used. The agent's windowed transport
//                          must count and ignore every one (stale_acks)
//                          without perturbing delivery totals

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/aggregator.h"
#include "net/event_loop.h"
#include "net/fault_injector.h"
#include "net/server.h"
#include "util/file_util.h"
#include "util/logging.h"
#include "wire/sample_codec.h"

namespace cpi2 {
namespace {

volatile std::sig_atomic_t g_signal = 0;
void OnSignal(int sig) { g_signal = sig; }

struct Flags {
  std::string listen;
  std::string stats_path;
  int64_t stats_ms = 50;
  std::string state_path;
  int64_t dedup_window_us = int64_t{1} << 60;
  int64_t heartbeat_timeout_ms = 3000;
  int64_t drain_ms = 500;
  std::string faults;
  int64_t stale_ack_flood = 0;
};

bool ParseFlag(const std::string& arg, const std::string& name, std::string* out) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) {
    return false;
  }
  *out = arg.substr(prefix.size());
  return true;
}

bool ParseFlag(const std::string& arg, const std::string& name, int64_t* out) {
  std::string text;
  if (!ParseFlag(arg, name, &text)) {
    return false;
  }
  *out = std::strtoll(text.c_str(), nullptr, 10);
  return true;
}

// Acceptance bookkeeping that must survive a SIGKILL in lockstep with the
// aggregator's dedup state (they persist in one atomic write).
struct Counters {
  int64_t batches_processed = 0;
  int64_t samples_seen = 0;      // decoded samples offered to AddSample
  int64_t samples_accepted = 0;  // survived dedup (the exactness invariant)
  int64_t decode_failures = 0;
  std::map<std::string, int64_t> per_machine;  // accepted, by sample.machine

  std::string ToJsonLine() const {
    std::ostringstream json;
    json << "{\"batches_processed\": " << batches_processed
         << ", \"samples_seen\": " << samples_seen
         << ", \"samples_accepted\": " << samples_accepted
         << ", \"decode_failures\": " << decode_failures << ", \"per_machine\": {";
    bool first = true;
    for (const auto& [machine, count] : per_machine) {
      json << (first ? "" : ", ") << "\"" << machine << "\": " << count;
      first = false;
    }
    json << "}}";
    return json.str();
  }

  // Parses the exact shape ToJsonLine emits (this is a state file we wrote,
  // not foreign input; a parse failure means a torn/foreign file and the
  // caller starts fresh).
  bool FromJsonLine(const std::string& line);
};

bool ScanInt(const std::string& line, const std::string& key, size_t* pos, int64_t* out) {
  const std::string needle = "\"" + key + "\": ";
  const size_t at = line.find(needle, *pos);
  if (at == std::string::npos) {
    return false;
  }
  *pos = at + needle.size();
  char* end = nullptr;
  *out = std::strtoll(line.c_str() + *pos, &end, 10);
  return end != line.c_str() + *pos;
}

bool Counters::FromJsonLine(const std::string& line) {
  size_t pos = 0;
  if (!ScanInt(line, "batches_processed", &pos, &batches_processed) ||
      !ScanInt(line, "samples_seen", &pos, &samples_seen) ||
      !ScanInt(line, "samples_accepted", &pos, &samples_accepted) ||
      !ScanInt(line, "decode_failures", &pos, &decode_failures)) {
    return false;
  }
  const size_t map_at = line.find("\"per_machine\": {", pos);
  if (map_at == std::string::npos) {
    return false;
  }
  size_t cursor = map_at + std::string("\"per_machine\": {").size();
  while (true) {
    const size_t quote = line.find('"', cursor);
    const size_t brace = line.find('}', cursor);
    if (quote == std::string::npos || (brace != std::string::npos && brace < quote)) {
      break;  // end of map
    }
    const size_t quote_end = line.find('"', quote + 1);
    if (quote_end == std::string::npos) {
      return false;
    }
    const std::string machine = line.substr(quote + 1, quote_end - quote - 1);
    size_t value_pos = quote_end;
    int64_t count = 0;
    const size_t colon = line.find(": ", quote_end);
    if (colon == std::string::npos) {
      return false;
    }
    value_pos = colon + 2;
    char* end = nullptr;
    count = std::strtoll(line.c_str() + value_pos, &end, 10);
    if (end == line.c_str() + value_pos) {
      return false;
    }
    per_machine[machine] = count;
    cursor = static_cast<size_t>(end - line.c_str());
  }
  return true;
}

int Run(const Flags& flags) {
  Cpi2Params params;
  params.sample_dedup_window = flags.dedup_window_us;
  Aggregator aggregator(params);
  Counters counters;

  // Restore the write-ahead state if a previous incarnation left one.
  if (!flags.state_path.empty()) {
    StatusOr<std::string> blob = ReadFileToString(flags.state_path);
    if (blob.ok()) {
      const std::string& contents = blob.value();
      const size_t newline = contents.find('\n');
      if (newline == std::string::npos || !counters.FromJsonLine(contents.substr(0, newline))) {
        CPI2_LOG(ERROR) << "cpi2-aggregatord: unreadable counters in " << flags.state_path;
        return 2;
      }
      const Status restored = aggregator.Restore(contents.substr(newline + 1));
      if (!restored.ok()) {
        CPI2_LOG(ERROR) << "cpi2-aggregatord: checkpoint restore failed: "
                        << restored.message();
        return 2;
      }
      CPI2_LOG(INFO) << "cpi2-aggregatord: restored " << counters.samples_accepted
                     << " accepted samples from " << flags.state_path;
    }
  }

  EventLoop loop;

  NetFaultInjector::Options fault_options;
  std::unique_ptr<NetFaultInjector> injector;
  if (!flags.faults.empty()) {
    std::string error;
    if (!NetFaultInjector::ParseSpec(flags.faults, &fault_options, &error)) {
      CPI2_LOG(ERROR) << "cpi2-aggregatord: " << error;
      return 2;
    }
    injector = std::make_unique<NetFaultInjector>(fault_options);
    if (fault_options.kill_mid_frame_after > 0) {
      injector->set_fault_hook([](NetFaultInjector::Action action) {
        if (action == NetFaultInjector::Action::kKillMidFrame) {
          std::raise(SIGKILL);
        }
      });
    }
  }

  NetServer::Options server_options;
  server_options.listen_address = flags.listen;
  server_options.heartbeat_timeout = flags.heartbeat_timeout_ms * kMicrosPerMilli;
  server_options.drain_timeout = flags.drain_ms * kMicrosPerMilli;
  server_options.connection.injector = injector.get();
  NetServer server(&loop, server_options);

  int64_t stale_acks_sent = 0;

  const auto save_state = [&]() -> bool {
    if (flags.state_path.empty()) {
      return true;
    }
    std::string contents = counters.ToJsonLine();
    contents.push_back('\n');
    contents += aggregator.Checkpoint();
    const Status status = AtomicWriteFile(flags.state_path, contents);
    if (!status.ok()) {
      CPI2_LOG(ERROR) << "cpi2-aggregatord: state save failed: " << status.message();
      return false;
    }
    return true;
  };

  server.set_frame_handler([&](const NetServer::PeerInfo& peer, std::string_view payload) {
    FrameType type;
    if (!ParseFrameType(payload, &type) || type != FrameType::kSampleBatch) {
      return;  // future frame types: ignore, don't poison
    }
    uint64_t seq = 0;
    uint64_t consumed = 0;
    std::string_view batch_bytes;
    if (!ParseSampleBatchPayload(payload, &seq, &consumed, &batch_bytes)) {
      // Malformed envelope despite a valid CRC: protocol error.
      return;
    }
    BatchAckFrame ack;
    ack.seq = seq;
    std::vector<CpiSample> samples;
    const Status decoded = DecodeSampleBatch(batch_bytes, &samples);
    if (!decoded.ok()) {
      // The inner CPI2SMB1 codec rejected the bytes (its own CRC/shape
      // checks). Retrying identical bytes cannot help: tell the agent.
      ++counters.decode_failures;
      ack.decode_failed = true;
    } else {
      for (size_t i = consumed; i < samples.size(); ++i) {
        const int64_t dups_before = aggregator.duplicates_dropped();
        aggregator.AddSample(samples[i]);
        ++counters.samples_seen;
        if (aggregator.duplicates_dropped() == dups_before) {
          ++counters.samples_accepted;
          ++counters.per_machine[samples[i].machine];
        }
        ++ack.delivered;
      }
      ++counters.batches_processed;
    }
    // Write-ahead: the ack must never outrun the persisted state.
    if (!save_state()) {
      return;  // no ack; the agent re-sends and we try again
    }
    std::string reply;
    BuildBatchAckPayload(ack, &reply);
    server.SendToPeer(peer.id, reply);
    // Adversarial flood: acks for sequences far beyond anything in flight.
    // Sequence numbers start at 1 and count batches, so offsetting by 2^40
    // can never collide with a live window entry.
    for (int64_t i = 0; i < flags.stale_ack_flood; ++i) {
      BatchAckFrame stale;
      stale.seq = seq + (uint64_t{1} << 40) + static_cast<uint64_t>(i);
      stale.delivered = 1;
      reply.clear();  // the builder appends; each flood frame stands alone
      BuildBatchAckPayload(stale, &reply);
      if (server.SendToPeer(peer.id, reply)) {
        ++stale_acks_sent;
      }
    }
  });

  const Status started = server.Start();
  if (!started.ok()) {
    CPI2_LOG(ERROR) << "cpi2-aggregatord: listen failed: " << started.message();
    return 1;
  }
  CPI2_LOG(INFO) << "cpi2-aggregatord: listening on " << flags.listen
                 << (server.bound_port() > 0
                         ? " (port " + std::to_string(server.bound_port()) + ")"
                         : "");

  const auto write_stats = [&] {
    if (flags.stats_path.empty()) {
      return;
    }
    const NetServer::Stats& ss = server.stats();
    std::ostringstream json;
    json << "{\n"
         << "  \"port\": " << server.bound_port() << ",\n"
         << "  \"batches_processed\": " << counters.batches_processed << ",\n"
         << "  \"samples_seen\": " << counters.samples_seen << ",\n"
         << "  \"samples_accepted\": " << counters.samples_accepted << ",\n"
         << "  \"duplicates_dropped\": " << aggregator.duplicates_dropped() << ",\n"
         << "  \"decode_failures\": " << counters.decode_failures << ",\n"
         << "  \"connections_accepted\": " << ss.connections_accepted << ",\n"
         << "  \"connections_closed\": " << ss.connections_closed << ",\n"
         << "  \"handshake_rejects\": " << ss.handshake_rejects << ",\n"
         << "  \"corrupt_frames\": " << ss.corrupt_frames << ",\n"
         << "  \"truncated_tails\": " << ss.truncated_tails << ",\n"
         << "  \"idle_peer_reaps\": " << ss.idle_peer_reaps << ",\n"
         << "  \"goaways_sent\": " << ss.goaways_sent << ",\n"
         << "  \"stale_acks_sent\": " << stale_acks_sent << ",\n"
         << "  \"peers\": " << server.peer_count() << ",\n"
         << "  \"lame_duck\": " << (server.lame_duck() ? "true" : "false") << ",\n"
         << "  \"per_machine\": {";
    bool first = true;
    for (const auto& [machine, count] : counters.per_machine) {
      json << (first ? "" : ", ") << "\"" << machine << "\": " << count;
      first = false;
    }
    json << "}\n}\n";
    const Status status = AtomicWriteFile(flags.stats_path, json.str());
    if (!status.ok()) {
      CPI2_LOG(WARNING) << "cpi2-aggregatord: stats write failed: " << status.message();
    }
  };

  bool draining = false;
  std::function<void()> housekeeping = [&] {
    if (g_signal == SIGINT) {
      loop.Stop();
      return;
    }
    if (g_signal == SIGTERM && !draining) {
      // Lame duck: tell every agent to go away, drain the acks in flight,
      // then leave. Agents hold their outboxes and reconnect to the next
      // incarnation.
      draining = true;
      server.BeginLameDuck();
      loop.AddTimer((flags.drain_ms + 100) * kMicrosPerMilli, [&loop = loop] { loop.Stop(); });
    }
    write_stats();
    loop.AddTimer(flags.stats_ms * kMicrosPerMilli, housekeeping);
  };
  loop.AddTimer(flags.stats_ms * kMicrosPerMilli, housekeeping);
  write_stats();  // surface the bound port before the first client connects

  std::signal(SIGTERM, OnSignal);
  std::signal(SIGINT, OnSignal);
  loop.Run();

  server.Stop();
  write_stats();
  return 0;
}

}  // namespace
}  // namespace cpi2

int main(int argc, char** argv) {
  cpi2::Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (cpi2::ParseFlag(arg, "listen", &flags.listen) ||
        cpi2::ParseFlag(arg, "stats", &flags.stats_path) ||
        cpi2::ParseFlag(arg, "stats-ms", &flags.stats_ms) ||
        cpi2::ParseFlag(arg, "state", &flags.state_path) ||
        cpi2::ParseFlag(arg, "dedup-window-us", &flags.dedup_window_us) ||
        cpi2::ParseFlag(arg, "heartbeat-timeout-ms", &flags.heartbeat_timeout_ms) ||
        cpi2::ParseFlag(arg, "drain-ms", &flags.drain_ms) ||
        cpi2::ParseFlag(arg, "faults", &flags.faults) ||
        cpi2::ParseFlag(arg, "stale-ack-flood", &flags.stale_ack_flood)) {
      continue;
    }
    std::fprintf(stderr, "cpi2-aggregatord: unknown flag %s\n", arg.c_str());
    return 2;
  }
  if (flags.listen.empty()) {
    std::fprintf(stderr, "cpi2-aggregatord: --listen is required\n");
    return 2;
  }
  return cpi2::Run(flags);
}
