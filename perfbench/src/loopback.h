// The `loopback` workload: no simulator. `clients` Agent + AgentTransport
// pairs and one NetServer share a single EventLoop thread and stream seeded
// samples over CPI2NET1 on loopback TCP; the server decodes each batch and
// feeds the samples to an Aggregator. Two phases:
//
//  1. saturating closed loop: every outbox is kept full for `phase_seconds`;
//     reports samples accepted exactly once per wall second;
//  2. open loop at a fixed offered rate (kOpenLoopRate in loopback.cc) for
//     `phase_seconds`: each sample is offered when due, and its ack latency
//     counts from that due time, so a stall also charges the samples queued
//     behind it. The generator reports how late it ran.
//
// A traced run inserts a second saturating phase between the two, traced in
// alternate 0.1 s slices, whose halves give the cost of tracing; the open
// loop is then traced throughout.
//
// After each phase the pipeline drains, and the run checks that every
// offered sample was accepted exactly once and that each transport's window
// balance holds: batches_sent == batches_acked + implied_acks + inflight_reset.

#ifndef PERFBENCH_LOOPBACK_H_
#define PERFBENCH_LOOPBACK_H_

#include <cstdint>

#include "ledger.h"

namespace perfbench {

struct LoopbackOptions {
  uint64_t seed;
  int clients;
  double phase_seconds;  // wall seconds of each phase
  bool trace;
};

void RunLoopback(const LoopbackOptions& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_LOOPBACK_H_
