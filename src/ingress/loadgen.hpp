// Open-loop client load generator (DESIGN.md §13). Simulates a large
// population of logical clients (tens of thousands to a million) multiplexed
// over a bounded set of real TCP connections: arrivals follow an aggregate
// Poisson process at a configured rate, the submitting client is drawn from
// a Zipf distribution (a few hot clients, a long cold tail), and an optional
// churn schedule closes and reopens connections mid-run, resubmitting the
// un-acked transactions of the affected clients — the reconnect path the
// mempool's origin re-homing exists for.
//
// Everything is seeded and deterministic on the loadgen side: a resubmitted
// tx regenerates byte-identical payload from (client_id, tx_id), so it maps
// to the same digest at every node.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "metrics/stats.hpp"

namespace dr::ingress {

/// Deterministic payload for (client_id, tx_id): 16 bytes of ids followed by
/// SplitMix64 filler. Regenerable, so churned clients resubmit exactly the
/// bytes they first sent. Always at least 16 bytes.
Bytes loadgen_payload(std::uint64_t client_id, std::uint64_t tx_id,
                      std::size_t bytes);

struct LoadGenTarget {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

struct LoadGenOptions {
  /// Logical client population (each with its own id space and Zipf weight).
  std::uint64_t clients = 10'000;
  /// Real TCP connections the population is multiplexed over.
  std::size_t connections = 64;
  /// Ingress endpoints; connection i targets targets[i % targets.size()].
  std::vector<LoadGenTarget> targets;
  /// 0 = run until request_stop().
  std::uint64_t duration_ms = 0;
  /// Aggregate open-loop arrival rate across the whole population.
  double rate_tps = 10'000.0;
  std::size_t payload_bytes = 32;
  /// Zipf exponent for the client popularity distribution (0 = uniform).
  double zipf_s = 1.0;
  /// Every churn_period_ms one connection is torn down and redialed, and
  /// the outstanding txs of its clients are resubmitted. 0 = no churn.
  std::uint64_t churn_period_ms = 0;
  std::uint64_t seed = 1;
  int connect_timeout_ms = 2'000;
  /// After the run window, keep pumping acks for up to this long.
  std::uint64_t drain_ms = 2'000;
};

struct LoadGenReport {
  std::uint64_t submitted = 0;      ///< txs handed to a connection
  std::uint64_t accepted = 0;
  std::uint64_t busy = 0;
  std::uint64_t dup_pending = 0;
  std::uint64_t dup_committed = 0;
  std::uint64_t pool_full = 0;
  std::uint64_t too_large = 0;
  std::uint64_t acked = 0;
  std::uint64_t resubmitted = 0;
  std::uint64_t local_backpressure = 0;  ///< conn out-queue full, tx dropped
  std::uint64_t overload_skips = 0;      ///< arrival debt shed under overload
  std::uint64_t churn_events = 0;
  std::uint64_t connect_failures = 0;
  std::uint64_t outstanding_at_end = 0;
  std::uint64_t elapsed_ms = 0;
  /// Client-observed submit -> commit-ack latency.
  metrics::Summary ack_latency_ms;
  bool ok = false;
  std::string error;
};

class LoadGen {
 public:
  explicit LoadGen(LoadGenOptions opts);
  ~LoadGen();

  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Spawns the driver thread. One LoadGen = one run.
  bool start();
  /// Asks the driver to wind down early (it still drains acks).
  void request_stop() { stop_.store(true, std::memory_order_release); }
  /// Joins the driver — it exits on its own once duration_ms elapses — and
  /// returns the final report. Callers without a duration must
  /// request_stop() first (or use stop_and_report()).
  LoadGenReport wait_and_report();
  /// request_stop() + wait_and_report().
  LoadGenReport stop_and_report();

 private:
  struct Driver;

  LoadGenOptions opts_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  bool joined_ = false;
  LoadGenReport report_;
};

}  // namespace dr::ingress
