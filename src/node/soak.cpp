#include "node/soak.hpp"

#include <algorithm>
#include <memory>
#include <thread>
#include <utility>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "core/audit.hpp"
#include "ingress/loadgen.hpp"
#include "net/chaos.hpp"

namespace dr::node {
namespace {

/// Salt separating the soak's schedule stream (Byzantine seat, churn victim
/// and timing) from the ChaosPlan stream derived from the same user seed.
constexpr std::uint64_t kSoakSeedTweak = 0x50A1C5EEDULL;

}  // namespace

std::string SoakResult::describe() const {
  std::string out = "chaos-soak seed=" + std::to_string(seed);
  out += std::string(" ordering=") + core::to_string(ordering);
  out += " byz_pid=" + std::to_string(byzantine_pid);
  out += " churn_pid=" + std::to_string(churn_pid);
  out += " plan=" + plan;
  if (!violation.empty()) out += " VIOLATION: " + violation;
  return out;
}

SoakResult run_chaos_soak(const SoakOptions& opts) {
  DR_ASSERT_MSG(!opts.with_churn || !opts.wal_dir.empty(),
                "churn requires a wal_dir to restart from");
  const Committee committee = Committee::for_n(opts.n);
  DR_ASSERT_MSG(committee.valid() && committee.f >= 1,
                "chaos soak needs n >= 4 (f >= 1)");

  SoakResult result;
  result.seed = opts.seed;
  result.ordering = opts.ordering;

  // Everything adversarial derives from the one seed: the link-fault plan
  // from its own stream inside randomized(), the seat/timing choices below
  // from a tweaked stream so adding a knob never shifts the plan.
  const net::ChaosPlan plan =
      net::ChaosPlan::randomized(opts.seed, opts.n, opts.with_partition);
  result.plan = plan.describe();

  SplitMix64 sched(opts.seed ^ kSoakSeedTweak);
  const ProcessId byz_pid =
      opts.byzantine != core::ByzantineProfile::kHonest
          ? static_cast<ProcessId>(sched.next() % opts.n)
          : static_cast<ProcessId>(opts.n);
  ProcessId churn_pid = static_cast<ProcessId>(opts.n);
  std::uint64_t churn_stop_ms = 0;
  std::uint64_t churn_down_ms = 0;
  if (opts.with_churn) {
    // Crash an honest node: restarting the adversary mid-attack is a
    // different experiment (equivocation state does not survive a reboot).
    do {
      churn_pid = static_cast<ProcessId>(sched.next() % opts.n);
    } while (churn_pid == byz_pid);
    churn_stop_ms = 80 + sched.next() % 120;
    churn_down_ms = 40 + sched.next() % 120;
  }
  result.byzantine_pid = byz_pid;
  result.churn_pid = churn_pid;

  NodeOptions nopts;
  nopts.seed = opts.seed;
  nopts.ordering = opts.ordering;
  nopts.wal_dir = opts.wal_dir;
  nopts.ingress_enable = opts.with_ingress;

  ClusterTweaks tweaks;
  tweaks.transport_wrap = [plan](ProcessId,
                                 std::unique_ptr<net::Transport> inner) {
    return std::make_unique<net::ChaosTransport>(std::move(inner), plan);
  };
  if (byz_pid < opts.n) {
    tweaks.profiles.assign(opts.n, core::ByzantineProfile::kHonest);
    tweaks.profiles[byz_pid] = opts.byzantine;
  }

  Cluster cluster(committee, nopts, std::move(tweaks));
  const auto deadline = std::chrono::steady_clock::now() + opts.timeout;
  cluster.start();

  // Client traffic rides the whole fault schedule: the loadgen submits
  // through every node's ingress endpoint (including the churn victim's —
  // its clients redial the stable port and resubmit after the restart).
  std::unique_ptr<ingress::LoadGen> loadgen;
  if (opts.with_ingress) {
    ingress::LoadGenOptions lg;
    lg.clients = opts.ingress_clients;
    lg.connections = std::max<std::size_t>(8, opts.n * 4);
    for (ProcessId pid = 0; pid < opts.n; ++pid) {
      lg.targets.push_back(
          ingress::LoadGenTarget{"127.0.0.1", cluster.ingress_port(pid)});
    }
    lg.rate_tps = opts.ingress_rate_tps;
    lg.churn_period_ms = opts.ingress_churn_period_ms;
    lg.seed = sched.next();
    lg.connect_timeout_ms = 500;
    lg.drain_ms = 500;
    loadgen = std::make_unique<ingress::LoadGen>(lg);
    loadgen->start();
  }

  if (opts.with_churn) {
    std::this_thread::sleep_for(std::chrono::milliseconds(churn_stop_ms));
    cluster.stop_node(churn_pid);
    std::this_thread::sleep_for(std::chrono::milliseconds(churn_down_ms));
    cluster.restart_node(churn_pid);
  }

  const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - std::chrono::steady_clock::now());
  result.progressed = cluster.wait_all_delivered(
      opts.target_delivered, std::max(remaining, std::chrono::milliseconds(1)));
  if (loadgen) {
    // Wind the clients down before the nodes: their sessions die with the
    // ingress servers, and the drain window wants live ack paths.
    const ingress::LoadGenReport lr = loadgen->stop_and_report();
    result.ingress_submitted = lr.submitted;
    result.ingress_acked = lr.acked;
    result.ingress_resubmitted = lr.resubmitted;
    result.ingress_churn_events = lr.churn_events;
    result.ingress_ack_p50_ms = lr.ack_latency_ms.percentile(0.50);
    result.ingress_ack_p99_ms = lr.ack_latency_ms.percentile(0.99);
  }
  cluster.stop();

  auto delivered = cluster.delivered_logs();
  auto commits = cluster.commit_logs();
  std::vector<metrics::Counters> per_node;
  per_node.reserve(opts.n);
  for (ProcessId pid = 0; pid < opts.n; ++pid) {
    per_node.push_back(cluster.node(pid).counters());
  }
  result.counters = metrics::aggregate(per_node);
  for (const auto& [name, value] : per_node[byz_pid < opts.n ? byz_pid : 0]) {
    if (name == "byzantine.attacks") result.byzantine_attacks = value;
  }

  // The BAB properties quantify over correct processes; a live adversary's
  // own log is not evidence of anything (it may say whatever it likes).
  if (byz_pid < opts.n) {
    delivered.erase(delivered.begin() + byz_pid);
    commits.erase(commits.begin() + byz_pid);
  }

  if (opts.canary && !delivered.empty() && delivered[0].size() >= 2) {
    // Self-test: duplicate (round, source) inside one log — an Integrity
    // violation every auditor pass must catch regardless of run timing.
    delivered[0][1].round = delivered[0][0].round;
    delivered[0][1].source = delivered[0][0].source;
  }

  if (auto v = core::audit_logs(delivered, commits)) {
    result.violation = *v;
  }
  result.ok = result.progressed && result.violation.empty();
  return result;
}

}  // namespace dr::node
