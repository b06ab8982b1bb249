// RT — real-concurrency throughput/latency of the threaded node runtime
// (src/node/) over the in-process transport. Unlike every other bench in
// this directory, nothing here is simulated — these are OS threads on real
// clocks, so absolute numbers depend on the host (and on sanitizers; CI runs
// this in --smoke mode only as a liveness check).
//
// One invocation runs every row of a fixed scenario table (committee size,
// block size, ordering personality, chaos on/off; --smoke keeps the n=4
// rows), then one crash-restart, and reports:
//   - one throughput/latency table over all rows;
//   - the p50 commit-latency ratio of DagRider over Bullshark at n=4: the
//     DAG layer, runtime and transport are identical, so the ratio is the
//     happy-path cost of 4-round waves vs 2-round anchors (DESIGN.md §14);
//   - the injected-fault counters of the chaos rows, which run every
//     endpoint behind net::ChaosTransport under ChaosPlan::randomized(1);
//   - the rejoin table: one node of a durable 4-node cluster is killed,
//     restarted from its WAL, and timed until WAL replay + peer catch-up
//     regain the commit frontier the survivors held at the restart.
//
// Latency is measured client-to-commit: submit stamps the transaction with
// node 0's clock, and delivery at node 0 records the difference, so no
// cross-node clock skew enters the measurement. With --wal <dir> every node
// of every row writes its vertex WAL under <dir>, measuring the durability
// overhead against the in-memory numbers; the restart run always keeps a WAL
// (under <dir>, or a temp directory). Exits 1 if any auditor finds a
// violation.
#include <atomic>
#include <filesystem>
#include <mutex>

#include "bench_util.hpp"
#include "core/audit.hpp"
#include "core/ordering.hpp"
#include "metrics/counters.hpp"
#include "net/chaos.hpp"
#include "node/cluster.hpp"
#include "txpool/transaction.hpp"

namespace dr::bench {
namespace {

constexpr std::uint64_t kChaosSeed = 1;

struct Scenario {
  std::uint32_t n;
  std::size_t block_max_txs;
  core::OrderingKind ordering;
  bool chaos;
  bool in_smoke;
};

constexpr core::OrderingKind kDagRider = core::OrderingKind::kDagRider;
constexpr core::OrderingKind kBullshark = core::OrderingKind::kBullshark;

/// Committee sweep, block-size sweep, the ordering head-to-head and the chaos
/// runs share the n=4 / 256 txs / DagRider row, which runs once.
constexpr Scenario kScenarios[] = {
    {4, 256, kDagRider, false, true},   {7, 256, kDagRider, false, false},
    {10, 256, kDagRider, false, false}, {4, 64, kDagRider, false, true},
    {4, 1024, kDagRider, false, false}, {4, 256, kBullshark, false, true},
    {4, 256, kDagRider, true, true},    {7, 256, kDagRider, true, false},
};

struct RealtimeRun {
  double txs_per_sec = 0;
  double commits_per_sec = 0;
  double blocks_per_sec = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  metrics::Counters counters;  ///< aggregated over every node
  bool ok = false;
};

/// Set when an auditor reports a violation; main() then exits 1.
bool g_audit_failed = false;

bool audit_clean(const node::Cluster& cluster, const char* what) {
  const auto violation =
      core::audit_logs(cluster.delivered_logs(), cluster.commit_logs());
  if (!violation.has_value()) return true;
  std::fprintf(stderr, "RT %s AUDIT FAILURE: %s\n", what, violation->c_str());
  g_audit_failed = true;
  return false;
}

/// Fresh per-configuration WAL base under --wal, or "" (durability off).
std::string wal_base(const std::string& config) {
  if (bench_wal_dir().empty()) return "";
  const std::string dir = bench_wal_dir() + "/" + config;
  std::filesystem::remove_all(dir);
  return dir;
}

RealtimeRun run_cluster(const Scenario& s) {
  // Chaos rows push half the workload: every frame may be delayed or
  // retransmitted.
  const std::uint64_t total_txs =
      (smoke() ? 2'000u : 20'000u) / (s.chaos ? 2u : 1u);
  const std::string name = "rt-n" + std::to_string(s.n) + "-b" +
                           std::to_string(s.block_max_txs) + "-" +
                           core::to_string(s.ordering) +
                           (s.chaos ? "-chaos" : "");
  node::NodeOptions opts;
  opts.seed = 1234;
  opts.block_max_txs = s.block_max_txs;
  opts.wal_dir = wal_base(name);
  opts.ordering = s.ordering;
  node::ClusterTweaks tweaks;
  if (s.chaos) {
    const net::ChaosPlan plan = net::ChaosPlan::randomized(kChaosSeed, s.n);
    std::printf("chaos n=%u %s\n", s.n, plan.describe().c_str());
    tweaks.transport_wrap = [plan](ProcessId,
                                   std::unique_ptr<net::Transport> inner) {
      return std::make_unique<net::ChaosTransport>(std::move(inner), plan);
    };
  }
  node::Cluster cluster(Committee::for_n(s.n), opts, std::move(tweaks));

  // Latency samples and completion tracking, fed by node 0's deliver hook.
  metrics::Summary latency_ms;
  std::mutex lat_mu;
  std::atomic<std::uint64_t> txs_done{0};
  node::Node& probe = cluster.node(0);
  probe.set_app_deliver([&](const Bytes& block, Round, ProcessId,
                            std::uint64_t t_us) {
    auto txs = txpool::decode_block(BytesView(block));
    if (!txs.ok()) return;
    std::lock_guard<std::mutex> lk(lat_mu);
    for (const auto& tx : txs.value()) {
      latency_ms.add(static_cast<double>(t_us - tx.submit_time) / 1000.0);
    }
    txs_done.fetch_add(txs.value().size(), std::memory_order_relaxed);
  });

  cluster.start();
  const std::uint64_t t_start = probe.now_us();

  RealtimeRun out;
  for (std::uint64_t id = 1; id <= total_txs; ++id) {
    txpool::Transaction tx;
    tx.id = id;
    tx.submit_time = probe.now_us();
    tx.payload = Bytes(32, static_cast<std::uint8_t>(id));
    if (cluster.node(static_cast<ProcessId>(id % s.n))
            .submit_tx(std::move(tx)) != ingress::SubmitStatus::kAccepted) {
      std::fprintf(stderr, "RT %s: tx %llu rejected\n", name.c_str(),
                   static_cast<unsigned long long>(id));
      cluster.stop();
      return out;
    }
  }

  if (!cluster.wait_all_delivered(1, std::chrono::minutes(2))) {
    cluster.stop();
    return out;
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::minutes(3);
  while (txs_done.load(std::memory_order_relaxed) < total_txs) {
    if (std::chrono::steady_clock::now() >= deadline) {
      cluster.stop();
      return out;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const std::uint64_t t_end = probe.now_us();
  const std::uint64_t commits = probe.commits_snapshot().size();
  const std::uint64_t blocks = probe.delivered_count();
  cluster.stop();
  std::vector<metrics::Counters> per_node;
  for (ProcessId pid = 0; pid < s.n; ++pid) {
    per_node.push_back(cluster.node(pid).counters());
  }
  out.counters = metrics::aggregate(per_node);
  if (!audit_clean(cluster, name.c_str())) return out;

  const double secs = static_cast<double>(t_end - t_start) / 1e6;
  out.txs_per_sec = static_cast<double>(total_txs) / secs;
  out.commits_per_sec = static_cast<double>(commits) / secs;
  out.blocks_per_sec = static_cast<double>(blocks) / secs;
  {
    std::lock_guard<std::mutex> lk(lat_mu);
    out.p50_ms = latency_ms.percentile(0.50);
    out.p99_ms = latency_ms.percentile(0.99);
  }
  out.ok = true;
  return out;
}

// Crashes one node of a durable 4-node cluster, restarts it, and times WAL
// replay + catch-up sync until it regains the commit frontier the survivors
// held at the moment of restart.
void measure_restart() {
  const std::string dir =
      bench_wal_dir().empty()
          ? (std::filesystem::temp_directory_path() / "dr_rt_restart").string()
          : bench_wal_dir() + "/rt-restart";
  std::filesystem::remove_all(dir);

  node::NodeOptions opts;
  opts.seed = 1234;
  opts.wal_dir = dir;
  node::Cluster cluster(Committee::for_n(4), opts);
  cluster.start();
  node::Node& probe = cluster.node(0);

  // Warm-up, then a downtime window the restarted node must sync across.
  const std::uint64_t warm = smoke() ? 100 : 1'000;
  const std::uint64_t window = smoke() ? 200 : 2'000;
  if (!cluster.wait_all_delivered(warm, std::chrono::minutes(2))) {
    std::fprintf(stderr, "RT RESTART: warm-up stalled\n");
    return;
  }
  cluster.stop_node(2);
  const std::uint64_t at_crash = probe.delivered_count();
  const auto gap_deadline =
      std::chrono::steady_clock::now() + std::chrono::minutes(2);
  while (probe.delivered_count() < at_crash + window) {
    if (std::chrono::steady_clock::now() >= gap_deadline) {
      std::fprintf(stderr, "RT RESTART: survivors stalled\n");
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const std::uint64_t t0 = probe.now_us();
  cluster.restart_node(2);
  const std::uint64_t rejoin_target = probe.delivered_count();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::minutes(3);
  while (cluster.node(2).delivered_count() < rejoin_target) {
    if (std::chrono::steady_clock::now() >= deadline) {
      std::fprintf(stderr, "RT RESTART: rejoin stalled\n");
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const double rejoin_ms = static_cast<double>(probe.now_us() - t0) / 1000.0;
  cluster.stop();
  if (!audit_clean(cluster, "RESTART")) return;

  metrics::Table t({"metric", "value"});
  t.add_row({"blocks delivered at crash", metrics::Table::fmt_u64(at_crash)});
  t.add_row({"blocks missed while down", metrics::Table::fmt_u64(window)});
  t.add_row({"rejoin latency ms", metrics::Table::fmt(rejoin_ms, 1)});
  for (const auto& [name, value] : cluster.node(2).counters()) {
    if (name == "builder.restored_vertices" ||
        name == "builder.sync_deliveries" ||
        name == "catchup.requests_sent" ||
        name == "catchup.vertices_accepted" ||
        name == "store.recovered_vertices" ||
        name == "store.recovered_proposals") {
      t.add_row({name, metrics::Table::fmt_u64(value)});
    }
  }
  emit(t);
}

void run_all() {
  metrics::Table t({"n", "txs/block", "ordering", "chaos", "txs/s",
                    "blocks/s", "commits/s", "p50 ms", "p99 ms"});
  metrics::Table faults({"n", "counter", "value"});
  double p50[2] = {0, 0};  // n=4, 256 txs, no chaos; indexed by OrderingKind
  for (const Scenario& s : kScenarios) {
    if (smoke() && !s.in_smoke) continue;
    const RealtimeRun r = run_cluster(s);
    t.add_row({std::to_string(s.n), std::to_string(s.block_max_txs),
               core::to_string(s.ordering), s.chaos ? "on" : "off",
               r.ok ? metrics::Table::fmt(r.txs_per_sec, 0) : "stall",
               metrics::Table::fmt(r.blocks_per_sec, 0),
               metrics::Table::fmt(r.commits_per_sec, 1),
               metrics::Table::fmt(r.p50_ms, 2),
               metrics::Table::fmt(r.p99_ms, 2)});
    if (s.n == 4 && s.block_max_txs == 256 && !s.chaos && r.ok) {
      p50[static_cast<std::size_t>(s.ordering)] = r.p50_ms;
    }
    if (!s.chaos) continue;
    for (const auto& [name, value] : r.counters) {
      if (name.rfind("transport.chaos.", 0) == 0 ||
          name == "transport.backpressure_overflows") {
        faults.add_row({std::to_string(s.n), name,
                        metrics::Table::fmt_u64(value)});
      }
    }
  }

  print_header("RT", "real-concurrency runtime: commits/sec and tx latency "
                     "(in-proc)");
  emit(t);

  print_header("RT-ORDERING",
               "ordering personalities head-to-head: dagrider vs bullshark "
               "(n=4)");
  if (p50[0] > 0 && p50[1] > 0) {
    metrics::Table ratio({"metric", "value"});
    ratio.add_row({"p50 ratio dagrider/bullshark",
                   metrics::Table::fmt(p50[0] / p50[1], 2)});
    emit(ratio);
  } else {
    std::fprintf(stderr, "RT ORDERING: a personality stalled; no ratio\n");
  }

  print_header("RT-CHAOS", "injected faults of the chaos rows (seed 1)");
  emit(faults);

  print_header("RT-RESTART",
               "crash restart: WAL replay + catch-up rejoin latency");
  measure_restart();
}

}  // namespace
}  // namespace dr::bench

int main(int argc, char** argv) {
  dr::bench::bench_init(argc, argv);
  dr::bench::run_all();
  dr::bench::bench_finish();
  return dr::bench::g_audit_failed ? 1 : 0;
}
