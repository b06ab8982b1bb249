// Standalone ingress load generator (DESIGN.md §13): drives the TCP
// tx-submission front end with an open-loop, Zipf-skewed population of
// simulated clients and prints the resulting admission/ack report.
//
// Two modes:
//   loadgen --targets host:port[,host:port...]   # external ingress endpoints
//   loadgen --self-cluster N                     # spin an in-process n=N
//                                                # ingress-enabled cluster
//                                                # and aim at it (smoke/CI)
//
// Shared knobs:
//   --clients K       logical client population       (default 10000)
//   --connections C   real TCP conns multiplexed over (default 64)
//   --rate TPS        aggregate open-loop arrival rate (default 10000)
//   --duration MS     run window in milliseconds       (default 5000)
//   --payload BYTES   tx payload size, >= 16           (default 32)
//   --zipf S          Zipf exponent, 0 = uniform       (default 1.0)
//   --churn MS        close+redial one conn every MS   (default 0 = off)
//   --seed S          loadgen RNG seed                 (default 1)
//
// Exit status: 0 when the run completed and at least one ack arrived,
// 1 otherwise — so CI smoke invocations fail loudly on a dead ingress path.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cli_args.hpp"
#include "core/audit.hpp"
#include "ingress/loadgen.hpp"
#include "node/cluster.hpp"

namespace {

struct Args {
  std::vector<dr::ingress::LoadGenTarget> targets;
  std::uint32_t self_cluster_n = 0;  // != 0: in-process cluster mode
  dr::ingress::LoadGenOptions gen;
};

[[noreturn]] void usage_and_exit(const char* msg) {
  std::fprintf(stderr, "loadgen: %s\n", msg);
  std::fprintf(stderr,
               "usage: loadgen (--targets h:p[,h:p...] | --self-cluster N)\n"
               "  [--clients K] [--connections C] [--rate TPS]\n"
               "  [--duration MS] [--payload BYTES] [--zipf S]\n"
               "  [--churn MS] [--seed S]\n");
  std::exit(2);
}

std::vector<dr::ingress::LoadGenTarget> parse_targets(const char* arg) {
  std::vector<dr::ingress::LoadGenTarget> out;
  const std::string spec(arg);
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    const std::size_t colon = item.rfind(':');
    dr::ingress::LoadGenTarget t;
    if (colon == std::string::npos ||
        !dr::examples::parse_unsigned(item.c_str() + colon + 1, t.port)) {
      usage_and_exit("targets must be host:port[,host:port...]");
    }
    if (t.port == 0) usage_and_exit("target port must be non-zero");
    t.host = item.substr(0, colon);
    out.push_back(std::move(t));
    pos = comma + 1;
  }
  return out;
}

Args parse(int argc, char** argv) {
  using dr::examples::parse_nonnegative_double;
  using dr::examples::parse_positive_double;
  using dr::examples::parse_unsigned;
  Args a;
  a.gen.duration_ms = 5'000;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    bool ok = true;
    if (k == "--targets") {
      const char* v = next();
      ok = v != nullptr;
      if (ok) a.targets = parse_targets(v);
    } else if (k == "--self-cluster") {
      ok = parse_unsigned(next(), a.self_cluster_n) && a.self_cluster_n != 0;
    } else if (k == "--clients") {
      ok = parse_unsigned(next(), a.gen.clients);
    } else if (k == "--connections") {
      ok = parse_unsigned(next(), a.gen.connections);
    } else if (k == "--rate") {
      ok = parse_positive_double(next(), a.gen.rate_tps);
    } else if (k == "--duration") {
      ok = parse_unsigned(next(), a.gen.duration_ms);
    } else if (k == "--payload") {
      // Only this CLI sets payload_bytes and zipf_s: assign them plainly so
      // daglint's option-writer rule sees the write.
      std::size_t bytes = 0;
      ok = parse_unsigned(next(), bytes);
      a.gen.payload_bytes = bytes;
    } else if (k == "--zipf") {
      double zipf = 0.0;  // 0 = uniform
      ok = parse_nonnegative_double(next(), zipf);
      a.gen.zipf_s = zipf;
    } else if (k == "--churn") {
      ok = parse_unsigned(next(), a.gen.churn_period_ms);
    } else if (k == "--seed") {
      ok = parse_unsigned(next(), a.gen.seed);
    } else {
      usage_and_exit(("unknown argument " + k).c_str());
    }
    if (!ok) usage_and_exit(("bad or missing value for " + k).c_str());
  }
  if (a.targets.empty() == (a.self_cluster_n == 0)) {
    usage_and_exit("pick exactly one of --targets / --self-cluster");
  }
  return a;
}

void print_report(const dr::ingress::LoadGenReport& r,
                  const dr::ingress::LoadGenOptions& o) {
  const double secs =
      r.elapsed_ms > 0 ? static_cast<double>(r.elapsed_ms) / 1000.0 : 1.0;
  std::printf("loadgen: %llu clients over %zu conns, %.0f tps target, "
              "zipf %.2f, seed %llu\n",
              static_cast<unsigned long long>(o.clients), o.connections,
              o.rate_tps, o.zipf_s,
              static_cast<unsigned long long>(o.seed));
  std::printf("  submitted    %12llu  (%.0f/s)\n",
              static_cast<unsigned long long>(r.submitted),
              static_cast<double>(r.submitted) / secs);
  std::printf("  accepted     %12llu\n",
              static_cast<unsigned long long>(r.accepted));
  std::printf("  acked        %12llu  (%.0f/s)\n",
              static_cast<unsigned long long>(r.acked),
              static_cast<double>(r.acked) / secs);
  std::printf("  busy         %12llu\n",
              static_cast<unsigned long long>(r.busy));
  std::printf("  dup pending  %12llu\n",
              static_cast<unsigned long long>(r.dup_pending));
  std::printf("  dup commit   %12llu\n",
              static_cast<unsigned long long>(r.dup_committed));
  std::printf("  pool full    %12llu\n",
              static_cast<unsigned long long>(r.pool_full));
  std::printf("  resubmitted  %12llu\n",
              static_cast<unsigned long long>(r.resubmitted));
  std::printf("  local b.p.   %12llu\n",
              static_cast<unsigned long long>(r.local_backpressure));
  std::printf("  overload     %12llu\n",
              static_cast<unsigned long long>(r.overload_skips));
  std::printf("  churn events %12llu\n",
              static_cast<unsigned long long>(r.churn_events));
  std::printf("  conn fails   %12llu\n",
              static_cast<unsigned long long>(r.connect_failures));
  std::printf("  outstanding  %12llu  (at end of drain)\n",
              static_cast<unsigned long long>(r.outstanding_at_end));
  if (r.ack_latency_ms.count() > 0) {
    std::printf("  ack latency  p50 %.2f ms   p90 %.2f ms   p99 %.2f ms\n",
                r.ack_latency_ms.percentile(0.50),
                r.ack_latency_ms.percentile(0.90),
                r.ack_latency_ms.percentile(0.99));
  }
  std::printf("  elapsed      %12llu ms\n",
              static_cast<unsigned long long>(r.elapsed_ms));
}

}  // namespace

int main(int argc, char** argv) {
  Args args = parse(argc, argv);

  // Self-cluster mode: an in-process ingress-enabled TCP cluster to aim at.
  std::unique_ptr<dr::node::Cluster> cluster;
  if (args.self_cluster_n != 0) {
    dr::node::NodeOptions nopts;
    nopts.seed = 7;
    nopts.ingress_enable = true;
    dr::node::ClusterTweaks tweaks;
    tweaks.tcp_transport = true;
    cluster = std::make_unique<dr::node::Cluster>(
        dr::Committee::for_n(args.self_cluster_n), nopts, std::move(tweaks));
    cluster->start();
    for (dr::ProcessId pid = 0; pid < args.self_cluster_n; ++pid) {
      args.gen.targets.push_back(
          dr::ingress::LoadGenTarget{"127.0.0.1", cluster->ingress_port(pid)});
    }
  } else {
    args.gen.targets = args.targets;
  }

  dr::ingress::LoadGen gen(args.gen);
  if (!gen.start()) {
    std::fprintf(stderr, "loadgen: failed to start driver\n");
    return 1;
  }
  const dr::ingress::LoadGenReport report = gen.wait_and_report();

  bool clean = true;
  if (cluster) {
    cluster->stop();
    const auto violation = dr::core::audit_logs(cluster->delivered_logs(),
                                                cluster->commit_logs());
    clean = !violation.has_value();
    if (!clean) {
      std::fprintf(stderr, "loadgen: cluster audit FAILED: %s\n",
                   violation->c_str());
    }
  }

  if (!report.ok) {
    std::fprintf(stderr, "loadgen: %s\n",
                 report.error.empty() ? "run failed" : report.error.c_str());
    return 1;
  }
  print_report(report, args.gen);
  if (report.acked == 0) {
    std::fprintf(stderr, "loadgen: no transaction was ever acked\n");
    return 1;
  }
  return clean ? 0 : 1;
}
