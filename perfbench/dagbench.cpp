// dagbench — the repository benchmark. Drives an n=4 DAG-Rider cluster that
// lives in this process through the library's public API only, on one of
// three workloads (README.md in this directory says why each exists and
// which ones BENCHMARK.json gates on):
//
//   ingress_steady   client submit -> commit ack over ingress::Client, TCP
//                    node links, WAL without fsync; open-loop Poisson load.
//   durable_rejoin   Node::submit_tx -> a_deliver at node 0, WAL at every
//                    node (fsync with --fsync 1); open-loop Poisson load; one
//                    node crash-stops and restarts mid-window.
//   inproc_saturate  Node::a_bcast -> a_deliver over the in-process
//                    transport, no WAL, no ingress; closed-loop windows.
//
// Each run is a series of episodes, each on a fresh cluster, and reports
// medians across them.
//
// Everything is measured from outside the program: timed calls into each
// layer's public functions, set_app_deliver hooks on every node, a counting
// net::Transport decorator installed through ClusterTweaks::transport_wrap,
// and Node::counters() read after stop_loop(). Percentiles come only from the
// benchmark's own samples; per-node gauges are reported as a max, never
// summed.
//
// Usage: dagbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//                 [--fsync 0|1] [--data-dir DIR]
// The last line of standard output is one JSON object:
//   {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The exit code is 0 only when every correctness check passed.
#include <malloc.h>
#include <poll.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "core/audit.hpp"
#include "crypto/sha256.hpp"
#include "ingress/client.hpp"
#include "net/frame.hpp"
#include "net/transport.hpp"
#include "node/cluster.hpp"
#include "storage/store.hpp"
#include "txpool/transaction.hpp"

#ifndef DAGBENCH_BUILD_TYPE
#define DAGBENCH_BUILD_TYPE "unknown"
#endif

namespace dr::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Microseconds since the benchmark process's epoch (one clock for every
/// timestamp the benchmark takes, on any thread).
const Clock::time_point kEpoch = Clock::now();
std::uint64_t now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            kEpoch)
          .count());
}

void sleep_until_us(std::uint64_t t) {
  const std::uint64_t now = now_us();
  if (t > now) std::this_thread::sleep_for(std::chrono::microseconds(t - now));
}

// ---------------------------------------------------------------- CLI ----

constexpr const char* kWorkloads[] = {"ingress_steady", "inproc_saturate",
                                      "durable_rejoin"};

/// Committee size of every workload.
constexpr std::uint32_t kN = 4;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::uint32_t seconds = 25;
  bool trace = false;
  bool fsync = false;  ///< durable_rejoin: fsync every WAL append
  std::string data_dir = ".bench_build/perfbench-data";
};

void usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: dagbench --workload <ingress_steady|inproc_saturate|"
      "durable_rejoin>\n"
      "                [--seed N] [--seconds S] [--trace 0|1] [--fsync 0|1]\n"
      "                [--data-dir DIR]\n"
      "  --seed      input seed (default 1)\n"
      "  --seconds   measured seconds, split into episodes (default 25)\n"
      "  --trace     1 = traced run printing per-layer metrics (default 0)\n"
      "  --fsync     1 = durable_rejoin fsyncs every WAL append (default 0)\n"
      "  --data-dir  scratch directory for WAL files\n");
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') return false;
  out = v;
  return true;
}

/// Returns -1 to continue, otherwise the exit code.
int parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      usage(stdout);
      return 0;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "dagbench: %s needs a value\n", flag.c_str());
      usage(stderr);
      return 2;
    }
    const char* val = argv[++i];
    std::uint64_t u = 0;
    if (flag == "--workload") {
      a.workload = val;
    } else if (flag == "--seed" && parse_u64(val, u)) {
      a.seed = u;
    } else if (flag == "--seconds" && parse_u64(val, u) && u >= 1 &&
               u <= 600) {
      a.seconds = static_cast<std::uint32_t>(u);
    } else if (flag == "--trace" && parse_u64(val, u) && u <= 1) {
      a.trace = u == 1;
    } else if (flag == "--fsync" && parse_u64(val, u) && u <= 1) {
      a.fsync = u == 1;
    } else if (flag == "--data-dir" && val[0] != '\0') {
      a.data_dir = val;
    } else {
      std::fprintf(stderr, "dagbench: bad flag or value: %s %s\n",
                   flag.c_str(), val);
      usage(stderr);
      return 2;
    }
  }
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), a.workload) ==
      std::end(kWorkloads)) {
    std::fprintf(stderr, "dagbench: unknown or missing --workload '%s'\n",
                 a.workload.c_str());
    usage(stderr);
    return 2;
  }
  const long cores = ::sysconf(_SC_NPROCESSORS_ONLN);
  if (cores > 0 && kN > static_cast<std::uint32_t>(cores)) {
    std::fprintf(stderr,
                 "dagbench: n=%u exceeds nproc=%ld; threaded numbers above "
                 "the core count measure the OS scheduler\n",
                 kN, cores);
    return 2;
  }
  return -1;
}

// ------------------------------------------------------------ samples ----

/// Exact percentiles over the benchmark's own samples (nearest rank).
class Samples {
 public:
  void add(double x) {
    v_.push_back(x);
    sorted_ = false;
  }
  void merge(const Samples& o) {
    v_.insert(v_.end(), o.v_.begin(), o.v_.end());
    sorted_ = false;
  }
  std::size_t count() const { return v_.size(); }
  double pct(double q) const {
    if (v_.empty()) return 0;
    sort();
    const double rank = std::ceil(q * static_cast<double>(v_.size()));
    const std::size_t idx =
        rank < 1 ? 0 : std::min(v_.size() - 1, static_cast<std::size_t>(rank) - 1);
    return v_[idx];
  }
  double mean() const {
    if (v_.empty()) return 0;
    double s = 0;
    for (double x : v_) s += x;
    return s / static_cast<double>(v_.size());
  }
  /// The highest percentile with at least ten samples above it, as a
  /// fraction (0 when fewer than 20 samples make any such claim weak).
  double max_supported_q() const {
    if (v_.size() < 20) return 0;
    return 1.0 - 10.0 / static_cast<double>(v_.size());
  }

 private:
  void sort() const {
    if (!sorted_) std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
  mutable std::vector<double> v_;
  mutable bool sorted_ = true;
};

/// Samples shared between node threads and the benchmark thread.
class LockedSamples {
 public:
  void add(double x) {
    std::lock_guard<std::mutex> lk(mu_);
    s_.add(x);
  }
  Samples take() {
    std::lock_guard<std::mutex> lk(mu_);
    return std::move(s_);
  }

 private:
  std::mutex mu_;
  Samples s_;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// CPU time the hypervisor gave to other guests ("steal", summed over all
/// CPUs) since boot, from /proc/stat; 0 where the kernel does not report it.
/// A run whose windows saw steal measured a contended host.
double steal_seconds() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  unsigned long long v[8] = {};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                              &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  if (got != 8) return 0;
  return static_cast<double>(v[7]) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// Resident set size now, from /proc/self/statm (0 if unreadable).
double resident_mb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0;
  unsigned long long resident = 0;
  const int got = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// --------------------------------------------------- counting transport ----

/// Per-endpoint traffic tally. Owned by the benchmark, one per pid, so the
/// counts survive Cluster::restart_node re-wrapping the endpoint.
struct LinkStats {
  std::array<std::atomic<std::uint64_t>, net::kChannelCount> frames{};
  std::array<std::atomic<std::uint64_t>, net::kChannelCount> bytes{};
  bool timed = false;  ///< set before start; time every inner send()
  LockedSamples send_us;
};

/// Snapshot of every endpoint's per-channel counts (bytes include the frame
/// header). Only frames to another process count: self-sends never leave
/// the node.
struct Traffic {
  std::array<std::uint64_t, net::kChannelCount> frames{};
  std::array<std::uint64_t, net::kChannelCount> bytes{};

  static Traffic of(const std::vector<std::unique_ptr<LinkStats>>& links) {
    Traffic t;
    for (const auto& l : links) {
      for (std::uint32_t c = 0; c < net::kChannelCount; ++c) {
        t.frames[c] += l->frames[c].load(std::memory_order_relaxed);
        t.bytes[c] += l->bytes[c].load(std::memory_order_relaxed);
      }
    }
    return t;
  }
  Traffic minus(const Traffic& o) const {
    Traffic t;
    for (std::uint32_t c = 0; c < net::kChannelCount; ++c) {
      t.frames[c] = frames[c] - o.frames[c];
      t.bytes[c] = bytes[c] - o.bytes[c];
    }
    return t;
  }
  std::uint64_t total_frames() const {
    std::uint64_t s = 0;
    for (auto f : frames) s += f;
    return s;
  }
  std::uint64_t total_bytes() const {
    std::uint64_t s = 0;
    for (auto b : bytes) s += b;
    return s;
  }
  std::uint64_t frames_on(net::Channel c) const {
    return frames[static_cast<std::uint32_t>(c)];
  }
  std::uint64_t bytes_on(net::Channel c) const {
    return bytes[static_cast<std::uint32_t>(c)];
  }
};

class CountingTransport final : public net::Transport {
 public:
  CountingTransport(std::unique_ptr<net::Transport> inner, LinkStats& stats)
      : inner_(std::move(inner)), stats_(stats) {}

  ProcessId pid() const override { return inner_->pid(); }
  const Committee& committee() const override { return inner_->committee(); }
  void start(RecvFn recv) override { inner_->start(std::move(recv)); }
  void stop() override { inner_->stop(); }
  std::uint64_t backpressure_overflows() const override {
    return inner_->backpressure_overflows();
  }
  net::TransportCounters counters() const override {
    return inner_->counters();
  }

  void send(ProcessId to, net::Channel channel, net::Payload payload) override {
    const auto c = static_cast<std::uint32_t>(channel);
    if (to != inner_->pid() && c < net::kChannelCount) {
      stats_.frames[c].fetch_add(1, std::memory_order_relaxed);
      stats_.bytes[c].fetch_add(payload.size() + net::kFrameHeaderBytes,
                                std::memory_order_relaxed);
    }
    if (!stats_.timed) {
      inner_->send(to, channel, std::move(payload));
      return;
    }
    const auto t0 = Clock::now();
    inner_->send(to, channel, std::move(payload));
    stats_.send_us.add(
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
  }

 private:
  std::unique_ptr<net::Transport> inner_;
  LinkStats& stats_;
};

// -------------------------------------------------------------- report ----

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every untraced run prints (BENCHMARK.json).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},         {"p50_ms", "ms"},         {"p99_ms", "ms"},
    {"tps", "tx/s"},          {"cpu_ms_per_ktx", "ms"}, {"peak_rss_mb", "MB"},
};

/// The per-layer metrics every traced run prints. A layer the workload
/// bypasses reads 0 (no samples, no traffic); the human-readable lines say
/// so.
constexpr MetricSpec kPerLayer[] = {
    {"traced.p50_ms", "ms"},
    {"traced.p99_ms", "ms"},
    {"traced.tps", "tx/s"},
    {"traced.cpu_ms_per_ktx", "ms"},
    {"gen.late_p99_ms", "ms"},
    {"run.p50_drift_ratio", "ratio"},
    {"run.steal_frac", "ratio"},
    {"ingress.reply_p50_ms", "ms"},
    {"ingress.ack_path_p50_ms", "ms"},
    {"ingress.batch_txs", "count"},
    {"ingress.rejects", "count"},
    {"mempool.submit_us_p50", "us"},
    {"mempool.submit_us_p99", "us"},
    {"mempool.txs_per_block", "count"},
    {"mempool.pending_max", "count"},
    {"node.a_bcast_us_p99", "us"},
    {"node.inbox_overflows", "count"},
    {"node.deliver_skew_p50_ms", "ms"},
    {"node.deliver_gap_p99_ms", "ms"},
    {"node.empty_block_frac", "ratio"},
    {"net.bytes_per_tx", "B"},
    {"net.frames_per_tx", "count"},
    {"net.bracha.bytes_per_tx", "B"},
    {"net.coin.bytes_per_tx", "B"},
    {"net.sync.bytes_per_tx", "B"},
    {"net.send_us_p99", "us"},
    {"net.backpressure_overflows", "count"},
    {"rbc.frames_per_vertex", "count"},
    {"rbc.bytes_per_vertex", "B"},
    {"dag.rounds_per_s", "1/s"},
    {"dag.buffer_size_max", "count"},
    {"dag.quota_rejections", "count"},
    {"core.waves_per_commit", "count"},
    {"core.direct_commit_frac", "ratio"},
    {"core.commit_interval_p50_ms", "ms"},
    {"core.blocks_per_commit", "count"},
    {"storage.appends_per_ktx", "count"},
    {"storage.bytes_per_tx", "B"},
    {"storage.recover_s", "s"},
    {"storage.recovered_vertices", "count"},
    {"rejoin_s", "s"},
    {"catchup.replay_s", "s"},
    {"catchup.sync_s", "s"},
    {"catchup.requests_sent", "count"},
    {"catchup.vertices_accepted", "count"},
    {"txpool.decode_us_per_block", "us"},
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;
  std::map<std::string, double> values;
  std::vector<std::string> notes;  ///< human-readable context lines

  void set(const std::string& name, double v) { values[name] = v; }
  void note(const std::string& line) { notes.push_back(line); }
  void violation(const std::string& what) { violations.push_back(what); }
};

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), f, v);
  return buf;
}

/// Latency summary line: median, p99, sample count, and the highest
/// percentile that still has ten samples beyond it.
std::string latency_note(const char* what, const Samples& s) {
  const double q = s.max_supported_q();
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s: n=%zu p50=%.3f ms p99=%.3f ms highest-supported p%.3f=%.3f "
                "ms",
                what, s.count(), s.pct(0.50), s.pct(0.99), q * 100, s.pct(q));
  return buf;
}

void print_report(const Args& args, const Report& r) {
  for (const std::string& line : r.notes) std::printf("# %s\n", line.c_str());
  for (const std::string& v : r.violations) {
    std::printf("# VIOLATION: %s\n", v.c_str());
  }
  // A failed check means no output of the run can be trusted: every
  // attempted operation counts as failed.
  const std::uint64_t failed = r.violations.empty() ? r.failed : r.attempted;
  std::printf("# fail_frac %.6f (%llu failed of %llu attempted)\n",
              r.attempted == 0 ? 1.0
                               : static_cast<double>(failed) /
                                     static_cast<double>(r.attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(r.attempted));
  auto emit_human = [&](const MetricSpec& m) {
    auto it = r.values.find(m.name);
    std::printf("metric %-30s %14.6f %s%s\n", m.name,
                it == r.values.end() ? 0.0 : it->second, m.unit,
                it == r.values.end() ? "  (layer bypassed by this workload)"
                                     : "");
  };
  std::string json = "{";
  auto emit_json = [&](const MetricSpec& m) {
    auto it = r.values.find(m.name);
    const double v = it == r.values.end() ? 0.0 : it->second;
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                  json.size() > 1 ? ", " : "", m.name,
                  std::isfinite(v) ? v : 0.0, m.unit);
    json += buf;
  };
  if (args.trace) {
    for (const MetricSpec& m : kPerLayer) emit_human(m);
    for (const MetricSpec& m : kPerLayer) emit_json(m);
  } else {
    for (const MetricSpec& m : kEndToEnd) emit_human(m);
    for (const MetricSpec& m : kEndToEnd) emit_json(m);
  }
  json += "}";
  const bool correct = r.violations.empty() && r.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(
                  r.attempted, 1)),
              static_cast<unsigned long long>(failed), json.c_str());
  std::fflush(stdout);
}

// ------------------------------------------------------------- harness ----

/// One delivery as a node's hook saw it (traced runs only).
struct DeliverStamp {
  Round round = 0;
  ProcessId source = 0;
  std::uint64_t t_us = 0;
  bool empty = false;
};

/// Owns the cluster under test plus everything the benchmark attaches to it
/// from outside: the counting transports, deliver hooks and stamp logs.
class Harness {
 public:
  using Hook = std::function<void(ProcessId self, const Bytes& block, Round r,
                                  ProcessId source, std::uint64_t t_us)>;

  Harness(const Args& args, node::NodeOptions opts, bool tcp)
      : args_(args), opts_(std::move(opts)), tcp_(tcp), stamps_(kN) {
    for (std::uint32_t p = 0; p < kN; ++p) {
      links_.push_back(std::make_unique<LinkStats>());
      links_.back()->timed = args.trace;
    }
  }

  /// Builds and starts the cluster `reps` times, each time until every node
  /// has a_delivered its first block; keeps the last one running. Returns
  /// false on a set-up stall.
  bool set_up(int reps, Hook hook) {
    hook_ = std::move(hook);
    for (int i = 0; i < reps; ++i) {
      if (cluster_) {
        cluster_->stop();
        cluster_.reset();
      }
      if (!opts_.wal_dir.empty()) {
        std::filesystem::remove_all(opts_.wal_dir);
      }
      const auto t0 = Clock::now();
      node::ClusterTweaks tweaks;
      tweaks.tcp_transport = tcp_;
      tweaks.transport_wrap = [this](ProcessId pid,
                                     std::unique_ptr<net::Transport> inner) {
        return std::make_unique<CountingTransport>(std::move(inner),
                                                   *links_[pid]);
      };
      cluster_ = std::make_unique<node::Cluster>(Committee::for_n(kN),
                                                 opts_, std::move(tweaks));
      for (ProcessId p = 0; p < kN; ++p) {
        cluster_->node(p).set_app_deliver(
            [this, p](const Bytes& block, Round r, ProcessId src,
                      std::uint64_t t) { on_deliver(p, block, r, src, t); });
      }
      cluster_->start();
      if (!cluster_->wait_all_delivered(1, std::chrono::seconds(20))) {
        return false;
      }
      setup_s_.push_back(
          std::chrono::duration<double>(Clock::now() - t0).count());
    }
    recording_.store(true, std::memory_order_release);
    return true;
  }

  node::Cluster& cluster() { return *cluster_; }
  const std::vector<double>& setup_samples() const { return setup_s_; }
  const std::vector<std::unique_ptr<LinkStats>>& links() const {
    return links_;
  }
  /// Node threads' stamp logs; read only after stop_loops().
  const std::vector<std::vector<DeliverStamp>>& stamps() const {
    return stamps_;
  }

  /// Joins every event loop (counters() becomes safe) without tearing down
  /// any transport, as Cluster::stop does in its first phase.
  void stop_loops() {
    for (ProcessId p = 0; p < kN; ++p) cluster_->node(p).stop_loop();
  }

  /// Per-node counters by name (after stop_loops()).
  std::vector<std::map<std::string, std::uint64_t>> counters() {
    std::vector<std::map<std::string, std::uint64_t>> out;
    for (ProcessId p = 0; p < kN; ++p) {
      std::map<std::string, std::uint64_t> m;
      for (const auto& [k, v] : cluster_->node(p).counters()) m[k] = v;
      out.push_back(std::move(m));
    }
    return out;
  }

  void tear_down() {
    if (cluster_) cluster_->stop();
  }

 private:
  void on_deliver(ProcessId self, const Bytes& block, Round r, ProcessId src,
                  std::uint64_t t) {
    if (!recording_.load(std::memory_order_acquire)) return;
    if (args_.trace) {
      stamps_[self].push_back(DeliverStamp{r, src, now_us(), block.empty()});
    }
    hook_(self, block, r, src, t);
  }

  const Args& args_;
  node::NodeOptions opts_;
  bool tcp_;
  std::vector<std::unique_ptr<LinkStats>> links_;
  std::vector<std::vector<DeliverStamp>> stamps_;
  std::vector<double> setup_s_;
  Hook hook_;
  std::atomic<bool> recording_{false};
  std::unique_ptr<node::Cluster> cluster_;
};

/// The measured window, on the benchmark clock.
struct Window {
  std::uint64_t begin_us = 0;
  std::uint64_t end_us = 0;
  bool contains(std::uint64_t t) const { return t >= begin_us && t < end_us; }
  double seconds() const {
    return static_cast<double>(end_us - begin_us) / 1e6;
  }
  /// Which third of the window t falls in (0, 1, 2), or -1 outside.
  int third(std::uint64_t t) const {
    if (!contains(t)) return -1;
    return static_cast<int>(3 * (t - begin_us) / (end_us - begin_us));
  }
};

/// Process-wide figures taken at the window's edges.
struct ProcessFigures {
  double cpu_s = 0;
  double rss_mb = 0;
  double steal_s = 0;
  Traffic traffic;
  std::uint64_t delivered0 = 0;
  static ProcessFigures take(Harness& h) {
    return ProcessFigures{cpu_seconds(), resident_mb(), steal_seconds(),
                          Traffic::of(h.links()), h.cluster().node(0).delivered_count()};
  }
};

/// Latency samples for the end-to-end path, keyed by when each operation
/// started: the whole window, its half-second slices, and its thirds (for
/// the drift check).
struct PathLatency {
  static constexpr std::uint64_t kSliceUs = 500'000;
  Samples all;
  std::vector<Samples> slices;
  std::array<Samples, 3> thirds;
  void add(const Window& w, std::uint64_t t_start, double ms) {
    if (!w.contains(t_start)) return;
    all.add(ms);
    const auto slice = static_cast<std::size_t>((t_start - w.begin_us) / kSliceUs);
    if (slices.size() <= slice) slices.resize(slice + 1);
    slices[slice].add(ms);
    thirds[static_cast<std::size_t>(w.third(t_start))].add(ms);
  }
  void absorb(const PathLatency& o) {
    all.merge(o.all);
    slices.insert(slices.end(), o.slices.begin(), o.slices.end());
    for (std::size_t i = 0; i < thirds.size(); ++i) thirds[i].merge(o.thirds[i]);
  }
  /// Median over the half-second slices of each slice's q-quantile: one
  /// stall inside the window moves one slice, not the reported figure.
  double slice_median(double q) const {
    std::vector<double> per;
    for (const Samples& s : slices) {
      if (s.count() >= 100) per.push_back(s.pct(q));
    }
    return median(per);
  }
};

/// Throughput, CPU cost and memory of one measured window. With GC off the
/// process only grows while a cluster runs, so the resident set at the end
/// of the window is the window's peak.
struct WindowFigures {
  double tps = 0;
  double cpu_ms_per_ktx = 0;
  double rss_mb = 0;
  double steal_frac = 0;  ///< share of all CPUs' time stolen by the host
  static WindowFigures of(const Window& w, std::uint64_t committed_txs,
                          const ProcessFigures& a, const ProcessFigures& b) {
    const double ktx = static_cast<double>(committed_txs) / 1000.0;
    const double cpus = static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN));
    return WindowFigures{static_cast<double>(committed_txs) / w.seconds(),
                         ktx > 0 ? (b.cpu_s - a.cpu_s) * 1000.0 / ktx : 0, b.rss_mb,
                         (b.steal_s - a.steal_s) / (w.seconds() * cpus)};
  }
};

/// Fills the end-to-end metrics shared by every workload.
void report_end_to_end(Report& rep, const Args& args,
                       const std::vector<double>& setups,
                       const PathLatency& lat, const WindowFigures& f) {
  const std::string prefix = args.trace ? "traced." : "";
  rep.set("setup_s", median(setups));
  std::string line;
  for (double x : setups) {
    line += ' ';
    line += fmt("%.4f", x);
  }
  rep.note("set-up times (s):" + line);
  rep.set(prefix + "p50_ms", lat.slice_median(0.50));
  rep.set(prefix + "p99_ms", lat.slice_median(0.99));
  rep.set(prefix + "tps", f.tps);
  rep.set(prefix + "cpu_ms_per_ktx", f.cpu_ms_per_ktx);
  rep.set("peak_rss_mb", f.rss_mb);
  rep.set("run.steal_frac", f.steal_frac);
  rep.note("host steal: " + fmt("%.4f", f.steal_frac) +
           " of all CPU time (median over episodes); figures from a contended host "
           "are not comparable");
  rep.note(latency_note("latency over the whole window", lat.all));
  rep.note("p50_ms/p99_ms are medians over " + std::to_string(lat.slices.size()) +
           " half-second slices of each slice's percentile");
  const double first = lat.thirds[0].pct(0.5);
  const double last = lat.thirds[2].pct(0.5);
  rep.set("run.p50_drift_ratio", first > 0 ? last / first : 0);
  rep.note("drift: p50 first third " + fmt("%.3f", first) +
           " ms, last third " + fmt("%.3f", last) + " ms (n=" +
           std::to_string(lat.thirds[0].count()) + "/" +
           std::to_string(lat.thirds[2].count()) + ")");
}

/// Offset that maps a node's own clock (DeliveredRecord/CommitRecord time)
/// onto the benchmark clock.
std::int64_t node_clock_offset(const node::Node& n) {
  return static_cast<std::int64_t>(now_us()) -
         static_cast<std::int64_t>(n.now_us());
}

/// Per-layer metrics derivable from the counting transports, the stamp
/// logs, node 0's commit log and the per-node counters. Call after
/// stop_loops(). Nodes [0, stable) ran for the whole window.
void report_layers(Report& rep, Harness& h, const Window& w,
                   std::uint64_t window_txs, const ProcessFigures& a,
                   const ProcessFigures& b, std::uint32_t stable,
                   std::uint64_t run_start_us, std::uint64_t run_end_us) {
  const Traffic t = b.traffic.minus(a.traffic);
  const double txs = static_cast<double>(std::max<std::uint64_t>(window_txs, 1));
  rep.set("net.bytes_per_tx", static_cast<double>(t.total_bytes()) / txs);
  rep.set("net.frames_per_tx", static_cast<double>(t.total_frames()) / txs);
  rep.set("net.bracha.bytes_per_tx",
          static_cast<double>(t.bytes_on(net::Channel::kBracha)) / txs);
  rep.set("net.coin.bytes_per_tx",
          static_cast<double>(t.bytes_on(net::Channel::kCoin)) / txs);
  rep.set("net.sync.bytes_per_tx",
          static_cast<double>(t.bytes_on(net::Channel::kSync)) / txs);
  Samples send_us;
  for (const auto& l : h.links()) send_us.merge(l->send_us.take());
  rep.set("net.send_us_p99", send_us.pct(0.99));
  rep.note("net.send_us: n=" + std::to_string(send_us.count()) + " p50=" +
           fmt("%.3f", send_us.pct(0.5)) + " us");
  const std::uint64_t vertices = b.delivered0 - a.delivered0;
  const double v = static_cast<double>(std::max<std::uint64_t>(vertices, 1));
  rep.set("rbc.frames_per_vertex",
          static_cast<double>(t.frames_on(net::Channel::kBracha)) / v);
  rep.set("rbc.bytes_per_vertex",
          static_cast<double>(t.bytes_on(net::Channel::kBracha)) / v);

  // Deliveries: first-to-last skew across the stable nodes, and gaps and
  // empty blocks at node 0, all within the window.
  const auto& stamps = h.stamps();
  struct Span {
    std::uint64_t first = 0;
    std::uint64_t last = 0;
    std::uint32_t nodes = 0;
  };
  std::unordered_map<std::uint64_t, Span> spans;
  for (ProcessId p = 0; p < stable; ++p) {
    for (const DeliverStamp& s : stamps[p]) {
      const std::uint64_t key =
          (static_cast<std::uint64_t>(s.round) << 16) | s.source;
      auto [it, fresh] = spans.try_emplace(key, Span{s.t_us, s.t_us, 0});
      it->second.first = std::min(it->second.first, s.t_us);
      it->second.last = std::max(it->second.last, s.t_us);
      ++it->second.nodes;
    }
  }
  Samples skew;
  for (const auto& [key, sp] : spans) {
    if (sp.nodes == stable && w.contains(sp.first)) {
      skew.add(static_cast<double>(sp.last - sp.first) / 1000.0);
    }
  }
  rep.set("node.deliver_skew_p50_ms", skew.pct(0.5));
  Samples gaps;
  std::uint64_t blocks = 0;
  std::uint64_t empty = 0;
  std::uint64_t prev = 0;
  for (const DeliverStamp& s : stamps[0]) {
    if (!w.contains(s.t_us)) continue;
    if (prev != 0) gaps.add(static_cast<double>(s.t_us - prev) / 1000.0);
    prev = s.t_us;
    ++blocks;
    if (s.empty) ++empty;
  }
  rep.set("node.deliver_gap_p99_ms", gaps.pct(0.99));
  rep.set("node.empty_block_frac",
          blocks == 0 ? 0
                      : static_cast<double>(empty) / static_cast<double>(blocks));
  rep.note("node 0 deliveries in window: " + std::to_string(blocks) +
           " (empty " + std::to_string(empty) + "); skew samples n=" +
           std::to_string(skew.count()) + ", gap samples n=" +
           std::to_string(gaps.count()));

  // Ordering: node 0's commit records inside the window.
  node::Node& n0 = h.cluster().node(0);
  const std::int64_t off = node_clock_offset(n0);
  std::uint64_t commits = 0;
  std::vector<core::CommitRecord> direct;
  for (const core::CommitRecord& c : n0.commits_snapshot()) {
    const auto t = static_cast<std::uint64_t>(static_cast<std::int64_t>(c.time) + off);
    if (!w.contains(t)) continue;
    ++commits;
    if (c.direct) direct.push_back(c);
  }
  Samples interval;
  double wave_gaps = 0;
  for (std::size_t i = 1; i < direct.size(); ++i) {
    interval.add(static_cast<double>(direct[i].time - direct[i - 1].time) /
                 1000.0);
    wave_gaps += static_cast<double>(direct[i].wave - direct[i - 1].wave);
  }
  const double ndirect = static_cast<double>(direct.size());
  rep.set("core.waves_per_commit",
          direct.size() > 1 ? wave_gaps / (ndirect - 1) : 0);
  rep.set("core.direct_commit_frac",
          commits == 0 ? 0 : ndirect / static_cast<double>(commits));
  rep.set("core.commit_interval_p50_ms", interval.pct(0.5));
  rep.set("core.blocks_per_commit",
          direct.empty() ? 0 : static_cast<double>(vertices) / ndirect);
  rep.note("node 0 commits in window: " + std::to_string(commits) +
           " (direct " + std::to_string(direct.size()) + ")");

  // Node counters, read after stop_loop(): monotonic counters are summed,
  // gauges reported as the max over nodes.
  const auto per_node = h.counters();
  auto max_of = [&](const char* k) {
    std::uint64_t m = 0;
    for (const auto& c : per_node) {
      auto it = c.find(k);
      if (it != c.end()) m = std::max(m, it->second);
    }
    return static_cast<double>(m);
  };
  auto sum_of = [&](const char* k) {
    std::uint64_t s = 0;
    for (const auto& c : per_node) {
      auto it = c.find(k);
      if (it != c.end()) s += it->second;
    }
    return static_cast<double>(s);
  };
  rep.set("dag.buffer_size_max", max_of("builder.buffer_size"));
  rep.set("dag.quota_rejections", sum_of("builder.quota_rejections"));
  rep.set("dag.rounds_per_s",
          max_of("builder.current_round") /
              (static_cast<double>(run_end_us - run_start_us) / 1e6));
  rep.set("net.backpressure_overflows",
          sum_of("transport.backpressure_overflows"));
  std::uint64_t inbox = 0;
  for (ProcessId p = 0; p < h.cluster().n(); ++p) {
    inbox += h.cluster().node(p).inbox_overflows();
  }
  rep.set("node.inbox_overflows", static_cast<double>(inbox));
}

/// Storage figures over the whole run: every node's WAL appends per 1000
/// committed txs. `extra` adds a crashed node's pre-crash counters.
void report_storage(Report& rep, Harness& h, std::uint64_t total_txs,
                    const std::map<std::string, std::uint64_t>& extra) {
  double appends = 0;
  double bytes = 0;
  for (const auto& c : h.counters()) {
    for (const char* k : {"store.vertices_appended", "store.proposals_appended"}) {
      auto it = c.find(k);
      if (it != c.end()) appends += static_cast<double>(it->second);
    }
    auto it = c.find("store.bytes_appended");
    if (it != c.end()) bytes += static_cast<double>(it->second);
  }
  for (const auto& [k, v] : extra) {
    if (k == "store.vertices_appended" || k == "store.proposals_appended") {
      appends += static_cast<double>(v);
    }
    if (k == "store.bytes_appended") bytes += static_cast<double>(v);
  }
  const double txs = static_cast<double>(std::max<std::uint64_t>(total_txs, 1));
  rep.set("storage.appends_per_ktx", appends * 1000.0 / txs);
  rep.set("storage.bytes_per_tx", bytes / txs);
}

// -------------------------------------------------------------- rejoin ----

/// How long crash_and_rejoin waits for the restarted node to catch up; keeps
/// a run on a contended host inside its time limit.
constexpr std::chrono::seconds kRejoinDeadline{20};

struct Rejoin {
  bool ok = false;  ///< caught up before kRejoinDeadline
  double rejoin_s = 0;
  double replay_s = 0;
  double sync_s = 0;
  double recover_s = 0;
  std::uint64_t recover_vertices = 0;
  std::vector<core::DeliveredRecord> log_before;
  std::map<std::string, std::uint64_t> counters_before;
};

/// Crash-stops `victim`, keeps it down for `downtime`, restarts it, and
/// times how long its delivered count takes to reach node 0's count at the
/// restart: first back to its own pre-crash count (replay), then the rest
/// (catch-up sync). With `time_recover`, a standalone VertexStore::recover()
/// is timed on a copy of the stopped node's data directory meanwhile.
Rejoin crash_and_rejoin(Harness& h, const node::NodeOptions& opts,
                        ProcessId victim, std::chrono::milliseconds downtime,
                        bool time_recover) {
  Rejoin r;
  node::Cluster& c = h.cluster();
  const auto restart_at = Clock::now() + downtime;
  c.stop_node(victim);
  node::Node& dead = c.node(victim);
  const std::uint64_t had = dead.delivered_count();
  r.log_before = dead.delivered_snapshot();
  for (const auto& [k, v] : dead.counters()) r.counters_before[k] = v;
  if (time_recover && !opts.wal_dir.empty()) {
    const std::filesystem::path from = std::filesystem::path(opts.wal_dir) /
                                       ("node-" + std::to_string(victim));
    const std::filesystem::path copy =
        std::filesystem::path(opts.wal_dir).parent_path() / "recover-copy";
    std::filesystem::remove_all(copy);
    std::filesystem::copy(from, copy, std::filesystem::copy_options::recursive);
    const auto t0 = Clock::now();
    storage::VertexStore store(c.committee(), victim,
                               storage::StoreOptions{copy.string(), false});
    const storage::RecoverResult rec = store.recover();
    r.recover_s = std::chrono::duration<double>(Clock::now() - t0).count();
    for (const auto& w : rec.records) {
      if (w.type == storage::WalRecordType::kVertex) ++r.recover_vertices;
    }
    std::filesystem::remove_all(copy);
  }
  std::this_thread::sleep_until(restart_at);
  const auto t0 = Clock::now();
  c.restart_node(victim);
  const std::uint64_t target = c.node(0).delivered_count();
  const auto deadline = t0 + kRejoinDeadline;
  bool replayed = false;
  for (;;) {
    const std::uint64_t d = c.node(victim).delivered_count();
    const double since =
        std::chrono::duration<double>(Clock::now() - t0).count();
    if (!replayed && d >= had) {
      r.replay_s = since;
      replayed = true;
    }
    r.ok = d >= target;
    if (r.ok || Clock::now() > deadline) {
      r.rejoin_s = since;
      r.sync_s = since - r.replay_s;
      return r;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

void report_rejoin(Report& rep, Harness& h, const Rejoin& r,
                   ProcessId victim) {
  if (!r.ok) {
    // Catch-up is eventual, so a slow rejoin is a figure, not a failed check.
    rep.note("restarted node " + std::to_string(victim) + " had not caught up after " +
             fmt("%.0f", r.rejoin_s) + " s; rejoin_s reads that bound");
  }
  rep.set("rejoin_s", r.rejoin_s);
  rep.set("catchup.replay_s", r.replay_s);
  rep.set("catchup.sync_s", r.sync_s);
  if (r.recover_s > 0) rep.set("storage.recover_s", r.recover_s);
  rep.note("rejoin of node " + std::to_string(victim) + ": " +
           fmt("%.4f", r.rejoin_s) + " s (replay " + fmt("%.4f", r.replay_s) +
           " s, sync " + fmt("%.4f", r.sync_s) + " s); standalone recover " +
           std::to_string(r.recover_vertices) + " vertices");
  // The restarted node's log must extend what it had delivered before the
  // crash (prefix consistency across the restart).
  const auto after = h.cluster().node(victim).delivered_snapshot();
  if (after.size() < r.log_before.size()) {
    rep.violation("restarted node lost deliveries: " +
                  std::to_string(after.size()) + " < " +
                  std::to_string(r.log_before.size()));
  } else {
    for (std::size_t i = 0; i < r.log_before.size(); ++i) {
      if (!after[i].same_value(r.log_before[i])) {
        rep.violation("restarted node's log diverges from its pre-crash log "
                      "at position " + std::to_string(i));
        break;
      }
    }
  }
  const auto c = h.counters()[victim];
  auto get = [&](const char* k) {
    auto it = c.find(k);
    return it == c.end() ? 0.0 : static_cast<double>(it->second);
  };
  rep.set("storage.recovered_vertices", get("store.recovered_vertices"));
  rep.set("catchup.requests_sent", get("catchup.requests_sent"));
  rep.set("catchup.vertices_accepted", get("catchup.vertices_accepted"));
}

/// Shared auditors over every node's delivery and commit logs.
void audit_cluster(Report& rep, Harness& h) {
  const auto violation = core::audit_logs(h.cluster().delivered_logs(),
                                          h.cluster().commit_logs());
  if (violation.has_value()) rep.violation("audit: " + *violation);
  else rep.note("audit_logs: clean over " + std::to_string(h.cluster().n()) +
                " nodes");
}

/// Reads (client_id, tx_id) from the first 16 bytes of a payload.
bool read_ids(const Bytes& payload, std::uint64_t& a, std::uint64_t& b) {
  if (payload.size() < 16) return false;
  std::memcpy(&a, payload.data(), 8);
  std::memcpy(&b, payload.data() + 8, 8);
  return true;
}

void fill_payload(Bytes& p, std::uint64_t a, std::uint64_t b, Xoshiro256& rng) {
  std::memcpy(p.data(), &a, 8);
  std::memcpy(p.data() + 8, &b, 8);
  for (std::size_t i = 16; i + 8 <= p.size(); i += 8) {
    const std::uint64_t r = rng();
    std::memcpy(p.data() + i, &r, 8);
  }
}

/// Poisson arrival offsets (microseconds from 0) at `rate` per second over
/// `span_us`.
std::vector<std::uint64_t> poisson_schedule(Xoshiro256& rng, double rate,
                                            std::uint64_t span_us) {
  std::vector<std::uint64_t> out;
  out.reserve(static_cast<std::size_t>(rate * static_cast<double>(span_us) / 1e6 * 1.1) + 16);
  double t = 0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) * 1e6 / rate;
    if (t >= static_cast<double>(span_us)) return out;
    out.push_back(static_cast<std::uint64_t>(t));
  }
}

/// Every workload measures in episodes, each on a fresh cluster, and
/// reports medians across them: with GC off every round stays in memory, so
/// one long window would mostly measure the slowdown that growth causes, and
/// one cluster's scheduling luck would set the whole run's figures.
constexpr std::uint64_t kWarmupUs = 500'000;  ///< per episode, not measured
constexpr std::size_t kTxBytes = 32;
constexpr int kSetupReps = 3;  ///< set-ups per episode
/// Measured length of one episode; inproc_saturate's are shorter because
/// saturation piles up state fastest.
constexpr std::uint64_t kEpisodeUs = 5'000'000;
constexpr std::uint64_t kInprocEpisodeUs = 2'500'000;

/// What one episode contributes to the run's report.
struct Episode {
  std::vector<double> setups;
  PathLatency lat;
  WindowFigures figures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Runs --seconds worth of `episode_us` windows and reports the medians
/// across them. Per-layer metrics (traced runs) come from the last episode.
using EpisodeFn = std::function<bool(std::uint64_t episode,
                                     std::uint64_t window_us, bool layers,
                                     Episode& out)>;
void run_episodes(const Args& args, Report& rep, std::uint64_t episode_us,
                  const EpisodeFn& run) {
  const std::uint64_t episodes =
      std::max<std::uint64_t>(1, args.seconds * 1'000'000ull / episode_us);
  std::vector<double> setups;
  std::vector<double> tps;
  std::vector<double> cpu;
  std::vector<double> rss;
  std::vector<double> steal;
  PathLatency lat;
  for (std::uint64_t e = 0; e < episodes; ++e) {
    Episode ep;
    const bool ok = run(e, episode_us, args.trace && e + 1 == episodes, ep);
    // Hand the episode's freed memory back to the OS so the next episode's
    // resident set starts from the same floor.
    ::malloc_trim(0);
    if (!ok) return;
    rss.push_back(ep.figures.rss_mb);
    steal.push_back(ep.figures.steal_frac);
    setups.insert(setups.end(), ep.setups.begin(), ep.setups.end());
    tps.push_back(ep.figures.tps);
    cpu.push_back(ep.figures.cpu_ms_per_ktx);
    lat.absorb(ep.lat);
    rep.attempted += ep.attempted;
    rep.failed += ep.failed;
    rep.note("episode " + std::to_string(e) + ": tps " +
             fmt("%.0f", ep.figures.tps) + ", cpu_ms_per_ktx " +
             fmt("%.3f", ep.figures.cpu_ms_per_ktx) + ", rss " +
             fmt("%.1f", ep.figures.rss_mb) + " MB, steal " +
             fmt("%.3f", ep.figures.steal_frac) + ", p50 " +
             fmt("%.3f", ep.lat.all.pct(0.5)) + " ms, p99 " +
             fmt("%.3f", ep.lat.all.pct(0.99)) + " ms, " +
             std::to_string(ep.failed) + " of " +
             std::to_string(ep.attempted) + " failed");
  }
  report_end_to_end(rep, args, setups, lat,
                    WindowFigures{median(tps), median(cpu), median(rss), median(steal)});
  rep.note("tps, cpu_ms_per_ktx and peak_rss_mb are medians over " +
           std::to_string(episodes) + " episodes of " +
           fmt("%.1f", static_cast<double>(episode_us) / 1e6) +
           " s, each on a fresh cluster");
}

/// durable_rejoin: offered load and the victim's fault. 50k tx/s is about
/// a quarter of the fsync-on capacity (about 190k tx/s on a 4-core host), so
/// --fsync 1 runs the same load below saturation. The victim crashes in the
/// window's first half-second slice and restarts a second later; its WAL
/// replay and catch-up sync then run through the rest of the window.
constexpr double kDurableRate = 50'000;
constexpr std::chrono::milliseconds kDurableCrashAt{500};  ///< into the window
constexpr std::chrono::milliseconds kDurableDowntime{1000};

// ---------------------------------------------------- inproc_saturate ----

/// One closed-loop episode over Node::a_bcast, driven by the nodes
/// themselves: every node keeps kWindowBlocks blocks of 256 x 32-B txs
/// outstanding, and its own a_deliver hook proposes the next block as soon as
/// one of its blocks is delivered, so no benchmark thread competes with the
/// node threads for the cores. Each block is a copy of a seeded per-node
/// template with the first tx's id and send time patched in. Latency is the
/// a_bcast call -> the source's own a_deliver. With `layers`, also fills the
/// per-layer metrics from this episode.
bool inproc_episode(const Args& args, std::uint64_t episode,
                    std::uint64_t window_us, bool layers, Report& rep,
                    Episode& out) {
  constexpr std::size_t kBlockTxs = 256;
  constexpr std::size_t kWindowBlocks = 4;
  // Offsets into an encoded block: [u32 magic][u32 count][u64 id][u64 time].
  constexpr std::size_t kFirstIdAt = 8;
  constexpr std::size_t kFirstTimeAt = 16;
  node::NodeOptions opts;
  opts.seed = args.seed;
  Harness h(args, opts, /*tcp=*/false);

  Xoshiro256 rng = Xoshiro256(args.seed).fork(episode);
  std::vector<Bytes> templates;
  for (ProcessId p = 0; p < kN; ++p) {
    std::vector<txpool::Transaction> txs(kBlockTxs);
    for (std::size_t i = 0; i < kBlockTxs; ++i) {
      txs[i].id = (static_cast<std::uint64_t>(p) << 56) | i;
      txs[i].payload.resize(kTxBytes);
      fill_payload(txs[i].payload, p, txs[i].id, rng);
    }
    templates.push_back(txpool::encode_block(txs));
  }

  /// Per-node loop state. `done` and `a_bcast_us` belong to the node's
  /// thread (read after stop_loops()); the counters are shared.
  struct Loop {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> sent_in_window{0};
    std::atomic<std::uint64_t> completed{0};
    std::vector<std::pair<std::uint64_t, std::uint64_t>> done;  // sent, done
    Samples a_bcast_us;
  };
  std::vector<std::unique_ptr<Loop>> loops;
  for (ProcessId p = 0; p < kN; ++p) loops.push_back(std::make_unique<Loop>());
  Window w;
  std::atomic<std::uint64_t> stop_sending_us{~std::uint64_t{0}};
  const bool trace = args.trace;
  auto propose = [&](ProcessId p, bool timed) {
    Loop& l = *loops[p];
    Bytes block = templates[p];
    const std::uint64_t id = (static_cast<std::uint64_t>(p) << 56) |
                             (std::uint64_t{1} << 48) | l.seq.fetch_add(1);
    std::memcpy(block.data() + kFirstIdAt, &id, 8);
    const std::uint64_t t = now_us();
    std::memcpy(block.data() + kFirstTimeAt, &t, 8);
    if (w.contains(t)) l.sent_in_window.fetch_add(1, std::memory_order_relaxed);
    if (timed) {
      const auto t0 = Clock::now();
      h.cluster().node(p).a_bcast(std::move(block));
      l.a_bcast_us.add(
          std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
    } else {
      h.cluster().node(p).a_bcast(std::move(block));
    }
  };

  LockedSamples decode_us;
  auto hook = [&](ProcessId self, const Bytes& block, Round, ProcessId src,
                  std::uint64_t) {
    if (trace && self == 0 && !block.empty()) {
      const auto t0 = Clock::now();
      const auto txs = txpool::decode_block(BytesView(block));
      decode_us.add(
          std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
      (void)txs;
    }
    if (src != self || block.size() < kFirstTimeAt + 8) return;
    std::uint64_t sent = 0;
    std::memcpy(&sent, block.data() + kFirstTimeAt, 8);
    const std::uint64_t t = now_us();
    Loop& l = *loops[self];
    l.done.emplace_back(sent, t);
    l.completed.fetch_add(1, std::memory_order_release);
    if (t < stop_sending_us.load(std::memory_order_relaxed)) propose(self, trace);
  };
  if (!h.set_up(kSetupReps, hook)) {
    rep.violation("set-up stalled: not every node delivered a first block");
    return false;
  }
  out.setups = h.setup_samples();

  const std::uint64_t start = now_us();
  w = Window{start + kWarmupUs, start + kWarmupUs + window_us};
  stop_sending_us.store(w.end_us);
  for (ProcessId p = 0; p < kN; ++p) {
    for (std::size_t i = 0; i < kWindowBlocks; ++i) propose(p, false);
  }
  sleep_until_us(w.begin_us);
  const ProcessFigures a = ProcessFigures::take(h);
  sleep_until_us(w.end_us);
  const ProcessFigures b = ProcessFigures::take(h);
  // Drain: every block sent must reach its source's a_deliver.
  auto outstanding = [&] {
    std::uint64_t o = 0;
    for (const auto& l : loops) {
      o += l->seq.load() - l->completed.load(std::memory_order_acquire);
    }
    return o;
  };
  const std::uint64_t drain_deadline = now_us() + 30'000'000ull;
  while (outstanding() > 0 && now_us() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::uint64_t never = outstanding();
  const std::uint64_t run_end = now_us();
  h.stop_loops();

  std::uint64_t sent_in_window = 0;
  std::uint64_t completed_sent_in_window = 0;
  std::uint64_t done_in_window = 0;
  for (const auto& l : loops) {
    sent_in_window += l->sent_in_window.load();
    for (const auto& [sent, done] : l->done) {
      if (w.contains(done)) ++done_in_window;
      if (!w.contains(sent)) continue;
      ++completed_sent_in_window;
      out.lat.add(w, sent, static_cast<double>(done - sent) / 1000.0);
    }
  }
  const std::uint64_t window_txs = done_in_window * kBlockTxs;
  out.attempted = sent_in_window * kBlockTxs;
  out.failed = (sent_in_window - completed_sent_in_window) * kBlockTxs;
  out.figures = WindowFigures::of(w, window_txs, a, b);
  if (never > 0) rep.note(std::to_string(never) + " blocks never completed");
  audit_cluster(rep, h);
  if (layers) {
    report_layers(rep, h, w, window_txs, a, b, kN, start, run_end);
    Samples a_bcast_us;
    for (const auto& l : loops) a_bcast_us.merge(l->a_bcast_us);
    rep.set("node.a_bcast_us_p99", a_bcast_us.pct(0.99));
    const Samples dec = decode_us.take();
    rep.set("txpool.decode_us_per_block", dec.mean());
    rep.note("a_bcast calls n=" + std::to_string(a_bcast_us.count()) +
             ", decode samples n=" + std::to_string(dec.count()));
  }
  h.tear_down();
  return true;
}

// ----------------------------------------------------- ingress_steady ----

/// Open-loop Poisson load through ingress::Client sessions, one per node;
/// Zipf-skewed logical clients are pinned to a connection. Latency is a
/// request's due time -> its CommitAck at the client.
bool ingress_episode(const Args& args, std::uint64_t episode,
                     std::uint64_t window_us, bool layers, Report& rep,
                     Episode& out) {
  constexpr std::uint64_t kLogicalClients = 1000;
  constexpr double kZipfS = 1.0;
  constexpr double rate = 20'000;
  node::NodeOptions opts;
  opts.seed = args.seed;
  opts.ingress_enable = true;
  opts.wal_dir = args.data_dir + "/ingress";
  Harness h(args, opts, /*tcp=*/true);

  // Inputs, all from the seed: arrival times, logical client, payload.
  Xoshiro256 rng = Xoshiro256(args.seed).fork(episode);
  const std::uint64_t span = kWarmupUs + window_us;
  const std::vector<std::uint64_t> offsets = poisson_schedule(rng, rate, span);
  const std::size_t count = offsets.size();
  std::vector<double> zipf_cdf(kLogicalClients);
  double acc = 0;
  for (std::uint64_t c = 0; c < kLogicalClients; ++c) {
    acc += 1.0 / std::pow(static_cast<double>(c + 1), kZipfS);
    zipf_cdf[c] = acc;
  }
  std::vector<std::uint32_t> client_of(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double u = rng.uniform() * acc;
    client_of[i] = static_cast<std::uint32_t>(
        std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), u) -
        zipf_cdf.begin());
  }

  // Node 0's delivered tx indices (node 0 thread only; read after stop),
  // and in traced runs the owning node's a_deliver time per tx.
  std::vector<std::uint64_t> node0_ids;
  std::uint64_t blocks0 = 0;  // non-empty tx blocks a_delivered at node 0
  std::unique_ptr<std::atomic<std::uint64_t>[]> hook_us(
      new std::atomic<std::uint64_t>[count]);
  for (std::size_t i = 0; i < count; ++i) hook_us[i].store(0);
  LockedSamples decode_us;
  const bool trace = args.trace;
  const std::uint32_t n = kN;
  auto hook = [&](ProcessId self, const Bytes& block, Round, ProcessId,
                  std::uint64_t) {
    if (block.empty() || (self != 0 && !trace)) return;
    const auto t0 = Clock::now();
    const auto txs = txpool::decode_block(BytesView(block));
    if (trace && self == 0) {
      decode_us.add(
          std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
    }
    if (!txs.ok()) return;
    if (self == 0) ++blocks0;
    const std::uint64_t t = now_us();
    for (const txpool::Transaction& tx : txs.value()) {
      std::uint64_t client = 0;
      std::uint64_t idx = 0;
      if (!read_ids(tx.payload, client, idx)) continue;
      if (self == 0) node0_ids.push_back(idx);
      if (trace && idx < count && client % n == self) hook_us[idx].store(t);
    }
  };
  if (!h.set_up(kSetupReps, hook)) {
    rep.violation("set-up stalled: not every node delivered a first block");
    return false;
  }

  std::vector<std::unique_ptr<ingress::Client>> clients;
  for (ProcessId p = 0; p < n; ++p) {
    ingress::Client::Options co;
    co.port = h.cluster().ingress_port(p);
    co.max_out_frames = 1 << 16;
    clients.push_back(std::make_unique<ingress::Client>(co));
    if (!clients.back()->connect(5000)) {
      rep.violation("ingress client could not connect to node " +
                    std::to_string(p));
      h.tear_down();
      return false;
    }
  }

  const std::uint64_t start = now_us();
  const Window w{start + kWarmupUs, start + span};
  std::vector<std::uint64_t> sent_us(count, 0);
  std::vector<std::uint8_t> acks(count, 0);
  std::vector<std::uint8_t> accepted(count, 0);
  std::uint64_t rejects = 0;
  std::uint64_t shed = 0;
  std::uint64_t acked_in_window = 0;
  std::uint64_t wrong_ack = 0;
  std::uint64_t dup_ack = 0;
  PathLatency lat;
  Samples late_ms;
  Samples reply_ms;
  Samples ack_path_ms;
  std::uint64_t ack_before_hook = 0;  // acks that beat the hook's stamp
  Samples batch_txs;
  std::size_t pending_max = 0;
  for (auto& cl : clients) {
    cl->on_reply = [&](std::uint64_t, std::uint64_t tx, ingress::SubmitStatus st) {
      if (tx >= count) return;
      if (trace) {
        reply_ms.add(static_cast<double>(now_us() - sent_us[tx]) / 1000.0);
      }
      if (st == ingress::SubmitStatus::kAccepted) {
        accepted[tx] = 1;
      } else {
        ++rejects;
      }
    };
    cl->on_ack = [&](std::uint64_t client, std::uint64_t tx, std::uint64_t) {
      const std::uint64_t t = now_us();
      if (tx >= count || client != client_of[tx]) {
        ++wrong_ack;
        return;
      }
      if (++acks[tx] > 1) {
        ++dup_ack;
        return;
      }
      const std::uint64_t due = start + offsets[tx];
      if (w.contains(due)) lat.add(w, due, static_cast<double>(t - due) / 1000.0);
      if (w.contains(t)) ++acked_in_window;
      if (trace) {
        // Node runs ingress completion before app_deliver, so the hook's
        // stamp comes after the ack has left: the figure is hook -> client,
        // and acks that arrive before the stamp are counted, not timed.
        const std::uint64_t hk = hook_us[tx].load();
        if (hk != 0 && hk <= t) {
          ack_path_ms.add(static_cast<double>(t - hk) / 1000.0);
        } else {
          ++ack_before_hook;
        }
      }
    };
  }

  ProcessFigures a;
  ProcessFigures b;
  bool have_a = false;
  bool have_b = false;
  std::size_t next = 0;
  std::uint64_t outstanding = 0;  // submitted, not yet acked or refused
  std::uint64_t next_sample = 0;
  const std::uint64_t drain_deadline = w.end_us + 10'000'000ull;
  std::vector<ingress::SubmitBatch> batches;
  std::vector<std::pair<std::uint32_t, std::size_t>> batch_of;  // client -> idx
  std::vector<pollfd> fds(n);
  for (;;) {
    const std::uint64_t now = now_us();
    if (!have_a && now >= w.begin_us) {
      a = ProcessFigures::take(h);
      have_a = true;
    }
    if (!have_b && now >= w.end_us) {
      b = ProcessFigures::take(h);
      have_b = true;
    }
    // Everything due by now goes out in this tick, one SubmitBatch per
    // logical client.
    batches.clear();
    batch_of.clear();
    while (next < count && start + offsets[next] <= now) {
      const std::uint64_t due = start + offsets[next];
      if (w.contains(due)) late_ms.add(static_cast<double>(now - due) / 1000.0);
      const std::uint32_t c = client_of[next];
      auto it = std::find_if(batch_of.begin(), batch_of.end(),
                             [c](const auto& e) { return e.first == c; });
      if (it == batch_of.end()) {
        batch_of.emplace_back(c, batches.size());
        batches.emplace_back();
        batches.back().client_id = c;
        it = batch_of.end() - 1;
      }
      Bytes payload(kTxBytes);
      fill_payload(payload, c, next, rng);
      batches[it->second].txs.push_back(
          ingress::TxSubmit{next, std::move(payload)});
      ++next;
    }
    for (const ingress::SubmitBatch& batch : batches) {
      ingress::Client& cl = *clients[batch.client_id % n];
      const bool ok = cl.submit_batch(batch);
      if (trace) batch_txs.add(static_cast<double>(batch.txs.size()));
      for (const ingress::TxSubmit& tx : batch.txs) {
        sent_us[tx.tx_id] = now;
        if (!ok) ++shed;
      }
    }
    for (auto& cl : clients) {
      if (!cl->process(0)) {
        rep.violation("ingress connection lost");
        next = count;
        break;
      }
    }
    if (trace && now >= next_sample) {
      for (ProcessId p = 0; p < n; ++p) {
        pending_max = std::max(pending_max, h.cluster().node(p).mempool().pending());
      }
      next_sample = now + 10'000;
    }
    if (next == count) {
      outstanding = 0;
      for (std::size_t i = 0; i < count; ++i) {
        if (accepted[i] != 0 && acks[i] == 0) ++outstanding;
      }
      if (outstanding == 0 || now > drain_deadline || !rep.violations.empty()) {
        break;
      }
    }
    // Sleep until the next arrival is due (at most 1 ms), waking on replies.
    const std::uint64_t wake =
        next < count ? std::min(start + offsets[next], now + 1000) : now + 1000;
    for (ProcessId p = 0; p < n; ++p) {
      fds[p] = pollfd{clients[p]->fd(),
                      static_cast<short>(clients[p]->has_backlog()
                                             ? (POLLIN | POLLOUT)
                                             : POLLIN),
                      0};
    }
    const std::uint64_t now2 = now_us();
    if (wake > now2) {
      const timespec ts{0, static_cast<long>((wake - now2) * 1000)};
      (void)::ppoll(fds.data(), fds.size(), &ts, nullptr);
    }
  }
  if (!have_b) b = ProcessFigures::take(h);
  for (auto& cl : clients) cl->close();

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (!w.contains(start + offsets[i])) continue;
    ++attempted;
    if (acks[i] == 0) ++failed;
  }
  out.attempted = attempted;
  out.failed = failed;
  rep.note("ingress: rejects " + std::to_string(rejects) + ", shed " +
           std::to_string(shed) + ", never acked " +
           std::to_string(outstanding) + ", offered " + fmt("%.0f", rate) +
           " tx/s from " + std::to_string(kLogicalClients) +
           " Zipf clients over " + std::to_string(n) + " connections");
  out.setups = h.setup_samples();
  out.figures = WindowFigures::of(w, acked_in_window, a, b);
  out.lat = std::move(lat);
  rep.note(latency_note("generator lateness", late_ms));

  // A tx is acked by its owning node, which may deliver its wave before
  // node 0 does. The logs share one order, so once node 0 has delivered as
  // many blocks as any node had when the last ack arrived, every acked tx's
  // block has reached node 0's hook (stop_loops() lets that hook finish).
  std::uint64_t most = 0;
  for (ProcessId p = 0; p < n; ++p) {
    most = std::max(most, h.cluster().node(p).delivered_count());
  }
  const std::uint64_t catch_deadline = now_us() + 5'000'000ull;
  while (h.cluster().node(0).delivered_count() < most &&
         now_us() < catch_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const std::uint64_t run_end = now_us();
  h.stop_loops();
  audit_cluster(rep, h);
  // Exactly-once tally: every acked tx acked once and in node 0's log once.
  if (wrong_ack > 0) rep.violation(std::to_string(wrong_ack) + " acks for unknown txs");
  if (dup_ack > 0) rep.violation(std::to_string(dup_ack) + " duplicate acks");
  std::vector<std::uint8_t> at_node0(count, 0);
  std::uint64_t dup_delivered = 0;
  for (std::uint64_t idx : node0_ids) {
    if (idx < count && at_node0[idx]++ > 0) ++dup_delivered;
  }
  std::uint64_t acked_missing = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (acks[i] != 0 && at_node0[i] == 0) ++acked_missing;
  }
  if (dup_delivered > 0) {
    rep.violation(std::to_string(dup_delivered) +
                  " txs delivered more than once at node 0");
  }
  if (acked_missing > 0) {
    rep.violation(std::to_string(acked_missing) +
                  " acked txs missing from node 0's delivered log");
  }
  rep.note("exactly-once tally: " + std::to_string(node0_ids.size()) +
           " txs in node 0's log, no duplicate ack or delivery: " +
           (dup_ack + dup_delivered + acked_missing == 0 ? "ok" : "FAILED"));
  if (layers) {
    report_layers(rep, h, w, acked_in_window, a, b, n, start, run_end);
    report_storage(rep, h, node0_ids.size(), {});
    rep.set("gen.late_p99_ms", late_ms.pct(0.99));
    rep.set("ingress.reply_p50_ms", reply_ms.pct(0.5));
    rep.set("ingress.ack_path_p50_ms", ack_path_ms.pct(0.5));
    rep.set("ingress.batch_txs", batch_txs.mean());
    rep.set("ingress.rejects", static_cast<double>(rejects));
    rep.set("mempool.pending_max", static_cast<double>(pending_max));
    rep.set("mempool.txs_per_block",
            static_cast<double>(node0_ids.size()) /
                static_cast<double>(std::max<std::uint64_t>(blocks0, 1)));
    const Samples dec = decode_us.take();
    rep.set("txpool.decode_us_per_block", dec.mean());
    rep.note("reply samples n=" + std::to_string(reply_ms.count()) +
             ", ack-path samples n=" + std::to_string(ack_path_ms.count()) +
             ", acks before the owning node's hook stamp (untimed) " +
             std::to_string(ack_before_hook));
  }
  h.tear_down();
  return true;
}

// ----------------------------------------------------- durable_rejoin ----

/// Open-loop Poisson load through Node::submit_tx on every node but the
/// victim (the last node), with a WAL at every node. The victim crash-stops
/// kDurableCrashAt into the window and restarts after kDurableDowntime, so
/// all but the first half-second slice run with the victim down or catching
/// up, and the survivors' commit path, CPU and memory carry the cost of
/// serving its catch-up. Latency is a request's due time -> its a_deliver at
/// node 0.
bool durable_episode(const Args& args, std::uint64_t episode,
                     std::uint64_t window_us, bool layers, Report& rep,
                     Episode& out) {
  constexpr double rate = kDurableRate;
  node::NodeOptions opts;
  opts.seed = args.seed;
  opts.wal_dir = args.data_dir + "/durable";
  opts.wal_fsync = args.fsync;
  Harness h(args, opts, /*tcp=*/false);
  const ProcessId victim = kN - 1;

  Xoshiro256 rng = Xoshiro256(args.seed).fork(episode);
  const std::uint64_t span = kWarmupUs + window_us;
  const std::vector<std::uint64_t> offsets = poisson_schedule(rng, rate, span);
  const std::size_t count = offsets.size();

  // Node 0's view (node 0 thread only; read after the drain below).
  struct Delivered {
    std::uint64_t due_us;
    std::uint64_t done_us;
  };
  std::vector<std::uint8_t> seen0(count, 0);
  std::vector<Delivered> delivered0;
  delivered0.reserve(count);
  std::atomic<std::uint64_t> unique0{0};
  std::uint64_t blocks0 = 0;  // non-empty tx blocks
  std::uint64_t txs0 = 0;
  LockedSamples decode_us;
  const bool trace = args.trace;
  auto hook = [&](ProcessId self, const Bytes& block, Round, ProcessId,
                  std::uint64_t) {
    if (self != 0 || block.empty()) return;
    const auto t0 = Clock::now();
    const auto txs = txpool::decode_block(BytesView(block));
    if (trace) {
      decode_us.add(
          std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
    }
    if (!txs.ok()) return;
    ++blocks0;
    txs0 += txs.value().size();
    const std::uint64_t t = now_us();
    for (const txpool::Transaction& tx : txs.value()) {
      const std::uint64_t idx = tx.id - 1;
      if (idx >= count) continue;
      if (seen0[idx] == 0) {
        delivered0.push_back(Delivered{tx.submit_time, t});
        unique0.fetch_add(1, std::memory_order_relaxed);
      }
      if (seen0[idx] < 255) ++seen0[idx];
    }
  };
  if (!h.set_up(kSetupReps, hook)) {
    rep.violation("set-up stalled: not every node delivered a first block");
    return false;
  }

  const std::uint64_t start = now_us();
  const Window w{start + kWarmupUs, start + span};
  Rejoin rj;
  std::thread fault([&] {
    sleep_until_us(w.begin_us +
                   static_cast<std::uint64_t>(
                       std::chrono::microseconds(kDurableCrashAt).count()));
    rj = crash_and_rejoin(h, opts, victim, kDurableDowntime, trace);
  });

  const ProcessId targets = victim;  // every node but the victim
  std::vector<std::uint8_t> accepted(count, 0);
  std::uint64_t accepted_total = 0;
  std::uint64_t rejects = 0;
  Samples late_ms;
  Samples submit_us;
  std::size_t pending_max = 0;
  std::uint64_t next_sample = 0;
  ProcessFigures a;
  ProcessFigures b;
  bool have_a = false;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t due = start + offsets[i];
    sleep_until_us(due);
    const std::uint64_t now = now_us();
    if (!have_a && now >= w.begin_us) {
      a = ProcessFigures::take(h);
      have_a = true;
    }
    if (w.contains(due)) late_ms.add(static_cast<double>(now - due) / 1000.0);
    txpool::Transaction tx;
    tx.id = i + 1;
    tx.submit_time = due;
    tx.payload.resize(kTxBytes);
    fill_payload(tx.payload, i % targets, i, rng);
    node::Node& target = h.cluster().node(static_cast<ProcessId>(i % targets));
    ingress::SubmitStatus st;
    if (trace) {
      const auto t0 = Clock::now();
      st = target.submit_tx(std::move(tx));
      submit_us.add(
          std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
    } else {
      st = target.submit_tx(std::move(tx));
    }
    if (st == ingress::SubmitStatus::kAccepted) {
      accepted[i] = 1;
      ++accepted_total;
    } else {
      ++rejects;
    }
    if (trace && now >= next_sample) {
      for (ProcessId p = 0; p < targets; ++p) {
        pending_max =
            std::max(pending_max, h.cluster().node(p).mempool().pending());
      }
      next_sample = now + 10'000;
    }
  }
  sleep_until_us(w.end_us);
  b = ProcessFigures::take(h);
  const std::uint64_t drain_deadline = now_us() + 15'000'000ull;
  while (unique0.load(std::memory_order_relaxed) < accepted_total &&
         now_us() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  fault.join();
  const std::uint64_t run_end = now_us();
  h.stop_loops();

  PathLatency lat;
  std::uint64_t window_txs = 0;
  for (const Delivered& d : delivered0) {
    if (w.contains(d.due_us)) {
      lat.add(w, d.due_us, static_cast<double>(d.done_us - d.due_us) / 1000.0);
    }
    if (w.contains(d.done_us)) ++window_txs;
  }
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t dup = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (seen0[i] > 1) ++dup;
    if (!w.contains(start + offsets[i])) continue;
    ++attempted;
    if (seen0[i] == 0) ++failed;
  }
  out.attempted = attempted;
  out.failed = failed;
  if (dup > 0) {
    rep.violation(std::to_string(dup) + " txs delivered more than once at node 0");
  }
  rep.note("durable: offered " + fmt("%.0f", rate) + " tx/s, rejects " +
           std::to_string(rejects) + ", accepted but never delivered " +
           std::to_string(accepted_total - unique0.load()));
  out.setups = h.setup_samples();
  out.figures = WindowFigures::of(w, window_txs, a, b);
  out.lat = std::move(lat);
  rep.note(latency_note("generator lateness", late_ms));
  report_rejoin(rep, h, rj, victim);
  audit_cluster(rep, h);
  if (layers) {
    report_layers(rep, h, w, window_txs, a, b, targets, start, run_end);
    report_storage(rep, h, delivered0.size(), rj.counters_before);
    rep.set("gen.late_p99_ms", late_ms.pct(0.99));
    rep.set("mempool.submit_us_p50", submit_us.pct(0.5));
    rep.set("mempool.submit_us_p99", submit_us.pct(0.99));
    rep.set("mempool.pending_max", static_cast<double>(pending_max));
    rep.set("mempool.txs_per_block",
            static_cast<double>(txs0) /
                static_cast<double>(std::max<std::uint64_t>(blocks0, 1)));
    const Samples dec = decode_us.take();
    rep.set("txpool.decode_us_per_block", dec.mean());
    rep.note("submit_tx samples n=" + std::to_string(submit_us.count()));
  }
  h.tear_down();
  return true;
}

}  // namespace
}  // namespace dr::perfbench

int main(int argc, char** argv) {
  using namespace dr::perfbench;
  Args args;
  if (const int rc = parse_args(argc, argv, args); rc >= 0) return rc;
  const char* commit = std::getenv("DAGBENCH_COMMIT");
  std::printf("# host nproc=%ld sha256=%s build=%s commit=%s\n",
              ::sysconf(_SC_NPROCESSORS_ONLN), dr::crypto::sha256_backend(),
              DAGBENCH_BUILD_TYPE, commit != nullptr ? commit : "unknown");
  std::printf("# workload=%s seed=%llu seconds=%u trace=%d n=%u fsync=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, kN, args.fsync ? 1 : 0);
  std::fflush(stdout);
  Report rep;
  std::filesystem::remove_all(args.data_dir);
  using Fn = bool (*)(const Args&, std::uint64_t, std::uint64_t, bool,
                      Report&, Episode&);
  const Fn fn = args.workload == "inproc_saturate" ? inproc_episode
                : args.workload == "ingress_steady" ? ingress_episode
                                                    : durable_episode;
  const std::uint64_t episode_us = args.workload == "inproc_saturate"
                                       ? kInprocEpisodeUs
                                       : kEpisodeUs;
  run_episodes(args, rep, episode_us,
               [&](std::uint64_t e, std::uint64_t us, bool layers, Episode& out) {
                 return fn(args, e, us, layers, rep, out);
               });
  std::filesystem::remove_all(args.data_dir);
  print_report(args, rep);
  return rep.violations.empty() && rep.attempted > 0 ? 0 : 1;
}
