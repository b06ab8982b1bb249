// LAT — §6.2 time complexity, widened: commit latency in asynchronous time
// units as n grows, fault-free vs f crashed vs adversarial scheduling.
// DAG-Rider's wave pipeline keeps this ~constant in n (a wave is 4 rounds
// of 2f+1-quorum gathering regardless of n).
#include "bench_util.hpp"

namespace dr::bench {
namespace {

double commit_latency(std::uint32_t n, std::uint64_t seed, bool crash_f,
                      bool adversarial) {
  const std::uint32_t f = Committee::for_n(n).f;
  std::unique_ptr<sim::DelayModel> delays;
  if (adversarial) {
    delays = std::make_unique<sim::RotatingDelay>(
        n, f, /*period=*/300, /*fast=*/30, /*slow=*/330);
  }
  std::vector<core::FaultKind> faults;
  if (crash_f) {
    faults.assign(n, core::FaultKind::kNone);
    for (std::uint32_t i = 0; i < f; ++i) {
      faults[n - 1 - i] = core::FaultKind::kCrash;
    }
  }
  const DagRiderRun r =
      run_dag_rider(n, rbc::RbcKind::kBracha, seed, 1, 32, 5,
                    core::CoinMode::kThreshold, std::move(delays),
                    std::move(faults));
  return r.ok ? r.time_units_per_commit : -1;
}

void run() {
  print_header("LAT", "commit latency (time units per committed wave) vs n");

  std::vector<std::string> headers{"scenario"};
  for (std::uint32_t n : sweep_n()) headers.push_back("n=" + std::to_string(n));
  metrics::Table t(std::move(headers));

  auto sweep = [&](const char* name, bool crash, bool adv) {
    std::vector<std::string> cells{name};
    for (std::uint32_t n : sweep_n()) {
      metrics::Summary s;
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const double v = commit_latency(n, seed * 31, crash, adv);
        if (v >= 0) s.add(v);
      }
      cells.push_back(metrics::Table::fmt(s.mean(), 1));
    }
    t.add_row(std::move(cells));
  };

  sweep("fault-free, uniform delays", false, false);
  sweep("f crashed", true, false);
  sweep("rotating adversary", false, true);
  emit(t);
  std::printf(
      "\nReading: rows stay ~flat across n (O(1) expected time complexity),\n"
      "with a constant-factor penalty for crashes/adversarial scheduling.\n");
}

}  // namespace
}  // namespace dr::bench

int main(int argc, char** argv) {
  dr::bench::bench_init(argc, argv);
  dr::bench::run();
  dr::bench::bench_finish();
  return 0;
}
