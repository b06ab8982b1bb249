// scenario_runner — configurable DAG-Rider experiment driver.
//
//   usage: scenario_runner [--f K] [--rbc bracha|bracha-hash|avid|gossip|oracle]
//                          [--coin threshold|piggyback|local]
//                          [--adversary uniform|rotating|fixed|asym|partition]
//                          [--faults crash=2,silent=1,equivocate=1,stealthy=0]
//                          [--seed S] [--waves W] [--gc ROUNDS] [--block BYTES]
//
// Runs one deployment to the target decided wave and prints a full metrics
// report: progress, commits, traffic split by channel, latency, fairness,
// and the BAB safety audit.
#include <cstdio>
#include <cstring>
#include <string>

#include "cli_args.hpp"
#include "core/system.hpp"
#include "metrics/table.hpp"

namespace {

using namespace dr;
using examples::parse_unsigned;

struct Args {
  std::uint32_t f = 1;
  std::string rbc = "bracha";
  std::string coin = "threshold";
  std::string adversary = "uniform";
  std::uint64_t seed = 1;
  Wave waves = 10;
  Round gc = 0;
  std::size_t block = 64;
  std::uint32_t crash = 0, silent = 0, equivocate = 0, stealthy = 0;
};

bool parse_faults(const char* spec, Args& a) {
  // "crash=2,silent=1,..."
  std::string s(spec);
  std::size_t pos = 0;
  while (pos < s.size()) {
    const std::size_t eq = s.find('=', pos);
    if (eq == std::string::npos) return false;
    const std::string key = s.substr(pos, eq - pos);
    const std::size_t comma = s.find(',', eq);
    const std::string val =
        s.substr(eq + 1, (comma == std::string::npos ? s.size() : comma) - eq - 1);
    std::uint32_t count = 0;
    if (!parse_unsigned(val.c_str(), count)) return false;
    if (key == "crash") a.crash = count;
    else if (key == "silent") a.silent = count;
    else if (key == "equivocate") a.equivocate = count;
    else if (key == "stealthy") a.stealthy = count;
    else return false;
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return true;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (!std::strcmp(argv[i], "--f")) {
      if (!parse_unsigned(next(), a.f)) return false;
    } else if (!std::strcmp(argv[i], "--rbc")) {
      const char* v = next();
      if (!v) return false;
      a.rbc = v;
    } else if (!std::strcmp(argv[i], "--coin")) {
      const char* v = next();
      if (!v) return false;
      a.coin = v;
    } else if (!std::strcmp(argv[i], "--adversary")) {
      const char* v = next();
      if (!v) return false;
      a.adversary = v;
    } else if (!std::strcmp(argv[i], "--faults")) {
      const char* v = next();
      if (!v || !parse_faults(v, a)) return false;
    } else if (!std::strcmp(argv[i], "--seed")) {
      if (!parse_unsigned(next(), a.seed)) return false;
    } else if (!std::strcmp(argv[i], "--waves")) {
      if (!parse_unsigned(next(), a.waves)) return false;
    } else if (!std::strcmp(argv[i], "--gc")) {
      if (!parse_unsigned(next(), a.gc)) return false;
    } else if (!std::strcmp(argv[i], "--block")) {
      if (!parse_unsigned(next(), a.block)) return false;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: scenario_runner [--f K] [--rbc KIND] [--coin MODE]\n"
                 "  [--adversary KIND] [--faults crash=N,...] [--seed S]\n"
                 "  [--waves W] [--gc ROUNDS] [--block BYTES]\n");
    return 2;
  }

  core::SystemConfig cfg;
  cfg.committee = Committee::for_f(a.f);
  const std::uint32_t n = cfg.committee.n;
  cfg.seed = a.seed;
  cfg.builder.auto_blocks = true;
  cfg.builder.auto_block_size = a.block;
  cfg.gc_depth_rounds = a.gc;

  if (a.rbc == "bracha") cfg.rbc_kind = rbc::RbcKind::kBracha;
  else if (a.rbc == "bracha-hash") cfg.rbc_kind = rbc::RbcKind::kBrachaHash;
  else if (a.rbc == "avid") cfg.rbc_kind = rbc::RbcKind::kAvid;
  else if (a.rbc == "gossip") cfg.rbc_kind = rbc::RbcKind::kGossip;
  else if (a.rbc == "oracle") cfg.rbc_kind = rbc::RbcKind::kOracle;
  else { std::fprintf(stderr, "unknown --rbc %s\n", a.rbc.c_str()); return 2; }

  if (a.coin == "threshold") cfg.coin_mode = core::CoinMode::kThreshold;
  else if (a.coin == "piggyback") cfg.coin_mode = core::CoinMode::kPiggyback;
  else if (a.coin == "local") cfg.coin_mode = core::CoinMode::kLocal;
  else { std::fprintf(stderr, "unknown --coin %s\n", a.coin.c_str()); return 2; }

  if (a.adversary == "uniform") {
    cfg.delays = std::make_unique<sim::UniformDelay>(1, 100);
  } else if (a.adversary == "rotating") {
    cfg.delays = std::make_unique<sim::RotatingDelay>(n, cfg.committee.f, 300,
                                                      40, 350);
  } else if (a.adversary == "fixed") {
    std::vector<ProcessId> victims;
    for (std::uint32_t i = 0; i < cfg.committee.f; ++i) victims.push_back(i);
    cfg.delays = std::make_unique<sim::FixedSetDelay>(victims, 40, 350);
  } else if (a.adversary == "asym") {
    cfg.delays = std::make_unique<sim::AsymmetricDelay>(a.seed, 300, 40, 300, 4);
  } else if (a.adversary == "partition") {
    std::vector<ProcessId> group_a;
    for (ProcessId p = 0; p < n / 2; ++p) group_a.push_back(p);
    cfg.delays =
        std::make_unique<sim::PartitionDelay>(group_a, 20'000, 50, 100);
  } else {
    std::fprintf(stderr, "unknown --adversary %s\n", a.adversary.c_str());
    return 2;
  }

  const std::uint32_t total_faults = a.crash + a.silent + a.equivocate + a.stealthy;
  if (total_faults > cfg.committee.f) {
    std::fprintf(stderr, "faults (%u) exceed f=%u\n", total_faults, cfg.committee.f);
    return 2;
  }
  if (a.equivocate > 0 && cfg.rbc_kind != rbc::RbcKind::kBracha) {
    std::fprintf(stderr, "equivocate faults require --rbc bracha\n");
    return 2;
  }
  cfg.faults.assign(n, core::FaultKind::kNone);
  ProcessId fp = n - 1;
  for (std::uint32_t i = 0; i < a.crash; ++i) cfg.faults[fp--] = core::FaultKind::kCrash;
  for (std::uint32_t i = 0; i < a.silent; ++i) cfg.faults[fp--] = core::FaultKind::kSilent;
  for (std::uint32_t i = 0; i < a.equivocate; ++i) cfg.faults[fp--] = core::FaultKind::kEquivocate;
  for (std::uint32_t i = 0; i < a.stealthy; ++i) cfg.faults[fp--] = core::FaultKind::kStealthy;

  std::printf("scenario: n=%u f=%u rbc=%s coin=%s adversary=%s seed=%llu "
              "faults[crash=%u silent=%u equiv=%u stealthy=%u] gc=%llu\n\n",
              n, cfg.committee.f, a.rbc.c_str(), a.coin.c_str(),
              a.adversary.c_str(), (unsigned long long)a.seed, a.crash,
              a.silent, a.equivocate, a.stealthy, (unsigned long long)a.gc);

  core::System sys(std::move(cfg));
  sys.start();
  const bool ok = sys.simulator().run_until(
      [&] {
        for (ProcessId p : sys.correct_ids()) {
          if (sys.node(p).rider().decided_wave() < a.waves) return false;
        }
        return true;
      },
      500'000'000);
  if (!ok) {
    std::printf("RESULT: stalled before wave %llu (events=%llu, t=%llu)\n",
                (unsigned long long)a.waves,
                (unsigned long long)sys.simulator().events_executed(),
                (unsigned long long)sys.simulator().now());
    return 1;
  }

  const ProcessId probe = sys.correct_ids().front();
  auto& node = sys.node(probe);
  metrics::Table t({"metric", "value"});
  t.add_row({"simulated time (ticks)",
             metrics::Table::fmt_u64(sys.simulator().now())});
  t.add_row({"events executed",
             metrics::Table::fmt_u64(sys.simulator().events_executed())});
  t.add_row({"decided wave", metrics::Table::fmt_u64(node.rider().decided_wave())});
  t.add_row({"blocks delivered", metrics::Table::fmt_u64(node.delivered().size())});
  t.add_row({"commits (direct+transitive)",
             metrics::Table::fmt_u64(node.commits().size())});
  t.add_row({"waves without direct commit",
             metrics::Table::fmt_u64(node.rider().waves_without_direct_commit())});
  t.add_row({"total bytes sent",
             metrics::Table::fmt_u64(sys.network().total_bytes_sent())});
  t.add_row({"honest bytes sent",
             metrics::Table::fmt_u64(sys.network().total_honest_bytes_sent())});
  t.add_row({"coin-channel bytes",
             metrics::Table::fmt_u64(
                 sys.network().channel_bytes_sent(sim::Channel::kCoin))});
  t.add_row({"bytes / delivered block",
             metrics::Table::fmt(
                 static_cast<double>(sys.network().total_honest_bytes_sent()) /
                     static_cast<double>(node.delivered().size()),
                 1)});
  t.add_row({"DAG vertices (probe)",
             metrics::Table::fmt_u64(node.builder().dag().vertex_count())});
  t.add_row({"GC floor", metrics::Table::fmt_u64(node.builder().dag().compacted_floor())});
  t.add_row({"chain quality", metrics::Table::fmt(core::chain_quality(sys), 3)});
  t.add_row({"total order", core::prefix_consistent(sys) ? "consistent" : "VIOLATED"});
  t.print();
  return core::prefix_consistent(sys) ? 0 : 1;
}
