// dag_explorer — watch the DAG grow and the ordering layer interpret it.
//
// Runs a 4-process deployment, then renders process 1's local DAG round by
// round with wave boundaries, per-wave leaders, and commit decisions — a
// live, textual version of the paper's Figures 1 and 2.
//
//   usage: dag_explorer [seed] [waves]
#include <cstdio>
#include <map>

#include "cli_args.hpp"
#include "core/system.hpp"

int main(int argc, char** argv) {
  using namespace dr;
  std::uint64_t seed = 7;
  Wave waves = 6;
  if (argc > 3 || (argc > 1 && !examples::parse_unsigned(argv[1], seed)) ||
      (argc > 2 && (!examples::parse_unsigned(argv[2], waves) || waves == 0))) {
    std::fprintf(stderr, "usage: dag_explorer [seed] [waves >= 1]\n");
    return 2;
  }

  core::SystemConfig cfg;
  cfg.committee = Committee::for_f(1);
  cfg.seed = seed;
  cfg.rbc_kind = rbc::RbcKind::kOracle;
  cfg.coin_mode = core::CoinMode::kLocal;
  cfg.builder.auto_blocks = true;
  cfg.builder.auto_block_size = 8;
  // Mild asymmetric chaos so the DAG is visibly ragged (missing slots,
  // weak edges) without stalling.
  cfg.delays = std::make_unique<sim::AsymmetricDelay>(seed, 300, 40, 300, 4);
  core::System sys(std::move(cfg));
  sys.start();
  if (!sys.simulator().run_until(
          [&] { return sys.node(0).rider().decided_wave() >= waves; },
          100'000'000)) {
    std::fprintf(stderr, "stalled\n");
    return 1;
  }

  const dag::Dag& dag = sys.node(0).builder().dag();
  const auto& commits = sys.node(0).commits();
  std::map<Wave, core::CommitRecord> commit_by_wave;
  for (const auto& c : commits) commit_by_wave[c.wave] = c;

  // Reconstruct each wave's drawn leader from the oracle coin.
  auto* oracle = dynamic_cast<coin::LocalCoin*>(&sys.node(0).coin());

  std::printf("=== local DAG of process 1 (seed %llu) ===\n",
              static_cast<unsigned long long>(seed));
  std::printf("legend: [*] vertex  [W] vertex with weak edges  [L] wave leader"
              "   .  missing\n\n");
  for (Wave w = 1; w <= waves; ++w) {
    const ProcessId leader = oracle ? oracle->leader_for(w) : kInvalidProcess;
    std::printf("--- wave %llu: coin drew process %u", (unsigned long long)w,
                leader + 1);
    auto it = commit_by_wave.find(w);
    if (it == commit_by_wave.end()) {
      std::printf("  -> not committed (skipped or recovered later)\n");
    } else if (it->second.direct) {
      std::printf("  -> committed DIRECTLY (2f+1 round-%llu support)\n",
                  (unsigned long long)wave_round(w, 4));
    } else {
      std::printf("  -> committed TRANSITIVELY via a later wave's leader\n");
    }
    for (ProcessId p = 0; p < 4; ++p) {
      std::printf("  p%u: ", p + 1);
      for (Round k = 1; k <= 4; ++k) {
        const Round r = wave_round(w, k);
        const dag::Vertex* v = dag.get(dag::VertexId{p, r});
        if (v == nullptr) {
          std::printf("   . ");
        } else if (k == 1 && p == leader) {
          std::printf("  [L]");
        } else if (!v->weak_edges.empty()) {
          std::printf("  [W]");
        } else {
          std::printf("  [*]");
        }
      }
      std::printf("\n");
    }
  }

  std::printf("\ncommit log at process 1 (order of a_deliver batches):\n");
  for (const auto& c : commits) {
    std::printf("  wave %-3llu leader=p%u round=%llu  %s\n",
                (unsigned long long)c.wave, c.leader.source + 1,
                (unsigned long long)c.leader.round,
                c.direct ? "direct" : "recovered transitively");
  }
  std::printf("\ndelivered %zu blocks; decided wave %llu; vertices in DAG %llu\n",
              sys.node(0).delivered().size(),
              (unsigned long long)sys.node(0).rider().decided_wave(),
              (unsigned long long)dag.vertex_count());
  return 0;
}
