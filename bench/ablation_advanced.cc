// Ablation bench for the §3.4 "advanced implementation" features, the design
// choices README.md ("Substitutions") lists as implemented, not substituted:
//   1. histogram matching vs the plain Algorithm-1 probability mover,
//   2. capacity-slack (imbalanced swaps) on/off,
//   3. ε scaling by recursion depth on/off,
//   4. the future-split objective on/off.
// Each row reports final fanout and moved-vertex volume on a social and a
// web instance (k = 32).
#include <cstdio>

#include "common/flags.h"
#include "harness.h"

int main(int argc, char** argv) {
  using namespace shp;
  auto flags = Flags::Parse(argc, argv).value();
  bench::PrintBanner("Ablation: §3.4 advanced features (SHP-2, k=32)", flags);

  const double extra_scale = flags.GetDouble("scale", 0.3);
  const BucketId k = 32;

  struct Variant {
    std::string name;
    std::function<void(RecursiveOptions*)> tweak;
  };
  const std::vector<Variant> variants = {
      {"full (default)", [](RecursiveOptions*) {}},
      {"plain Alg.1 mover",
       [](RecursiveOptions* o) {
         o->refiner.broker.strategy =
             MoveBrokerOptions::Strategy::kPlainProbability;
         o->refiner.propose_nonpositive = false;
       }},
      {"no capacity slack",
       [](RecursiveOptions* o) {
         o->refiner.broker.use_capacity_slack = false;
       }},
      {"no eps scaling",
       [](RecursiveOptions* o) { o->scale_epsilon_by_depth = false; }},
      {"no future-split obj",
       [](RecursiveOptions* o) { o->future_split_objective = false; }},
      {"exact pairing (serial)",
       [](RecursiveOptions* o) {
         o->refiner.broker.strategy =
             MoveBrokerOptions::Strategy::kExactPairing;
       }},
  };

  for (const std::string& dataset : {std::string("soc-Pokec"),
                                     std::string("web-Stanford")}) {
    bench::Instance instance = bench::LoadInstance(dataset, extra_scale);
    std::printf("--- %s ---\n", dataset.c_str());
    TablePrinter table({"variant", "fanout", "imbalance", "total moves",
                        "levels"});
    for (const Variant& variant : variants) {
      RecursiveOptions options;
      options.k = k;
      options.seed = 55;
      variant.tweak(&options);
      const RecursiveResult result =
          RecursivePartitioner(options).Run(instance.graph);
      uint64_t total_moves = 0;
      for (const auto& record : result.level_history) {
        total_moves += record.total_moved;
      }
      const PartitionSummary summary =
          SummarizePartition(instance.graph, result.assignment, k);
      table.AddRow({variant.name, TablePrinter::Fmt(summary.fanout, 3),
                    TablePrinter::Fmt(summary.imbalance, 4),
                    TablePrinter::FmtCount(static_cast<long long>(
                        total_moves)),
                    std::to_string(result.levels_run)});
    }
    table.Print();
    std::printf("\n");
  }
  std::printf("expected: the full configuration matches or beats each "
              "ablation on fanout;\nthe plain mover's random pairing wastes "
              "high-gain moves (paper §3.4).\n");
  return 0;
}
