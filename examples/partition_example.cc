// Minimal end-to-end example: generate a social-style hypergraph, partition
// it with SHP-k and SHP-2, and print the fanout each achieves.
#include <cstdio>
#include <memory>

#include "core/shp.h"
#include "graph/gen_social.h"

int main() {
  shp::SocialGraphConfig config;
  config.num_users = 5000;
  config.avg_degree = 10;
  config.seed = 1;
  const shp::BipartiteGraph graph = shp::GenerateSocialGraph(config);
  std::printf("graph: %u queries, %u data vertices, %llu pins\n",
              graph.num_queries(), graph.num_data(),
              static_cast<unsigned long long>(graph.num_edges()));

  const shp::BucketId k = 16;
  shp::ShpKOptions k_options;
  shp::RecursiveOptions r_options;
  std::unique_ptr<shp::Partitioner> partitioners[] = {
      shp::MakeShpK(k_options), shp::MakeShpRecursive(r_options)};
  for (const auto& partitioner : partitioners) {
    auto result = partitioner->Partition(graph, k, nullptr);
    if (!result.ok()) {
      std::printf("%s failed: %s\n", partitioner->name().c_str(),
                  result.status().ToString().c_str());
      return 1;
    }
    const shp::PartitionSummary summary =
        shp::SummarizePartition(graph, result.value(), k);
    std::printf("%-8s fanout=%.4f p-fanout=%.4f imbalance=%.4f\n",
                partitioner->name().c_str(), summary.fanout, summary.p_fanout,
                summary.imbalance);
  }
  return 0;
}
