// Ablation: flat epidemic gossip vs OneHop-style hierarchical
// dissemination — the membership substrates behind biased mix choice.
//
// Same churn, same network: measure belief accuracy (fraction of
// (live observer, subject) pairs whose alive/dead belief matches ground
// truth) and the message/byte cost of maintaining it.
#include <cstdio>

#include "churn/churn_model.hpp"
#include "churn/distributions.hpp"
#include "common/config.hpp"
#include "common/strings.hpp"
#include "membership/gossip.hpp"
#include "membership/onehop.hpp"
#include "net/demux.hpp"
#include "net/latency_matrix.hpp"
#include "net/sim_transport.hpp"
#include "metrics/table.hpp"
#include "obs/export.hpp"
#include "sim/simulator.hpp"

using namespace p2panon;

namespace {

struct Outcome {
  double accuracy = 0.0;
  double messages_per_node_second = 0.0;
  double bytes_per_node_second = 0.0;
};

template <typename Membership, typename Config>
Outcome run(std::size_t nodes, std::uint64_t seed, double median_seconds,
            SimDuration horizon, Config config) {
  sim::Simulator simulator;
  auto latency = net::LatencyMatrix::synthetic(nodes, Rng(seed));
  const auto dist = churn::ParetoLifetime::with_median(median_seconds);
  churn::ChurnModel churn_model(simulator, nodes, dist, Rng(seed + 1), 0.5);
  net::SimTransport transport(
      simulator, latency,
      [&](NodeId node) { return churn_model.is_up(node); });
  net::Demux demux(transport, nodes);
  Membership membership(simulator, demux, churn_model, config,
                        Rng(seed + 2));
  membership.start();
  churn_model.start();
  simulator.run_until(horizon);

  Outcome out;
  out.accuracy = membership.belief_accuracy();
  const double node_seconds =
      to_seconds(horizon) * static_cast<double>(nodes);
  if constexpr (requires { membership.gossip_messages_sent(); }) {
    out.messages_per_node_second =
        static_cast<double>(membership.gossip_messages_sent()) / node_seconds;
    out.bytes_per_node_second =
        static_cast<double>(membership.gossip_bytes_sent()) / node_seconds;
  } else {
    out.messages_per_node_second =
        static_cast<double>(membership.messages_sent()) / node_seconds;
    out.bytes_per_node_second =
        static_cast<double>(membership.bytes_sent()) / node_seconds;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags;
  auto& nodes = flags.add_int("nodes", 512, "network size");
  auto& seed = flags.add_int("seed", 1, "RNG seed");
  auto& minutes = flags.add_int("minutes", 30, "simulated minutes");
  auto& json_path = obs::add_json_flag(flags);
  flags.parse_or_exit(argc, argv);
  const auto horizon = static_cast<SimDuration>(
      static_cast<double>(minutes) * bench_scale()) * kMinute;

  std::printf("# Ablation: gossip vs OneHop dissemination, %lld nodes, "
              "%.0f simulated minutes\n", static_cast<long long>(nodes),
              to_seconds(horizon) / 60.0);

  metrics::Table table({"substrate", "churn median", "belief accuracy",
                        "msgs/node/s", "bytes/node/s"});
  for (const double median : {600.0, 3600.0}) {
    const auto gossip = run<membership::GossipMembership>(
        static_cast<std::size_t>(nodes), static_cast<std::uint64_t>(seed),
        median, horizon, membership::GossipConfig{});
    membership::OneHopConfig onehop_config;
    onehop_config.units = static_cast<std::size_t>(nodes) / 32;
    const auto onehop = run<membership::OneHopMembership>(
        static_cast<std::size_t>(nodes), static_cast<std::uint64_t>(seed),
        median, horizon, onehop_config);
    const std::string label = format_double(median / 60.0, 0) + " min";
    table.add_row({"gossip", label, format_double(gossip.accuracy, 4),
                   format_double(gossip.messages_per_node_second, 2),
                   format_double(gossip.bytes_per_node_second, 0)});
    table.add_row({"onehop", label, format_double(onehop.accuracy, 4),
                   format_double(onehop.messages_per_node_second, 2),
                   format_double(onehop.bytes_per_node_second, 0)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("Reading: both substrates keep beliefs accurate enough for "
              "biased mix choice; the hierarchy concentrates load on "
              "leaders but spends fewer total messages, while flat gossip "
              "pays steady per-node anti-entropy bandwidth — the classic "
              "trade the paper inherits from OneHop.\n");
  obs::BenchReport report("ablate_dissemination");
  report.add("nodes", static_cast<std::uint64_t>(nodes));
  report.add("horizon_s", to_seconds(horizon));
  report.add_section("table", table.to_json());
  if (!report.write_if_requested(json_path)) return 1;
  return 0;
}
