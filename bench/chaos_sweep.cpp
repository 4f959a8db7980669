// Chaos sweep: deterministic grids of chaos runs, averaged over seeds.
//
// `--sweep` picks the grid; every grid is one declarative table entry below
// (axes, a per-cell config builder, the harness runner, a default seed
// count, and the columns that fold a cell's runs into table cells and
// `--json` values), driven by one engine (`run_sweep`):
//
//   scenario    (default) delivered fraction under every scripted fault
//               scenario, fixed 5 s timeouts (the paper's configuration)
//               vs the adaptive RTO/backoff mode;
//   byzantine   corrupted-relay quorum x protocol x integrity defense arm;
//   membership  control-plane faults x recovery arm (durability harness);
//   overload    workload shape x protocol x shed/drop relay arm;
//   anonymity   passive global observer x protocol x {f grid, cover, churn}.
//
// The scenario grid pins a SimEra(4,2) pair exchanging a 512 B message
// every 5 s through a 96-node network while the scenario's FaultPlan runs
// (see harness/chaos_experiment.hpp). Reported per scenario x mode:
//   * attempted delivery — delivered / send_message calls. Charges a mode
//     for refusing sends while its paths are down, so stalling cannot
//     hide behind a shrunken denominator;
//   * accepted delivery  — delivered / accepted (nonzero message id);
//   * retx               — adaptive-mode segment retransmissions;
//   * violations         — unaccounted messages + residual state leaks +
//     open segment ledgers across all runs (the chaos invariants; must
//     be 0).
//
// With --trace <path> the sweep is skipped and ONE run of --trace-scenario
// executes with the span tracer on, writing Chrome trace-event JSON (opens
// in Perfetto / chrome://tracing; feed it to tools/trace_analyze for the
// offline causal report) and, with --jsonl, a sampled causal log. The
// traced run takes two more default-off observers: --timeseries <csv>
// attaches a windowed sampler (30 s windows over every registry series)
// and --health prints the rolling health scoreboard (churn storms,
// per-cause drop peaks, stalled paths) and adds its summary to --json.
//
// Every sweep's JSON is gated by scripts/check_bench.py.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/config.hpp"
#include "common/strings.hpp"
#include "harness/anonymity_experiment.hpp"
#include "harness/chaos_experiment.hpp"
#include "harness/membership_chaos.hpp"
#include "harness/parallel.hpp"
#include "metrics/table.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

using namespace p2panon;
using namespace p2panon::harness;

namespace {

// --- the grid engine -------------------------------------------------------

/// A folded cell value; counts stay uint64 in the JSON, rates stay double.
using Num = std::variant<std::uint64_t, double>;

/// What one column contributes for one grid cell.
struct Emitted {
  std::string text;                                      // table cell
  std::vector<std::pair<std::string, Num>> values = {};  // stem -> value
};

/// One grid cell as a column sees it.
template <class R>
struct CellRuns {
  std::span<const R> runs;    // ascending run order: float sums are stable
  const obs::Labels& labels;  // axis header -> this cell's label
  obs::Registry& metrics;     // the sweep's aggregate registry

  template <class Get>
  std::uint64_t total(Get get) const {
    std::uint64_t sum = 0;
    for (const R& r : runs) {
      sum += static_cast<std::uint64_t>(std::invoke(get, r));
    }
    return sum;
  }
  template <class Get>
  double sum(Get get) const {
    double sum = 0.0;
    for (const R& r : runs) sum += static_cast<double>(std::invoke(get, r));
    return sum;
  }
  template <class Get>
  double mean(Get get) const {
    return sum(get) / static_cast<double>(runs.size());
  }
};

Emitted emit(std::string text, const char* key, Num value) {
  Emitted out{std::move(text), {}};
  if (key != nullptr) out.values.emplace_back(key, value);
  return out;
}

template <class R>
struct Column {
  const char* header;  // table heading; nullptr = JSON values only
  std::function<Emitted(const CellRuns<R>&)> fold;

  /// Sums an integer field over the runs; `key` (if set) records the
  /// total as a uint64 value.
  template <class Get>
  static Column count(const char* header, const char* key, Get get) {
    return {header, [=](const CellRuns<R>& cell) {
              const std::uint64_t n = cell.total(get);
              return emit(std::to_string(n), key, n);
            }};
  }
  /// Averages a field over the runs, shown with `digits` decimals.
  template <class Get>
  static Column mean(const char* header, const char* key, Get get,
                     int digits) {
    return {header, [=](const CellRuns<R>& cell) {
              const double m = cell.mean(get);
              return emit(format_double(m, digits), key, m);
            }};
  }
  /// Averages a [0, 1] rate over the runs, shown as a percentage.
  template <class Get>
  static Column percent(const char* header, Get get) {
    return {header, [=](const CellRuns<R>& cell) {
              const double n = static_cast<double>(cell.runs.size());
              return Emitted{format_double(100.0 * cell.sum(get) / n, 1) +
                             "%"};
            }};
  }
};

template <class R>
struct TableSpec {
  const char* section;  // --json section name
  const char* caption;  // printed above the table; nullptr = none
  std::vector<Column<R>> columns;
};

/// Axis labels: `name(item)` for each item, in order.
template <class T, std::size_t N, class Name>
std::vector<std::string> labels_of(const T (&items)[N], Name name) {
  std::vector<std::string> labels;
  for (const T& item : items) labels.push_back(name(item));
  return labels;
}

struct Axis {
  const char* header;               // table column and metrics label name
  std::vector<std::string> labels;  // table cell per point
  std::vector<std::string> slugs = {};  // values-key parts; {} = labels
};

template <class Config, class Result>
struct Sweep {
  const char* bench;           // BenchReport name
  std::string title;           // header line; the seed count is appended
  std::size_t default_seeds;   // runs per cell when --seeds is 0
  std::vector<Axis> axes;      // cells in row-major order, last axis fastest
  std::function<Config(const std::vector<std::size_t>& at,
                       std::uint64_t seed)>
      config;
  Result (*run)(const Config&);
  std::vector<TableSpec<Result>> tables;
  const char* reading;
  /// Spells this sweep's knobs out at their defaults on the control config;
  /// when set, the engine runs the off-means-off fingerprint guard.
  std::function<void(ChaosConfig&)> spell_defaults = {};
  bool report_nodes = false;    // add the `nodes` value
  bool export_metrics = false;  // attach the aggregate registry to --json
};

struct SweepOptions {
  std::uint64_t seed;
  std::size_t seeds;  // 0 = the sweep's default
  std::size_t nodes;
  std::size_t workers;
  std::string json_path;
  std::string flow_log;
};

std::uint64_t violations(const ChaosResult& r) {
  return r.messages_unaccounted + r.total_leaks() +
         (r.ledger_closed() ? 0 : 1);
}

/// ChaosResult::fingerprint() of tiny_chaos(3) — 64 nodes, seed 3,
/// mild-loss-drizzle, warmup 5 min, measure 6 min, 1 KB every 10 s,
/// SimEra(4,2)/random — captured before the membership-resilience features
/// landed. The control guard reruns that exact config and must reproduce
/// this string while every newer knob sits at its default.
constexpr const char* kPrePrFingerprint =
    "1:35:19:17:4:13:0:26:20:1:5:6:60:0:0:0:0:0:0:0:171:0:0:0:0:173:0:0:0:"
    "12:45782:4:0:0:0:0:0:0";

ChaosConfig control_chaos_config() {
  ChaosConfig config;
  config.environment.num_nodes = 64;
  config.environment.seed = 3;
  config.scenario = ChaosScenario::kMildLossDrizzle;
  config.warmup = 5 * kMinute;
  config.measure = 6 * kMinute;
  config.send_interval = 10 * kSecond;
  config.spec = anon::ProtocolSpec::simera(4, 2, anon::MixChoice::kRandom);
  return config;
}

/// Off means off: the pre-PR control run, once with factory defaults and
/// once after `spell` writes a sweep's knobs out at their default values —
/// both fingerprints must match the committed baseline byte for byte, or a
/// default drifted.
bool control_fingerprint_guard(const std::function<void(ChaosConfig&)>& spell,
                               obs::BenchReport& report) {
  const ChaosResult control_default =
      run_chaos_experiment(control_chaos_config());
  ChaosConfig spelled = control_chaos_config();
  spell(spelled);
  const ChaosResult control_spelled = run_chaos_experiment(spelled);
  const bool ok = control_default.fingerprint() == kPrePrFingerprint &&
                  control_spelled.fingerprint() == kPrePrFingerprint;
  std::printf("control fingerprint: %s\n",
              ok ? "MATCHES pre-PR baseline" : "MISMATCH vs pre-PR baseline");
  if (!ok) {
    std::printf("  pre-PR:  %s\n  default: %s\n  spelled: %s\n",
                kPrePrFingerprint, control_default.fingerprint().c_str(),
                control_spelled.fingerprint().c_str());
  }
  report.add_text("pre_pr_fingerprint", kPrePrFingerprint);
  report.add_text("control_fingerprint", control_default.fingerprint());
  report.add_text("control_fingerprint_spelled",
                  control_spelled.fingerprint());
  report.add("fingerprint_match", static_cast<std::uint64_t>(ok ? 1 : 0));
  return ok;
}

/// Runs every cell x seed of `sweep` on the worker pool, folds each cell's
/// runs through the columns, prints the tables and writes the --json report.
template <class Config, class Result>
int run_sweep(const Sweep<Config, Result>& sweep, const SweepOptions& opts) {
  const std::size_t seeds = opts.seeds > 0 ? opts.seeds : sweep.default_seeds;
  const auto runs = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(seeds) * bench_scale()));
  std::size_t cells = 1;
  for (const Axis& axis : sweep.axes) cells *= axis.labels.size();
  auto coords = [&](std::size_t cell) {
    std::vector<std::size_t> at(sweep.axes.size());
    for (std::size_t a = at.size(); a-- > 0;) {
      at[a] = cell % sweep.axes[a].labels.size();
      cell /= sweep.axes[a].labels.size();
    }
    return at;
  };

  std::printf("%s, %zu seeds per cell\n", sweep.title.c_str(), runs);

  // Job i is cell i / runs at seed + i % runs.
  std::vector<Result> results(cells * runs);
  parallel_for(results.size(), opts.workers, [&](std::size_t i) {
    results[i] =
        sweep.run(sweep.config(coords(i / runs), opts.seed + i % runs));
  });

  obs::BenchReport report(sweep.bench);
  obs::Registry aggregate;
  std::vector<metrics::Table> tables;
  for (const TableSpec<Result>& spec : sweep.tables) {
    std::vector<std::string> header;
    for (const Axis& axis : sweep.axes) header.push_back(axis.header);
    for (const Column<Result>& column : spec.columns) {
      if (column.header != nullptr) header.push_back(column.header);
    }
    tables.emplace_back(std::move(header));
  }
  for (std::size_t cell = 0; cell < cells; ++cell) {
    const std::vector<std::size_t> at = coords(cell);
    std::vector<std::string> axis_cells;
    obs::Labels labels;
    std::string key;
    for (std::size_t a = 0; a < at.size(); ++a) {
      const Axis& axis = sweep.axes[a];
      axis_cells.push_back(axis.labels[at[a]]);
      labels[axis.header] = axis.labels[at[a]];
      key += "_" + (axis.slugs.empty() ? axis.labels : axis.slugs)[at[a]];
    }
    const CellRuns<Result> cell_runs{
        std::span<const Result>(results).subspan(cell * runs, runs), labels,
        aggregate};
    for (std::size_t t = 0; t < sweep.tables.size(); ++t) {
      std::vector<std::string> row = axis_cells;
      for (const Column<Result>& column : sweep.tables[t].columns) {
        Emitted out = column.fold(cell_runs);
        if (column.header != nullptr) row.push_back(std::move(out.text));
        for (const auto& [stem, value] : out.values) {
          std::visit([&](auto v) { report.add(stem + key, v); }, value);
        }
      }
      tables[t].add_row(std::move(row));
    }
  }
  for (std::size_t t = 0; t < tables.size(); ++t) {
    if (sweep.tables[t].caption != nullptr) {
      std::printf("# %s\n", sweep.tables[t].caption);
    }
    std::printf("%s\n", tables[t].render().c_str());
  }
  std::printf("%s\n", sweep.reading);

  report.add("runs_per_cell", static_cast<std::uint64_t>(runs));
  if (sweep.report_nodes) {
    report.add("nodes", static_cast<std::uint64_t>(opts.nodes));
  }
  const bool fingerprint_ok =
      !sweep.spell_defaults ||
      control_fingerprint_guard(sweep.spell_defaults, report);
  for (std::size_t t = 0; t < tables.size(); ++t) {
    report.add_section(sweep.tables[t].section, tables[t].to_json());
  }
  if (!report.write_if_requested(opts.json_path,
                                 sweep.export_metrics ? &aggregate : nullptr)) {
    return 1;
  }
  return fingerprint_ok ? 0 : 1;
}

// --- scenario sweep --------------------------------------------------------

const ChaosScenario kScenarios[] = {
    ChaosScenario::kFlashCrowdCrash, ChaosScenario::kRollingPartition,
    ChaosScenario::kLossyLinkEpidemic, ChaosScenario::kCorruptedRelayQuorum,
    ChaosScenario::kMildLossDrizzle};

ChaosConfig sweep_config(ChaosScenario scenario, std::uint64_t seed,
                         bool adaptive, std::size_t nodes) {
  ChaosConfig config;
  config.environment.num_nodes = nodes;
  config.environment.seed = seed;
  config.scenario = scenario;
  config.warmup = 5 * kMinute;
  config.measure = scenario == ChaosScenario::kCorruptedRelayQuorum
                       ? 15 * kMinute   // byzantine construction is slow
                       : 10 * kMinute;
  config.send_interval = 5 * kSecond;
  config.adaptive = adaptive;
  config.spec = anon::ProtocolSpec::simera(4, 2, anon::MixChoice::kRandom);
  return config;
}

Sweep<ChaosConfig, ChaosResult> scenario_sweep(const SweepOptions& opts) {
  using Col = Column<ChaosResult>;
  // Per-cause accounting of every datagram that vanished. Each run counts
  // drops in its private registry (net_drops_total / fault_injections_total);
  // the sweep folds them into the aggregate registry, labeled by scenario
  // and mode, and the drop table is rendered from it.
  auto drop = [](const char* header, const char* series, const char* kind,
                 const char* value, auto get) {
    return Col{header, [=](const CellRuns<ChaosResult>& cell) {
                 obs::Labels labels = cell.labels;
                 labels[kind] = value;
                 obs::Counter* counter = cell.metrics.counter(series, labels);
                 counter->inc(cell.total(get));
                 return Emitted{std::to_string(counter->value())};
               }};
  };
  using Drops = ChaosResult::DropStats;
  auto net = [&](const char* header, const char* cause,
                 std::uint64_t Drops::*field) {
    return drop(header, "net_drops_total", "cause", cause,
                [=](const ChaosResult& r) { return r.drops.*field; });
  };
  using Faults = fault::FaultyTransport::Counters;
  auto injected = [&](const char* header, const char* kind,
                      std::uint64_t Faults::*field) {
    return drop(header, "fault_injections_total", "kind", kind,
                [=](const ChaosResult& r) { return r.faults.*field; });
  };
  return {
      .bench = "chaos_sweep",
      .title = "# Chaos sweep: SimEra(4,2)/random, " +
               std::to_string(opts.nodes) +
               " nodes, 512 B every 5 s, fixed 5 s timeouts vs adaptive "
               "RTO+backoff",
      .default_seeds = 6,
      .axes = {{"scenario", labels_of(kScenarios, scenario_name)},
               {"mode", {"fixed", "adaptive"}}},
      .config =
          [nodes = opts.nodes](const std::vector<std::size_t>& at,
                               std::uint64_t seed) {
            return sweep_config(kScenarios[at[0]], seed, at[1] == 1, nodes);
          },
      .run = run_chaos_experiment,
      .tables =
          {{"delivery",
            nullptr,
            {Col::percent("attempted delivery",
                          &ChaosResult::attempted_delivery_rate),
             Col::percent("accepted delivery", &ChaosResult::delivery_rate),
             Col::count("retx", nullptr,
                        &ChaosResult::segments_retransmitted),
             Col::count("violations", nullptr, violations)}},
           {"drops_by_cause",
            "Datagram loss by cause (summed over seeds)",
            {net("sender-dead", "sender_dead", &Drops::sender_dead),
             net("recv-dead", "receiver_dead", &Drops::receiver_dead),
             net("link-loss", "link_loss", &Drops::link_loss),
             injected("crash", "dropped_crash", &Faults::dropped_crash),
             injected("partition", "dropped_partition",
                      &Faults::dropped_partition),
             injected("spike-loss", "dropped_loss", &Faults::dropped_loss),
             injected("corrupted", "corrupted", &Faults::corrupted),
             injected("duplicated", "duplicated", &Faults::duplicated)}}},
      .reading =
          "Reading: the adaptive mode's RTT-tracked timeouts and "
          "retransmission over surviving paths recover individual "
          "datagram losses that fixed 5 s timeouts escalate into path "
          "teardowns, so it leads on the attempted ratio wherever "
          "links are lossy or relays corrupt traffic. Under pure "
          "crash/partition faults the tradeoff reverses: there "
          "retransmission cannot help (the path is dead, not lossy) "
          "and the fixed mode's unbounded rebuild-and-resend loop "
          "beats the adaptive mode's bounded retry budget. Violations "
          "must read 0 — every run also upholds the conservation, "
          "ledger, and no-leak invariants asserted by chaos_test.",
      .export_metrics = true,
  };
}

// --- byzantine sweep -------------------------------------------------------
//
// --sweep byzantine replaces the scenario sweep with an integrity study:
// the corrupted-relay-quorum scenario is rerun across per-datagram flip
// probabilities, protocols, and three defense arms:
//
//   off             seed behavior — FastOnionCodec passes byte flips
//                   through, so corrupted reconstructions can DELIVER
//                   WRONG BYTES (the failure mode the tentpole removes);
//   tags            segment auth + verified decode + nack escalation —
//                   every delivery is tag/digest-checked, so a run either
//                   delivers the exact bytes or fails *closed*;
//   tags+suspicion  additionally files corruption/stall evidence into the
//                   node cache and biases mix choice away from suspects,
//                   so rebuilt paths route around the byzantine quorum.
struct ByzArm {
  const char* name;
  bool tags;       // segment_auth + verified_decode + corruption_escalation
  bool suspicion;  // relay_suspicion + suspicion-biased mix choice
};

constexpr double kByzProbs[] = {0.10, 0.25, 0.50};
constexpr ByzArm kByzArms[] = {{"off", false, false},
                               {"tags", true, false},
                               {"tags+suspicion", true, true}};

/// The three protocols the byzantine and overload sweeps cross, with their
/// table labels and short report-key slugs.
const std::vector<std::string> kProtoNames = {"curmix", "simrep(2)",
                                              "simera(4,2)"};
const std::vector<std::string> kProtoSlugs = {"curmix", "simrep2", "simera4"};

anon::ProtocolSpec proto_spec(std::size_t proto, anon::MixChoice mix) {
  switch (proto) {
    case 0: return anon::ProtocolSpec::curmix(mix);
    case 1: return anon::ProtocolSpec::simrep(2, mix);
    default: return anon::ProtocolSpec::simera(4, 2, mix);
  }
}

Sweep<ChaosConfig, ChaosResult> byzantine_sweep(const SweepOptions& opts) {
  using Col = Column<ChaosResult>;
  auto prob_label = [](double p) { return format_double(p, 2); };
  auto arm_name = [](const ByzArm& arm) { return arm.name; };
  auto rate = [](const char* header,
                 std::uint64_t ChaosResult::*numerator) {
    return Col{header, [=](const CellRuns<ChaosResult>& cell) {
                 const std::uint64_t accepted =
                     cell.total(&ChaosResult::messages_accepted);
                 const double denom =
                     accepted > 0 ? static_cast<double>(accepted) : 1.0;
                 return Emitted{format_double(
                     static_cast<double>(cell.total(numerator)) / denom, 4)};
               }};
  };
  return {
      .bench = "chaos_byzantine_sweep",
      .title = "# Byzantine sweep: corrupted-relay-quorum, " +
               std::to_string(opts.nodes) + " nodes, 512 B every 5 s",
      .default_seeds = 3,
      .axes = {{"p_corrupt", labels_of(kByzProbs, prob_label)},
               {"protocol", kProtoNames},
               {"arm", labels_of(kByzArms, arm_name)}},
      .config =
          [nodes = opts.nodes](const std::vector<std::size_t>& at,
                               std::uint64_t seed) {
            const ByzArm& arm = kByzArms[at[2]];
            ChaosConfig config =
                sweep_config(ChaosScenario::kCorruptedRelayQuorum, seed,
                             /*adaptive=*/false, nodes);
            config.spec = proto_spec(at[1], arm.suspicion
                                                ? anon::MixChoice::kBiased
                                                : anon::MixChoice::kRandom);
            config.byzantine_probability = kByzProbs[at[0]];
            config.segment_auth = arm.tags;
            config.verified_decode = arm.tags;
            config.corruption_escalation = arm.tags;
            config.relay_suspicion = arm.suspicion;
            return config;
          },
      .run = run_chaos_experiment,
      .tables = {{"byzantine",
                  nullptr,
                  {Col::count("accepted", nullptr,
                              &ChaosResult::messages_accepted),
                   Col::count("correct", nullptr,
                              &ChaosResult::messages_delivered_correct),
                   Col::count("wrong", nullptr,
                              &ChaosResult::messages_delivered_wrong),
                   {"failed_closed",
                    [](const CellRuns<ChaosResult>& cell) {
                      return Emitted{std::to_string(
                          cell.total(&ChaosResult::messages_accepted) -
                          cell.total(&ChaosResult::messages_delivered_correct) -
                          cell.total(&ChaosResult::messages_delivered_wrong))};
                    }},
                   rate("correct_rate",
                        &ChaosResult::messages_delivered_correct),
                   rate("wrong_rate", &ChaosResult::messages_delivered_wrong),
                   Col::count("auth_rejected", nullptr,
                              &ChaosResult::auth_rejected),
                   Col::count("corrupt_nacks", nullptr,
                              &ChaosResult::auth_nacks),
                   Col::count("quarantined", nullptr,
                              &ChaosResult::quarantined_nodes),
                   Col::count("violations", nullptr, violations)}}},
      .reading =
          "Reading: with the auth arms on, `wrong` must be 0 in every "
          "cell — a corrupted reconstruction is rejected at the "
          "responder (tag check) or by the digest-validated decode, so "
          "the message fails closed instead of delivering fabricated "
          "bytes. The seed arm shows the baseline hazard: FastOnionCodec "
          "has no integrity, so flips survive to the application. The "
          "suspicion arm routes rebuilds around quarantined relays, "
          "recovering deliveries the tags-only arm loses to the "
          "byzantine quorum.",
      .report_nodes = true,
  };
}

// --- membership sweep ------------------------------------------------------
//
// --sweep membership drives the *control plane* fault scenarios
// (harness/membership_chaos.hpp) through the durability harness: gossip
// blackout, leader crash, stale injection, and claim inflation, each under
// three arms — random mix choice (the liveness-ignorant floor), biased
// (Eq. 3 over the faulted membership), and resilient (biased + staleness-
// aware selection + anti-entropy repair + bounded trust + failover).
//
// Two committed gates ride on the JSON (scripts/check_bench.py):
//   1. under gossip blackout, the resilient arm's mean durability must not
//      fall below the random arm's (staleness-aware bias >= the floor);
//   2. the control fingerprint: with every membership-resilience knob at
//      its default, a fixed chaos run must still produce the pre-PR
//      fingerprint, byte for byte.

constexpr MembershipScenario kMemScenarios[] = {
    MembershipScenario::kGossipBlackout, MembershipScenario::kLeaderCrash,
    MembershipScenario::kStaleInject, MembershipScenario::kClaimInflate};
constexpr MembershipArm kMemArms[] = {MembershipArm::kRandom,
                                      MembershipArm::kBiased,
                                      MembershipArm::kResilient};

Sweep<MembershipChaosConfig, DurabilityResult> membership_sweep(
    const SweepOptions&) {
  using R = DurabilityResult;
  using Col = Column<R>;
  using Counters = fault::FaultyTransport::Counters;
  auto injected = [](const char* header, std::uint64_t Counters::*counter) {
    return Col::count(header, nullptr,
                      [=](const R& r) { return r.faults.*counter; });
  };
  return {
      .bench = "chaos_membership_sweep",
      .title = "# Membership sweep: control-plane faults x recovery arms, "
               "64 nodes, SimEra(4,2)",
      .default_seeds = 5,
      .axes = {{"scenario",
                labels_of(kMemScenarios, membership_scenario_name)},
               {"arm", labels_of(kMemArms, membership_arm_name)}},
      .config =
          [](const std::vector<std::size_t>& at, std::uint64_t seed) {
            MembershipChaosConfig config;
            config.scenario = kMemScenarios[at[0]];
            config.arm = kMemArms[at[1]];
            config.seed = seed;
            return config;
          },
      .run = run_membership_chaos,
      .tables =
          {{"durability",
            nullptr,
            {Col::mean("durability_s", "durability", &R::durability_seconds,
                       1),
             Col::mean("attempts", nullptr, &R::construct_attempts, 1),
             {"delivery",
              [](const CellRuns<R>& cell) {
                const std::uint64_t sent = cell.total(&R::messages_sent);
                const std::uint64_t delivered =
                    cell.total(&R::messages_delivered);
                return Emitted{
                    format_double(sent > 0
                                      ? 100.0 *
                                            static_cast<double>(delivered) /
                                            static_cast<double>(sent)
                                      : 0.0,
                                  1) +
                    "%"};
              }},
             Col::percent("belief", &R::belief_accuracy),
             {"stale_fallbacks",
              [](const CellRuns<R>& cell) {
                return Emitted{
                    std::to_string(cell.total(&R::mix_stale_fallbacks)) +
                    "/" + std::to_string(cell.total(&R::mix_biased_selects))};
              }},
             Col::count("repair_accepted", nullptr,
                        [](const R& r) {
                          return r.control.repair_records_accepted;
                        }),
             Col::count("elections", nullptr,
                        [](const R& r) { return r.control.elections; })}},
           {"membership_drops",
            "Membership-plane injections (summed over seeds)",
            {injected("gossip-blackout", &Counters::dropped_gossip_blackout),
             injected("gossip-loss", &Counters::dropped_gossip_loss),
             injected("stale-inject", &Counters::stale_injected),
             injected("claim-inflate", &Counters::claims_inflated),
             injected("crash-drop", &Counters::dropped_crash)}}},
      .reading =
          "Reading: under gossip blackout the biased arms rank on "
          "fossils until repair heals the caches; the resilient arm's "
          "anti-entropy + staleness-aware degradation must keep its "
          "durability at or above the random floor (the CI gate). "
          "Under leader crash only the failover arm re-elects "
          "(elections > 0) and keeps dissemination alive; under claim "
          "inflation bounded trust caps the fake uptimes that would "
          "otherwise dominate the Eq. 3 ranking.",
      .spell_defaults =
          [](ChaosConfig& spelled) {
            spelled.environment.membership_kind = MembershipKind::kGossip;
            spelled.environment.gossip.anti_entropy_interval = 0;
            spelled.environment.gossip.per_node_rng = false;
            spelled.environment.gossip.bounded_trust = false;
            spelled.environment.membership_obs_interval = 0;
          },
  };
}

// --- overload sweep --------------------------------------------------------
//
// --sweep overload replaces the scenario sweep with a saturation study: the
// workload engine offers a bulk/interactive/streaming mix whose rate is
// shaped {steady, diurnal, flash} while every relay runs a bounded leaky-
// bucket queue, across 3 protocols x 2 arms:
//
//   shed   priority-aware load shedding (bulk before streaming before
//          interactive, control never) + admission control + reverse-path
//          backpressure + the session-side bounded send queue;
//   drop   the same bounded queue with priority-blind tail drop and no
//          admission/backpressure — what a naive bounded relay does.
//
// The committed gates (scripts/check_bench.py): under the flash
// crowd the shed arm's goodput stays above a floor while the drop arm
// collapses below it, interactive p99 stays bounded, zero control-plane
// segments are ever shed, and the off-means-off control fingerprint
// reproduces byte for byte.

constexpr workload::LoadShape kOvlShapes[] = {workload::LoadShape::kSteady,
                                              workload::LoadShape::kDiurnal,
                                              workload::LoadShape::kFlashCrowd};

ChaosConfig overload_cell_config(std::size_t proto, workload::LoadShape shape,
                                 bool shed, std::uint64_t seed) {
  ChaosConfig config;
  config.environment.num_nodes = 64;
  config.environment.seed = seed;
  // Light background loss only: the stress under study is offered load,
  // not faults, so every shape/arm faces the same benign network.
  config.scenario = ChaosScenario::kMildLossDrizzle;
  config.warmup = 5 * kMinute;
  config.measure = 10 * kMinute;
  config.adaptive = true;  // retransmissions are the collapse fuel
  // At 4 msg/s the default threshold (3 consecutive timeouts) turns the
  // drizzle's ~1/3 ack-round-trip loss into perpetual rebuild churn;
  // raise it so retransmission absorbs background loss and offered load
  // stays the only stressor.
  config.path_fail_threshold = 40;
  config.spec = proto_spec(proto, anon::MixChoice::kRandom);
  config.workload.enabled = true;
  config.workload.shape = shape;
  // 4 msg/s (plus ~20% retransmit traffic from the drizzle) against a
  // 10/s relay drain: steady is ~0.5x load, the diurnal peak ~0.8x, and
  // the 4x flash ~2x — the overload regime the gate reasons about.
  config.workload.mean_interarrival = 250 * kMillisecond;
  config.environment.router.overload.enabled = true;
  config.environment.router.overload.relay_queue_capacity = 64;
  config.environment.router.overload.drain_rate_per_s = 10.0;
  if (shed) {
    config.environment.router.overload.shedding = true;
    config.environment.router.overload.admission_control = true;
    config.environment.router.overload.backpressure = true;
    config.max_inflight_segments = 256;
    config.shed_low_priority = true;
    config.session_backpressure = true;
  }
  return config;
}

Sweep<ChaosConfig, ChaosResult> overload_sweep(const SweepOptions&) {
  using R = ChaosResult;
  using Col = Column<R>;
  // Per-class goodput over the cell: delivered / attempted sends, summed
  // over runs (indexed by workload::TrafficClass).
  auto class_goodput = [](const char* header, const char* key,
                          std::size_t cls) {
    return Col{header, [=](const CellRuns<R>& cell) {
                 R::ClassStats stats;
                 for (const R& r : cell.runs) {
                   stats.attempts += r.per_class[cls].attempts;
                   stats.delivered += r.per_class[cls].delivered;
                 }
                 return emit(format_double(stats.goodput(), 3), key,
                             stats.goodput());
               }};
  };
  return {
      .bench = "chaos_overload_sweep",
      .title = "# Overload sweep: workload shapes x shed/drop arms, 64 "
               "nodes, mixed traffic at 4 msg/s vs 5/s relay drain",
      .default_seeds = 2,
      .axes = {{"protocol", kProtoNames, kProtoSlugs},
               {"shape", labels_of(kOvlShapes, workload::load_shape_name)},
               {"arm", {"shed", "drop"}}},
      .config =
          [](const std::vector<std::size_t>& at, std::uint64_t seed) {
            return overload_cell_config(at[0], kOvlShapes[at[1]],
                                        /*shed=*/at[2] == 0, seed);
          },
      .run = run_chaos_experiment,
      .tables =
          {{"overload",
            nullptr,
            {Col::count("attempts", "attempts", &R::send_attempts),
             Col::count("accepted", "accepted", &R::messages_accepted),
             Col::count(nullptr, "delivered", &R::messages_delivered),
             {"goodput",
              [](const CellRuns<R>& cell) {
                const std::uint64_t attempts = cell.total(&R::send_attempts);
                const double goodput =
                    attempts > 0
                        ? static_cast<double>(
                              cell.total(&R::messages_delivered)) /
                              static_cast<double>(attempts)
                        : 0.0;
                return emit(format_double(goodput, 3), "goodput", goodput);
              }},
             class_goodput("inter_gp", "goodput_interactive", 1),
             class_goodput("bulk_gp", "goodput_bulk", 0),
             class_goodput(nullptr, "goodput_streaming", 2),
             {"inter_p99_ms",  // the worst run's p99
              [](const CellRuns<R>& cell) {
                std::uint64_t p99 = 0;
                for (const R& r : cell.runs) {
                  p99 = std::max(p99, r.interactive_p99_us);
                }
                return emit(std::to_string(p99 / 1000), "interactive_p99_us",
                            p99);
              }},
             Col::count("retx", "segments_retx", &R::segments_retransmitted),
             Col::count("expired", "segments_expired", &R::segments_expired),
             Col::count(nullptr, "segments_deferred",
                        &R::session_segments_deferred),
             {"sheds b/s/i/c",
              [](const CellRuns<R>& cell) {
                Emitted out;
                for (const auto& [stem, field] :
                     {std::pair{"sheds_bulk", &R::relay_sheds_bulk},
                      std::pair{"sheds_streaming", &R::relay_sheds_streaming},
                      std::pair{"sheds_interactive",
                                &R::relay_sheds_interactive},
                      std::pair{"sheds_control", &R::relay_sheds_control}}) {
                  const std::uint64_t n = cell.total(field);
                  out.text += (out.text.empty() ? "" : "/") + std::to_string(n);
                  out.values.emplace_back(stem, n);
                }
                return out;
              }},
             Col::count("admission", "admission_rejects",
                        &R::admission_rejects),
             Col::count("bp", "backpressure_signals",
                        &R::backpressure_signals),
             Col::count(nullptr, "session_sheds", &R::session_messages_shed),
             Col::count(nullptr, "stalls_suppressed",
                        &R::session_stalls_suppressed),
             Col::count("violations", "violations", violations)}}},
      .reading =
          "Reading: `goodput` is delivered / attempted sends. Under the "
          "steady shape both arms ride well under the drain rate and "
          "tie. Under the flash crowd the drop arm tail-drops every "
          "class equally — retransmissions amplify the overload and "
          "interactive goodput collapses with the rest — while the "
          "shed arm sacrifices bulk first (sheds column: bulk >> "
          "interactive, control always 0), refuses new work at "
          "saturated relays, and backpressures the sender into "
          "deferring bulk, so interactive goodput and p99 stay "
          "serviceable through the spike.",
      .spell_defaults =
          [](ChaosConfig& spelled) {
            spelled.workload = workload::WorkloadConfig{};
            spelled.environment.router.overload =
                anon::RouterConfig::OverloadConfig{};
            spelled.environment.router.pool_max_capacity = 0;
            spelled.environment.overload_obs_interval = 0;
            spelled.max_inflight_segments = 0;
            spelled.shed_low_priority = false;
            spelled.session_backpressure = false;
          },
  };
}

// --- anonymity sweep -------------------------------------------------------
//
// --sweep anonymity taps a LinkObserver into the wire and replays the
// captured flow log through the offline attack engine (DESIGN §10):
// predecessor (paper §5 Case 1 with a planted fraction-f insider set),
// intersection over trial windows, and timing correlation at the
// responder. 3 protocols x 5 arms: a compromised-fraction grid
// {f=5%, 10%, 20%}, a cover-traffic arm, and a fast-churn arm.
//
// The committed gates (scripts/check_bench.py):
//   1. empirical first-relay compromise tracks 1-(1-f)^k across the f
//      grid for every protocol;
//   2. cover traffic strictly lowers timing-correlation success;
//   3. the multipath anonymity cost is visible: predecessor success and
//      entropy order sanely across CurMix/SimRep/SimEra;
//   4. off means off: the pre-PR control fingerprint reproduces with the
//      observer left unconfigured.

struct AnonymityArm {
  const char* name;
  double fraction;
  bool cover;
  bool fast_churn;
};

constexpr AnonymityArm kAnonArms[] = {
    {"f05", 0.05, false, false},  {"base", 0.10, false, false},
    {"f20", 0.20, false, false},  {"cover", 0.10, true, false},
    {"churn", 0.10, false, true},
};

AnonymityConfig anonymity_cell_config(std::size_t proto, std::size_t arm,
                                      std::uint64_t seed,
                                      std::size_t nodes) {
  const AnonymityArm& a = kAnonArms[arm];
  AnonymityConfig config;
  config.environment.num_nodes = nodes;
  config.environment.seed = seed;
  config.spec = proto_spec(proto, anon::MixChoice::kRandom);
  config.compromised_fraction = a.fraction;
  config.cover_traffic = a.cover;
  config.trials = 36;  // 24 default; more trials tighten the f-grid gate
  if (a.fast_churn) {
    config.environment.session_distribution = "pareto:median=900";
    config.pin_all_up = false;  // measure rebuild-driven exposure
  }
  return config;
}

Sweep<AnonymityConfig, AnonymityResult> anonymity_sweep(
    const SweepOptions& opts) {
  using R = AnonymityResult;
  using Col = Column<R>;
  std::vector<std::string> protocols;
  for (std::size_t p = 0; p < kProtoSlugs.size(); ++p) {
    protocols.push_back(proto_spec(p, anon::MixChoice::kRandom).name());
  }
  auto arm_name = [](const AnonymityArm& arm) { return arm.name; };
  // One field of one of the three attack reports.
  using Report = adversary::AnonymityReport;
  auto of = [](Report R::*attack, double Report::*field) {
    return [=](const R& r) { return (r.*attack).*field; };
  };
  return {
      .bench = "chaos_anonymity_sweep",
      .title = "# Anonymity sweep: passive global observer + offline "
               "attacks, " +
               std::to_string(opts.nodes) + " nodes",
      .default_seeds = 3,
      .axes = {{"protocol", protocols, kProtoSlugs},
               {"arm", labels_of(kAnonArms, arm_name)}},
      .config =
          [opts](const std::vector<std::size_t>& at, std::uint64_t seed) {
            AnonymityConfig config =
                anonymity_cell_config(at[0], at[1], seed, opts.nodes);
            // One representative capture (CurMix/base, first seed) as
            // link-record JSONL, for tools/trace_analyze --flows
            // cross-referencing.
            if (at[0] == 0 && at[1] == 1 && seed == opts.seed) {
              config.flow_log_path = opts.flow_log;
            }
            return config;
          },
      .run = run_anonymity_experiment,
      .tables =
          {{"anonymity",
            nullptr,
            {Col::mean("pred_succ", "pred_success",
                       of(&R::predecessor, &Report::success_rate), 3),
             Col::mean("eq4", "eq4", &R::eq4_identification, 3),
             Col::mean("compromise", "pred_compromise",
                       of(&R::predecessor, &Report::compromise_rate), 3),
             Col::mean("1-(1-f)^k", "exposure", &R::multipath_exposure, 3),
             Col::mean("pred_H", "pred_entropy",
                       of(&R::predecessor, &Report::posterior_entropy_bits), 2),
             Col::mean("corr_succ", "corr_success",
                       of(&R::correlation, &Report::success_rate), 3),
             Col::mean("inter_set", "inter_set",
                       of(&R::intersection, &Report::anonymity_set_mean), 1),
             Col::count("flows", "flows", &R::flows_recorded),
             Col::mean(nullptr, "pred_set",
                       of(&R::predecessor, &Report::anonymity_set_mean), 0),
             Col::mean(nullptr, "gt_compromise",
                       &R::ground_truth_compromise_rate, 0),
             Col::mean(nullptr, "inter_success",
                       of(&R::intersection, &Report::success_rate), 0),
             Col::mean(nullptr, "corr_entropy",
                       of(&R::correlation, &Report::posterior_entropy_bits), 0),
             Col::mean(nullptr, "corr_set",
                       of(&R::correlation, &Report::anonymity_set_mean), 0),
             Col::mean(nullptr, "uniform_entropy", &R::uniform_entropy, 0),
             Col::count(nullptr, "trials", &R::trials_attempted),
             Col::count(nullptr, "constructed", &R::trials_constructed),
             Col::count(nullptr, "cover_messages", &R::cover_messages),
             Col::count(nullptr, "flows_evicted", &R::flows_evicted)}}},
      .reading =
          "Reading: `compromise` is the wire-observed fraction of "
          "trials whose first relay was an insider; it must track the "
          "1-(1-f)^k column across the f grid (more paths, more "
          "exposure — the multipath anonymity cost). `pred_succ` vs "
          "`eq4` compares the attacker's realized posterior mass on "
          "the initiator with the paper's closed form. Cover traffic "
          "leaves the predecessor columns alone but dilutes "
          "`corr_succ`: timing correlation cannot tell the real sender "
          "from the dummies. Under churn the intersection set shrinks "
          "toward the persistent initiator.",
      .spell_defaults =
          [](ChaosConfig& spelled) { spelled.environment.link_tap = nullptr; },
      .report_nodes = true,
  };
}

struct SweepEntry {
  const char* name;
  int (*run)(const SweepOptions&);
};

constexpr SweepEntry kSweeps[] = {
    {"scenario",
     [](const SweepOptions& o) { return run_sweep(scenario_sweep(o), o); }},
    {"byzantine",
     [](const SweepOptions& o) { return run_sweep(byzantine_sweep(o), o); }},
    {"membership",
     [](const SweepOptions& o) { return run_sweep(membership_sweep(o), o); }},
    {"overload",
     [](const SweepOptions& o) { return run_sweep(overload_sweep(o), o); }},
    {"anonymity",
     [](const SweepOptions& o) { return run_sweep(anonymity_sweep(o), o); }},
};

// --- traced run ------------------------------------------------------------

bool parse_scenario(const std::string& name, ChaosScenario& out) {
  for (const ChaosScenario scenario : kScenarios) {
    if (name == scenario_name(scenario)) {
      out = scenario;
      return true;
    }
  }
  return false;
}

/// One traced run: installs the trace sinks, executes the scenario, and
/// writes the Chrome JSON (plus the optional sampled JSONL causal log, the
/// optional time-series CSV, and the optional health scoreboard).
int run_traced(const std::string& trace_path, const std::string& jsonl_path,
               const std::string& scenario_flag, bool adaptive,
               double sample_rate, std::uint64_t seed, std::size_t nodes,
               const std::string& json_path,
               const std::string& timeseries_path, bool health) {
  ChaosScenario scenario;
  if (!parse_scenario(scenario_flag, scenario)) {
    std::fprintf(stderr, "chaos_sweep: unknown --trace-scenario '%s'\n",
                 scenario_flag.c_str());
    return 1;
  }

  obs::ChromeTraceSink chrome;
  obs::JsonlTraceSink jsonl(sample_rate, seed);
  auto& tracer = obs::Tracer::instance();
  tracer.add_sink(&chrome);
  if (!jsonl_path.empty()) tracer.add_sink(&jsonl);
  obs::install_log_decorator();

  obs::Registry run_metrics;
  obs::TimeseriesRecorder timeseries(run_metrics);
  ChaosConfig config = sweep_config(scenario, seed, adaptive, nodes);
  config.environment.metrics = &run_metrics;
  config.environment.obs_sample_interval = 30 * kSecond;
  if (!timeseries_path.empty()) {
    config.environment.timeseries = &timeseries;
    config.environment.timeseries_interval = 30 * kSecond;
  }
  if (health) config.health_interval = 30 * kSecond;
  const ChaosResult result = run_chaos_experiment(config);

  obs::uninstall_log_decorator();
  tracer.clear_sinks();

  if (!chrome.write_file(trace_path)) {
    std::fprintf(stderr, "chaos_sweep: cannot write %s\n", trace_path.c_str());
    return 1;
  }
  std::printf("# Traced chaos run: %s, %s mode, seed %llu, %zu nodes\n",
              scenario_name(scenario), adaptive ? "adaptive" : "fixed",
              static_cast<unsigned long long>(seed), nodes);
  std::printf("trace: %zu events -> %s (open in Perfetto)\n",
              chrome.event_count(), trace_path.c_str());
  if (!jsonl_path.empty()) {
    if (!jsonl.write_file(jsonl_path)) {
      std::fprintf(stderr, "chaos_sweep: cannot write %s\n",
                   jsonl_path.c_str());
      return 1;
    }
    std::printf("causal log: %zu lines (sample rate %.3f) -> %s\n",
                jsonl.lines().size(), sample_rate, jsonl_path.c_str());
  }
  std::printf(
      "delivered %llu/%llu accepted, retx %llu, drops %llu, violations %llu\n",
      static_cast<unsigned long long>(result.messages_delivered),
      static_cast<unsigned long long>(result.messages_accepted),
      static_cast<unsigned long long>(result.segments_retransmitted),
      static_cast<unsigned long long>(result.drops.total()),
      static_cast<unsigned long long>(result.messages_unaccounted +
                                      result.total_leaks()));
  if (!timeseries_path.empty()) {
    if (!timeseries.write_csv(timeseries_path)) {
      std::fprintf(stderr, "chaos_sweep: cannot write %s\n",
                   timeseries_path.c_str());
      return 1;
    }
    std::printf("time series: %zu series x %zu samples -> %s\n",
                timeseries.series_count(), timeseries.sample_count(),
                timeseries_path.c_str());
  }
  if (health) {
    std::printf("# Health scoreboard (30 s windows)\n%s\n",
                result.health_table.c_str());
  }

  obs::BenchReport report("chaos_sweep_traced");
  report.add_text("scenario", scenario_name(scenario));
  report.add_text("mode", adaptive ? "adaptive" : "fixed");
  report.add("trace_events", static_cast<std::uint64_t>(chrome.event_count()));
  report.add("messages_delivered", result.messages_delivered);
  report.add("messages_accepted", result.messages_accepted);
  report.add("segments_retransmitted", result.segments_retransmitted);
  if (health) {
    report.add("health_windows",
               static_cast<std::uint64_t>(result.health.windows));
    report.add("health_churn_storm_windows",
               static_cast<std::uint64_t>(result.health.churn_storm_windows));
    report.add("health_stalled_path_windows",
               static_cast<std::uint64_t>(result.health.stalled_path_windows));
    report.add("health_max_transitions_per_window",
               result.health.max_transitions_per_window);
    report.add("health_max_drop_rate_per_s",
               result.health.max_drop_rate_per_s);
  }
  if (!report.write_if_requested(json_path, &run_metrics)) return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags;
  auto& sweep = flags.add_string(
      "sweep", "scenario",
      "grid to run: scenario (fault scenario x fixed/adaptive timeouts), "
      "byzantine (corruption probability x protocol x defense arm), "
      "membership (control-plane faults x recovery arms, with the control "
      "fingerprint guard), overload (workload shape x protocol x "
      "shed/drop arm, with the guard) or anonymity (passive observer x "
      "protocol x {f grid, cover, churn}, with the guard)");
  auto& nodes = flags.add_int("nodes", 96, "network size");
  auto& seed = flags.add_int("seed", 1, "base RNG seed");
  auto& seeds = flags.add_int(
      "seeds", 0,
      "runs per cell (0 = the sweep's default: scenario 6, byzantine 3, "
      "membership 5, overload 2, anonymity 3)");
  auto& threads = flags.add_int("threads", 0, "worker threads (0 = auto)");
  auto& json_path = obs::add_json_flag(flags);
  auto& trace_path = flags.add_string(
      "trace", "", "write Chrome trace JSON of one traced run, skip sweep");
  auto& trace_scenario = flags.add_string(
      "trace-scenario", "lossy-link-epidemic", "scenario for the traced run");
  auto& trace_adaptive = flags.add_bool(
      "trace-adaptive", true,
      "traced run uses adaptive RTO + retransmission (exercises the "
      "segment_retransmit spans)");
  auto& jsonl_path = flags.add_string(
      "jsonl", "", "also write a JSONL causal log of the traced run");
  auto& sample = flags.add_double(
      "sample", 1.0, "JSONL sampling rate (whole correlation chains)");
  auto& timeseries_path = flags.add_string(
      "timeseries", "",
      "write a windowed time-series CSV of the traced run's registry");
  auto& health = flags.add_bool(
      "health", false,
      "run the rolling health scoreboard during the traced run");
  auto& flow_log = flags.add_string(
      "flow-log", "",
      "anonymity sweep: dump one cell's captured flow log here as "
      "link-record JSONL (for trace_analyze --flows)");
  flags.parse_or_exit(argc, argv);

  if (!trace_path.empty()) {
    return run_traced(trace_path, jsonl_path, trace_scenario, trace_adaptive,
                      sample, static_cast<std::uint64_t>(seed),
                      static_cast<std::size_t>(nodes), json_path,
                      timeseries_path, health);
  }

  const SweepOptions opts{
      static_cast<std::uint64_t>(seed),
      static_cast<std::size_t>(seeds),
      static_cast<std::size_t>(nodes),
      threads > 0 ? static_cast<std::size_t>(threads)
                  : default_worker_threads(),
      json_path,
      flow_log};
  for (const SweepEntry& entry : kSweeps) {
    if (sweep == entry.name) return entry.run(opts);
  }
  std::fprintf(stderr, "chaos_sweep: unknown --sweep '%s'\n", sweep.c_str());
  return 1;
}
