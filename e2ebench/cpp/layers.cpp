#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <map>

#include "crypto/aead.hpp"
#include "crypto/keys.hpp"
#include "crypto/sealed_box.hpp"
#include "erasure/codec.hpp"
#include "harness/environment.hpp"
#include "membership/gossip.hpp"
#include "net/latency_matrix.hpp"
#include "obs/capacity/census.hpp"
#include "obs/capacity/rusage.hpp"

namespace e2e {

using namespace p2panon;

namespace {

using HostClock = std::chrono::steady_clock;

double seconds_since(HostClock::time_point start) {
  return std::chrono::duration<double>(HostClock::now() - start).count();
}

template <typename T>
T median(std::vector<T> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Median host seconds of `reps` timed calls.
template <typename Fn>
double time_calls(int reps, Fn&& fn) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = HostClock::now();
    fn();
    samples.push_back(seconds_since(t0));
  }
  return median(samples);
}

/// Per-call host microseconds: grows a batch until it takes >= 2 ms, then
/// takes the median per-call time of five such batches.
template <typename Fn>
double per_call_us(Fn&& fn) {
  std::size_t batch = 1;
  while (true) {
    const auto t0 = HostClock::now();
    for (std::size_t i = 0; i < batch; ++i) fn();
    if (seconds_since(t0) >= 2e-3 || batch >= (1u << 20)) break;
    batch *= 2;
  }
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = HostClock::now();
    for (std::size_t i = 0; i < batch; ++i) fn();
    samples.push_back(seconds_since(t0) * 1e6 / static_cast<double>(batch));
  }
  return median(samples);
}

struct CryptoCost {
  double seal_us = 0;
  double open_us = 0;
  double aead_open_us = 0;
};

/// Sealed box and AEAD costs for a payload core carrying `segment_bytes`.
CryptoCost crypto_cost(std::size_t segment_bytes, Rng& rng) {
  constexpr std::size_t kCoreHeader = 32;  // ids, sizes, responder key
  const Bytes plain(segment_bytes + kCoreHeader, 0x5a);
  const crypto::KeyPair recipient = crypto::KeyPair::generate(rng);
  CryptoCost cost;
  Bytes sealed;
  cost.seal_us = per_call_us(
      [&] { sealed = crypto::sealed_box_seal(recipient.public_key, plain, rng); });
  cost.open_us =
      per_call_us([&] { (void)crypto::sealed_box_open(recipient, sealed); });
  const crypto::ChaChaKey key = crypto::random_symmetric_key(rng);
  const auto nonce = crypto::nonce_from_seq(7);
  const Bytes boxed = crypto::aead_seal(key, nonce, {}, plain);
  cost.aead_open_us =
      per_call_us([&] { (void)crypto::aead_open(key, nonce, {}, boxed); });
  return cost;
}

struct ErasureCost {
  double encode_us = 0;
  double decode_us = 0;
};

/// Encode, and decode from the last m segments (parity-heavy when m > 1).
ErasureCost erasure_cost(std::size_t m, std::size_t n, std::size_t bytes) {
  const auto codec = erasure::make_codec(m, n);
  Bytes message(bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    message[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  std::vector<erasure::Segment> segments;
  ErasureCost cost;
  cost.encode_us = per_call_us([&] { codec->encode_into(message, segments); });
  const std::vector<erasure::Segment> tail(
      segments.end() - static_cast<std::ptrdiff_t>(m), segments.end());
  cost.decode_us = per_call_us([&] { (void)codec->decode(tail, bytes); });
  return cost;
}

/// Encode + decode of a batch of 21-byte liveness records, per record.
double record_codec_ns(Rng& rng) {
  constexpr std::size_t kRecords = 1024;
  std::vector<membership::LivenessInfo> infos(kRecords);
  for (auto& info : infos) {
    info.dt_alive = static_cast<SimDuration>(rng.next_below(10 * kHour));
    info.dt_since = static_cast<SimDuration>(rng.next_below(kHour));
    info.alive = rng.bernoulli(0.9);
  }
  Bytes wire;
  std::vector<membership::DecodedRecord> decoded;
  decoded.reserve(kRecords);
  const double batch_us = per_call_us([&] {
    wire.clear();
    for (std::size_t i = 0; i < kRecords; ++i) {
      membership::encode_record(wire, static_cast<NodeId>(i), infos[i]);
    }
    decoded.clear();
    membership::decode_records(wire, 0, kRecords, decoded);
  });
  return batch_us * 1e3 / static_cast<double>(kRecords);
}

constexpr double kMB = 1e6;

/// Upper bound on sim.loop_s as a share of the traced wall time. Queue pop
/// and the loop measure about 12% on paper_cell and anon_load and 4% on
/// onion_crypto.
constexpr double kMaxLoopShare = 0.25;

}  // namespace

Metrics layer_metrics(const TracedRun& run, std::vector<std::string>& problems) {
  Metrics out;
  const auto add = [&out](const std::string& name, double value,
                          const char* unit) {
    out.push_back({name, value, unit});
  };
  Workload& workload = *run.workload;
  harness::Environment& env = workload.environment();
  const obs::Registry& reg = env.metrics();
  const sim::Simulator& simulator = env.simulator();
  const std::size_t nodes = env.config().num_nodes;
  const bool real_crypto = !env.config().fast_crypto;
  Rng rng(run.seed ^ 0x1a7e5ULL);

  // --- harness: set-up phases and the two N^2 / N-key builds ---
  add("harness.env_ctor_s", run.setup.env_ctor_s, "s");
  add("harness.env_start_s", run.setup.env_start_s, "s");
  add("harness.sessions_s", run.setup.sessions_s, "s");
  add("net.latency_matrix_build_s", time_calls(3, [&] {
        (void)net::LatencyMatrix::synthetic(nodes, Rng(run.seed),
                                            from_millis(152));
      }),
      "s");
  add("crypto.pki_provision_s", time_calls(3, [&] {
        crypto::KeyDirectory directory;
        Rng key_rng(run.seed);
        (void)directory.provision(nodes, key_rng);
      }),
      "s");

  // --- sim: the loop profiler's split of the traced run ---
  const auto report = run.profiler->report();
  std::map<std::string, std::pair<std::uint64_t, double>> by_type;
  for (const auto& type : report.types) {
    by_type[type.name] = {type.dispatches, type.est_total_ns / 1e9};
  }
  const auto type_count = [&](const std::string& name) {
    const auto it = by_type.find(name);
    return it == by_type.end() ? 0.0 : static_cast<double>(it->second.first);
  };
  const auto type_self = [&](const std::string& name) {
    const auto it = by_type.find(name);
    return it == by_type.end() ? 0.0 : it->second.second;
  };
  const double dispatch_s = report.est_busy_ns_total / 1e9;
  const double overhead_s = report.est_overhead_ns / 1e9;
  const double loop_s = run.wall_s - dispatch_s - overhead_s;
  const auto events = static_cast<double>(simulator.executed_events());
  const auto scheduled = static_cast<double>(simulator.scheduled_total());
  add("sim.events", events, "count");
  add("sim.scheduled", scheduled, "count");
  add("sim.cancelled",
      scheduled - events - static_cast<double>(simulator.pending_events()),
      "count");
  add("sim.dispatch_self_s", dispatch_s, "s");
  add("sim.loop_s", loop_s, "s");
  add("sim.ns_per_event", events > 0 ? run.untraced_run_s * 1e9 / events : 0,
      "ns");

  // --- membership ---
  for (const char* type : {"gossip.round", "gossip.detect"}) {
    add(std::string(type) + ".count", type_count(type), "count");
    add(std::string(type) + ".self_s", type_self(type), "s");
  }
  add("membership.messages",
      static_cast<double>(env.membership().messages_sent()), "count");
  add("membership.bytes", static_cast<double>(env.membership().bytes_sent()),
      "B");
  add("membership.codec_ns_per_record", record_codec_ns(rng), "ns");

  // --- net ---
  const double deliver_count = type_count("net.deliver");
  const double deliver_self = type_self("net.deliver");
  add("net.deliver.count", deliver_count, "count");
  add("net.deliver.self_s", deliver_self, "s");
  add("net.deliver.ns_per_datagram",
      deliver_count > 0 ? deliver_self * 1e9 / deliver_count : 0, "ns");
  const char* channels[ChannelTap::kChannels] = {
      "unframed", "gossip", "anon_fwd", "anon_rev", "control", "cover"};
  for (std::size_t c = 1; c < ChannelTap::kChannels; ++c) {
    add(std::string("net.chan.") + channels[c] + ".datagrams",
        static_cast<double>(run.tap->datagrams[c]), "count");
    add(std::string("net.chan.") + channels[c] + ".bytes",
        static_cast<double>(run.tap->bytes[c]), "B");
  }
  for (const char* cause :
       {"sender_dead", "receiver_dead", "link_loss", "no_handler"}) {
    add(std::string("net.drops.") + cause,
        static_cast<double>(reg.counter_value("net_drops_total",
                                              {{"cause", cause}})),
        "count");
  }

  // --- churn ---
  add("churn.transition.count", type_count("churn.transition"), "count");
  add("churn.transition.self_s", type_self("churn.transition"), "s");

  // --- anon: the benchmark's calls, the layer's own timers, registry ---
  const SpanLog::Stats send = run.spans->stats("anon.send_message");
  const SpanLog::Stats construct = run.spans->stats("anon.construct");
  for (const auto& [name, stats] :
       {std::pair{"anon.send_message", send},
        std::pair{"anon.construct", construct}}) {
    add(std::string(name) + ".calls", static_cast<double>(stats.calls),
        "count");
    add(std::string(name) + ".self_s", stats.self_s, "s");
    add(std::string(name) + ".p50_us", stats.p50_us, "us");
    add(std::string(name) + ".p99_us", stats.p99_us, "us");
  }
  for (const char* type : {"session.timer", "router.timeout"}) {
    add(std::string(type) + ".count", type_count(type), "count");
    add(std::string(type) + ".self_s", type_self(type), "s");
  }
  const auto segments = [&](const char* event) {
    return static_cast<double>(
        reg.counter_value("session_segments_total", {{"event", event}}));
  };
  const double seg_sent = segments("sent");
  const double seg_acked = segments("acked");
  add("anon.segments_sent", seg_sent, "count");
  add("anon.segments_acked", seg_acked, "count");
  add("anon.segments_expired", segments("expired"), "count");
  add("anon.segments_retransmitted", segments("retransmit"), "count");
  add("anon.ack_ratio", seg_sent > 0 ? seg_acked / seg_sent : 0, "ratio");
  add("anon.forwarded",
      static_cast<double>(reg.counter_value("anon_messages_forwarded_total")),
      "count");
  add("anon.reconstructions",
      static_cast<double>(reg.counter_value("anon_reconstructions_total")),
      "count");
  add("anon.peel_failures",
      static_cast<double>(reg.counter_value("anon_peel_failures_total")),
      "count");
  add("anon.path_failures",
      static_cast<double>(reg.counter_value("session_path_failures_total")),
      "count");
  const Outcome outcome = workload.outcome();
  add("anon.offered", static_cast<double>(outcome.offered), "count");
  add("anon.delivered", static_cast<double>(outcome.delivered), "count");

  // --- crypto and erasure: per-op costs at the workload's sizes, times
  // the op counts the run performed ---
  const std::size_t path_length = env.config().path_length;
  const double constructs_started = static_cast<double>(
      reg.counter_value("anon_path_constructs_total", {{"result", "started"}}));
  const double constructs_ok = static_cast<double>(
      reg.counter_value("anon_path_constructs_total", {{"result", "ok"}}));
  double messages = 0;
  double seal_us = 0, open_us = 0, aead_us = 0;
  double encode_us = 0, decode_us = 0, erasure_s = 0;
  for (const auto& cls : workload.message_classes()) {
    if (cls.count == 0) continue;
    const double count = static_cast<double>(cls.count);
    const std::size_t segment_bytes = (cls.bytes + cls.m - 1) / cls.m;
    const CryptoCost c = crypto_cost(segment_bytes, rng);
    const ErasureCost e = erasure_cost(cls.m, cls.n, cls.bytes);
    messages += count;
    seal_us += count * c.seal_us;
    open_us += count * c.open_us;
    aead_us += count * c.aead_open_us;
    encode_us += count * e.encode_us;
    decode_us += count * e.decode_us;
    erasure_s += count * (e.encode_us + e.decode_us) / 1e6;
  }
  if (messages > 0) {  // message-weighted mean per-op cost
    seal_us /= messages;
    open_us /= messages;
    aead_us /= messages;
    encode_us /= messages;
    decode_us /= messages;
  }
  add("crypto.sealed_box_seal_us", seal_us, "us");
  add("crypto.sealed_box_open_us", open_us, "us");
  add("crypto.aead_open_us", aead_us, "us");
  // One sealed core per segment sent (opened once acked) and one sealed
  // layer per relay per path construction; 2L symmetric layer ops per
  // segment on the forward path. Ack traffic and the reverse layers are
  // left out, so this is a lower bound. FastOnionCodec runs no crypto.
  const double L = static_cast<double>(path_length);
  const double crypto_s =
      real_crypto
          ? ((seg_sent + L * constructs_started) * seal_us +
             (seg_acked + L * constructs_ok) * open_us +
             2 * L * seg_sent * aead_us) /
                1e6
          : 0.0;
  add("crypto.est_s", crypto_s, "s");
  add("erasure.encode_us", encode_us, "us");
  add("erasure.decode_us", decode_us, "us");
  add("erasure.est_s", erasure_s, "s");

  // --- mem: the byte census at the end of the run ---
  obs::capacity::ByteCensus census;
  env.byte_census(census);
  for (const auto& [metric, subsystem] :
       {std::pair{"mem.latency_matrix_mb", "latency_matrix"},
        std::pair{"mem.membership_mb", "membership"},
        std::pair{"mem.router_mb", "router"}, std::pair{"mem.pki_mb", "pki"},
        std::pair{"mem.event_queue_mb", "sim"}}) {
    add(metric, static_cast<double>(census.subsystem_total(subsystem)) / kMB,
        "MB");
  }

  // --- proc ---
  const auto usage = obs::capacity::sample_resource_usage();
  add("proc.cpu_user_s", usage.user_sec, "s");
  add("proc.cpu_sys_s", usage.sys_sec, "s");
  add("proc.minor_faults", static_cast<double>(usage.minor_faults), "count");

  // --- the split and its coverage check ---
  double membership_s = 0, net_s = 0, churn_s = 0, timers_s = 0,
         bench_events_s = 0, other_s = 0;
  for (const auto& [name, slot] : by_type) {
    const double self = slot.second;
    if (name.rfind("gossip.", 0) == 0 || name.rfind("onehop.", 0) == 0) {
      membership_s += self;
    } else if (name == "net.deliver" || name == "fault.redeliver") {
      net_s += self;
    } else if (name.rfind("churn.", 0) == 0) {
      churn_s += self;
    } else if (name.rfind("session.", 0) == 0 ||
               name.rfind("router.", 0) == 0 ||
               name.rfind("cover.", 0) == 0) {
      timers_s += self;
    } else if (name.rfind("bench.", 0) == 0) {
      bench_events_s += self;
    } else if (name != "untyped") {
      other_s += self;
    }
  }
  // The benchmark's send/construct calls run inside its own events.
  const double anon_calls_s = send.total_s + construct.total_s;
  const double anon_s = timers_s + anon_calls_s;
  const double harness_s = bench_events_s - anon_calls_s;
  const double untyped_s = type_self("untyped");
  const double wall = run.wall_s;
  // Event types no named layer claims (`other`) count as uncovered, like
  // untyped time and the profiler's own overhead.
  const double coverage =
      (membership_s + net_s + churn_s + anon_s + harness_s + loop_s) / wall;
  const double untyped_share = dispatch_s > 0 ? untyped_s / dispatch_s : 0;
  const double loop_share = loop_s / wall;
  add("share.membership", membership_s / wall, "ratio");
  add("share.net_deliver", net_s / wall, "ratio");
  add("share.anon", anon_s / wall, "ratio");
  add("share.churn", churn_s / wall, "ratio");
  add("share.harness", harness_s / wall, "ratio");
  add("share.sim_loop", loop_share, "ratio");
  add("share.other", other_s / wall, "ratio");
  add("share.crypto_est", crypto_s / wall, "ratio");
  add("share.erasure_est", erasure_s / wall, "ratio");
  add("trace.wall_s", wall, "s");
  add("trace.overhead_s", wall - run.untraced_run_s, "s");
  add("trace.profiler_overhead_s", overhead_s, "s");
  add("trace.untyped_share", untyped_share, "ratio");
  add("trace.coverage", coverage, "ratio");

  const auto percent = [](double share) {
    return std::to_string(share * 100) + "%";
  };
  if (untyped_share > 0.05) {
    problems.push_back("untyped events take " + percent(untyped_share) +
                       " of dispatch self-time (limit 5%)");
  }
  if (coverage < 0.95 || coverage > 1.05) {
    problems.push_back("the named layers plus sim.loop_s cover " +
                       percent(coverage) +
                       " of the traced wall time (limit 95-105%)");
  }
  // sim.loop_s is what the traced wall time leaves after dispatch, so on
  // its own it would absorb any time spent outside events: bound it.
  if (loop_s < 0 || loop_share > kMaxLoopShare) {
    problems.push_back("sim.loop_s is " + percent(loop_share) +
                       " of the traced wall time (limit 0-" +
                       percent(kMaxLoopShare) + ")");
  }
  // The split must name the layer the workload exists to load.
  const std::map<std::string, double> shares = {
      {"membership", membership_s}, {"anon", anon_s},
      {"churn", churn_s},           {"harness", harness_s},
      {"sim_loop", loop_s},         {"other", other_s}};
  std::string expected;
  double expected_s = 0;
  std::vector<std::string> rivals;
  if (run.check_split && run.workload_name == "paper_cell") {
    expected = "membership + net_deliver";
    expected_s = membership_s + net_s;
    rivals = {"anon", "churn", "harness", "sim_loop", "other"};
  } else if (run.check_split && run.workload_name == "anon_load") {
    expected = "anon + net_deliver";
    expected_s = anon_s + net_s;
    rivals = {"membership", "churn", "harness", "sim_loop", "other"};
  } else if (run.check_split && run.workload_name == "onion_crypto") {
    // The crypto runs inside anon and net_deliver; compare it with the
    // layers that hold none of it.
    expected = "crypto_est";
    expected_s = crypto_s;
    rivals = {"membership", "churn", "harness", "sim_loop", "other"};
  }
  for (const std::string& rival : rivals) {
    if (shares.at(rival) >= expected_s) {
      problems.push_back(expected + " (" + percent(expected_s / wall) +
                         ") is not the largest share: " + rival + " has " +
                         percent(shares.at(rival) / wall));
    }
  }
  return out;
}

}  // namespace e2e
