// Epidemic membership dissemination with liveness piggybacking (paper §4.8,
// §4.9 "Learning Node Liveness Information").
//
// Every live node runs a periodic gossip task. A gossip message carries:
//   - the sender's own record (dt_alive since its last join, dt_since = 0),
//   - "hot" rumors: membership changes the sender recently learned, each
//     forwarded a bounded number of times (rumor mongering),
//   - a few random cache records for anti-entropy.
// Receivers apply the paper's merge rules (NodeCache) and re-enqueue
// accepted changes as rumors, giving O(log N) dissemination.
//
// Join/leave handling mirrors OneHop's behavior at the level the paper
// relies on: a joining node announces itself to a few live contacts and
// pulls a full cache snapshot from one of them; a leave is noticed by a few
// "overlay neighbor" nodes after a short detection delay (standing in for
// OneHop's keepalive-based failure detection — see DESIGN.md substitutions)
// and then spreads epidemically like any other rumor.
#pragma once

#include <deque>
#include <memory>
#include <stdexcept>
#include <utility>
#include <unordered_set>
#include <vector>

#include "churn/churn_model.hpp"
#include "common/rng.hpp"
#include "membership/node_cache.hpp"
#include "membership/provider.hpp"
#include "net/demux.hpp"
#include "sim/simulator.hpp"

namespace p2panon::membership {

struct GossipConfig {
  SimDuration interval = 2 * kSecond;   // per-node gossip period
  std::size_t fanout = 1;               // targets per round
  std::size_t max_rumors = 32;          // hot records per message
  // Anti-entropy records per message, swept round-robin over the id space
  // so every record's staleness is bounded by (N / refresh_records) *
  // interval and roughly UNIFORM across subjects. Uniform staleness is
  // what makes the Eq. 3 predictor rank by age (q = a / (a + s) compares
  // s/a; with random per-subject staleness the freshest-heard node wins
  // regardless of age and biased mix choice degenerates) — it models
  // OneHop's periodic full-membership keepalive refresh.
  std::size_t refresh_records = 64;
  int rumor_forwards = 4;               // times a node forwards a rumor
  SimDuration detection_delay_min = 500 * kMillisecond;
  SimDuration detection_delay_max = 2 * kSecond;
  std::size_t churn_observers = 3;      // nodes that notice a join/leave
  bool seed_full_membership = true;     // OneHop-style complete initial view

  // --- Control-plane resilience (DESIGN §9). Every knob below defaults
  // OFF; with all of them off, RNG draw sequences and wire traffic are
  // byte-identical to the seed. ---

  /// Digest-based anti-entropy repair period; 0 disables. Each round a
  /// node sends one partner a compact per-bucket digest of its alive/dead
  /// beliefs; the partner pushes back records for every differing bucket
  /// and returns its own digest so repair flows both ways (one round trip,
  /// loop-free). This is what re-converges caches after a gossip blackout
  /// or partition heals — rumor mongering alone has already forgotten the
  /// deltas by then.
  SimDuration anti_entropy_interval = 0;
  /// Digest resolution: beliefs are XOR-folded into `subject % buckets`
  /// slots. More buckets = finer diffs = fewer records pushed per repair.
  std::size_t anti_entropy_buckets = 16;

  /// Route gossip peer selection and churn-observer picks through
  /// deterministic per-node RNG streams instead of the instance-shared
  /// stream, so one node's draw history is independent of every other
  /// node's tick interleaving.
  bool per_node_rng = false;

  /// Bounded-trust liveness merging: enables NodeCache bounded trust (and
  /// the suspicion machinery it files inflation evidence through) on every
  /// cache.
  bool bounded_trust = false;
  TrustConfig trust;
  SuspicionConfig trust_suspicion;
};

class GossipMembership final : public MembershipProvider {
 public:
  GossipMembership(sim::Simulator& simulator, net::Demux& demux,
                   churn::ChurnModel& churn_model, GossipConfig config,
                   Rng rng);
  GossipMembership(const GossipMembership&) = delete;
  GossipMembership& operator=(const GossipMembership&) = delete;

  /// Seeds caches, subscribes to churn and starts the per-node gossip
  /// tasks (with random phase so rounds don't align).
  void start() override;

  NodeCache& cache(NodeId node) override { return caches_[node]; }
  const NodeCache& cache(NodeId node) const override { return caches_[node]; }

  /// The node's own uptime (what it would report in its packets).
  SimDuration own_uptime(NodeId node) const override;

  std::size_t num_nodes() const override { return caches_.size(); }

  /// Fraction of (live observer, subject) pairs whose alive/dead belief
  /// matches ground truth — dissemination quality metric used in tests.
  double belief_accuracy() const override;

  std::uint64_t messages_sent() const override { return messages_sent_; }
  std::uint64_t bytes_sent() const override { return bytes_sent_; }
  ControlStats control_stats() const override { return control_stats_; }

  void byte_census(obs::capacity::ByteCensus& census) const override;

  // Legacy accessor names, kept for direct users (tests).
  std::uint64_t gossip_messages_sent() const { return messages_sent_; }
  std::uint64_t gossip_bytes_sent() const { return bytes_sent_; }

 private:
  struct Rumor {
    NodeId subject;
    int remaining;
  };

  void on_churn(NodeId node, bool up, SimTime when);
  void gossip_tick(NodeId node);
  void anti_entropy_tick(NodeId node);
  void handle_message(NodeId from, NodeId to, ByteView payload);
  void handle_digest(NodeId from, NodeId to, ByteView payload,
                     bool reply_with_digest);
  void enqueue_rumor(NodeId owner, NodeId subject);
  void send_records(NodeId from, NodeId to, std::uint8_t kind,
                    const std::vector<NodeId>& subjects);
  void send_digest(NodeId from, NodeId to, std::uint8_t kind);
  /// Sends a Demux::frame() datagram and counts its payload bytes.
  void send_datagram(NodeId from, NodeId to, Bytes datagram);
  std::vector<std::uint64_t> compute_digest(NodeId node) const;
  /// Fills `out` with up to `count` distinct believed-alive peers.
  void pick_gossip_targets(NodeId node, std::size_t count, Rng& rng,
                           std::vector<NodeId>& out);
  /// The stream a node's own decisions draw from: its private stream in
  /// per-node mode, the instance-shared stream otherwise.
  Rng& decision_rng(NodeId node) {
    return config_.per_node_rng ? node_rngs_[node] : rng_;
  }

  sim::Simulator& simulator_;
  net::Demux& demux_;
  churn::ChurnModel& churn_;
  GossipConfig config_;
  Rng rng_;

  std::vector<NodeCache> caches_;
  std::vector<std::deque<Rumor>> rumor_queues_;
  std::vector<std::unordered_set<NodeId>> rumor_members_;  // dedupe
  std::vector<NodeId> refresh_cursors_;  // round-robin anti-entropy sweep
  std::vector<std::unique_ptr<sim::PeriodicTask>> tasks_;
  std::vector<std::unique_ptr<sim::PeriodicTask>> anti_entropy_tasks_;
  // Per-node streams, materialized in start() only when a mode needing
  // them is on (per_node_rng or anti-entropy) so the default draws nothing
  // extra from rng_.
  std::vector<Rng> node_rngs_;

  // Per-round scratch reused by gossip_tick, so a round allocates nothing.
  std::vector<NodeId> round_subjects_;
  std::vector<NodeId> round_targets_;

  std::uint64_t messages_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  ControlStats control_stats_;
  bool started_ = false;
};

// --- Wire helpers shared with the OneHop variant ------------------------------
//
// A record-bearing payload is [kind u8][count u16be][count records]; on the
// wire it follows the demux channel byte.

/// Serialized liveness record: subject(4) flags(1) dt_alive(8) dt_since(8).
constexpr std::size_t kRecordWireSize = 21;
/// Payload bytes ahead of the first record: kind(1) count(2).
constexpr std::size_t kRecordHeaderSize = 3;

/// Writes one record at `p`, which must have kRecordWireSize bytes.
inline void store_record(std::uint8_t* p, NodeId subject,
                         const LivenessInfo& info) {
  store_u32be(p, subject);
  p[4] = info.alive ? 1 : 0;
  store_u64be(p + 5, static_cast<std::uint64_t>(info.dt_alive));
  store_u64be(p + 13, static_cast<std::uint64_t>(info.dt_since));
}

/// Appends one record to `out`.
inline void encode_record(Bytes& out, NodeId subject,
                          const LivenessInfo& info) {
  const std::size_t at = out.size();
  out.resize(at + kRecordWireSize);
  store_record(out.data() + at, subject, info);
}

struct DecodedRecord {
  NodeId subject;
  LivenessInfo info;
};

/// Reads one record at `p`, which must have kRecordWireSize bytes.
inline DecodedRecord load_record(const std::uint8_t* p) {
  DecodedRecord rec;
  rec.subject = load_u32be(p);
  rec.info.alive = p[4] != 0;
  rec.info.dt_alive = static_cast<SimDuration>(load_u64be(p + 5));
  rec.info.dt_since = static_cast<SimDuration>(load_u64be(p + 13));
  return rec;
}

/// True when `count` records starting at `offset` lie inside `in`. Written
/// so that neither `count * kRecordWireSize` nor the sum can wrap.
inline bool records_fit(ByteView in, std::size_t offset, std::size_t count) {
  return offset <= in.size() &&
         count <= (in.size() - offset) / kRecordWireSize;
}

/// Decodes `count` records from `in` starting at `offset`; returns false on
/// truncation.
bool decode_records(ByteView in, std::size_t offset, std::size_t count,
                    std::vector<DecodedRecord>& out);

/// Builds one record-bearing gossip-channel datagram in place: the frame
/// is sized once for `max_records`, records are stored straight into it,
/// and finish() writes the count and trims the unused tail.
class RecordWriter {
 public:
  RecordWriter(std::uint8_t kind, std::size_t max_records)
      : datagram_(net::Demux::frame(
            net::Channel::kGossip,
            kRecordHeaderSize + max_records * kRecordWireSize)) {
    datagram_[1] = kind;
  }

  void add(NodeId subject, const LivenessInfo& info) {
    const std::size_t at = kFirstRecord + count_ * kRecordWireSize;
    if (at + kRecordWireSize > datagram_.size()) {
      throw std::logic_error("RecordWriter: more records than reserved");
    }
    store_record(datagram_.data() + at, subject, info);
    ++count_;
  }

  std::size_t count() const { return count_; }

  /// The finished datagram, channel byte included.
  Bytes finish() {
    store_u16be(datagram_.data() + 2, static_cast<std::uint16_t>(count_));
    datagram_.resize(kFirstRecord + count_ * kRecordWireSize);
    return std::move(datagram_);
  }

 private:
  static constexpr std::size_t kFirstRecord = 1 + kRecordHeaderSize;
  Bytes datagram_;
  std::size_t count_ = 0;
};

}  // namespace p2panon::membership
