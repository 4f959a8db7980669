// Anonymous-routing message plane (paper §4.1–§4.5).
//
// One AnonRouter instance drives the relay and responder behavior of every
// node in the simulation (per-node state is strictly partitioned, so the
// logical separation between nodes is preserved). It offers the initiator
// primitives that Session builds on:
//
//   forward channel            reverse channel
//   ---------------            ---------------
//   Construct  sid, onion      ConstructAck  sid, status
//   Payload    sid, seq, blob  PayloadRev    sid, seq, blob
//   Teardown   sid
//
// Relays peel/wrap exactly one layer per message and know only their
// neighbors. The responder reassembles erasure-coded segments by message
// id, delivers reconstructed messages to the application handler, acks
// every segment end-to-end (§4.5 failure detection) and can send coded
// responses back over the arrival paths (§4.2).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "anon/buffer_pool.hpp"
#include "anon/onion.hpp"
#include "anon/path_state.hpp"
#include "common/rng.hpp"
#include "crypto/keys.hpp"
#include "erasure/codec.hpp"
#include "net/demux.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace p2panon::obs::capacity {
class ByteCensus;
}  // namespace p2panon::obs::capacity

namespace p2panon::anon {

/// Shed-priority class a payload segment travels with. Numeric order is
/// shed order: under overload the lowest classes are shed first and
/// kControl (construct/ack/teardown machinery and anything the session
/// does not explicitly classify as data) is never shed.
enum class SegmentPriority : std::uint8_t {
  kBulk = 0,
  kStreaming = 1,
  kInteractive = 2,
  kControl = 3,
};

inline const char* segment_priority_name(SegmentPriority priority) {
  switch (priority) {
    case SegmentPriority::kBulk: return "bulk";
    case SegmentPriority::kStreaming: return "streaming";
    case SegmentPriority::kInteractive: return "interactive";
    case SegmentPriority::kControl: return "control";
  }
  return "unknown";
}

struct RouterConfig {
  SimDuration state_ttl = 2 * kMinute;       // §4.3 TTL on cached path state
  SimDuration sweep_interval = 30 * kSecond; // expiry sweep cadence
  SimDuration reassembly_ttl = 2 * kMinute;  // responder reassembly buffers
  obs::Registry* metrics = nullptr;          // nullptr = global registry

  /// Hard cap on the capacity the relay buffer pool retains per buffer
  /// (0 = uncapped, the legacy behavior). See BufferPool.
  std::size_t pool_max_capacity = 0;

  /// Overload resilience. `enabled` turns on the per-relay leaky bucket
  /// that models bounded forwarding queues; on its own a saturated relay
  /// tail-drops every payload class indiscriminately (the "drop" arm of
  /// the overload sweep). Everything defaults OFF: with enabled=false no
  /// load is tracked, payload framing is unchanged, and runs are
  /// byte-identical to the legacy router.
  struct OverloadConfig {
    bool enabled = false;
    /// Queue depth (in segments) a relay can absorb before it saturates.
    std::size_t relay_queue_capacity = 64;
    /// Segments per second the relay's queue drains.
    double drain_rate_per_s = 50.0;
    /// The "shed" arm, on top of `enabled`:
    ///   * priority-aware shedding: bulk from 70% occupancy, streaming
    ///     from 85%, interactive only at 97%, control never;
    ///   * admission control: refuse new path constructions (ConstructAck
    ///     status 0) while the relay sits at or above 90% of capacity;
    ///   * backpressure: signal each shed upstream with a plain reverse
    ///     frame so initiators can slow down instead of retransmitting
    ///     into the storm.
    bool shed = false;
  };
  OverloadConfig overload;
};

/// What the responder's application sees for a reconstructed message.
struct ReceivedMessage {
  NodeId responder = kInvalidNode;
  MessageId message_id = 0;
  Bytes data;
  std::size_t segments_received = 0;
  SimTime reconstructed_at = 0;
};

/// What the initiator-side session receives from the reverse path (already
/// stripped of the relay layers it asked the router to remove? No — the
/// router hands over the raw blob; the session, which owns the relay keys,
/// strips them).
struct ReverseDelivery {
  StreamId sid = 0;
  std::uint64_t seq = 0;
  ByteView blob;
  /// Overload backpressure signal (no sealed core — the frame is plain, a
  /// mid-path relay cannot originate a responder-sealed ReverseCore). When
  /// true, `blob` is empty and `shed_class` names the shed traffic class.
  bool backpressure = false;
  std::uint8_t shed_class = 0;
};

class AnonRouter {
 public:
  using LivenessOracle = std::function<bool(NodeId)>;
  using MessageHandler = std::function<void(const ReceivedMessage&)>;
  using ConstructCallback = std::function<void(bool ok)>;
  using ReverseHandler = std::function<void(const ReverseDelivery&)>;

  AnonRouter(sim::Simulator& simulator, net::Demux& demux,
             const OnionCodec& onion, const crypto::KeyDirectory& directory,
             std::vector<crypto::KeyPair> node_keys, LivenessOracle is_up,
             RouterConfig config, Rng rng);
  AnonRouter(const AnonRouter&) = delete;
  AnonRouter& operator=(const AnonRouter&) = delete;

  /// Registers the channel handlers and starts the TTL sweeper.
  void start();

  /// Application handler invoked when any responder reconstructs a message.
  void set_message_handler(MessageHandler handler) {
    message_handler_ = std::move(handler);
  }

  // --- initiator primitives (used by Session) ---

  /// Builds the §4.1 path onion and launches construction. The callback
  /// fires once: true when the end-to-end construct-ack returns, false on
  /// timeout. Returns the initiator-side stream id identifying the path.
  StreamId initiate_path(NodeId initiator, const std::vector<NodeId>& relays,
                         const std::vector<RelayKey>& relay_keys,
                         NodeId responder, SimDuration timeout,
                         ConstructCallback callback);

  /// Registers the handler for reverse-path deliveries on a path.
  void register_reverse_handler(NodeId initiator, StreamId sid,
                                ReverseHandler handler);
  void unregister_reverse_handler(NodeId initiator, StreamId sid);

  /// Sends one already-built payload onion down a path (§4.2). The blob
  /// must be the full layered payload; seq is the layer nonce the session
  /// used for wrapping. `priority` rides a one-byte trailer header only
  /// when overload mode is on; otherwise the wire format is the legacy one
  /// and the argument is ignored.
  void send_payload(NodeId initiator, StreamId sid, NodeId first_relay,
                    std::uint64_t seq, Bytes blob,
                    SegmentPriority priority = SegmentPriority::kInteractive);

  /// Combined construction + payload (§4.2 "path construction and message
  /// sending in the same time"): each relay peels its construction layer,
  /// caches the path state AND strips its payload layer in one message.
  /// There is no construct-ack; the payload's end-to-end ack doubles as
  /// the confirmation. `sid` must come from new_initiator_sid().
  void send_construct_with_payload(NodeId initiator, StreamId sid,
                                   NodeId first_relay, std::uint64_t seq,
                                   ByteView onion_blob, ByteView payload_blob);

  /// Mints an initiator-side stream id unused by this node's pending
  /// constructions and reverse handlers.
  StreamId new_initiator_sid(NodeId initiator);

  /// Asks every relay on the path to release its cached state (§4.3).
  void send_teardown(NodeId initiator, StreamId sid, NodeId first_relay);

  /// Path reuse (§4.4): re-points the path's last relay at a new
  /// destination without rebuilding the path (no asymmetric crypto). The
  /// new destination rides inside the layered blob, so intermediate relays
  /// never learn it; the last relay rewires its cached state (generating
  /// the paper's sid'_L) and acks end-to-end. The callback fires true on
  /// the ack, false on timeout. `blob` must be the relay-layered wrapping
  /// of the 4-byte big-endian destination (Session::redirect builds it).
  void send_retarget(NodeId initiator, StreamId sid, NodeId first_relay,
                     std::uint64_t seq, Bytes blob, SimDuration timeout,
                     ConstructCallback callback);

  // --- responder primitives ---

  /// Sends an application response for a previously reconstructed message:
  /// erasure-codes `data` with the same (m, n) the request used and sends
  /// the segments back over the arrival paths (§4.2). Returns false if the
  /// reassembly record has expired.
  bool send_response(NodeId responder, MessageId message_id, ByteView data);

  // --- introspection / accounting ---

  std::size_t path_state_count(NodeId node) const;

  /// Residual-state introspection for leak checks (the chaos harness
  /// asserts all three return to their quiescent values after teardown).
  std::size_t pending_construction_count(NodeId node) const;
  std::size_t reverse_handler_count(NodeId node) const;
  std::size_t reassembly_count(NodeId node) const;

  /// Reports the router's per-node structures (path-state tables, pending
  /// constructions, reverse handlers, reassembly buffers, node keys, the
  /// relay buffer pool) into the capacity byte census under "router".
  void byte_census(obs::capacity::ByteCensus& census) const;

  /// Point-in-time overload snapshot (levels drained to `now` without
  /// mutating the buckets). All zeros while overload mode is off.
  struct OverloadStats {
    double max_level = 0.0;    // deepest relay queue, in segments
    double total_level = 0.0;  // sum across nodes
    std::size_t hot_nodes = 0; // nodes above 70% of capacity
    std::size_t capacity = 0;  // configured relay_queue_capacity
  };
  OverloadStats overload_stats(SimTime now) const;

  /// Leaky-bucket occupancy of one relay, drained to `now` (test hook).
  double relay_queue_level(NodeId node, SimTime now) const;

  const BufferPool& pool() const { return pool_; }

  /// Fires when an *undelivered* reassembly record is TTL-swept — the
  /// message can no longer complete at that responder (segments that
  /// straggle in later start a fresh, doomed record). Chaos accounting
  /// uses it to explain messages whose segments were all acked yet never
  /// assembled.
  using ReassemblyExpiryHandler =
      std::function<void(NodeId responder, MessageId message_id)>;
  void set_reassembly_expiry_handler(ReassemblyExpiryHandler handler) {
    reassembly_expiry_handler_ = std::move(handler);
  }
  std::uint64_t reassemblies_expired() const { return reassemblies_expired_; }

  /// Shared codec cache keyed by (m, n) — sessions and the responder use
  /// the same instances so RS matrices are built once.
  const erasure::Codec& codec_for(std::size_t m, std::size_t n);

  std::uint64_t construct_bytes() const { return construct_bytes_; }
  std::uint64_t payload_bytes() const { return payload_bytes_; }
  std::uint64_t reverse_bytes() const { return reverse_bytes_; }
  std::uint64_t messages_forwarded() const { return messages_forwarded_; }
  std::uint64_t peel_failures() const { return peel_failures_; }
  const OnionCodec& onion() const { return onion_; }
  const crypto::KeyDirectory& directory() const { return directory_; }
  const crypto::KeyPair& node_key(NodeId node) const {
    return node_keys_[node];
  }
  Rng& rng() { return rng_; }
  sim::Simulator& simulator() { return simulator_; }
  const RouterConfig& config() const { return config_; }

  /// Metrics registry this router reports into (config's, or the process
  /// global). Sessions register their own series here so one snapshot
  /// covers the whole stack of a run.
  obs::Registry& metrics() const { return *metrics_; }

  /// Reverse-direction nonce bit: reverse layer seq = seq | kReverseBit so
  /// a (key, seq) pair is never reused across directions.
  static constexpr std::uint64_t kReverseBit = 1ULL << 63;

 private:
  struct PendingConstruction {
    ConstructCallback callback;
    sim::EventId timeout_event = sim::kInvalidEventId;
    const char* span = "path_construct";  // trace span closed on ack/timeout
  };

  struct Reassembly {
    std::size_t needed = 0;       // m (0 = metadata not yet trusted)
    std::size_t total = 0;        // n
    std::size_t original_size = 0;
    std::vector<erasure::Segment> segments;
    std::vector<StreamId> arrival_sids;  // responder terminal entries
    bool delivered = false;
    SimTime expires = 0;
    std::uint32_t next_response_id = 0;

    // Corruption-resilience state; untouched (and unallocated) while only
    // legacy cores arrive.
    bool tagged = false;           // a core with the auth trailer arrived
    bool digest_known = false;     // trusted digest (from a tag-verified core)
    crypto::MessageDigest digest{};
    std::vector<StreamId> segment_sids;     // arrival sid per admitted segment
    std::vector<bool> segment_verified;     // tag-verified per admitted segment
    std::vector<erasure::Segment> quarantined;  // tag-rejected, never decoded
    std::vector<StreamId> quarantined_sids;
  };

  void handle_forward(NodeId from, NodeId to, ByteView payload);
  void handle_reverse(NodeId from, NodeId to, ByteView payload);
  void on_construct(NodeId from, NodeId to, StreamId sid, ByteView onion_blob);
  void on_payload(NodeId from, NodeId to, StreamId sid, std::uint64_t seq,
                  ByteView blob, SegmentPriority priority);
  void on_teardown(NodeId to, StreamId sid);
  void on_retarget(NodeId to, StreamId sid, std::uint64_t seq, ByteView blob);
  void on_construct_payload(NodeId from, NodeId to, StreamId sid,
                            std::uint64_t seq, ByteView blob);
  void on_construct_ack(NodeId to, StreamId sid, bool ok);
  void on_payload_rev(NodeId to, StreamId sid, std::uint64_t seq,
                      ByteView blob);
  void deliver_to_responder(NodeId responder, RelayEntry& entry,
                            const PayloadCore& core);
  void responder_ack(NodeId responder, RelayEntry& entry,
                     MessageId message_id, std::uint32_t segment_index);
  /// Corruption verdict back to the initiator (ReverseCore::kCorruptNack),
  /// framed and sealed exactly like responder_ack.
  void responder_nack(NodeId responder, RelayEntry& entry,
                      MessageId message_id, std::uint32_t segment_index);
  /// Decode paths for reassemblies carrying an auth trailer: verified-only
  /// decode, then digest-validated subset search over the remainder. Sends
  /// corrupt-nacks for every segment proven bad. Returns true when the
  /// message was delivered (or proven undeliverable this round is false —
  /// more segments may still arrive).
  bool try_authenticated_decode(NodeId responder, MessageId message_id,
                                Reassembly& reassembly);
  void deliver_reconstructed(NodeId responder, MessageId message_id,
                             Reassembly& reassembly, Bytes message);
  void nack_segments(NodeId responder, MessageId message_id,
                     const std::vector<std::uint32_t>& indices,
                     const std::vector<erasure::Segment>& pool,
                     const std::vector<StreamId>& pool_sids);
  void sweep();
  void finish_pending(NodeId initiator, StreamId sid, bool ok, bool timed_out);
  void record_peel_failure(NodeId node, const char* where);

  // --- overload machinery (all no-ops while config_.overload.enabled is
  // false; the leaky buckets are plain doubles, no RNG is consumed) ---

  /// Drains `node`'s bucket to now and returns its level (mutating).
  double drain_load(NodeId node);
  /// Charges one segment to `node`'s bucket (call after drain_load).
  void charge_load(NodeId node);
  /// Shed decision for a payload segment arriving at a saturated relay.
  /// Counts the shed and (optionally) signals backpressure upstream.
  bool should_shed(NodeId node, SegmentPriority priority);
  void count_shed(SegmentPriority priority);
  void on_backpressure(NodeId to, StreamId sid, std::uint8_t shed_class);
  void signal_backpressure(NodeId node, NodeId upstream, StreamId upstream_sid,
                           SegmentPriority priority);

  // framing helpers
  void send_forward(NodeId from, NodeId to, std::uint8_t type, StreamId sid,
                    std::uint64_t seq, ByteView blob,
                    SegmentPriority priority = SegmentPriority::kControl);
  void send_reverse(NodeId from, NodeId to, std::uint8_t type, StreamId sid,
                    std::uint64_t seq, ByteView blob);

  sim::Simulator& simulator_;
  net::Demux& demux_;
  const OnionCodec& onion_;
  const crypto::KeyDirectory& directory_;
  std::vector<crypto::KeyPair> node_keys_;
  LivenessOracle is_up_;
  RouterConfig config_;
  Rng rng_;

  // Relay data-plane scratch: peel/wrap buffers and framing buffers lease
  // from here so steady-state relaying reuses warmed capacity instead of
  // allocating per message.
  BufferPool pool_;

  /// One leaky bucket per node modelling its bounded forwarding queue.
  /// Sized eagerly (16 bytes/node, zero-init, no RNG) but only read or
  /// written behind config_.overload.enabled. Deliberately absent from the
  /// byte census: it is fixed-size transient accounting, not a structure
  /// that grows with load (see DESIGN.md §13).
  struct NodeLoad {
    double level = 0.0;
    SimTime last_drain = 0;
  };
  std::vector<NodeLoad> load_;

  std::vector<PathStateTable> tables_;
  std::vector<std::unordered_map<StreamId, PendingConstruction>> pending_;
  std::vector<std::unordered_map<StreamId, ReverseHandler>> reverse_handlers_;
  std::vector<std::unordered_map<MessageId, Reassembly>> reassembly_;
  std::map<std::pair<std::size_t, std::size_t>,
           std::unique_ptr<erasure::Codec>>
      codecs_;
  std::unique_ptr<sim::PeriodicTask> sweeper_;
  MessageHandler message_handler_;
  ReassemblyExpiryHandler reassembly_expiry_handler_;

  std::uint64_t construct_bytes_ = 0;
  std::uint64_t payload_bytes_ = 0;
  std::uint64_t reverse_bytes_ = 0;
  std::uint64_t messages_forwarded_ = 0;
  std::uint64_t peel_failures_ = 0;
  std::uint64_t reassemblies_expired_ = 0;

  // Registry mirrors of the private tallies above (the per-instance
  // accessors stay the per-run contract; the registry is what sweeps,
  // snapshots, and invariant checks read).
  obs::Registry* metrics_;
  obs::Counter* bytes_construct_;
  obs::Counter* bytes_payload_;
  obs::Counter* bytes_reverse_;
  obs::Counter* forwarded_ctr_;
  obs::Counter* peel_failures_ctr_;
  obs::Counter* construct_attempts_ctr_;
  obs::Counter* construct_ok_ctr_;
  obs::Counter* construct_timeout_ctr_;
  obs::Counter* reconstructions_ctr_;
  obs::Counter* reassembly_expired_ctr_;
  obs::HdrHistogram* reconstruct_segments_;
  // Segment-authentication outcomes (corruption resilience). Registered
  // eagerly like every other series; they stay 0 in legacy runs.
  obs::Counter* auth_verified_ctr_;
  obs::Counter* auth_rejected_ctr_;
  obs::Counter* auth_nacks_ctr_;
  obs::Counter* auth_fallback_ok_ctr_;
  obs::Counter* auth_fallback_failed_ctr_;
  // Overload outcomes. Registered eagerly like every other series; they
  // stay 0 in legacy runs. The control-class shed counter exists so the
  // sweep gate can assert it is still zero — the code never increments it.
  obs::Counter* shed_ctrs_[4];  // indexed by SegmentPriority
  obs::Counter* admission_rejects_ctr_;
  obs::Counter* backpressure_ctr_;
};

// Reverse-core payloads (sealed under R_{L+1} / the responder key).
struct ReverseCore {
  /// kCorruptNack (corruption resilience): the responder's verdict that
  /// the named segment arrived tampered with — either its auth tag failed
  /// or the digest-validated decode proved it wrong. Framed exactly like
  /// kAck (13 bytes). Only ever sent in reply to auth-trailer segments.
  enum class Type : std::uint8_t {
    kAck = 1,
    kResponseSegment = 2,
    kCorruptNack = 3,
  };
  Type type = Type::kAck;
  MessageId message_id = 0;
  std::uint32_t segment_index = 0;
  // Response-segment fields. response_id distinguishes multiple responses
  // sent for the same request (e.g. a rendezvous host pushing many
  // forwarded calls down one registration's reverse path).
  std::uint32_t response_id = 0;
  std::uint32_t original_size = 0;
  std::uint16_t needed_segments = 1;
  std::uint16_t total_segments = 1;
  Bytes segment;
};

Bytes serialize_reverse_core(const ReverseCore& core);
std::optional<ReverseCore> parse_reverse_core(ByteView plain);

}  // namespace p2panon::anon
