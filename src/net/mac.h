// CSMA-CA medium access with acknowledged unicast, modeled after
// unslotted IEEE 802.15.4 (the paper's LR-WPAN setting, RTS/CTS disabled).
//
// Behaviour per frame:
//   1. Draw a random backoff of [0, 2^BE - 1] slots, wait it out.
//   2. Carrier-sense; if the channel is busy, increase BE (capped) and go
//      to 1, up to max_csma_backoffs times, after which the attempt fails.
//   3. Transmit. Broadcasts complete when the frame ends. Unicasts wait
//      for a MAC-level ACK; a missing ACK triggers a full retry (new CSMA
//      round) up to max_frame_retries times.
//
// Receivers acknowledge unicast frames addressed to them without CSMA
// (802.15.4 ACKs follow a fixed turnaround) and suppress duplicate
// deliveries to the protocol layer via a recent (src, uid) cache.
//
// Steady-state allocation discipline (docs/PACKET_PLANE.md): the outbound
// FIFO is a flat recycled buffer, the duplicate cache lives inline in the
// Mac, ACK payloads come from the message pool, and completion callbacks
// use inline-storage BasicSmallFn — after warmup, queuing / sending /
// acknowledging a frame performs no heap allocation.

#ifndef DIKNN_NET_MAC_H_
#define DIKNN_NET_MAC_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "core/ring_buffer.h"
#include "core/rng.h"
#include "net/channel.h"
#include "net/packet.h"
#include "sim/simulator.h"
#include "sim/small_fn.h"

namespace diknn {

class Node;

/// MAC-layer tunables; defaults follow 802.15.4 (2.4 GHz) constants.
struct MacParams {
  double backoff_slot_s = 320e-6;  ///< aUnitBackoffPeriod at 250 kbps.
  int min_be = 3;                  ///< macMinBE.
  int max_be = 5;                  ///< macMaxBE.
  int max_csma_backoffs = 4;       ///< macMaxCSMABackoffs.
  int max_frame_retries = 3;       ///< macMaxFrameRetries.
  double ack_turnaround_s = 192e-6;///< RX-to-TX turnaround (12 symbols).
  double ack_timeout_s = 3e-3;     ///< Wait for ACK before retrying.
  size_t ack_bytes = 11;           ///< ACK frame size on the air.
};

/// MAC traffic counters.
struct MacStats {
  uint64_t frames_queued = 0;
  uint64_t tx_attempts = 0;      ///< Physical transmissions started.
  uint64_t retries = 0;          ///< Unicast retransmissions.
  uint64_t csma_failures = 0;    ///< Gave up after max backoffs.
  uint64_t send_failures = 0;    ///< Frames reported failed to the caller.
  uint64_t duplicates_dropped = 0;
};

/// Per-node MAC entity. Owns a FIFO of outbound frames and serializes
/// access to the radio.
class Mac {
 public:
  /// Completion callback: true when the frame was delivered (broadcasts:
  /// when it finished transmitting), false when all retries failed.
  /// Move-only with inline storage — protocol completion lambdas must fit
  /// BasicSmallFn's capture budget to stay off the heap.
  using SendCallback = BasicSmallFn<void(bool)>;

  Mac(Node* node, Channel* channel, Simulator* sim, MacParams params,
      Rng rng);

  Mac(const Mac&) = delete;
  Mac& operator=(const Mac&) = delete;

  /// Queues a frame. `packet.uid` is assigned here.
  void Send(Packet packet, EnergyCategory category, SendCallback callback);

  /// Called by the Node on every physical reception. Returns true if the
  /// frame was consumed by the MAC (an ACK, a duplicate, or a unicast for
  /// somebody else); false if it should be delivered to the protocols.
  bool FilterReceive(const Packet& packet);

  const MacStats& stats() const { return stats_; }

  /// Frames currently queued or in flight.
  size_t QueueDepth() const { return queue_.size(); }

 private:
  struct OutFrame {
    Packet packet;
    EnergyCategory category = EnergyCategory::kQuery;
    SendCallback callback;
    int retries_left = 0;
  };

  /// MAC-internal ACK payload.
  struct AckMessage : Message {
    uint64_t acked_uid = 0;
    explicit AckMessage(uint64_t uid) : acked_uid(uid) {}
  };

  // Begins CSMA for the head-of-queue frame.
  void StartCsma();
  // One backoff+sense attempt.
  void CsmaAttempt(int backoffs_done, int be);
  // Channel clear: actually transmit the head frame.
  void TransmitHead();
  // Head frame is finished (success or failure): pop, notify, continue.
  void CompleteHead(bool success);
  // ACK wait expired without a matching ACK.
  void OnAckTimeout();

  // The channel's packet-plane allocation counters (nullptr when detached
  // from a channel, e.g. bare test rigs).
  AllocCounters* net_allocs() const;

  Node* node_;
  Channel* channel_;
  Simulator* sim_;
  MacParams params_;
  Rng rng_;

  RingBuffer<OutFrame> queue_;
  bool busy_ = false;              // CSMA or transmission in progress.
  uint64_t awaiting_ack_uid_ = 0;  // 0 = not waiting.
  EventId ack_timeout_event_ = 0;
  // Bumped whenever the head frame changes or a new CSMA round starts, so
  // stale scheduled backoff events (e.g. after a late ACK completed the
  // frame mid-retry) recognize themselves and bail out.
  uint64_t csma_generation_ = 0;

  // Duplicate suppression: the last kCapacity uids delivered upward,
  // FIFO-evicted. `ring_` holds them in arrival order (once full, the
  // oldest sits at `next_`, the slot the next uid overwrites); `index_` is
  // an open-addressing table of ring positions keyed by uid (linear
  // probing, backward-shift erase, kEmpty = free slot). At most half the
  // slots are ever used, so every probe ends at a free slot. Both arrays
  // are inline — 3 KB per node, no heap table to set up — so 200 nodes'
  // windows stay within a 2 MB L2 (docs/PACKET_PLANE.md).
  class DuplicateWindow {
   public:
    DuplicateWindow() { index_.fill(kEmpty); }

    /// True if `uid` is in the window. Otherwise records it, evicting the
    /// oldest uid when the window is full, and returns false.
    bool CheckAndInsert(uint64_t uid);

   private:
    static constexpr size_t kCapacity = 256;
    static constexpr int kSlotBits = 9;
    static constexpr size_t kSlots = size_t{1} << kSlotBits;
    static constexpr size_t kSlotMask = kSlots - 1;
    static constexpr uint16_t kEmpty = 0xffff;
    static_assert(kSlots == 2 * kCapacity, "index load factor is 1/2");

    // Fibonacci hashing: uids are (node << 40 | sequence), so the top bits
    // of the product spread consecutive sequence numbers across slots.
    static size_t Home(uint64_t uid) {
      return static_cast<size_t>((uid * 0x9e3779b97f4a7c15ull) >>
                                 (64 - kSlotBits));
    }
    // Empties the index slot of ring position `pos` and shifts the rest of
    // its probe cluster back, so no tombstones are left behind.
    void EraseIndexOf(uint16_t pos);

    std::array<uint64_t, kCapacity> ring_{};
    std::array<uint16_t, kSlots> index_;
    uint16_t next_ = 0;   // Ring position the next uid is written to.
    uint16_t count_ = 0;  // Uids in the window, up to kCapacity.
  };
  DuplicateWindow seen_;

  MacStats stats_;
  uint64_t next_uid_base_;
};

}  // namespace diknn

#endif  // DIKNN_NET_MAC_H_
