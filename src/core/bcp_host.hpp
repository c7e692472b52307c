// The platform abstraction BCP runs against.
//
// §3 describes BCP as a layer with interfaces to the routing layer and to
// the MAC layers of both radios. BcpHost is exactly that boundary: the
// same BcpAgent runs unmodified on the network simulator (app/sim_host)
// and on the TinyOS-like prototype emulator (emul/), mirroring the paper's
// simulation + Tmote Sky prototype split.
#pragma once

#include <cstdint>

#include "net/message.hpp"
#include "net/message_ref.hpp"
#include "util/inline_function.hpp"
#include "util/units.hpp"

namespace bcp::core {

class BcpHost {
 public:
  using TimerId = std::uint64_t;
  static constexpr TimerId kInvalidTimer = 0;

  /// Timer callbacks are inline (no heap for captures; same type as
  /// sim::Simulator::Callback, so simulator-backed hosts forward them
  /// without re-wrapping).
  using TimerCallback = util::InlineFunction<void()>;
  /// Send completions are deliberately small (24 B captures) so a host
  /// can capture one inside a TimerCallback-sized closure — capture ids
  /// and `this`, not state.
  using SendDone = util::InlineFunction<void(bool), 24>;

  virtual ~BcpHost() = default;

  /// This node's id, which both of its radios use as their address.
  virtual net::NodeId self() const = 0;

  virtual util::Seconds now() const = 0;

  /// One-shot timer. The callback must not fire after cancel_timer().
  virtual TimerId set_timer(util::Seconds delay, TimerCallback callback) = 0;
  virtual void cancel_timer(TimerId id) = 0;

  /// Sends a routed message over the low-power radio toward msg->dst
  /// (possibly multiple hops; intermediate nodes relay below BCP). The
  /// pooled ref is shared down the MAC/PHY chain, never deep-copied.
  virtual void send_low(net::MessageRef msg) = 0;

  /// Sends one message over the high-power radio to the adjacent `peer`.
  /// `done(success)` fires when the link layer acked the frame (true) or
  /// gave up (false). The high-power radio must be ready.
  virtual void send_high(net::MessageRef msg, net::NodeId peer,
                         SendDone done) = 0;

  /// High-power radio power management. on() is asynchronous: readiness is
  /// signalled through BcpAgent::on_high_radio_ready().
  virtual void high_radio_on() = 0;
  virtual void high_radio_off() = 0;
  virtual bool high_radio_ready() const = 0;

  /// Next hop toward `dest` over the high-power radio topology
  /// (net::kInvalidNode if unreachable).
  virtual net::NodeId high_next_hop(net::NodeId dest) const = 0;

  /// Whether `peer` is directly reachable over the high-power radio. Route
  /// shortcut learning (§3) only adopts next hops this predicate accepts —
  /// overhearing a neighbour forward a burst does not imply the forwarding
  /// *target* is within our own range. Hosts without link knowledge may
  /// keep the permissive default.
  virtual bool high_link_exists(net::NodeId peer) const {
    (void)peer;
    return true;
  }

  /// A data packet reached its final destination at this node. Losses
  /// are counted in BcpAgent::Stats, not reported to the host.
  virtual void deliver(const net::DataPacket& packet) = 0;
};

}  // namespace bcp::core
