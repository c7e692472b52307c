// Lambda-backed stand-ins for the observer seams a node normally fills:
// mac::MacHost above a MAC, phy::RadioLink and phy::RadioOwner above a
// radio. A test sets the members it cares about; unset ones ignore the
// event. (Radios report energy changes only when asked, for batteries.)
#pragma once

#include <functional>

#include "mac/mac.hpp"
#include "net/message.hpp"
#include "phy/frame.hpp"
#include "phy/radio.hpp"

namespace bcp::testing_support {

struct FnMacHost final : mac::MacHost {
  std::function<void(const net::Message&, net::NodeId from)> rx;
  std::function<void(const net::Message&, net::NodeId next_hop, bool ok)>
      tx_done;

  void on_mac_rx(mac::Mac&, const net::Message& msg,
                 net::NodeId from) override {
    if (rx) rx(msg, from);
  }
  void on_mac_tx_done(mac::Mac&, const net::Message& msg,
                      net::NodeId next_hop, bool ok) override {
    if (tx_done) tx_done(msg, next_hop, ok);
  }
};

struct FnRadioLink final : phy::RadioLink {
  std::function<void()> tx_done;
  std::function<void(const phy::Frame&)> frame_received;

  void on_radio_tx_done() override {
    if (tx_done) tx_done();
  }
  void on_radio_frame_received(const phy::Frame& frame) override {
    if (frame_received) frame_received(frame);
  }
};

struct FnRadioOwner final : phy::RadioOwner {
  std::function<void()> wake_complete;
  std::function<void(const phy::Frame&)> frame_overheard;

  void on_radio_wake_complete(phy::Radio&) override {
    if (wake_complete) wake_complete();
  }
  void on_radio_frame_overheard(phy::Radio&, const phy::Frame& frame) override {
    if (frame_overheard) frame_overheard(frame);
  }
  void on_radio_energy_changed(phy::Radio&) override {}
};

}  // namespace bcp::testing_support
