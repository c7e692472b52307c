#include "emul/prototype.hpp"

#include <functional>
#include <utility>
#include <vector>

#include "core/bcp_agent.hpp"
#include "energy/energy_meter.hpp"
#include "sim/simulator.hpp"
#include "util/assert.hpp"

namespace bcp::emul {
namespace {

using energy::EnergyCategory;

/// One emulated radio: occupancy counters drive the EnergyMeter category,
/// so briefly overlapping segments cannot double-charge or under-charge.
class EmulRadio {
 public:
  EmulRadio(sim::Simulator& sim, const energy::RadioEnergyModel& model,
            bool starts_on)
      : sim_(sim), meter_(model), on_(starts_on) {
    if (starts_on) meter_.transition(EnergyCategory::kIdle, sim_.now());
  }

  void power_on(std::function<void()> ready) {
    if (on_) return;
    on_ = true;
    waking_ = true;
    meter_.add_wakeup_charge();
    refresh();
    sim_.schedule_in(meter_.model().t_wakeup, [this, cb = std::move(ready)] {
      waking_ = false;
      refresh();
      if (cb) cb();
    });
  }

  void power_off() {
    on_ = false;
    waking_ = false;
    refresh();
  }

  bool ready() const { return on_ && !waking_; }

  void tx_begin() { ++tx_; refresh(); }
  void tx_end()   { --tx_; refresh(); }
  void rx_begin() { ++rx_; refresh(); }
  void rx_end()   { --rx_; refresh(); }

  energy::EnergyMeter& meter() { return meter_; }

 private:
  void refresh() {
    EnergyCategory c = EnergyCategory::kOff;
    if (on_) {
      if (waking_)
        c = EnergyCategory::kWaking;
      else if (tx_ > 0)
        c = EnergyCategory::kTx;
      else if (rx_ > 0)
        c = EnergyCategory::kRx;
      else
        c = EnergyCategory::kIdle;
    }
    meter_.transition(c, sim_.now());
  }

  sim::Simulator& sim_;
  energy::EnergyMeter meter_;
  bool on_ = false;
  bool waking_ = false;
  int tx_ = 0;
  int rx_ = 0;
};

/// A Tmote-like node: always-on CC2420 + emulated 802.11 behind the
/// split-phase wrapper interface. Implements core::BcpHost.
class EmulNode final : public core::BcpHost {
 public:
  EmulNode(sim::Simulator& sim, net::NodeId self,
           const PrototypeConfig& config, EventLog& log,
           std::function<void(const net::DataPacket&)> deliver)
      : sim_(sim),
        self_(self),
        config_(config),
        log_(log),
        deliver_(std::move(deliver)),
        low_(sim, config.sensor_radio, /*starts_on=*/true),
        high_(sim, config.wifi_radio, /*starts_on=*/false),
        bcp_(config.bcp) {
    bcp_.burst_threshold_bits = config.threshold_bits;
    agent_ = std::make_unique<core::BcpAgent>(*this, bcp_, agent_stats_);
  }

  void connect(EmulNode* peer) { peer_ = peer; }

  core::BcpAgent& agent() { return *agent_; }
  EmulRadio& low_radio() { return low_; }
  EmulRadio& high_radio() { return high_; }

  // ---- core::BcpHost ----

  net::NodeId self() const override { return self_; }
  util::Seconds now() const override { return sim_.now(); }

  TimerId set_timer(util::Seconds delay,
                    core::BcpHost::TimerCallback callback) override {
    return sim_.schedule_in(delay, std::move(callback)).id;
  }
  void cancel_timer(TimerId id) override {
    sim_.cancel(sim::Simulator::EventHandle{id});
  }

  void send_low(net::MessageRef msg) override {
    BCP_ENSURE(peer_ != nullptr && msg->dst == peer_->self());
    const util::Bits bits = msg->size_bits() + config_.low_header_bits;
    const util::Seconds d =
        util::tx_duration(bits, config_.sensor_radio.rate);
    log_.append(sim_.now(), self_, LogEvent::kLowTxStart, bits);
    log_.append(sim_.now(), peer_->self(), LogEvent::kLowRxStart, bits);
    low_.tx_begin();
    peer_->low_.rx_begin();
    sim_.schedule_in(d, [this, msg = std::move(msg)] {
      low_.tx_end();
      peer_->low_.rx_end();
      log_.append(sim_.now(), self_, LogEvent::kLowTxEnd);
      log_.append(sim_.now(), peer_->self(), LogEvent::kLowRxEnd);
      peer_->agent().on_low_message(*msg);
    });
  }

  void send_high(net::MessageRef msg, net::NodeId peer,
                 core::BcpHost::SendDone done) override {
    BCP_ENSURE(peer_ != nullptr && peer == peer_->self());
    BCP_REQUIRE_MSG(high_.ready(), "send_high before the radio is ready");
    const util::Bits bits = msg->size_bits() + config_.high_header_bits;
    const util::Seconds d_data =
        util::tx_duration(bits, config_.wifi_radio.rate);
    const bool peer_listening = peer_->high_.ready();

    log_.append(sim_.now(), self_, LogEvent::kHighTxStart, bits);
    high_.tx_begin();
    if (peer_listening) {
      log_.append(sim_.now(), peer_->self(), LogEvent::kHighRxStart, bits);
      peer_->high_.rx_begin();
    }
    sim_.schedule_in(d_data, [this, msg = std::move(msg), peer_listening,
                              done = std::move(done)]() mutable {
      high_.tx_end();
      log_.append(sim_.now(), self_, LogEvent::kHighTxEnd);
      if (!peer_listening) {
        done(false);
        return;
      }
      peer_->high_.rx_end();
      log_.append(sim_.now(), peer_->self(), LogEvent::kHighRxEnd);
      if (const auto* frame = std::get_if<net::BulkFrame>(&msg->body))
        peer_->agent().on_bulk_frame(*frame);
      // Link-layer ack from the peer after SIFS.
      sim_.schedule_in(config_.high_sifs,
                       [this, done = std::move(done)]() mutable {
        if (!peer_->high_.ready() || !high_.ready()) {
          done(true);  // data made it; only the ack exchange is skipped
          return;
        }
        log_.append(sim_.now(), peer_->self(), LogEvent::kHighTxStart,
                    config_.high_ack_bits);
        log_.append(sim_.now(), self_, LogEvent::kHighRxStart,
                    config_.high_ack_bits);
        peer_->high_.tx_begin();
        high_.rx_begin();
        const util::Seconds d_ack =
            util::tx_duration(config_.high_ack_bits, config_.wifi_radio.rate);
        sim_.schedule_in(d_ack, [this, done = std::move(done)]() mutable {
          peer_->high_.tx_end();
          high_.rx_end();
          log_.append(sim_.now(), peer_->self(), LogEvent::kHighTxEnd);
          log_.append(sim_.now(), self_, LogEvent::kHighRxEnd);
          done(true);
        });
      });
    });
  }

  void high_radio_on() override {
    if (high_.ready()) return;
    log_.append(sim_.now(), self_, LogEvent::kWifiPowerOn);
    high_.power_on([this] {
      log_.append(sim_.now(), self_, LogEvent::kWifiReady);
      agent_->on_high_radio_ready();
    });
  }

  void high_radio_off() override {
    log_.append(sim_.now(), self_, LogEvent::kWifiPowerOff);
    high_.power_off();
  }

  bool high_radio_ready() const override { return high_.ready(); }

  net::NodeId high_next_hop(net::NodeId dest) const override {
    return (peer_ != nullptr && dest == peer_->self()) ? dest
                                                       : net::kInvalidNode;
  }

  void deliver(const net::DataPacket& packet) override {
    log_.append(sim_.now(), self_, LogEvent::kMsgDelivered,
                packet.payload_bits);
    deliver_(packet);
  }

 private:
  sim::Simulator& sim_;
  net::NodeId self_;
  const PrototypeConfig& config_;
  EventLog& log_;
  std::function<void(const net::DataPacket&)> deliver_;
  EmulRadio low_;
  EmulRadio high_;
  EmulNode* peer_ = nullptr;
  core::BcpConfig bcp_;  ///< read in place by agent_
  core::BcpAgent::Stats agent_stats_;  ///< agent_ adds into it
  std::unique_ptr<core::BcpAgent> agent_;
};

}  // namespace

PrototypeResult run_prototype(const PrototypeConfig& config) {
  BCP_REQUIRE(config.threshold_bits > 0);
  BCP_REQUIRE(config.message_count > 0);
  BCP_REQUIRE(config.message_interval > 0);
  BCP_REQUIRE(config.message_bits > 0);

  sim::Simulator sim;
  EventLog log;
  PrototypeResult result;
  double delay_sum = 0;

  constexpr net::NodeId kSender = 0;
  constexpr net::NodeId kReceiver = 1;

  EmulNode sender(sim, kSender, config, log, [](const net::DataPacket&) {});
  EmulNode receiver(sim, kReceiver, config, log,
                    [&](const net::DataPacket& p) {
                      ++result.delivered;
                      delay_sum += sim.now() - p.created_at;
                    });
  sender.connect(&receiver);
  receiver.connect(&sender);
  if (config.sender_observer != nullptr)
    sender.agent().set_observer(config.sender_observer);
  if (config.receiver_observer != nullptr)
    receiver.agent().set_observer(config.receiver_observer);

  // Generate the experiment's messages at the fixed interval.
  for (int i = 0; i < config.message_count; ++i) {
    sim.schedule_in(config.message_interval * (i + 1), [&, i] {
      net::DataPacket p;
      p.origin = kSender;
      p.destination = kReceiver;
      p.seq = static_cast<std::uint32_t>(i + 1);
      p.payload_bits = config.message_bits;
      p.created_at = sim.now();
      ++result.generated;
      log.append(sim.now(), kSender, LogEvent::kMsgGenerated,
                 p.payload_bits);
      sender.agent().submit(p);
    });
  }

  // Drain pump: after generation ends, flush sub-threshold leftovers until
  // the sender is empty and idle (the paper's runs end when all 500
  // messages have crossed).
  const util::Seconds gen_end =
      config.message_interval * (config.message_count + 1);
  auto pump = std::make_shared<std::function<void(int)>>();
  // The stored function must not own itself (shared_ptr cycle — the local
  // `pump` strong reference already outlives sim.run()).
  *pump = [&, weak = std::weak_ptr<std::function<void(int)>>(pump)](
              int remaining) {
    if (remaining <= 0) return;
    if (sender.agent().buffer().total_bits() == 0 &&
        sender.agent().radio_hold_count() == 0)
      return;
    sender.agent().flush_all();
    sim.schedule_in(1.0, [weak, remaining] {
      if (const auto self = weak.lock()) (*self)(remaining - 1);
    });
  };
  sim.schedule_at(gen_end, [pump] { (*pump)(10000); });

  sim.run();
  const util::Seconds end = sim.now();

  sender.low_radio().meter().finalize(end);
  sender.high_radio().meter().finalize(end);
  receiver.low_radio().meter().finalize(end);
  receiver.high_radio().meter().finalize(end);

  const auto charged = [](EmulRadio& low, EmulRadio& high) {
    const auto& lm = low.meter();
    const auto& hm = high.meter();
    const util::Joules sensor_charge =
        lm.energy(EnergyCategory::kTx) + lm.energy(EnergyCategory::kRx);
    const util::Joules wifi_charge =
        hm.energy(EnergyCategory::kTx) + hm.energy(EnergyCategory::kRx) +
        hm.energy(EnergyCategory::kIdle) +
        hm.energy(EnergyCategory::kWaking);
    return sensor_charge + wifi_charge;
  };
  result.dual_energy = charged(sender.low_radio(), sender.high_radio()) +
                       charged(receiver.low_radio(), receiver.high_radio());
  if (result.delivered > 0) {
    result.dual_energy_per_packet =
        result.dual_energy / static_cast<double>(result.delivered);
    result.mean_delay_per_packet =
        delay_sum / static_cast<double>(result.delivered);
  }

  // Baseline: each message crosses the CC2420 link immediately, alone.
  result.sensor_energy_per_packet =
      (config.sensor_radio.p_tx + config.sensor_radio.p_rx) /
      config.sensor_radio.rate *
      static_cast<double>(config.message_bits + config.low_header_bits);

  result.log_energy =
      energy_from_log(log, config.sensor_radio, config.wifi_radio, end);
  result.wifi_wakeups = log.count(LogEvent::kWifiPowerOn);
  result.bulk_frames = sender.agent().stats().frames_sent;
  result.log_entries = static_cast<std::int64_t>(log.entries().size());
  return result;
}

}  // namespace bcp::emul
