#include "energy/energy_meter.hpp"

#include "util/assert.hpp"

namespace bcp::energy {

const char* to_string(EnergyCategory c) {
  switch (c) {
    case EnergyCategory::kOff:      return "off";
    case EnergyCategory::kSleep:    return "sleep";
    case EnergyCategory::kIdle:     return "idle";
    case EnergyCategory::kRx:       return "rx";
    case EnergyCategory::kOverhear: return "overhear";
    case EnergyCategory::kTx:       return "tx";
    case EnergyCategory::kWaking:   return "waking";
    case EnergyCategory::kCount_:   break;
  }
  return "?";
}

ChargingPolicy ChargingPolicy::ideal_tx_rx() {
  ChargingPolicy p;
  p.tx = p.rx = true;
  p.overhear = p.idle = p.sleep = p.wakeup = false;
  return p;
}

ChargingPolicy ChargingPolicy::full() { return ChargingPolicy{}; }

EnergyMeter::EnergyMeter(const RadioEnergyModel& model) : model_(&model) {}

util::Watts EnergyMeter::power_of(EnergyCategory c) const {
  switch (c) {
    case EnergyCategory::kOff:      return 0.0;
    case EnergyCategory::kSleep:    return model_->p_sleep;
    case EnergyCategory::kIdle:     return model_->p_idle;
    case EnergyCategory::kRx:       return model_->p_rx;
    case EnergyCategory::kOverhear: return model_->p_rx;
    case EnergyCategory::kTx:       return model_->p_tx;
    // The wake-up transition is charged as the Table 1 lump, not by power
    // integration, so the waking interval itself draws nothing extra.
    case EnergyCategory::kWaking:   return 0.0;
    case EnergyCategory::kCount_:   break;
  }
  BCP_ENSURE_MSG(false, "bad category");
}

void EnergyMeter::transition(EnergyCategory c, util::Seconds now) {
  BCP_REQUIRE(c != EnergyCategory::kCount_);
  finalize(now);
  current_ = c;
}

void EnergyMeter::add_wakeup_charge() {
  energy_[static_cast<std::size_t>(EnergyCategory::kWaking)] +=
      model_->e_wakeup;
  ++wakeups_;
}

void EnergyMeter::add_lump(EnergyCategory c, util::Joules e) {
  BCP_REQUIRE(c != EnergyCategory::kCount_);
  BCP_REQUIRE(e >= 0.0);
  energy_[static_cast<std::size_t>(c)] += e;
}

void EnergyMeter::finalize(util::Seconds now) {
  BCP_REQUIRE_MSG(now >= last_transition_, "time went backwards");
  const util::Seconds dt = now - last_transition_;
  const auto idx = static_cast<std::size_t>(current_);
  energy_[idx] += power_of(current_) * dt;
  duration_[idx] += dt;
  last_transition_ = now;
}

util::Joules EnergyMeter::energy(EnergyCategory c) const {
  BCP_REQUIRE(c != EnergyCategory::kCount_);
  return energy_[static_cast<std::size_t>(c)];
}

util::Seconds EnergyMeter::duration(EnergyCategory c) const {
  BCP_REQUIRE(c != EnergyCategory::kCount_);
  return duration_[static_cast<std::size_t>(c)];
}

util::Joules EnergyMeter::charged_total(const ChargingPolicy& policy) const {
  util::Joules total = 0.0;
  if (policy.tx) total += energy(EnergyCategory::kTx);
  if (policy.rx) total += energy(EnergyCategory::kRx);
  if (policy.overhear) total += energy(EnergyCategory::kOverhear);
  if (policy.idle) total += energy(EnergyCategory::kIdle);
  if (policy.sleep) total += energy(EnergyCategory::kSleep);
  if (policy.wakeup) total += energy(EnergyCategory::kWaking);
  return total;
}

}  // namespace bcp::energy
