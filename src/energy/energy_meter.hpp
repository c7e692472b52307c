// Per-radio energy integration.
//
// A radio is always in exactly one energy category; the meter integrates
// power × time per category plus lump charges (wake-up transitions). The
// meter itself is policy-free: it records everything, and a ChargingPolicy
// selects which categories count toward a given evaluation model. That is
// how §4.1 charges the "ideal" sensor model only for tx/rx while charging
// the 802.11 radios for everything.
#pragma once

#include <array>
#include <cstdint>

#include "energy/radio_model.hpp"
#include "util/units.hpp"

namespace bcp::energy {

/// Energy categories. kRx is reception addressed to this node (or broadcast
/// it must process); kOverhear is reception of traffic for someone else.
enum class EnergyCategory : std::uint8_t {
  kOff = 0,
  kSleep,
  kIdle,
  kRx,
  kOverhear,
  kTx,
  kWaking,
  kCount_  // sentinel
};

constexpr std::size_t kEnergyCategoryCount =
    static_cast<std::size_t>(EnergyCategory::kCount_);

const char* to_string(EnergyCategory c);

/// Which categories a model charges for (§4.1's charging rules).
struct ChargingPolicy {
  bool tx = true;
  bool rx = true;
  bool overhear = true;
  bool idle = true;
  bool sleep = true;
  bool wakeup = true;

  /// §4.1 "ideal" sensor model: transmit and receive energy only.
  static ChargingPolicy ideal_tx_rx();
  /// Charge everything (how the 802.11 radios are always charged).
  static ChargingPolicy full();
};

class EnergyMeter {
 public:
  /// The meter reads `model` in place: every radio of one class shares one
  /// model, so `model` must outlive the meter (a temporary is rejected).
  explicit EnergyMeter(const RadioEnergyModel& model);
  explicit EnergyMeter(const RadioEnergyModel&&) = delete;

  /// Moves the radio into category `c` at time `now`, charging the elapsed
  /// interval to the previous category. `now` must be non-decreasing.
  void transition(EnergyCategory c, util::Seconds now);

  EnergyCategory category() const { return current_; }

  /// Charges one off->on wake-up transition lump (model.e_wakeup).
  void add_wakeup_charge();

  /// Adds an arbitrary lump to a category (used by log-replay in emul/).
  void add_lump(EnergyCategory c, util::Joules e);

  /// Closes the current interval at `now` without changing category, so
  /// totals can be read at the end of a run.
  void finalize(util::Seconds now);

  /// Integrated energy of one category (wake-up lumps appear under kWaking).
  util::Joules energy(EnergyCategory c) const;

  /// Time spent in one category.
  util::Seconds duration(EnergyCategory c) const;

  /// Sum over the categories selected by `policy`.
  util::Joules charged_total(const ChargingPolicy& policy) const;

  /// Sum over all categories.
  util::Joules total() const { return charged_total(ChargingPolicy::full()); }

  /// Non-mutating read of total() as of `now`: the closed intervals plus
  /// the still-open one at the current category's draw. Batteries poll
  /// this between transitions without closing the meter's interval.
  util::Joules total_at(util::Seconds now) const {
    return total() + power_of(current_) * (now - last_transition_);
  }

  /// Power draw of the current category — the battery's depletion slope.
  util::Watts current_power() const { return power_of(current_); }

  /// Number of wake-up transitions charged.
  std::int64_t wakeup_count() const { return wakeups_; }

  const RadioEnergyModel& model() const { return *model_; }

 private:
  util::Watts power_of(EnergyCategory c) const;

  const RadioEnergyModel* model_;
  EnergyCategory current_ = EnergyCategory::kOff;
  util::Seconds last_transition_ = 0.0;
  std::int64_t wakeups_ = 0;
  std::array<util::Joules, kEnergyCategoryCount> energy_{};
  std::array<util::Seconds, kEnergyCategoryCount> duration_{};
};

}  // namespace bcp::energy
