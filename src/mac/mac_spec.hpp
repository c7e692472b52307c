// Which MAC family a scenario runs per radio class, plus the TDMA knobs.
//
// MacSpec rides inside app::ScenarioConfig (one per radio class). The
// default — kCsmaCa — is the historical CSMA/CA engine with the exact
// per-class MacParams the figure pipeline has always used, so every
// fig01–fig12/table1 BENCH export stays byte-identical unless a scenario
// asks for something else. kTdma swaps in the sink-coordinated slotted
// MAC (mac/tdma_mac.hpp) with the knobs below.
#pragma once

#include <cstddef>

#include "util/units.hpp"

namespace bcp::mac {

enum class MacFamily {
  kCsmaCa,  ///< the default: CSMA/CA with the class MacParams
  kTdma,    ///< sink-coordinated beacon + slot schedule
};

const char* to_string(MacFamily f);

/// TDMA timing knobs. Zeros mean "use the radio class defaults"
/// (tdma_sensor_params / tdma_wifi_params); a scenario overriding any
/// field supplies the full set (is_default() is all-or-nothing).
struct TdmaParams {
  util::Seconds slot_len = 0;      ///< per-slot budget incl. guards
  util::Seconds guard = 0;         ///< idle time at both slot edges
  /// Superframe period. 0 = auto: the tightest period that fits the
  /// beacon plus every scheduled slot (resolved by resolved_for()).
  util::Seconds beacon_period = 0;
  double sync_drift = 0;           ///< |clock error| bound, s per s
  util::Bits beacon_bits = 0;      ///< beacon frame size
  util::Bits header_bits = 0;      ///< link header on data frames
  util::Seconds preamble = 0;      ///< fixed PHY preamble per frame
  std::size_t max_queue = 0;       ///< frames; tail-drop beyond this

  bool is_default() const;

  /// Throws std::invalid_argument on non-finite or out-of-range knobs
  /// (NaN/negative guard, zero slot length, ...). An all-default (zero)
  /// spec is valid — the class defaults stand in.
  void validate() const;

  /// Fills beacon_period when 0 with the tightest superframe that fits
  /// `slot_count` slots behind the beacon at `rate` bit/s, and validates
  /// an explicit period against that floor (throws when the period cannot
  /// fit beacon + slot_count * slot_len). Pre: !is_default(), validated.
  TdmaParams resolved_for(int slot_count, util::BitsPerSecond rate) const;
};

/// Sensor-class (Mica, 40 Kbps) TDMA defaults: 15 ms slots fit a 32 B
/// payload + 11 B header frame (8.6 ms on air) plus 1 ms edge guards with
/// drift headroom; 100 ppm crystal-class sync drift.
TdmaParams tdma_sensor_params();

/// 802.11-class TDMA defaults: 1.5 ms slots (a 32 B frame at 2 Mbps with
/// the 96 us PLCP preamble is ~0.3 ms), 100 us guards.
TdmaParams tdma_wifi_params();

/// Per-radio-class MAC family selection, threaded through ScenarioConfig.
struct MacSpec {
  MacFamily family = MacFamily::kCsmaCa;
  TdmaParams tdma;  ///< only read when family == kTdma

  bool is_tdma() const { return family == MacFamily::kTdma; }

  /// Throws std::invalid_argument on bad TDMA knobs. CSMA specs are
  /// always valid (the class MacParams carry their own invariants).
  void validate() const;
};

}  // namespace bcp::mac
