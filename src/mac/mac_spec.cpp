#include "mac/mac_spec.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace bcp::mac {

const char* to_string(MacFamily f) {
  switch (f) {
    case MacFamily::kCsmaCa: return "csma-ca";
    case MacFamily::kTdma:   return "tdma";
  }
  return "?";
}

bool TdmaParams::is_default() const {
  return slot_len == 0 && guard == 0 && beacon_period == 0 &&
         sync_drift == 0 && beacon_bits == 0 && header_bits == 0 &&
         preamble == 0 && max_queue == 0;
}

void TdmaParams::validate() const {
  if (is_default()) return;  // class defaults stand in
  BCP_REQUIRE_MSG(std::isfinite(slot_len) && slot_len > 0,
                  "TDMA slot length must be finite and positive");
  BCP_REQUIRE_MSG(std::isfinite(guard) && guard >= 0,
                  "TDMA guard time must be finite and non-negative");
  BCP_REQUIRE_MSG(2 * guard < slot_len,
                  "TDMA guards must leave data time inside the slot");
  BCP_REQUIRE_MSG(std::isfinite(beacon_period) && beacon_period >= 0,
                  "TDMA beacon period must be finite and non-negative");
  BCP_REQUIRE_MSG(std::isfinite(sync_drift) && sync_drift >= 0 &&
                      sync_drift < 1,
                  "TDMA sync drift must be a finite rate in [0, 1)");
  BCP_REQUIRE_MSG(std::isfinite(preamble) && preamble >= 0,
                  "TDMA preamble must be finite and non-negative");
  BCP_REQUIRE_MSG(beacon_bits > 0, "TDMA beacon size must be positive");
  BCP_REQUIRE_MSG(header_bits >= 0, "TDMA header size must be non-negative");
  BCP_REQUIRE_MSG(max_queue > 0, "TDMA queue capacity must be positive");
}

TdmaParams TdmaParams::resolved_for(int slot_count,
                                    util::BitsPerSecond rate) const {
  BCP_REQUIRE(!is_default());
  BCP_REQUIRE(slot_count >= 1);
  BCP_REQUIRE(rate > 0);
  validate();
  const util::Seconds beacon_air =
      preamble + static_cast<double>(beacon_bits) / rate;
  // The beacon gets its own guard before the first slot opens.
  const util::Seconds span =
      beacon_air + guard + static_cast<double>(slot_count) * slot_len;
  TdmaParams out = *this;
  if (out.beacon_period == 0) {
    out.beacon_period = span;
  } else {
    BCP_REQUIRE_MSG(out.beacon_period >= span,
                    "TDMA beacon period is shorter than the beacon plus "
                    "slot_count x slot_len it must contain");
  }
  return out;
}

TdmaParams tdma_sensor_params() {
  TdmaParams p;
  p.slot_len = util::milliseconds(15);
  p.guard = util::milliseconds(1);
  p.beacon_period = 0;  // auto-tight
  p.sync_drift = 100e-6;
  p.beacon_bits = util::bytes(11);
  p.header_bits = util::bytes(11);   // match the CSMA sensor link header
  p.preamble = 0;
  p.max_queue = 5000;
  return p;
}

TdmaParams tdma_wifi_params() {
  TdmaParams p;
  p.slot_len = util::milliseconds(1.5);
  p.guard = util::microseconds(100);
  p.beacon_period = 0;  // auto-tight
  p.sync_drift = 100e-6;
  p.beacon_bits = util::bytes(28);
  p.header_bits = util::bytes(28);
  p.preamble = util::microseconds(96);
  p.max_queue = 1000;
  return p;
}

void MacSpec::validate() const {
  if (family == MacFamily::kTdma) tdma.validate();
}

}  // namespace bcp::mac
