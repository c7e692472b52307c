// Pluggable link-quality (propagation) models for the broadcast Channel.
//
// The Channel decides *who hears* a frame from the disc connectivity graph
// (every node within `range`); the PropagationModel decides *how likely a
// heard frame is lost* on each (src, dst) link, independent of collisions.
// Three deterministic, seed-driven implementations:
//
//   UnitDisc    — today's idealized channel: one global Bernoulli
//                 frame-loss probability on every link. The default, so
//                 the historical fig01–fig12/table1 pipelines are
//                 bit-for-bit unchanged (same RNG stream, same draw
//                 count).
//   LogDistance — log-distance path loss with per-link log-normal
//                 shadowing frozen at topology build: each link draws one
//                 shadowing offset from a hash of its endpoint pair, so a
//                 link's PER is stable for the whole run (and independent
//                 of construction order). The dB link margin
//                     margin = fade_margin_db
//                            + 10·n·log10(range/d) + X,  X ~ N(0, σ)
//                 maps to a PER through a logistic curve,
//                     per = 1 / (1 + exp(margin / per_transition_db)),
//                 i.e. links near the disc edge or hit by a deep shadow
//                 are unreliable, close links are clean.
//   DistancePer — a piecewise-linear PER-vs-distance curve (points are
//                 fractions of the disc range) for quick what-ifs without
//                 a propagation story.
//
// Every model composes the Channel's extra Bernoulli knob
// (`frame_loss_prob`, the scenario axis that predates this seam) as an
// independent loss: p = per + extra − per·extra. For UnitDisc the per-link
// PER is zero, so p == frame_loss_prob exactly — the byte-identity
// guarantee the differential golden test pins.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/topology.hpp"

namespace bcp::phy {

enum class PropagationKind : std::uint8_t {
  kUnitDisc,  ///< the default (the historical behavior)
  kLogDistance,
  kDistancePer,
};

const char* to_string(PropagationKind kind);

/// One knot of the DistancePer curve; `distance_fraction` is d/range.
struct PerPoint {
  double distance_fraction = 0.0;
  double per = 0.0;
};

/// Declarative model recipe carried by ScenarioConfig / Channel::Params.
struct PropagationSpec {
  PropagationKind kind = PropagationKind::kUnitDisc;

  // kLogDistance.
  double path_loss_exponent = 3.0;   ///< n in 10·n·log10(range/d)
  double shadowing_sigma_db = 4.0;   ///< per-link log-normal σ (0 = none)
  double fade_margin_db = 6.0;       ///< link margin at the disc edge
  double per_transition_db = 2.0;    ///< logistic softness of margin→PER

  // kDistancePer; empty uses kDefaultPerCurve. Knots must be sorted by
  // distance_fraction with per in [0, 1].
  std::vector<PerPoint> per_curve;

  // Received-power model backing SINR/capture reception (consulted only
  // when Channel::Params::capture is enabled; see channel.hpp). The
  // unit-disc and distance-PER models have no propagation story, so every
  // heard link gets one fixed on/off power; log-distance derives a
  // per-link power from the same path-loss + shadowing draw as its PER:
  //   rx = edge_rx_power_dbm + 10·n·log10(range/d) + X
  // (the dB margin above the disc-edge budget, anchored in dBm).
  double fixed_rx_power_dbm = -60.0;  ///< kUnitDisc / kDistancePer links
  double edge_rx_power_dbm = -80.0;   ///< kLogDistance power at the disc edge
};

/// The DistancePer curve used when `per_curve` is empty: clean to 60% of
/// the range, then degrading to 0.7 PER at the disc edge.
const std::vector<PerPoint>& kDefaultPerCurve();

/// Per-link loss oracle the Channel queries once per (frame, hearer).
class PropagationModel {
 public:
  virtual ~PropagationModel() = default;

  virtual PropagationKind kind() const = 0;
  const char* name() const { return to_string(kind()); }

  /// Loss probability for a frame src→dst, where dst is
  /// graph.neighbors(src)[neighbor_index] (the Channel's hearer loop
  /// already has the index, making per-link lookups O(1)). Includes the
  /// composed extra Bernoulli loss; excludes collisions.
  virtual double loss_prob(net::NodeId src, std::size_t neighbor_index,
                           net::NodeId dst) const = 0;

  /// True when loss_prob is one constant for every link (UnitDisc) — lets
  /// the Channel skip the virtual call on its hot path.
  virtual bool uniform() const { return false; }

  /// Received signal power (dBm) for a heard frame src→dst, indexed like
  /// loss_prob. Only consulted when the Channel's SINR/capture mode is on
  /// (one call per (frame, hearer) at rx_start); per-link values are
  /// frozen at model build, sharing the loss table's shadowing draws.
  virtual double rx_power_dbm(net::NodeId src, std::size_t neighbor_index,
                              net::NodeId dst) const = 0;

  /// Same power in linear mW — what the Channel's interference sums
  /// actually consume. Implementations precompute it next to the frozen
  /// dBm value so the hot path never pays a per-arrival pow().
  virtual double rx_power_mw(net::NodeId src, std::size_t neighbor_index,
                             net::NodeId dst) const = 0;
};

/// Builds the model `spec` describes over `graph`, composing `extra_loss`
/// (the Channel's frame_loss_prob) into every link. Per-link tables
/// (shadowing draws, curve evaluations) are frozen here, at topology
/// build, in one flat table indexed like the graph's CSR adjacency, so
/// `graph` must outlive the model; `seed` only feeds the per-link
/// shadowing hash. Validates the spec (throws std::invalid_argument via
/// BCP_REQUIRE on bad parameters).
std::unique_ptr<PropagationModel> make_propagation_model(
    const PropagationSpec& spec, const net::ConnectivityGraph& graph,
    double extra_loss, std::uint64_t seed);

}  // namespace bcp::phy
