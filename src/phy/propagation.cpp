#include "phy/propagation.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace bcp::phy {

const char* to_string(PropagationKind kind) {
  switch (kind) {
    case PropagationKind::kUnitDisc:    return "unit_disc";
    case PropagationKind::kLogDistance: return "log_distance";
    case PropagationKind::kDistancePer: return "distance_per";
  }
  return "?";
}

const std::vector<PerPoint>& kDefaultPerCurve() {
  static const std::vector<PerPoint> curve = {
      {0.0, 0.0}, {0.6, 0.0}, {0.85, 0.2}, {1.0, 0.7}};
  return curve;
}

namespace {

/// Independent composition of the model's per-link PER with the channel's
/// extra Bernoulli loss. With per == 0 this returns `extra` exactly, which
/// keeps UnitDisc byte-identical to the pre-seam channel.
double compose(double per, double extra) {
  return per + extra - per * extra;
}

class UnitDiscModel final : public PropagationModel {
 public:
  UnitDiscModel(double extra_loss, double rx_power_dbm)
      : loss_(extra_loss),
        rx_power_dbm_(rx_power_dbm),
        rx_power_mw_(util::dbm_to_mw(rx_power_dbm)) {}

  PropagationKind kind() const override { return PropagationKind::kUnitDisc; }
  double loss_prob(net::NodeId, std::size_t, net::NodeId) const override {
    return loss_;
  }
  bool uniform() const override { return true; }
  double rx_power_dbm(net::NodeId, std::size_t, net::NodeId) const override {
    return rx_power_dbm_;
  }
  double rx_power_mw(net::NodeId, std::size_t, net::NodeId) const override {
    return rx_power_mw_;
  }

 private:
  double loss_;
  double rx_power_dbm_;
  double rx_power_mw_;
};

/// One link's frozen draws: composed loss probability plus the received
/// power the SINR/capture mode reads (the linear mW twin is derived once
/// at build so the Channel's interference sums never call pow()).
struct LinkBudget {
  double loss = 0.0;
  double rx_power_dbm = 0.0;
  double rx_power_mw = 0.0;
};

/// Shared implementation of the two per-link-table models: one flat
/// table aligned with the graph's CSR adjacency, so the Channel's hearer
/// loop reads its link's loss probability (and rx power) at
/// offsets()[src] + neighbor_index. Holds the graph by reference (the
/// Channel that owns the model shares ownership of it).
class PerLinkModel final : public PropagationModel {
 public:
  template <typename BudgetFn>  // {per, rx_power_dbm} = fn(src, dst, distance)
  PerLinkModel(PropagationKind kind, const net::ConnectivityGraph& graph,
               double extra_loss, BudgetFn&& budget_of)
      : kind_(kind), graph_(graph) {
    // Source-ascending, neighbour-ascending: the order the shadowing
    // draws have always been taken in.
    links_.reserve(graph.adjacency().size());
    for (net::NodeId src = 0; src < graph.node_count(); ++src)
      for (const net::NodeId dst : graph.neighbors(src)) {
        const double d =
            net::distance(graph.position(src), graph.position(dst));
        LinkBudget link = budget_of(src, dst, d);
        link.loss = compose(std::clamp(link.loss, 0.0, 1.0), extra_loss);
        link.rx_power_mw = util::dbm_to_mw(link.rx_power_dbm);
        links_.push_back(link);
      }
  }

  PropagationKind kind() const override { return kind_; }
  double loss_prob(net::NodeId src, std::size_t neighbor_index,
                   net::NodeId) const override {
    return link(src, neighbor_index).loss;
  }
  double rx_power_dbm(net::NodeId src, std::size_t neighbor_index,
                      net::NodeId) const override {
    return link(src, neighbor_index).rx_power_dbm;
  }
  double rx_power_mw(net::NodeId src, std::size_t neighbor_index,
                     net::NodeId) const override {
    return link(src, neighbor_index).rx_power_mw;
  }

 private:
  const LinkBudget& link(net::NodeId src, std::size_t neighbor_index) const {
    BCP_REQUIRE(src >= 0 && src < graph_.node_count());
    const auto& offsets = graph_.offsets();
    const std::size_t at =
        offsets[static_cast<std::size_t>(src)] + neighbor_index;
    BCP_REQUIRE(at < offsets[static_cast<std::size_t>(src) + 1]);
    return links_[at];
  }

  PropagationKind kind_;
  const net::ConnectivityGraph& graph_;
  std::vector<LinkBudget> links_;
};

/// One standard-normal draw from a generator seeded per link. Box–Muller;
/// only the first variate is used, so a link's shadow depends on nothing
/// but (seed, endpoint pair).
double link_shadow_db(std::uint64_t seed, net::NodeId a, net::NodeId b,
                      double sigma_db) {
  if (sigma_db <= 0.0) return 0.0;
  const auto lo = static_cast<std::uint64_t>(std::min(a, b));
  const auto hi = static_cast<std::uint64_t>(std::max(a, b));
  util::Xoshiro256 rng(util::substream(seed, (hi << 32) | lo,
                                       /*salt=*/0x53484144u));  // "SHAD"
  // u1 in (0, 1]: flip the [0,1) draw so log(u1) is finite.
  const double u1 = 1.0 - rng.uniform();
  const double u2 = rng.uniform();
  constexpr double kTwoPi = 6.283185307179586476925286766559;
  return sigma_db * std::sqrt(-2.0 * std::log(u1)) * std::cos(kTwoPi * u2);
}

double interpolate_per(const std::vector<PerPoint>& curve, double fraction) {
  if (fraction <= curve.front().distance_fraction) return curve.front().per;
  if (fraction >= curve.back().distance_fraction) return curve.back().per;
  for (std::size_t i = 1; i < curve.size(); ++i) {
    if (fraction > curve[i].distance_fraction) continue;
    const PerPoint& a = curve[i - 1];
    const PerPoint& b = curve[i];
    const double span = b.distance_fraction - a.distance_fraction;
    if (span <= 0.0) return b.per;
    const double t = (fraction - a.distance_fraction) / span;
    return a.per + t * (b.per - a.per);
  }
  return curve.back().per;
}

}  // namespace

std::unique_ptr<PropagationModel> make_propagation_model(
    const PropagationSpec& spec, const net::ConnectivityGraph& graph,
    double extra_loss, std::uint64_t seed) {
  BCP_REQUIRE(extra_loss >= 0.0 && extra_loss <= 1.0);
  BCP_REQUIRE(std::isfinite(spec.fixed_rx_power_dbm));
  BCP_REQUIRE(std::isfinite(spec.edge_rx_power_dbm));
  switch (spec.kind) {
    case PropagationKind::kUnitDisc:
      return std::make_unique<UnitDiscModel>(extra_loss,
                                             spec.fixed_rx_power_dbm);

    case PropagationKind::kLogDistance: {
      BCP_REQUIRE(spec.path_loss_exponent > 0.0);
      BCP_REQUIRE(spec.shadowing_sigma_db >= 0.0);
      BCP_REQUIRE(spec.per_transition_db > 0.0);
      const double range = graph.range();
      BCP_REQUIRE(range > 0.0);
      return std::make_unique<PerLinkModel>(
          PropagationKind::kLogDistance, graph, extra_loss,
          [&spec, range, seed](net::NodeId a, net::NodeId b, double d) {
            // Collocated nodes have effectively infinite margin; clamp the
            // distance away from zero so log10 stays finite.
            const double dist = std::max(d, 1e-3);
            // One shadowing draw per link feeds BOTH the PER margin and
            // the capture-mode rx power — a deep shadow that makes a link
            // lossy also makes it weak in a collision.
            const double gain_db =
                10.0 * spec.path_loss_exponent * std::log10(range / dist) +
                link_shadow_db(seed, a, b, spec.shadowing_sigma_db);
            const double margin = spec.fade_margin_db + gain_db;
            return LinkBudget{
                1.0 / (1.0 + std::exp(margin / spec.per_transition_db)),
                spec.edge_rx_power_dbm + gain_db};
          });
    }

    case PropagationKind::kDistancePer: {
      const std::vector<PerPoint>& curve =
          spec.per_curve.empty() ? kDefaultPerCurve() : spec.per_curve;
      BCP_REQUIRE(!curve.empty());
      for (std::size_t i = 0; i < curve.size(); ++i) {
        BCP_REQUIRE(curve[i].per >= 0.0 && curve[i].per <= 1.0);
        BCP_REQUIRE(i == 0 || curve[i].distance_fraction >=
                                  curve[i - 1].distance_fraction);
      }
      const double range = graph.range();
      BCP_REQUIRE(range > 0.0);
      return std::make_unique<PerLinkModel>(
          PropagationKind::kDistancePer, graph, extra_loss,
          [&curve, range, &spec](net::NodeId, net::NodeId, double d) {
            // The curve is a PER story, not a power story: capture mode
            // sees the same fixed on/off power as the unit disc.
            return LinkBudget{interpolate_per(curve, d / range),
                              spec.fixed_rx_power_dbm};
          });
    }
  }
  BCP_ENSURE_MSG(false, "bad propagation kind");
}

}  // namespace bcp::phy
