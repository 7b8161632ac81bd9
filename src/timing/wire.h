#pragma once
// Distributed-RC wire model and Elmore delay [El48].
//
// Units used throughout the library:
//   length       : micrometers (um)
//   resistance   : ohms
//   capacitance  : femtofarads (fF)
//   time         : picoseconds (ps)       (1 ohm * 1 fF = 1e-3 ps)
//   area         : square lambda x1000 (the paper reports "x1000 lambda^2")
//
// A wire of length L um has total resistance r*L and total capacitance c*L.
// Driven from one end into a lumped downstream load C_dn, its Elmore delay is
//     D = r*L * (c*L/2 + C_dn)            [distributed RC segment]
// which is exact for the Elmore metric regardless of how the rectilinear
// route bends, because only the length enters.

#include <cstdint>
#include <span>

namespace merlin {

/// ohm * fF = 1e-3 ps; multiply RC products by this to get picoseconds.
inline constexpr double kOhmFemtoFaradToPs = 1e-3;

/// Per-unit-length electrical parameters of the routing layer (at the
/// default 1x wire width).
struct WireModel {
  double res_per_um = 0.10;  ///< ohms per micrometer
  double cap_per_um = 0.20;  ///< femtofarads per micrometer

  /// Total capacitance of a wire of `len` micrometers, in fF.
  [[nodiscard]] constexpr double wire_cap(double len) const {
    return cap_per_um * len;
  }

  /// Total resistance of a wire of `len` micrometers, in ohms.
  [[nodiscard]] constexpr double wire_res(double len) const {
    return res_per_um * len;
  }

  /// Elmore delay (ps) through a distributed wire of `len` um terminated by
  /// a lumped downstream capacitance `load_fF`.
  [[nodiscard]] constexpr double elmore_delay(double len, double load_fF) const {
    return wire_res(len) * (0.5 * wire_cap(len) + load_fF) * kOhmFemtoFaradToPs;
  }
};

/// Electrical model of the same layer at `width` times the default wire
/// width.  Resistance falls as 1/width; capacitance grows sublinearly (the
/// area component is linear in width, the fringe component is constant):
///   r(w) = r1 / w,   c(w) = c1 * (0.55 + 0.45 w).
/// This is the knob behind the simultaneous wire sizing extension that
/// [LCLH96] pairs with the P-Tree DP.
constexpr WireModel scaled_width(const WireModel& base, double width) {
  return WireModel{base.res_per_um / width,
                   base.cap_per_um * (0.55 + 0.45 * width)};
}

/// The width multipliers a wire-sizing DP tries: `widths`, or the default
/// 1x width alone when it is empty (the non-wire-sized problem).
inline std::span<const double> wire_widths_or_default(
    std::span<const double> widths) {
  static constexpr double kDefaultWidth[] = {1.0};
  return widths.empty() ? std::span<const double>(kDefaultWidth) : widths;
}

}  // namespace merlin
