#include "xc/lda.hpp"

#include <cmath>

namespace dftfe::xc {

std::pair<double, double> pw92_ec(double rs) {
  // PW92 G-function parameters for zeta = 0.
  constexpr double A = 0.031091, a1 = 0.21370, b1 = 7.5957, b2 = 3.5876, b3 = 1.6382,
                   b4 = 0.49294;
  const double srs = std::sqrt(rs);
  const double q0 = -2.0 * A * (1.0 + a1 * rs);
  const double q1 = 2.0 * A * (b1 * srs + b2 * rs + b3 * rs * srs + b4 * rs * rs);
  const double q1p = A * (b1 / srs + 2.0 * b2 + 3.0 * b3 * srs + 4.0 * b4 * rs);
  const double lg = std::log(1.0 + 1.0 / q1);
  const double ec = q0 * lg;
  const double dec = -2.0 * A * a1 * lg - q0 * q1p / (q1 * q1 + q1);
  return {ec, dec};
}

void LdaPW92::evaluate(const std::vector<double>& rho, const std::vector<double>& sigma,
                       std::vector<double>& exc, std::vector<double>& vrho,
                       std::vector<double>& vsigma) const {
  (void)sigma;
  const std::size_t n = rho.size();
  exc.resize(n);
  vrho.resize(n);
  vsigma.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double r = std::max(rho[i], 1e-14);
    const double ex = kExLda * std::cbrt(r);
    const double rs = std::cbrt(3.0 / (4.0 * kPi * r));
    const auto [ec, dec] = pw92_ec(rs);
    exc[i] = ex + ec;
    // vx = 4/3 ex ; vc = ec - (rs/3) dec/drs.
    vrho[i] = (4.0 / 3.0) * ex + ec - (rs / 3.0) * dec;
  }
}

}  // namespace dftfe::xc
