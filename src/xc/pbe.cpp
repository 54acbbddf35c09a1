#include "xc/pbe.hpp"

#include <algorithm>
#include <cmath>

#include "xc/lda.hpp"

namespace dftfe::xc {

namespace {
constexpr double kMu = 0.2195149727645171;
constexpr double kKappa = 0.804;
constexpr double kBeta = 0.06672455060314922;
constexpr double kGamma = 0.031090690869654895;  // (1 - ln 2) / pi^2
}  // namespace

double pbe_fx(double s2) { return 1.0 + kKappa - kKappa / (1.0 + kMu * s2 / kKappa); }

double pbe_h(double rho, double t2) {
  const double rs = std::cbrt(3.0 / (4.0 * kPi * rho));
  const double ec = pw92_ec(rs).first;
  const double expo = std::exp(-ec / kGamma);
  const double a = (kBeta / kGamma) / std::max(expo - 1.0, 1e-300);
  const double num = 1.0 + a * t2;
  const double den = 1.0 + a * t2 + a * a * t2 * t2;
  return kGamma * std::log(1.0 + (kBeta / kGamma) * t2 * num / den);
}

double GgaPbe::energy_density(double rho, double sigma) {
  const double r = std::max(rho, 1e-14);
  const double sg = std::max(sigma, 0.0);
  const double kf = std::cbrt(3.0 * kPi * kPi * r);
  // Exchange: rho * ex_LDA * Fx(s^2).
  const double s2 = sg / (4.0 * kf * kf * r * r);
  const double ex = kExLda * std::cbrt(r) * pbe_fx(s2);
  // Correlation: rho * (ec_PW92 + H(t^2)), t = |grad rho| / (2 ks rho).
  const double ks2 = 4.0 * kf / kPi;
  const double t2 = sg / (4.0 * ks2 * r * r);
  const double rs = std::cbrt(3.0 / (4.0 * kPi * r));
  const double ec = pw92_ec(rs).first + pbe_h(r, t2);
  return r * (ex + ec);
}

void GgaPbe::evaluate(const std::vector<double>& rho, const std::vector<double>& sigma,
                      std::vector<double>& exc, std::vector<double>& vrho,
                      std::vector<double>& vsigma) const {
  const std::size_t n = rho.size();
  exc.resize(n);
  vrho.resize(n);
  vsigma.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double r = std::max(rho[i], 1e-12);
    const double sg = std::max(sigma.empty() ? 0.0 : sigma[i], 0.0);
    const double e = energy_density(r, sg);
    exc[i] = e / r;
    const double hr = 1e-6 * r;
    vrho[i] = (energy_density(r + hr, sg) - energy_density(r - hr, sg)) / (2.0 * hr);
    const double hs = std::max(1e-6 * sg, 1e-14);
    vsigma[i] = (energy_density(r, sg + hs) - energy_density(r, std::max(sg - hs, 0.0))) /
                (hs + std::min(sg, hs));
  }
}

}  // namespace dftfe::xc
