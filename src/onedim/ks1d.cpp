#include "onedim/ks1d.hpp"

#include <cmath>

#include "la/eig.hpp"
#include "obs/log.hpp"

namespace dftfe::onedim {

KohnSham1D::KohnSham1D(const qmb::Grid1D& grid, qmb::Molecule1D mol,
                       std::shared_ptr<const Xc1D> xc, Ks1DOptions opt)
    : grid_(grid), mol_(std::move(mol)), xc_(std::move(xc)), opt_(opt) {}

void KohnSham1D::diagonalize(const qmb::Grid1D& grid, const std::vector<double>& v_ks,
                             index_t nstates, std::vector<double>& evals,
                             la::MatrixD& orbitals) {
  const la::MatrixD H = qmb::one_electron_hamiltonian(grid, v_ks);
  std::vector<double> ev;
  la::MatrixD V;
  la::symmetric_eig(H, ev, V);
  const index_t k = std::min<index_t>(nstates, grid.n);
  evals.assign(ev.begin(), ev.begin() + k);
  orbitals.resize(grid.n, k);
  for (index_t j = 0; j < k; ++j)
    std::copy(V.col(j), V.col(j) + grid.n, orbitals.col(j));
}

std::vector<double> KohnSham1D::hartree(const qmb::Grid1D& grid,
                                        const std::vector<double>& rho, double softening) {
  std::vector<double> vh(grid.n, 0.0);
  for (index_t i = 0; i < grid.n; ++i) {
    double s = 0.0;
    for (index_t j = 0; j < grid.n; ++j)
      s += rho[j] * qmb::soft_coulomb(grid.x(i) - grid.x(j), softening);
    vh[i] = s * grid.h;
  }
  return vh;
}

std::vector<double> KohnSham1D::gradient_squared(const qmb::Grid1D& grid,
                                                 const std::vector<double>& rho) {
  std::vector<double> sg(grid.n, 0.0);
  const double c1 = 2.0 / 3.0, c2 = -1.0 / 12.0;
  auto at = [&](index_t i) { return (i < 0 || i >= grid.n) ? 0.0 : rho[i]; };
  for (index_t i = 0; i < grid.n; ++i) {
    const double d = (c2 * at(i + 2) + c1 * at(i + 1) - c1 * at(i - 1) - c2 * at(i - 2)) / grid.h;
    sg[i] = d * d;
  }
  return sg;
}

Ks1DResult KohnSham1D::solve() {
  const index_t n = grid_.n;
  const int nocc = mol_.n_electrons / 2;  // closed shell
  const index_t nstates = nocc + 4;
  const auto vext = qmb::external_potential(grid_, mol_);

  // Initial density: normalized Gaussians on the nuclei.
  std::vector<double> rho(n, 0.0);
  for (const auto& nuc : mol_.nuclei)
    for (index_t i = 0; i < n; ++i)
      rho[i] += nuc.Z / std::sqrt(kPi) * std::exp(-(grid_.x(i) - nuc.x) * (grid_.x(i) - nuc.x));
  double q = 0.0;
  for (double v : rho) q += v * grid_.h;
  for (double& v : rho) v *= mol_.n_electrons / q;

  Ks1DResult result;
  std::vector<double> evals;
  la::MatrixD orb;
  std::vector<double> vh, vxc(n, 0.0), exc, vrho, vsigma, sigma;

  for (int iter = 0; iter < opt_.max_iterations; ++iter) {
    vh = hartree(grid_, rho, mol_.b);
    double e_xc = 0.0;
    if (xc_) {
      if (xc_->needs_gradient())
        sigma = gradient_squared(grid_, rho);
      else
        sigma.assign(n, 0.0);
      xc_->evaluate(rho, sigma, exc, vrho, vsigma);
      vxc = vrho;
      if (xc_->needs_gradient()) {
        // v_xc -= 2 d/dx (vsigma rho'):
        std::vector<double> grad(n);
        const double c1 = 2.0 / 3.0, c2 = -1.0 / 12.0;
        auto at = [&](const std::vector<double>& f, index_t i) {
          return (i < 0 || i >= n) ? 0.0 : f[i];
        };
        for (index_t i = 0; i < n; ++i)
          grad[i] = (c2 * at(rho, i + 2) + c1 * at(rho, i + 1) - c1 * at(rho, i - 1) -
                     c2 * at(rho, i - 2)) / grid_.h;
        std::vector<double> w(n);
        for (index_t i = 0; i < n; ++i) w[i] = vsigma[i] * grad[i];
        for (index_t i = 0; i < n; ++i)
          vxc[i] -= 2.0 * (c2 * at(w, i + 2) + c1 * at(w, i + 1) - c1 * at(w, i - 1) -
                           c2 * at(w, i - 2)) / grid_.h;
      }
      for (index_t i = 0; i < n; ++i) e_xc += rho[i] * exc[i] * grid_.h;
    } else {
      std::fill(vxc.begin(), vxc.end(), 0.0);
    }

    std::vector<double> vks(n);
    for (index_t i = 0; i < n; ++i) vks[i] = vext[i] + vh[i] + vxc[i];
    diagonalize(grid_, vks, nstates, evals, orb);

    std::vector<double> rho_out(n, 0.0);
    for (int j = 0; j < nocc; ++j)
      for (index_t i = 0; i < n; ++i) rho_out[i] += 2.0 * orb(i, j) * orb(i, j) / grid_.h;

    double res = 0.0;
    for (index_t i = 0; i < n; ++i) res = std::max(res, std::abs(rho_out[i] - rho[i]) * grid_.h);
    result.iterations = iter + 1;
    DFTFE_LOG_AT(obs::level_for(opt_.verbose)) << "  [ks1d] iter " << iter << " res " << res;

    const bool done = (res < opt_.density_tol) || (iter + 1 == opt_.max_iterations);
    if (done) {
      result.converged = res < opt_.density_tol;
      // Total energy with the output density (faithful even if unconverged).
      double band = 0.0;
      for (int j = 0; j < nocc; ++j) band += 2.0 * evals[j];
      double e_h = 0.0, n_vxc = 0.0;
      for (index_t i = 0; i < n; ++i) {
        e_h += 0.5 * rho_out[i] * vh[i] * grid_.h;
        n_vxc += rho_out[i] * vxc[i] * grid_.h;
      }
      // band = Ts + int rho (vext + vh + vxc); E = Ts + Eext + EH + Exc + Enn.
      result.energy = band - e_h - n_vxc + e_xc + qmb::nuclear_repulsion(mol_);
      result.density = rho_out;
      result.eigenvalues = evals;
      result.v_hartree = vh;
      result.v_xc = vxc;
      return result;
    }
    for (index_t i = 0; i < n; ++i)
      rho[i] = std::max(rho[i] + opt_.mixing * (rho_out[i] - rho[i]), 0.0);
    double qq = 0.0;
    for (double v : rho) qq += v * grid_.h;
    for (double& v : rho) v *= mol_.n_electrons / qq;
  }
  return result;  // unreachable for max_iterations >= 1
}

}  // namespace dftfe::onedim
