#include "fe/dofs.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dftfe::fe {

DofHandler::DofHandler(const Mesh& mesh, int degree) : mesh_(&mesh), degree_(degree) {
  if (degree < 1 || degree > 12) throw std::invalid_argument("DofHandler: degree out of range");
  ref_nodes_ = gll_nodes(degree + 1);
  ref_weights_ = gll_weights(ref_nodes_);
  const auto K1 = reference_stiffness_1d(degree + 1);

  for (int d = 0; d < 3; ++d) {
    const Axis& ax = mesh.axis(d);
    const index_t nc = ax.ncells();
    naxis_[d] = ax.periodic ? nc * degree : nc * degree + 1;
    coords_[d].assign(naxis_[d], 0.0);
    mass1d_[d].assign(naxis_[d], 0.0);
    kdiag1d_[d].assign(naxis_[d], 0.0);
    for (index_t c = 0; c < nc; ++c) {
      const double h = ax.cell_size(c);
      const double x0 = ax.nodes[c];
      for (int i = 0; i <= degree; ++i) {
        const index_t g = axis_dof(d, c, i);
        coords_[d][g] = x0 + 0.5 * (ref_nodes_[i] + 1.0) * h;
        mass1d_[d][g] += ref_weights_[i] * 0.5 * h;
        kdiag1d_[d][g] += K1(i, i) * 2.0 / h;
      }
    }
    if (ax.periodic) coords_[d][0] = ax.nodes[0];  // wrapped first node
  }

  // Materialize the separable mass and Laplacian diagonals.
  const index_t n = ndofs();
  mass_.resize(n);
  kdiag_.resize(n);
  boundary_mask_.assign(n, 0.0);
  const index_t Nx = naxis_[0], Ny = naxis_[1];
  for (index_t g = 0; g < n; ++g) {
    const index_t gx = g % Nx, gy = (g / Nx) % Ny, gz = g / (Nx * Ny);
    const double mx = mass1d_[0][gx], my = mass1d_[1][gy], mz = mass1d_[2][gz];
    mass_[g] = mx * my * mz;
    kdiag_[g] = kdiag1d_[0][gx] * my * mz + mx * kdiag1d_[1][gy] * mz + mx * my * kdiag1d_[2][gz];
    const bool bx = !mesh.axis(0).periodic && (gx == 0 || gx == Nx - 1);
    const bool by = !mesh.axis(1).periodic && (gy == 0 || gy == Ny - 1);
    const bool bz = !mesh.axis(2).periodic && (gz == 0 || gz == naxis_[2] - 1);
    if (bx || by || bz) {
      boundary_.push_back(g);
      boundary_mask_[g] = 1.0;
    }
  }
}

void DofHandler::cell_dofs(index_t cell, std::vector<index_t>& dofs) const {
  const int n = degree_ + 1;
  dofs.resize(static_cast<std::size_t>(n) * n * n);
  const auto cc = mesh_->cell_coords(cell);
  const index_t Nx = naxis_[0], Ny = naxis_[1];
  std::size_t idx = 0;
  for (int k = 0; k < n; ++k) {
    const index_t gz = axis_dof(2, cc[2], k);
    for (int j = 0; j < n; ++j) {
      const index_t gy = axis_dof(1, cc[1], j);
      const index_t base = Nx * (gy + Ny * gz);
      for (int i = 0; i < n; ++i) dofs[idx++] = axis_dof(0, cc[0], i) + base;
    }
  }
}

std::array<double, 3> DofHandler::dof_point(index_t g) const {
  const index_t Nx = naxis_[0], Ny = naxis_[1];
  const index_t gx = g % Nx, gy = (g / Nx) % Ny, gz = g / (Nx * Ny);
  return {coords_[0][gx], coords_[1][gy], coords_[2][gz]};
}

double DofHandler::integrate(const std::vector<double>& f) const {
  double s = 0.0;
  const index_t n = ndofs();
  for (index_t i = 0; i < n; ++i) s += mass_[i] * f[i];
  return s;
}

double DofHandler::evaluate(const std::vector<double>& f, double x, double y, double z) const {
  const double pt[3] = {x, y, z};
  std::array<index_t, 3> cell;
  std::array<std::vector<double>, 3> shp;
  for (int d = 0; d < 3; ++d) {
    const Axis& ax = mesh_->axis(d);
    double v = pt[d];
    if (ax.periodic) {
      const double L = ax.length();
      v = v - std::floor((v - ax.nodes.front()) / L) * L;
    }
    auto it = std::upper_bound(ax.nodes.begin(), ax.nodes.end(), v);
    index_t c = std::clamp<index_t>(static_cast<index_t>(it - ax.nodes.begin()) - 1, 0,
                                    ax.ncells() - 1);
    cell[d] = c;
    const double h = ax.cell_size(c);
    const double xi = 2.0 * (v - ax.nodes[c]) / h - 1.0;
    shp[d] = lagrange_eval(ref_nodes_, xi);
  }
  const int n = degree_ + 1;
  const index_t Nx = naxis_[0], Ny = naxis_[1];
  double s = 0.0;
  for (int k = 0; k < n; ++k) {
    const index_t gz = axis_dof(2, cell[2], k);
    for (int j = 0; j < n; ++j) {
      const index_t gy = axis_dof(1, cell[1], j);
      double sx = 0.0;
      for (int i = 0; i < n; ++i)
        sx += f[axis_dof(0, cell[0], i) + Nx * (gy + Ny * gz)] * shp[0][i];
      s += sx * shp[1][j] * shp[2][k];
    }
  }
  return s;
}

}  // namespace dftfe::fe
