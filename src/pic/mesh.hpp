#pragma once

/// \file mesh.hpp
/// The 2D structured mesh with the paper's two-level decomposition
/// (Fig. 1): an SPMD block decomposition onto ranks, and a further
/// "coloring" overdecomposition of each rank's block into migratable
/// chunks. Cell size is 1.0, so positions live in [0, cells_x) x
/// [0, cells_y).

#include <utility>

#include "support/types.hpp"

namespace tlb::pic {

/// Color (task) identifier: globally unique across the mesh.
using ColorId = TaskId;

struct MeshConfig {
  int ranks_x = 8;        ///< SPMD rank grid width
  int ranks_y = 8;        ///< SPMD rank grid height
  int colors_x = 6;       ///< colors per rank block, x (6*4 = paper's 24)
  int colors_y = 4;       ///< colors per rank block, y
  int color_cells_x = 4;  ///< cells per color, x
  int color_cells_y = 4;  ///< cells per color, y
};

/// A half-open rectangle of cells, [x0, x1) x [y0, y1).
struct CellRect {
  int x0 = 0;
  int y0 = 0;
  int x1 = 0;
  int y1 = 0;
};

/// Immutable mesh geometry and decomposition arithmetic.
class Mesh {
public:
  explicit Mesh(MeshConfig config);

  [[nodiscard]] MeshConfig const& config() const { return config_; }

  [[nodiscard]] int cells_x() const { return cells_x_; }
  [[nodiscard]] int cells_y() const { return cells_y_; }
  [[nodiscard]] double domain_x() const {
    return static_cast<double>(cells_x_);
  }
  [[nodiscard]] double domain_y() const {
    return static_cast<double>(cells_y_);
  }

  [[nodiscard]] RankId num_ranks() const;
  [[nodiscard]] int colors_per_rank() const;
  [[nodiscard]] int num_colors() const;
  [[nodiscard]] int cells_per_color() const;
  [[nodiscard]] int cells_per_rank() const;

  /// The SPMD home rank of a color (Fig. 1b: the rank whose block the
  /// color subdivides). Load balancing may move the color elsewhere; the
  /// home is where SPMD mode pins it.
  [[nodiscard]] RankId home_rank_of_color(ColorId color) const;

  /// Color owning the cell at integer coordinates.
  [[nodiscard]] ColorId color_of_cell(int cx, int cy) const;

  /// Color owning a continuous position (clamped to the domain).
  [[nodiscard]] ColorId color_of_position(double x, double y) const;

  /// The cells a color owns: color_of_cell(cx, cy) == color exactly for
  /// the cells of this rectangle. Since cells are 1.0 wide, a position
  /// inside the domain lies in the color iff x0 <= x < x1 and
  /// y0 <= y < y1.
  [[nodiscard]] CellRect color_cells(ColorId color) const;

  /// Center position of a color's sub-block (for diagnostics).
  [[nodiscard]] std::pair<double, double> color_center(ColorId color) const;

private:
  MeshConfig config_;
  int cells_x_;
  int cells_y_;
};

} // namespace tlb::pic
