#include "pic/mesh.hpp"

#include <algorithm>
#include <cmath>

#include "support/assert.hpp"

namespace tlb::pic {

Mesh::Mesh(MeshConfig config) : config_{config} {
  TLB_EXPECTS(config.ranks_x > 0 && config.ranks_y > 0);
  TLB_EXPECTS(config.colors_x > 0 && config.colors_y > 0);
  TLB_EXPECTS(config.color_cells_x > 0 && config.color_cells_y > 0);
  cells_x_ = config.ranks_x * config.colors_x * config.color_cells_x;
  cells_y_ = config.ranks_y * config.colors_y * config.color_cells_y;
}

RankId Mesh::num_ranks() const {
  return static_cast<RankId>(config_.ranks_x * config_.ranks_y);
}

int Mesh::colors_per_rank() const {
  return config_.colors_x * config_.colors_y;
}

int Mesh::num_colors() const {
  return static_cast<int>(num_ranks()) * colors_per_rank();
}

int Mesh::cells_per_color() const {
  return config_.color_cells_x * config_.color_cells_y;
}

int Mesh::cells_per_rank() const {
  return colors_per_rank() * cells_per_color();
}

RankId Mesh::home_rank_of_color(ColorId color) const {
  TLB_EXPECTS(color >= 0 && color < num_colors());
  return static_cast<RankId>(color / colors_per_rank());
}

ColorId Mesh::color_of_cell(int cx, int cy) const {
  TLB_EXPECTS(cx >= 0 && cx < cells_x_);
  TLB_EXPECTS(cy >= 0 && cy < cells_y_);
  int const rank_block_x = config_.colors_x * config_.color_cells_x;
  int const rank_block_y = config_.colors_y * config_.color_cells_y;
  int const rx = cx / rank_block_x;
  int const ry = cy / rank_block_y;
  int const rank = ry * config_.ranks_x + rx;
  int const lx = (cx % rank_block_x) / config_.color_cells_x;
  int const ly = (cy % rank_block_y) / config_.color_cells_y;
  int const local_color = ly * config_.colors_x + lx;
  return static_cast<ColorId>(rank * colors_per_rank() + local_color);
}

ColorId Mesh::color_of_position(double x, double y) const {
  int const cx = std::clamp(static_cast<int>(std::floor(x)), 0,
                            cells_x_ - 1);
  int const cy = std::clamp(static_cast<int>(std::floor(y)), 0,
                            cells_y_ - 1);
  return color_of_cell(cx, cy);
}

CellRect Mesh::color_cells(ColorId color) const {
  TLB_EXPECTS(color >= 0 && color < num_colors());
  int const per_rank = colors_per_rank();
  int const rank = static_cast<int>(color) / per_rank;
  int const local = static_cast<int>(color) % per_rank;
  int const x0 =
      ((rank % config_.ranks_x) * config_.colors_x + local % config_.colors_x) *
      config_.color_cells_x;
  int const y0 =
      ((rank / config_.ranks_x) * config_.colors_y + local / config_.colors_x) *
      config_.color_cells_y;
  return {x0, y0, x0 + config_.color_cells_x, y0 + config_.color_cells_y};
}

std::pair<double, double> Mesh::color_center(ColorId color) const {
  CellRect const cells = color_cells(color);
  return {cells.x0 + 0.5 * config_.color_cells_x,
          cells.y0 + 0.5 * config_.color_cells_y};
}

} // namespace tlb::pic
