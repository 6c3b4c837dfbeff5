#include "pic/mesh.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

namespace tlb::pic {
namespace {

MeshConfig small_config() {
  MeshConfig cfg;
  cfg.ranks_x = 2;
  cfg.ranks_y = 2;
  cfg.colors_x = 3;
  cfg.colors_y = 2;
  cfg.color_cells_x = 4;
  cfg.color_cells_y = 5;
  return cfg;
}

TEST(Mesh, GeometryDerivedFromConfig) {
  Mesh const mesh{small_config()};
  EXPECT_EQ(mesh.cells_x(), 2 * 3 * 4);
  EXPECT_EQ(mesh.cells_y(), 2 * 2 * 5);
  EXPECT_EQ(mesh.num_ranks(), 4);
  EXPECT_EQ(mesh.colors_per_rank(), 6);
  EXPECT_EQ(mesh.num_colors(), 24);
  EXPECT_EQ(mesh.cells_per_color(), 20);
  EXPECT_EQ(mesh.cells_per_rank(), 120);
}

TEST(Mesh, HomeRankBlocksOfColors) {
  Mesh const mesh{small_config()};
  for (ColorId c = 0; c < mesh.num_colors(); ++c) {
    EXPECT_EQ(mesh.home_rank_of_color(c), c / mesh.colors_per_rank());
  }
}

TEST(Mesh, ColorOfCellCornerCases) {
  Mesh const mesh{small_config()};
  // Cell (0,0) is color 0 of rank 0.
  EXPECT_EQ(mesh.color_of_cell(0, 0), 0);
  // Last cell belongs to the last color of the last rank.
  EXPECT_EQ(mesh.color_of_cell(mesh.cells_x() - 1, mesh.cells_y() - 1),
            mesh.num_colors() - 1);
}

TEST(Mesh, EveryCellMapsToExactlyOneColorWithRightSize) {
  Mesh const mesh{small_config()};
  std::vector<int> counts(static_cast<std::size_t>(mesh.num_colors()), 0);
  for (int cy = 0; cy < mesh.cells_y(); ++cy) {
    for (int cx = 0; cx < mesh.cells_x(); ++cx) {
      auto const c = mesh.color_of_cell(cx, cy);
      ASSERT_GE(c, 0);
      ASSERT_LT(c, mesh.num_colors());
      ++counts[static_cast<std::size_t>(c)];
    }
  }
  for (int const n : counts) {
    EXPECT_EQ(n, mesh.cells_per_color());
  }
}

TEST(Mesh, ColorOfCellConsistentWithHomeRankGeometry) {
  Mesh const mesh{small_config()};
  // Every cell's color must home to the rank block containing the cell.
  int const block_x = 3 * 4;
  int const block_y = 2 * 5;
  for (int cy = 0; cy < mesh.cells_y(); ++cy) {
    for (int cx = 0; cx < mesh.cells_x(); ++cx) {
      auto const c = mesh.color_of_cell(cx, cy);
      int const expected_rank = (cy / block_y) * 2 + (cx / block_x);
      EXPECT_EQ(mesh.home_rank_of_color(c), expected_rank);
    }
  }
}

TEST(Mesh, PositionMappingMatchesCellMapping) {
  Mesh const mesh{small_config()};
  EXPECT_EQ(mesh.color_of_position(0.5, 0.5), mesh.color_of_cell(0, 0));
  EXPECT_EQ(mesh.color_of_position(4.0, 0.0), mesh.color_of_cell(4, 0));
  // Clamping out-of-domain positions.
  EXPECT_EQ(mesh.color_of_position(-3.0, -3.0), mesh.color_of_cell(0, 0));
  EXPECT_EQ(mesh.color_of_position(1e9, 1e9),
            mesh.color_of_cell(mesh.cells_x() - 1, mesh.cells_y() - 1));
}

TEST(Mesh, ColorCellsAreExactlyTheCellsOfTheColor) {
  // Exhaustive over cells, on meshes with 1 x 1-cell colors and with
  // non-square colors, color blocks and rank grids.
  std::vector<MeshConfig> const configs{
      small_config(),
      {.ranks_x = 3, .ranks_y = 2, .colors_x = 2, .colors_y = 3,
       .color_cells_x = 1, .color_cells_y = 1},
      {.ranks_x = 1, .ranks_y = 3, .colors_x = 4, .colors_y = 1,
       .color_cells_x = 3, .color_cells_y = 2},
      {.ranks_x = 2, .ranks_y = 1, .colors_x = 1, .colors_y = 2,
       .color_cells_x = 1, .color_cells_y = 4},
  };
  for (MeshConfig const& cfg : configs) {
    Mesh const mesh{cfg};
    for (ColorId c = 0; c < mesh.num_colors(); ++c) {
      CellRect const r = mesh.color_cells(c);
      EXPECT_EQ(r.x1 - r.x0, cfg.color_cells_x);
      EXPECT_EQ(r.y1 - r.y0, cfg.color_cells_y);
      for (int cy = 0; cy < mesh.cells_y(); ++cy) {
        for (int cx = 0; cx < mesh.cells_x(); ++cx) {
          bool const inside =
              cx >= r.x0 && cx < r.x1 && cy >= r.y0 && cy < r.y1;
          ASSERT_EQ(mesh.color_of_cell(cx, cy) == c, inside)
              << "color " << c << " cell (" << cx << ", " << cy << ")";
        }
      }
    }
  }
}

TEST(Mesh, PositionInColorCellsIffPositionMapsToColor) {
  // The half-open rectangle test PicApp::exchange makes per particle, at
  // both edges of every cell: x0 <= x < x1 exactly when floor(x) is one
  // of the color's columns.
  Mesh const mesh{small_config()};
  for (ColorId c = 0; c < mesh.num_colors(); ++c) {
    CellRect const r = mesh.color_cells(c);
    for (int cy = 0; cy < mesh.cells_y(); ++cy) {
      for (int cx = 0; cx < mesh.cells_x(); ++cx) {
        double const xs[] = {static_cast<double>(cx),
                             std::nextafter(cx + 1.0, 0.0)};
        double const ys[] = {static_cast<double>(cy),
                             std::nextafter(cy + 1.0, 0.0)};
        for (double const x : xs) {
          for (double const y : ys) {
            bool const inside = x >= r.x0 && x < r.x1 && y >= r.y0 &&
                                y < r.y1;
            ASSERT_EQ(mesh.color_of_position(x, y) == c, inside)
                << "color " << c << " at (" << x << ", " << y << ")";
          }
        }
      }
    }
  }
}

TEST(Mesh, ColorCenterInsideColor) {
  Mesh const mesh{small_config()};
  for (ColorId c = 0; c < mesh.num_colors(); ++c) {
    auto const [x, y] = mesh.color_center(c);
    EXPECT_EQ(mesh.color_of_position(x, y), c);
  }
}

TEST(Mesh, PaperScaleConfig) {
  // The paper's 24-colors-per-rank overdecomposition at 400 ranks.
  MeshConfig cfg;
  cfg.ranks_x = 20;
  cfg.ranks_y = 20;
  cfg.colors_x = 6;
  cfg.colors_y = 4;
  cfg.color_cells_x = 4;
  cfg.color_cells_y = 4;
  Mesh const mesh{cfg};
  EXPECT_EQ(mesh.num_ranks(), 400);
  EXPECT_EQ(mesh.colors_per_rank(), 24);
  EXPECT_EQ(mesh.num_colors(), 9600);
}

TEST(MeshDeath, InvalidConfigAborts) {
  MeshConfig cfg = small_config();
  cfg.ranks_x = 0;
  EXPECT_DEATH(Mesh{cfg}, "precondition");
}

} // namespace
} // namespace tlb::pic
