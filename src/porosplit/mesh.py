"""Structured rectangular mesh with cell/edge/node index maps.

Numbering conventions (nx x ny cells on [0,Lx] x [0,Ly]):

* cells:      c = j*nx + i                         for i < nx, j < ny
* nodes:      v = j*(nx+1) + i                     for i <= nx, j <= ny
* vertical edges (unit normal +x), at x_i spanning [y_j, y_j+1]:
              e = j*(nx+1) + i
* horizontal edges (unit normal +y), at y_j spanning [x_i, x_i+1]:
              e = n_vertical + j*nx + i

Flux degrees of freedom are constant normal components on edges with the
global +x/+y orientation.  ``cell_xy``, ``edge_xy`` and ``node_xy`` are
integer half-grid coordinates, in units of (hx/2, hy/2).  Boundary tags partition the boundary edges into
left/right/bottom/top; the sub-segment of the top boundary with
x in [0, inflow_width] carries the additional "inflow" tag.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["MeshAlignmentError", "RectMesh", "whole_multiple"]


class MeshAlignmentError(ValueError):
    """Raised when the inflow strip does not align with cell edges."""


def whole_multiple(length: float, unit: float) -> int | None:
    """``length / unit`` when it is a whole number to within 1e-9, else None
    (also when it is not finite): the cells of width hx the inflow strip
    covers, or the time steps tau a transient of length T takes."""
    ratio = float(length) / float(unit)
    if math.isfinite(ratio) and abs(ratio - round(ratio)) <= 1e-9:
        return round(ratio)
    return None


class RectMesh:
    """Uniform rectangular grid with the top strip x in [0, inflow_width]
    tagged as inflow.  The strip must align with cell edges."""

    def __init__(self, nx: int, ny: int, Lx: float, Ly: float, inflow_width: float):
        if not (nx >= 1 and ny >= 1):
            raise ValueError("nx and ny must be >= 1")
        if not (Lx > 0 and Ly > 0):
            raise ValueError("Lx and Ly must be positive")
        if not 0.0 <= inflow_width <= Lx:
            raise ValueError("inflow_width must lie in [0, Lx]")
        self.nx, self.ny = int(nx), int(ny)
        self.Lx, self.Ly = float(Lx), float(Ly)
        self.hx = self.Lx / self.nx
        self.hy = self.Ly / self.ny
        self.inflow_width = float(inflow_width)
        self._n_inflow_cells = whole_multiple(inflow_width, self.hx)
        if self._n_inflow_cells is None:
            raise MeshAlignmentError(
                f"inflow_width={inflow_width} is not a multiple of hx={self.hx}")

        self.n_cells = self.nx * self.ny
        self.n_nodes = (self.nx + 1) * (self.ny + 1)
        self.n_vedges = (self.nx + 1) * self.ny
        self.n_hedges = self.nx * (self.ny + 1)
        self.n_edges = self.n_vedges + self.n_hedges
        self.cell_area = self.hx * self.hy

        ii, jj = np.meshgrid(np.arange(self.nx), np.arange(self.ny), indexing="xy")
        ii, jj = ii.ravel(), jj.ravel()
        # columns: west, east, south, north
        self.cell_edges = np.column_stack(
            [
                jj * (self.nx + 1) + ii,
                jj * (self.nx + 1) + ii + 1,
                self.n_vedges + jj * self.nx + ii,
                self.n_vedges + (jj + 1) * self.nx + ii,
            ]
        )
        # columns: SW, SE, NE, NW (counter-clockwise)
        self.cell_nodes = np.column_stack(
            [
                jj * (self.nx + 1) + ii,
                jj * (self.nx + 1) + ii + 1,
                (jj + 1) * (self.nx + 1) + ii + 1,
                (jj + 1) * (self.nx + 1) + ii,
            ]
        )
        self.cell_centers = np.column_stack(
            [(ii + 0.5) * self.hx, (jj + 0.5) * self.hy]
        )
        self.cell_xy = 2 * np.column_stack([ii, jj]) + 1

        vi, vj = np.meshgrid(np.arange(self.nx + 1), np.arange(self.ny + 1), indexing="xy")
        self.node_coords = np.column_stack([vi.ravel() * self.hx, vj.ravel() * self.hy])
        self.node_xy = 2 * np.column_stack([vi.ravel(), vj.ravel()])
        # edges are numbered as their south (vertical) or west (horizontal) end
        west_ends = self.node_xy.reshape(self.ny + 1, self.nx + 1, 2)[:, :-1].reshape(-1, 2)
        self.edge_xy = np.concatenate([self.node_xy[:self.n_vedges] + (0, 1), west_ends + (1, 0)])

        jv = np.arange(self.ny)
        left = jv * (self.nx + 1)
        right = jv * (self.nx + 1) + self.nx
        ih = np.arange(self.nx)
        bottom = self.n_vedges + ih
        top = self.n_vedges + self.ny * self.nx + ih
        inflow = top[:self._n_inflow_cells]
        self.boundary_edges = {
            "left": left,
            "right": right,
            "bottom": bottom,
            "top": top,
            "inflow": inflow,
        }
        self.all_boundary_edges = np.sort(np.concatenate([left, right, bottom, top]))

        self.left_nodes = np.arange(self.ny + 1) * (self.nx + 1)
        self.right_nodes = self.left_nodes + self.nx
        self.bottom_nodes = np.arange(self.nx + 1)
        # read-only: a write would desynchronise the operators assembled from them
        for a in (self.cell_edges, self.cell_nodes, self.cell_centers, self.cell_xy,
                  self.node_coords, self.node_xy, self.edge_xy, self.all_boundary_edges,
                  self.left_nodes, self.right_nodes, self.bottom_nodes,
                  *self.boundary_edges.values()):
            a.flags.writeable = False

    def __repr__(self):
        return (
            f"RectMesh({self.nx}x{self.ny}, [0,{self.Lx}]x[0,{self.Ly}], "
            f"inflow_width={self.inflow_width})"
        )
