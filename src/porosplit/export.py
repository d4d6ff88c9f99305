"""Field export: cell/point CSV and legacy-VTK rectilinear files."""

from __future__ import annotations

import csv

import numpy as np

from .mesh import RectMesh

__all__ = ["cell_flux_vectors", "write_cell_csv", "write_point_csv", "write_vtk"]


def cell_flux_vectors(mesh: RectMesh, q: np.ndarray) -> np.ndarray:
    """Cell-centered flux vectors from the RT0 edge coefficients."""
    ce = mesh.cell_edges
    qx = 0.5 * (q[ce[:, 0]] + q[ce[:, 1]])
    qy = 0.5 * (q[ce[:, 2]] + q[ce[:, 3]])
    return np.column_stack([qx, qy])


def write_cell_csv(path, mesh: RectMesh, fields: dict):
    """Cell-centered scalars: one row per cell with coordinates."""
    names = list(fields)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y"] + names)
        for c in range(mesh.n_cells):
            row = [f"{mesh.cell_centers[c, 0]:.9g}", f"{mesh.cell_centers[c, 1]:.9g}"]
            row += [f"{fields[n][c]:.12g}" for n in names]
            writer.writerow(row)


def write_point_csv(path, mesh: RectMesh, u: np.ndarray):
    """Nodal displacement vectors (block-ordered coefficients)."""
    n = mesh.n_nodes
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "ux", "uy"])
        for v in range(n):
            writer.writerow(
                [f"{mesh.node_coords[v, 0]:.9g}", f"{mesh.node_coords[v, 1]:.9g}",
                 f"{u[v]:.12g}", f"{u[n + v]:.12g}"]
            )


def write_vtk(path, mesh: RectMesh, cell_fields: dict, u: np.ndarray):
    """Legacy-VTK rectilinear grid with cell scalars and nodal displacement."""
    n = mesh.n_nodes
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("porosplit fields\nASCII\nDATASET RECTILINEAR_GRID\n")
        fh.write(f"DIMENSIONS {mesh.nx + 1} {mesh.ny + 1} 1\n")
        xs = " ".join(f"{i * mesh.hx:.9g}" for i in range(mesh.nx + 1))
        ys = " ".join(f"{j * mesh.hy:.9g}" for j in range(mesh.ny + 1))
        fh.write(f"X_COORDINATES {mesh.nx + 1} double\n{xs}\n")
        fh.write(f"Y_COORDINATES {mesh.ny + 1} double\n{ys}\n")
        fh.write("Z_COORDINATES 1 double\n0\n")
        if cell_fields:
            fh.write(f"CELL_DATA {mesh.n_cells}\n")
            for name, values in cell_fields.items():
                fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                fh.write("\n".join(f"{v:.12g}" for v in values))
                fh.write("\n")
        fh.write(f"POINT_DATA {n}\nVECTORS displacement double\n")
        for v in range(n):
            fh.write(f"{u[v]:.12g} {u[n + v]:.12g} 0\n")
