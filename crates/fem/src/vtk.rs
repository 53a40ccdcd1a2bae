//! Legacy-VTK output of DG fields (what a downstream user visualizes the
//! lung flow with).
//!
//! Each active cell is written as `k³` linear sub-hexahedra with the nodal
//! values attached to their vertices — the standard lossy-but-faithful way
//! to render high-order DG solutions. Scalar and vector fields share one
//! grid; positions come from the polynomial mapping so curved geometry is
//! rendered curved (to sub-cell resolution).

use crate::matrixfree::MatrixFree;
use dgflow_simd::Real;
use std::io::{self, Write};

/// A field to attach to the output grid.
pub enum VtkField<'a, T> {
    /// One value per scalar DoF.
    Scalar(&'a str, &'a [T]),
    /// Velocity-layout vector field (`[cell][comp][node]`).
    Vector(&'a str, &'a [T]),
}

/// Write a legacy-ASCII VTK unstructured grid with the given fields.
pub fn write_vtk<T: Real, const L: usize>(
    mf: &MatrixFree<T, L>,
    fields: &[VtkField<'_, T>],
    out: &mut dyn Write,
) -> io::Result<()> {
    let n1 = mf.n_1d();
    let k = n1 - 1;
    let dpc = mf.dofs_per_cell;
    let n_cells = mf.n_cells;
    writeln!(out, "# vtk DataFile Version 3.0")?;
    writeln!(out, "dgflow DG field export")?;
    writeln!(out, "ASCII")?;
    writeln!(out, "DATASET UNSTRUCTURED_GRID")?;
    // points: per-cell nodal lattice (duplicated across cells — DG!)
    writeln!(out, "POINTS {} double", n_cells * dpc)?;
    for p in mf.mapping.grid_positions(&mf.shape.nodes) {
        writeln!(out, "{} {} {}", p[0], p[1], p[2])?;
    }
    // sub-hex connectivity
    let subs_per_cell = k * k * k;
    let n_sub = n_cells * subs_per_cell;
    writeln!(out, "CELLS {} {}", n_sub, 9 * n_sub)?;
    let node = |i0: usize, i1: usize, i2: usize| i0 + n1 * (i1 + n1 * i2);
    for c in 0..n_cells {
        let base = c * dpc;
        for i2 in 0..k {
            for i1 in 0..k {
                for i0 in 0..k {
                    // VTK_HEXAHEDRON ordering
                    writeln!(
                        out,
                        "8 {} {} {} {} {} {} {} {}",
                        base + node(i0, i1, i2),
                        base + node(i0 + 1, i1, i2),
                        base + node(i0 + 1, i1 + 1, i2),
                        base + node(i0, i1 + 1, i2),
                        base + node(i0, i1, i2 + 1),
                        base + node(i0 + 1, i1, i2 + 1),
                        base + node(i0 + 1, i1 + 1, i2 + 1),
                        base + node(i0, i1 + 1, i2 + 1),
                    )?;
                }
            }
        }
    }
    writeln!(out, "CELL_TYPES {n_sub}")?;
    for _ in 0..n_sub {
        writeln!(out, "12")?;
    }
    writeln!(out, "POINT_DATA {}", n_cells * dpc)?;
    for f in fields {
        match f {
            VtkField::Scalar(name, data) => {
                assert_eq!(data.len(), n_cells * dpc);
                writeln!(out, "SCALARS {name} double 1")?;
                writeln!(out, "LOOKUP_TABLE default")?;
                for v in data.iter() {
                    writeln!(out, "{}", v.to_f64())?;
                }
            }
            VtkField::Vector(name, data) => {
                assert_eq!(data.len(), 3 * n_cells * dpc);
                writeln!(out, "VECTORS {name} double")?;
                for c in 0..n_cells {
                    let base = c * 3 * dpc;
                    for i in 0..dpc {
                        writeln!(
                            out,
                            "{} {} {}",
                            data[base + i].to_f64(),
                            data[base + dpc + i].to_f64(),
                            data[base + 2 * dpc + i].to_f64()
                        )?;
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrixfree::MfParams;
    use dgflow_mesh::{CoarseMesh, Forest, TrilinearManifold};

    #[test]
    fn vtk_output_is_well_formed() {
        let mut forest = Forest::new(CoarseMesh::hyper_cube());
        forest.refine_global(1);
        let manifold = TrilinearManifold::from_forest(&forest);
        let mf: MatrixFree<f64, 4> = MatrixFree::new(&forest, &manifold, MfParams::dg(2));
        let p = crate::operators::interpolate(&mf, &|x| x[0]);
        let mut u = vec![0.0; 3 * mf.n_dofs()];
        u[0] = 1.0;
        let mut buf = Vec::new();
        write_vtk(
            &mf,
            &[
                VtkField::Scalar("pressure", &p),
                VtkField::Vector("velocity", &u),
            ],
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("# vtk DataFile"));
        assert!(text.contains("POINTS 216 double")); // 8 cells × 27 nodes
        assert!(text.contains("CELLS 64 576")); // 8 cells × 8 sub-hexes
        assert!(text.contains("SCALARS pressure"));
        assert!(text.contains("VECTORS velocity"));
        // every sub-hex line has 9 integers
        let cells_section: Vec<&str> = text
            .split("CELLS 64 576\n")
            .nth(1)
            .unwrap()
            .lines()
            .take(64)
            .collect();
        for line in cells_section {
            assert_eq!(line.split_whitespace().count(), 9);
        }
    }
}
