//! The sum-factorized metric terms against a per-point reference built
//! from `Mapping::jacobian`/`position`, on curved geometry: the bifurcation
//! under a smooth warp (every face orientation its coarse mesh has) and a
//! hanging-node cube under the same kind of warp (sub-faces).

use dgflow_fem::geometry::invert3;
use dgflow_fem::matrixfree::tangential;
use dgflow_fem::{MatrixFree, MfParams};
use dgflow_lung::{bifurcation_tree, mesh_airway_tree, MeshParams};
use dgflow_mesh::{CoarseMesh, Forest, Manifold, TrilinearManifold};
use dgflow_simd::{Real, Simd};
use dgflow_tensor::{NodeSet, ShapeInfo1D};
use std::collections::BTreeMap;
use std::f64::consts::PI;

const L: usize = 8;

/// A trilinear mesh under a smooth non-affine displacement of amplitude
/// `amp` and wavelength `len`.
struct Warped {
    base: TrilinearManifold,
    amp: f64,
    len: f64,
}

impl Warped {
    fn new(forest: &Forest, amp: f64, len: f64) -> Self {
        Self {
            base: TrilinearManifold::from_forest(forest),
            amp,
            len,
        }
    }
}

impl Manifold for Warped {
    fn position(&self, tree: usize, xi: [f64; 3]) -> [f64; 3] {
        let p = self.base.position(tree, xi);
        let w = |x: f64| self.amp * (2.0 * PI * x / self.len).sin();
        [p[0] + w(p[1]), p[1] + w(p[2]), p[2] + w(p[0])]
    }
}

fn bifurcation() -> (Forest, Warped) {
    let mesh = mesh_airway_tree(&bifurcation_tree(), MeshParams::default());
    let forest = Forest::new(mesh.coarse);
    let len = forest.coarse.diameter();
    let manifold = Warped::new(&forest, 0.01 * len, len);
    (forest, manifold)
}

fn hanging_cube() -> (Forest, Warped) {
    let mut forest = Forest::new(CoarseMesh::hyper_cube());
    forest.refine_global(1);
    let mut marks = vec![false; 8];
    marks[0] = true;
    marks[5] = true;
    forest.refine_active(&marks);
    let manifold = Warped::new(&forest, 0.04, 1.0);
    (forest, manifold)
}

/// One field flattened batch by batch: the built values, the per-point
/// reference, and whether the lane is filled.
#[derive(Default)]
struct Field {
    got: Vec<f64>,
    want: Vec<f64>,
    filled: Vec<bool>,
}

#[derive(Default)]
struct Fields(BTreeMap<&'static str, Field>);

impl Fields {
    fn push(&mut self, name: &'static str, got: &[Simd<f64, L>], want: &[[f64; L]], n: usize) {
        assert_eq!(got.len(), want.len(), "{name}: length");
        let field = self.0.entry(name).or_default();
        for (g, w) in got.iter().zip(want) {
            for l in 0..L {
                field.got.push(g[l]);
                field.want.push(w[l]);
                field.filled.push(l < n);
            }
        }
    }

    fn check(&self) {
        for (name, f) in &self.0 {
            let scale = f.want.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            assert!(scale > 0.0, "{name}: empty reference");
            for (i, (&got, &want)) in f.got.iter().zip(&f.want).enumerate() {
                if f.filled[i] {
                    assert!(
                        (got - want).abs() <= 1e-12 * scale,
                        "{name}[{i}]: {got} vs reference {want} (scale {scale:.3e})"
                    );
                } else {
                    assert_eq!(got, 0.0, "{name}[{i}]: unfilled lane is not zero");
                }
            }
        }
    }
}

/// Compare every metric field of `mf` with a per-point evaluation of the
/// same mapping, point by point and lane by lane.
fn check_against_pointwise(mf: &MatrixFree<f64, L>) {
    let map = &*mf.mapping;
    let n_q = mf.n_q();
    let pts = &mf.shape.quad.points;
    let wts = &mf.shape.quad.weights;
    let mut fields = Fields::default();
    let mut volumes = vec![0.0; mf.n_cells];
    for (b, g) in mf.cell_batches.iter().zip(&mf.cell_geometry) {
        let nq3 = n_q * n_q * n_q;
        let mut jinvt = vec![[0.0; L]; nq3 * 9];
        let mut jxw = vec![[0.0; L]; nq3];
        let mut pos = vec![[0.0; L]; nq3 * 3];
        for l in 0..b.n_filled {
            let cell = b.cells[l] as usize;
            for q in 0..nq3 {
                let (q0, q1, q2) = (q % n_q, (q / n_q) % n_q, q / (n_q * n_q));
                let xi = [pts[q0], pts[q1], pts[q2]];
                let (inv, det) = invert3(map.jacobian(cell, xi));
                for r in 0..3 {
                    for c in 0..3 {
                        jinvt[q * 9 + 3 * r + c][l] = inv[c][r];
                    }
                }
                let w = wts[q0] * wts[q1] * wts[q2];
                jxw[q][l] = det * w;
                volumes[cell] += det * w;
                let p = map.position(cell, xi);
                for d in 0..3 {
                    pos[q * 3 + d][l] = p[d];
                }
            }
        }
        fields.push("cell.jinvt", &g.jinvt, &jinvt, b.n_filled);
        fields.push("cell.jxw", &g.jxw, &jxw, b.n_filled);
        fields.push("cell.positions", &g.positions, &pos, b.n_filled);
    }
    let vmax = volumes.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    for (got, want) in mf.cell_volumes.iter().zip(&volumes) {
        assert!(
            (got - want).abs() <= 1e-12 * vmax,
            "cell volume {got} vs {want}"
        );
    }

    let kp1 = (mf.params.degree + 1) as f64;
    let mut n_plus_sides = 0;
    for (bi, (b, g)) in mf.face_batches.iter().zip(&mf.face_geometry).enumerate() {
        let cat = b.category;
        let nq2 = n_q * n_q;
        let (dm, sm) = ((cat.face_minus / 2) as usize, (cat.face_minus % 2) as usize);
        let (dp, sp) = ((cat.face_plus / 2) as usize, (cat.face_plus % 2) as usize);
        let ((t1m, t2m), (t1p, t2p)) = (tangential(dm), tangential(dp));
        let sub = cat.subface();
        let (c1, c2) = sub.map_or((0.0, 0.0), |c| (f64::from(c & 1), f64::from((c >> 1) & 1)));
        let scale = if sub.is_some() { 0.5 } else { 1.0 };
        let mut g_minus = vec![[0.0; L]; nq2 * 3];
        let mut g_plus = vec![[0.0; L]; if cat.is_boundary { 0 } else { nq2 * 3 }];
        let mut normal = vec![[0.0; L]; nq2 * 3];
        let mut jxw = vec![[0.0; L]; nq2];
        let mut pos = vec![[0.0; L]; nq2 * 3];
        let mut sigma = [[0.0; L]];
        for l in 0..b.n_filled {
            let minus = b.minus[l] as usize;
            let mut area = 0.0;
            for q in 0..nq2 {
                let (q1, q2) = (q % n_q, q / n_q);
                let mut xi = [sm as f64; 3];
                xi[t1m] = scale * (pts[q1] + c1);
                xi[t2m] = scale * (pts[q2] + c2);
                let (inv, det) = invert3(map.jacobian(minus, xi));
                let cof = inv[dm].map(|v| det * v);
                let norm = (cof[0] * cof[0] + cof[1] * cof[1] + cof[2] * cof[2]).sqrt();
                let sign = if sm == 0 { -1.0 } else { 1.0 };
                let n_vec = cof.map(|v| sign * v / norm);
                let da = norm * scale * scale * wts[q1] * wts[q2];
                jxw[q][l] = da;
                area += da;
                let p = map.position(minus, xi);
                for d in 0..3 {
                    pos[q * 3 + d][l] = p[d];
                    normal[q * 3 + d][l] = n_vec[d];
                    g_minus[q * 3 + d][l] = (0..3).map(|j| inv[d][j] * n_vec[j]).sum();
                }
                if !cat.is_boundary {
                    let (p1, p2) = cat.orient().map_index(q1, q2, n_q, n_q);
                    let mut xp = [sp as f64; 3];
                    xp[t1p] = pts[p1];
                    xp[t2p] = pts[p2];
                    let (inv_p, _) = invert3(map.jacobian(b.plus[l] as usize, xp));
                    for d in 0..3 {
                        g_plus[q * 3 + d][l] = (0..3).map(|j| inv_p[d][j] * n_vec[j]).sum();
                    }
                }
            }
            let mut s = area / volumes[minus];
            if !cat.is_boundary {
                s = s.max(area / volumes[b.plus[l] as usize]);
                n_plus_sides += 1;
            }
            sigma[0][l] = kp1 * kp1 * s;
        }
        fields.push("face.g_minus", &g.g_minus, &g_minus, b.n_filled);
        fields.push("face.g_plus", &g.g_plus, &g_plus, b.n_filled);
        fields.push("face.normal", &g.normal, &normal, b.n_filled);
        fields.push("face.jxw", &g.jxw, &jxw, b.n_filled);
        fields.push("face.positions", &g.positions, &pos, b.n_filled);
        fields.push("face.sigma", &mf.sigma[bi..=bi], &sigma, b.n_filled);
    }
    assert!(n_plus_sides > 0);
    fields.check();
}

/// Check the merged Laplace coefficient of every cell batch bit for bit
/// against the six-entry formula on the stored (`T`-rounded) `J^{-T}` and
/// `JxW`, lane by lane, empty lanes included.
fn check_laplace_coefficient<T: Real>(mf: &MatrixFree<T, L>) {
    const PAIRS: [(usize, usize); 6] = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)];
    let nq3 = mf.n_q().pow(3);
    for (bi, g) in mf.cell_geometry.iter().enumerate() {
        assert_eq!(g.laplace.len(), 6 * nq3, "batch {bi}: length");
        for q in 0..nq3 {
            let jxw = g.jxw[q];
            let m = |i: usize| g.jinvt[q * 9 + i];
            for (k, (a, b)) in PAIRS.into_iter().enumerate() {
                for l in 0..L {
                    let want =
                        (m(a)[l] * m(b)[l] + m(3 + a)[l] * m(3 + b)[l] + m(6 + a)[l] * m(6 + b)[l])
                            * jxw[l];
                    let got = g.laplace[6 * q + k][l];
                    assert_eq!(
                        got.to_f64().to_bits(),
                        want.to_f64().to_bits(),
                        "batch {bi}, point {q}, entry {k}, lane {l}: {got:?} vs {want:?}"
                    );
                }
            }
        }
    }
}

/// Bit patterns of every geometry field and of the penalty, batch by
/// batch.
fn bits(mf: &MatrixFree<f64, L>) -> Vec<u64> {
    let mut out: Vec<u64> = mf.cell_volumes.iter().map(|v| v.to_bits()).collect();
    let mut add = |v: &[Simd<f64, L>]| {
        out.extend(v.iter().flat_map(|s| (0..L).map(move |l| s[l].to_bits())));
    };
    for g in &mf.cell_geometry {
        add(&g.jinvt);
        add(&g.jxw);
        add(&g.laplace);
        add(&g.positions);
    }
    for g in &mf.face_geometry {
        add(&g.g_minus);
        add(&g.g_plus);
        add(&g.normal);
        add(&g.jxw);
        add(&g.positions);
    }
    add(&mf.sigma);
    out.extend(mf.area_ratio.iter().flatten().map(|v| v.to_bits()));
    out
}

fn build(forest: &Forest, manifold: &dyn Manifold, degree: usize) -> MatrixFree<f64, L> {
    let params = MfParams {
        mapping_degree: 3,
        ..MfParams::dg(degree)
    };
    MatrixFree::new(forest, manifold, params)
}

#[test]
fn bifurcation_metric_terms_match_pointwise_reference() {
    let (forest, manifold) = bifurcation();
    let mf = build(&forest, &manifold, 3);
    assert!(
        mf.cell_batches.last().unwrap().n_filled < L,
        "want a partial batch"
    );
    let orientations: std::collections::BTreeSet<u8> = mf
        .face_batches
        .iter()
        .filter(|b| !b.category.is_boundary)
        .map(|b| b.category.orientation)
        .collect();
    assert!(orientations.len() > 1, "want non-standard orientations");
    check_against_pointwise(&mf);
}

#[test]
fn hanging_metric_terms_match_pointwise_reference() {
    let (forest, manifold) = hanging_cube();
    for degree in [2, 3] {
        let mf = build(&forest, &manifold, degree);
        assert!(mf
            .face_batches
            .iter()
            .any(|b| b.category.subface().is_some()));
        check_against_pointwise(&mf);
        // the Gauss-Lobatto node set shares the mapping code path
        let cg: MatrixFree<f64, L> = MatrixFree::new(&forest, &manifold, MfParams::cg(degree));
        check_against_pointwise(&cg);
    }
}

#[test]
fn laplace_coefficient_is_the_formula_on_the_stored_metric() {
    for (name, (forest, manifold)) in [("bifurcation", bifurcation()), ("hanging", hanging_cube())]
    {
        let params = MfParams {
            mapping_degree: 3,
            ..MfParams::dg(3)
        };
        let mf64: MatrixFree<f64, L> = MatrixFree::new(&forest, &manifold, params);
        let mf32: MatrixFree<f32, L> = MatrixFree::new(&forest, &manifold, params);
        assert!(
            mf64.cell_batches.iter().any(|b| b.n_filled < L),
            "{name}: want a partial batch"
        );
        check_laplace_coefficient(&mf64);
        check_laplace_coefficient(&mf32);
    }
}

#[test]
fn metric_terms_are_bitwise_reproducible() {
    let k = 3;
    for (forest, manifold) in [bifurcation(), hanging_cube()] {
        let a = build(&forest, &manifold, k);
        let b = build(&forest, &manifold, k);
        assert!(bits(&a) == bits(&b), "two builds differ");
        // CG(k) and DG(k-1) at n_q = k+1 on DG(k)'s geometry: bitwise a
        // fresh build of their own
        let cg = MfParams {
            node_set: NodeSet::GaussLobatto,
            ..a.params
        };
        let pressure = MfParams {
            degree: k - 1,
            ..a.params
        };
        for params in [cg, pressure] {
            let shape = ShapeInfo1D::new(params.degree, params.node_set, params.n_q);
            let shared = MatrixFree::with_geometry(a.geometry.clone(), shape, params);
            let fresh = MatrixFree::new(&forest, &manifold, params);
            assert!(
                bits(&shared) == bits(&fresh),
                "{params:?}: shared geometry differs from a fresh build"
            );
        }
    }
}
