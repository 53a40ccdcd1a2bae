//! Precomputed 1-D shape data shared by all sum-factorization kernels: the
//! interpolation / differentiation matrices (`I_e`, `I_f` of Eq. (7)), their
//! transposes, boundary traces, and half-interval
//! embeddings for hanging nodes and h-multigrid.

use crate::lagrange::LagrangeBasis1D;
use crate::matrix::DMatrix;
use crate::quadrature::{gauss_lobatto_rule, gauss_rule, QuadratureRule};
use dgflow_simd::Real;

/// Interpolation-node family of a nodal basis.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NodeSet {
    /// Gauss–Legendre points: collocated with the quadrature used here, so
    /// the DG mass matrix is exactly diagonal (the ExaDG fast-inverse-mass
    /// choice).
    Gauss,
    /// Gauss–Lobatto–Legendre points: include the endpoints, required for
    /// the continuous (CG) auxiliary multigrid spaces.
    GaussLobatto,
}

impl NodeSet {
    /// Node locations for polynomial degree `k`.
    pub fn nodes(self, degree: usize) -> Vec<f64> {
        match self {
            NodeSet::Gauss => gauss_rule(degree + 1).points,
            NodeSet::GaussLobatto => {
                if degree == 0 {
                    vec![0.5]
                } else {
                    gauss_lobatto_rule(degree + 1).points
                }
            }
        }
    }
}

/// All 1-D shape data for one `(degree, node set, quadrature)` combination.
#[derive(Clone, Debug)]
pub struct ShapeInfo1D<T> {
    /// Polynomial degree `k`.
    pub degree: usize,
    /// Number of 1-D quadrature points.
    pub n_q: usize,
    /// Node family.
    pub node_set: NodeSet,
    /// Interpolation nodes in `[0,1]`.
    pub nodes: Vec<f64>,
    /// Quadrature rule.
    pub quad: QuadratureRule,
    /// Quadrature weights as `T`.
    pub quad_weights: Vec<T>,
    /// `values[q][i] = l_i(x_q)` — nodes → quadrature points (`n_q × (k+1)`).
    pub values: DMatrix<T>,
    /// Transpose of `values` (integration step).
    pub values_t: DMatrix<T>,
    /// `gradients[q][i] = l_i'(x_q)` (`n_q × (k+1)`).
    pub gradients: DMatrix<T>,
    /// Transpose of `gradients`.
    pub gradients_t: DMatrix<T>,
    /// Collocation derivative at the quadrature points:
    /// `colloc_grad[q][p] = L_p'(x_q)` for the Lagrange basis on the
    /// quadrature points themselves. Lets cell kernels interpolate once to
    /// the quadrature points and differentiate there (the basis-change
    /// optimization of Kronbichler & Kormann).
    pub colloc_gradients: DMatrix<T>,
    /// Transpose of `colloc_gradients`.
    pub colloc_gradients_t: DMatrix<T>,
    /// Basis values at the interval ends: `face_values[s][i] = l_i(s)`.
    pub face_values: [Vec<T>; 2],
    /// When `face_values[s]` is exactly a standard basis vector (a nodal
    /// basis with a node *on* the endpoint, e.g. Gauss–Lobatto), the index
    /// of its single unit entry: the endpoint trace is then a layer copy
    /// and kernels skip the dense normal-direction contraction.
    pub face_unit: [Option<usize>; 2],
    /// Basis derivatives at the ends: `face_gradients[s][i] = l_i'(s)`.
    pub face_gradients: [Vec<T>; 2],
    /// Interpolation from parent nodes to the quadrature points of child
    /// half-intervals (hanging-face subintegration): `sub_values[c]` is
    /// `n_q × (k+1)` with `x ∈ [c/2, (c+1)/2]`.
    pub sub_values: [DMatrix<T>; 2],
    /// Transposes of `sub_values` (integration step on hanging faces).
    pub sub_values_t: [DMatrix<T>; 2],
    /// Interpolation from parent nodes to child *nodes* (h-prolongation
    /// embedding): `node_sub_values[c]` is `(k+1) × (k+1)`.
    pub node_sub_values: [DMatrix<T>; 2],
    /// The underlying Lagrange basis (for custom evaluations at setup time).
    pub basis: LagrangeBasis1D,
}

/// Index of the single exact-1 entry of `v` when every other entry is
/// exactly 0 — the bitwise-strict test keeps the layer-copy fast path
/// equivalent to the dense contraction it replaces.
fn unit_index<T: Real>(v: &[T]) -> Option<usize> {
    let mut unit = None;
    for (i, &x) in v.iter().enumerate() {
        if x == T::ONE && unit.is_none() {
            unit = Some(i);
        } else if x != T::ZERO {
            return None;
        }
    }
    unit
}

impl<T: Real> ShapeInfo1D<T> {
    /// Build shape data for degree `k`, the given node family, and an
    /// `n_q`-point Gauss quadrature.
    pub fn new(degree: usize, node_set: NodeSet, n_q: usize) -> Self {
        assert!(
            (1..=16).contains(&n_q),
            "n_q = {n_q} outside supported range"
        );
        assert!(degree < 16, "degree {degree} outside supported range");
        let nodes = node_set.nodes(degree);
        let basis = LagrangeBasis1D::new(nodes.clone());
        let quad = gauss_rule(n_q);
        let values: DMatrix<T> = basis.value_matrix(&quad.points);
        let gradients: DMatrix<T> = basis.gradient_matrix(&quad.points);
        let colloc_basis = LagrangeBasis1D::new(quad.points.clone());
        let colloc_gradients: DMatrix<T> = colloc_basis.gradient_matrix(&quad.points);
        let face_values: [Vec<T>; 2] = [
            basis
                .values_at(0.0)
                .iter()
                .map(|&v| T::from_f64(v))
                .collect(),
            basis
                .values_at(1.0)
                .iter()
                .map(|&v| T::from_f64(v))
                .collect(),
        ];
        let face_unit = [unit_index(&face_values[0]), unit_index(&face_values[1])];
        let face_gradients = [
            basis
                .derivatives_at(0.0)
                .iter()
                .map(|&v| T::from_f64(v))
                .collect(),
            basis
                .derivatives_at(1.0)
                .iter()
                .map(|&v| T::from_f64(v))
                .collect(),
        ];
        let sub_values = [
            basis.subinterval_matrix(0, &quad.points),
            basis.subinterval_matrix(1, &quad.points),
        ];
        let sub_values_t = [sub_values[0].transpose(), sub_values[1].transpose()];
        let node_sub_values = [
            basis.subinterval_matrix(0, &nodes),
            basis.subinterval_matrix(1, &nodes),
        ];
        Self {
            degree,
            n_q,
            node_set,
            quad_weights: quad.weights_as::<T>(),
            values_t: values.transpose(),
            gradients_t: gradients.transpose(),
            colloc_gradients_t: colloc_gradients.transpose(),
            colloc_gradients,
            values,
            gradients,
            face_values,
            face_unit,
            face_gradients,
            sub_values,
            sub_values_t,
            node_sub_values,
            nodes,
            quad,
            basis,
        }
    }

    /// Number of 1-D degrees of freedom (`k+1`).
    pub fn n_dofs(&self) -> usize {
        self.degree + 1
    }

    /// Interpolation matrix from this basis's nodes to another degree's
    /// nodes of the given family — the 1-D building block of polynomial
    /// (p-) multigrid transfer and the DG→CG basis change.
    pub fn basis_change_to(&self, other_degree: usize, other_set: NodeSet) -> DMatrix<T> {
        let target = other_set.nodes(other_degree);
        self.basis.value_matrix(&target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauss_basis_is_collocated_with_quadrature() {
        let s: ShapeInfo1D<f64> = ShapeInfo1D::new(3, NodeSet::Gauss, 4);
        // values matrix must be the identity: nodes == quadrature points
        for q in 0..4 {
            for i in 0..4 {
                let expect = if q == i { 1.0 } else { 0.0 };
                assert!((s.values.get(q, i) - expect).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn lobatto_endpoint_traces_are_unit_vectors() {
        let s: ShapeInfo1D<f64> = ShapeInfo1D::new(4, NodeSet::GaussLobatto, 5);
        assert!((s.face_values[0][0] - 1.0).abs() < 1e-13);
        assert!((s.face_values[1][4] - 1.0).abs() < 1e-13);
        for i in 1..5 {
            assert!(s.face_values[0][i].abs() < 1e-13);
            assert!(s.face_values[1][i - 1].abs() < 1e-13);
        }
    }

    #[test]
    fn lobatto_traces_detected_as_unit_gauss_not() {
        for k in 1..=6 {
            let gll: ShapeInfo1D<f64> = ShapeInfo1D::new(k, NodeSet::GaussLobatto, k + 1);
            assert_eq!(gll.face_unit, [Some(0), Some(k)]);
            let g: ShapeInfo1D<f64> = ShapeInfo1D::new(k, NodeSet::Gauss, k + 1);
            assert_eq!(g.face_unit, [None, None]);
        }
    }

    #[test]
    fn face_trace_sums_to_one() {
        for set in [NodeSet::Gauss, NodeSet::GaussLobatto] {
            let s: ShapeInfo1D<f64> = ShapeInfo1D::new(3, set, 4);
            for side in 0..2 {
                let sum: f64 = s.face_values[side].iter().sum();
                assert!((sum - 1.0).abs() < 1e-12);
                let dsum: f64 = s.face_gradients[side].iter().sum();
                assert!(dsum.abs() < 1e-10);
            }
        }
    }

    #[test]
    fn colloc_gradient_differentiates_quadrature_interpolant() {
        let s: ShapeInfo1D<f64> = ShapeInfo1D::new(4, NodeSet::Gauss, 5);
        // Take p(x) = x^4: values at quad points, differentiate via colloc.
        let vals: Vec<f64> = s.quad.points.iter().map(|&x| x.powi(4)).collect();
        let d = s.colloc_gradients.matvec(&vals);
        for (q, &x) in s.quad.points.iter().enumerate() {
            assert!((d[q] - 4.0 * x.powi(3)).abs() < 1e-11);
        }
    }

    #[test]
    fn basis_change_roundtrip_preserves_polynomials() {
        let g: ShapeInfo1D<f64> = ShapeInfo1D::new(3, NodeSet::Gauss, 4);
        let to_gll = g.basis_change_to(3, NodeSet::GaussLobatto);
        let gll: ShapeInfo1D<f64> = ShapeInfo1D::new(3, NodeSet::GaussLobatto, 4);
        let back = gll.basis_change_to(3, NodeSet::Gauss);
        let roundtrip = back.matmul(&to_gll);
        for i in 0..4 {
            for j in 0..4 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((roundtrip.get(i, j) - expect).abs() < 1e-11);
            }
        }
    }

    #[test]
    fn node_sub_values_embed_linear_function() {
        let s: ShapeInfo1D<f64> = ShapeInfo1D::new(2, NodeSet::GaussLobatto, 3);
        // parent dof values of f(x) = x
        let parent: Vec<f64> = s.nodes.clone();
        for child in 0..2 {
            let vals = s.node_sub_values[child].matvec(&parent);
            for (i, &xn) in s.nodes.iter().enumerate() {
                let x_child = 0.5 * (xn + child as f64);
                assert!((vals[i] - x_child).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn degree_zero_gll_basis_is_constant() {
        let s: ShapeInfo1D<f64> = ShapeInfo1D::new(0, NodeSet::GaussLobatto, 1);
        assert_eq!(s.n_dofs(), 1);
        assert!((s.values.get(0, 0) - 1.0).abs() < 1e-14);
    }
}
