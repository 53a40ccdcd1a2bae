//! Sum-factorization kernels: apply a 1-D operator along one direction of a
//! 3-D (or degenerate 2-D) tensor of SIMD cell batches.
//!
//! These are the innermost loops of the whole solver; every discretized PDE
//! operator in the workspace is a composition of [`apply_1d`] sweeps (the
//! `I_e`, `I_f` of Eq. (7)), pointwise work at
//! quadrature points (`D_e`, `D_f`), and the face contractions
//! [`contract_dir`] / [`expand_dir`].
//!
//! Index convention: lexicographic, direction 0 fastest:
//! `idx = i0 + e0*(i1 + e1*i2)`.

use crate::matrix::DMatrix;
use dgflow_simd::{Real, Simd};

/// Maximum supported 1-D size (degree ≤ 15, quadrature ≤ 16 points).
pub const MAX_N_1D: usize = 16;

/// SIMD elements per contiguous chunk of the cache-blocked strided sweeps:
/// the `n_in × CHUNK` source tile (≤ 16·8·64 B = 8 KiB for f64×8 batches)
/// stays L1-resident while all `n_out` output rows are formed from it, and
/// the `CHUNK` accumulators fit the vector register file.
pub(crate) const CHUNK: usize = 8;

#[inline(always)]
fn line_dims(dir: usize) -> (usize, usize) {
    match dir {
        0 => (1, 2),
        1 => (0, 2),
        2 => (0, 1),
        _ => panic!("direction out of range"),
    }
}

#[inline(always)]
fn strides(e: [usize; 3]) -> [usize; 3] {
    [1, e[0], e[0] * e[1]]
}

/// Output extents after applying an `n_out × n_in` matrix along `dir`.
pub fn extents_after(extents_in: [usize; 3], dir: usize, n_out: usize) -> [usize; 3] {
    let mut e = extents_in;
    e[dir] = n_out;
    e
}

/// Total entries of a tensor.
pub fn tensor_len(e: [usize; 3]) -> usize {
    e[0] * e[1] * e[2]
}

/// `dst = M ⊗_dir src` (or `dst += …` when `add`): contract the matrix `m`
/// (`n_out × n_in`) with direction `dir` of `src`.
///
/// Cache-blocked fast path: direction 0 reads its lines contiguously (no
/// gather buffer), directions 1–2 process the contiguous fast-dimension
/// runs in [`CHUNK`]-wide tiles so each source tile is streamed once and
/// reused for every output row. Per output element the accumulation order
/// is identical to [`apply_1d_ref`] (ascending `i`, multiply then fused
/// multiply-adds), so the result is bitwise equal to the reference sweep —
/// the property `apply_1d_blocked_matches_reference_bitwise` pins down.
pub fn apply_1d<T: Real, const L: usize>(
    m: &DMatrix<T>,
    src: &[Simd<T, L>],
    dst: &mut [Simd<T, L>],
    extents_in: [usize; 3],
    dir: usize,
    add: bool,
) {
    let n_in = m.cols();
    let n_out = m.rows();
    debug_assert_eq!(extents_in[dir], n_in);
    debug_assert!(n_in <= MAX_N_1D && n_out <= MAX_N_1D);
    debug_assert_eq!(src.len(), tensor_len(extents_in));
    debug_assert_eq!(dst.len(), tensor_len(extents_after(extents_in, dir, n_out)));
    assert!(dir < 3, "direction out of range");
    if dir == 0 {
        // lines are contiguous: stream them directly, no gather buffer
        let n_lines = extents_in[1] * extents_in[2];
        for line in 0..n_lines {
            let sline = &src[line * n_in..line * n_in + n_in];
            let dline = &mut dst[line * n_out..line * n_out + n_out];
            for q in 0..n_out {
                let row = m.row(q);
                let mut acc = sline[0] * row[0];
                for i in 1..n_in {
                    acc = sline[i].mul_add(Simd::splat(row[i]), acc);
                }
                if add {
                    dline[q] += acc;
                } else {
                    dline[q] = acc;
                }
            }
        }
        return;
    }
    // dir 1: runs of length e0 per i2-slab; dir 2: one run of length e0*e1
    let run = if dir == 1 {
        extents_in[0]
    } else {
        extents_in[0] * extents_in[1]
    };
    let n_slabs = if dir == 1 { extents_in[2] } else { 1 };
    let in_slab = run * n_in;
    let out_slab = run * n_out;
    for slab in 0..n_slabs {
        let s_src = &src[slab * in_slab..slab * in_slab + in_slab];
        let s_dst = &mut dst[slab * out_slab..slab * out_slab + out_slab];
        let mut c0 = 0;
        while c0 < run {
            let cb = (run - c0).min(CHUNK);
            for q in 0..n_out {
                let row = m.row(q);
                let mut acc = [Simd::<T, L>::zero(); CHUNK];
                for (c, a) in acc.iter_mut().enumerate().take(cb) {
                    *a = s_src[c0 + c] * row[0];
                }
                for i in 1..n_in {
                    let w = Simd::splat(row[i]);
                    let base = c0 + i * run;
                    for (c, a) in acc.iter_mut().enumerate().take(cb) {
                        *a = s_src[base + c].mul_add(w, *a);
                    }
                }
                let obase = c0 + q * run;
                if add {
                    for c in 0..cb {
                        s_dst[obase + c] += acc[c];
                    }
                } else {
                    s_dst[obase..obase + cb].copy_from_slice(&acc[..cb]);
                }
            }
            c0 += cb;
        }
    }
}

/// Reference implementation of [`apply_1d`]: per-line gather into a stack
/// buffer, then one dot product per output point. Kept as the equivalence
/// baseline for the blocked fast path (and for callers that want the
/// simplest possible sweep to reason about).
pub fn apply_1d_ref<T: Real, const L: usize>(
    m: &DMatrix<T>,
    src: &[Simd<T, L>],
    dst: &mut [Simd<T, L>],
    extents_in: [usize; 3],
    dir: usize,
    add: bool,
) {
    let n_in = m.cols();
    let n_out = m.rows();
    debug_assert_eq!(extents_in[dir], n_in);
    debug_assert!(n_in <= MAX_N_1D && n_out <= MAX_N_1D);
    debug_assert_eq!(src.len(), tensor_len(extents_in));
    let e_out = extents_after(extents_in, dir, n_out);
    debug_assert_eq!(dst.len(), tensor_len(e_out));
    let s_in = strides(extents_in);
    let s_out = strides(e_out);
    let (d1, d2) = line_dims(dir);
    let mut buf = [Simd::<T, L>::zero(); MAX_N_1D];
    for i2 in 0..extents_in[d2] {
        for i1 in 0..extents_in[d1] {
            let base_in = i1 * s_in[d1] + i2 * s_in[d2];
            let base_out = i1 * s_out[d1] + i2 * s_out[d2];
            for (i, b) in buf.iter_mut().enumerate().take(n_in) {
                *b = src[base_in + i * s_in[dir]];
            }
            for q in 0..n_out {
                let row = m.row(q);
                let mut acc = buf[0] * row[0];
                for i in 1..n_in {
                    acc = buf[i].mul_add(Simd::splat(row[i]), acc);
                }
                let o = base_out + q * s_out[dir];
                if add {
                    dst[o] += acc;
                } else {
                    dst[o] = acc;
                }
            }
        }
    }
}

/// Copy the layer `dst[i1,i2] = src[.., idx, ..]` at fixed index `idx` of
/// direction `dir` — the endpoint trace of a nodal basis with a node *on*
/// that endpoint (`ShapeInfo1D::face_unit`). Equal to [`contract_dir`]
/// with a standard-basis weight vector, up to the sign of exact zeros.
pub fn extract_dir<T: Real, const L: usize>(
    src: &[Simd<T, L>],
    dst: &mut [Simd<T, L>],
    extents: [usize; 3],
    dir: usize,
    idx: usize,
) {
    let s = strides(extents);
    let (d1, d2) = line_dims(dir);
    debug_assert_eq!(dst.len(), extents[d1] * extents[d2]);
    for i2 in 0..extents[d2] {
        for i1 in 0..extents[d1] {
            dst[i1 + extents[d1] * i2] = src[i1 * s[d1] + i2 * s[d2] + idx * s[dir]];
        }
    }
}

/// Transpose of [`extract_dir`]: write the 2-D tensor into layer `idx` of
/// direction `dir`, zeroing every other layer when `!add` (matching the
/// overwrite-expand convention of [`expand_dir`]) or accumulating in place
/// when `add`. Equal to [`expand_dir`] with a standard-basis weight
/// vector, up to the sign of exact zeros.
pub fn insert_dir<T: Real, const L: usize>(
    src: &[Simd<T, L>],
    dst: &mut [Simd<T, L>],
    extents: [usize; 3],
    dir: usize,
    idx: usize,
    add: bool,
) {
    let s = strides(extents);
    let (d1, d2) = line_dims(dir);
    debug_assert_eq!(src.len(), extents[d1] * extents[d2]);
    if !add {
        for v in dst.iter_mut() {
            *v = Simd::zero();
        }
    }
    for i2 in 0..extents[d2] {
        for i1 in 0..extents[d1] {
            let o = i1 * s[d1] + i2 * s[d2] + idx * s[dir];
            let v = src[i1 + extents[d1] * i2];
            if add {
                dst[o] += v;
            } else {
                dst[o] = v;
            }
        }
    }
}

/// Contract direction `dir` of a 3-D tensor with the vector `w`
/// (face-trace evaluation): `dst[i1,i2] = Σ_i w[i] src[..,i,..]`.
/// Output layout: `d1` fastest, extents `(e[d1], e[d2])`.
pub fn contract_dir<T: Real, const L: usize>(
    w: &[T],
    src: &[Simd<T, L>],
    dst: &mut [Simd<T, L>],
    extents: [usize; 3],
    dir: usize,
) {
    debug_assert_eq!(w.len(), extents[dir]);
    let s = strides(extents);
    let (d1, d2) = line_dims(dir);
    debug_assert_eq!(dst.len(), extents[d1] * extents[d2]);
    for i2 in 0..extents[d2] {
        for i1 in 0..extents[d1] {
            let base = i1 * s[d1] + i2 * s[d2];
            let mut acc = Simd::<T, L>::zero();
            for (i, &wi) in w.iter().enumerate() {
                acc = src[base + i * s[dir]].mul_add(Simd::splat(wi), acc);
            }
            dst[i1 + extents[d1] * i2] = acc;
        }
    }
}

/// Transpose of [`contract_dir`]: scatter a 2-D face tensor back into the
/// 3-D tensor, `dst[..,i,..] += w[i] * src[i1,i2]` (or `=` when `!add`,
/// which overwrites every entry of `dst` — `v * w` is bitwise equal to
/// `v.mul_add(w, 0)`, so an `!add` expand equals zeroing `dst` first).
pub fn expand_dir<T: Real, const L: usize>(
    w: &[T],
    src: &[Simd<T, L>],
    dst: &mut [Simd<T, L>],
    extents: [usize; 3],
    dir: usize,
    add: bool,
) {
    debug_assert_eq!(w.len(), extents[dir]);
    let s = strides(extents);
    let (d1, d2) = line_dims(dir);
    debug_assert_eq!(src.len(), extents[d1] * extents[d2]);
    for i2 in 0..extents[d2] {
        for i1 in 0..extents[d1] {
            let base = i1 * s[d1] + i2 * s[d2];
            let v = src[i1 + extents[d1] * i2];
            if add {
                for (i, &wi) in w.iter().enumerate() {
                    dst[base + i * s[dir]] = v.mul_add(Simd::splat(wi), dst[base + i * s[dir]]);
                }
            } else {
                for (i, &wi) in w.iter().enumerate() {
                    dst[base + i * s[dir]] = v * Simd::splat(wi);
                }
            }
        }
    }
}

/// Apply a 1-D matrix along direction `dir ∈ {0,1}` of a 2-D tensor
/// (face-tangential interpolation). Layout: direction 0 fastest.
pub fn apply_1d_2d<T: Real, const L: usize>(
    m: &DMatrix<T>,
    src: &[Simd<T, L>],
    dst: &mut [Simd<T, L>],
    extents_in: [usize; 2],
    dir: usize,
    add: bool,
) {
    let e3 = [extents_in[0], extents_in[1], 1];
    apply_1d(m, src, dst, e3, dir, add);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lagrange::LagrangeBasis1D;
    use crate::quadrature::gauss_rule;
    use crate::shape::{NodeSet, ShapeInfo1D};

    type V = Simd<f64, 4>;

    fn naive_apply(m: &DMatrix<f64>, src: &[V], e_in: [usize; 3], dir: usize) -> Vec<V> {
        let e_out = extents_after(e_in, dir, m.rows());
        let mut out = vec![V::zero(); tensor_len(e_out)];
        for i0 in 0..e_out[0] {
            for i1 in 0..e_out[1] {
                for i2 in 0..e_out[2] {
                    let oi = [i0, i1, i2];
                    let mut acc = V::zero();
                    for k in 0..e_in[dir] {
                        let mut ii = oi;
                        ii[dir] = k;
                        let idx = ii[0] + e_in[0] * (ii[1] + e_in[1] * ii[2]);
                        acc += src[idx] * m.get(oi[dir], k);
                    }
                    out[i0 + e_out[0] * (i1 + e_out[1] * i2)] = acc;
                }
            }
        }
        out
    }

    fn rand_tensor(n: usize) -> Vec<V> {
        (0..n)
            .map(|i| V::from_fn(|l| ((i * 37 + l * 11) % 23) as f64 * 0.17 - 1.3))
            .collect()
    }

    #[test]
    fn apply_1d_matches_naive_all_directions() {
        let basis = LagrangeBasis1D::from_rule(&gauss_rule(4));
        let q = gauss_rule(5);
        let m: DMatrix<f64> = basis.value_matrix(&q.points);
        for dir in 0..3 {
            let mut e_in = [4usize, 4, 4];
            e_in[dir] = 4;
            let src = rand_tensor(tensor_len(e_in));
            let e_out = extents_after(e_in, dir, 5);
            let mut dst = vec![V::zero(); tensor_len(e_out)];
            apply_1d(&m, &src, &mut dst, e_in, dir, false);
            let expect = naive_apply(&m, &src, e_in, dir);
            for (a, b) in dst.iter().zip(&expect) {
                for l in 0..4 {
                    assert!((a[l] - b[l]).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn apply_1d_add_accumulates() {
        let m = DMatrix::<f64>::identity(3);
        let e = [3usize, 3, 3];
        let src = rand_tensor(27);
        let mut dst = vec![V::zero(); 27];
        apply_1d(&m, &src, &mut dst, e, 0, false);
        apply_1d(&m, &src, &mut dst, e, 1, true);
        // dst = src + src
        for (a, b) in dst.iter().zip(&src) {
            for l in 0..4 {
                assert!((a[l] - 2.0 * b[l]).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn extract_insert_match_unit_contract_expand() {
        let e = [4usize, 4, 4];
        let src3 = rand_tensor(tensor_len(e));
        for dir in 0..3 {
            for idx in [0usize, 3] {
                let mut w = [0.0f64; 4];
                w[idx] = 1.0;
                // extract_dir == contract_dir with a standard-basis vector
                let mut dense = vec![V::zero(); 16];
                let mut fast = vec![V::zero(); 16];
                contract_dir(&w, &src3, &mut dense, e, dir);
                extract_dir(&src3, &mut fast, e, dir, idx);
                for (a, b) in fast.iter().zip(&dense) {
                    for l in 0..4 {
                        assert_eq!(a[l], b[l]);
                    }
                }
                // insert_dir == expand_dir, both overwrite and accumulate
                let src2 = rand_tensor(16);
                for add in [false, true] {
                    let mut dense3 = rand_tensor(tensor_len(e));
                    let mut fast3 = dense3.clone();
                    expand_dir(&w, &src2, &mut dense3, e, dir, add);
                    insert_dir(&src2, &mut fast3, e, dir, idx, add);
                    for (a, b) in fast3.iter().zip(&dense3) {
                        for l in 0..4 {
                            assert_eq!(a[l] + 0.0, b[l] + 0.0); // ±0 alias
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn apply_1d_blocked_matches_reference_bitwise() {
        // All directions, rectangular matrices, and run lengths that are
        // not a multiple of CHUNK — the blocked path must agree with the
        // gather-buffer reference to the last bit (identical fma order).
        for (n_in, n_out) in [(2usize, 2usize), (3, 4), (5, 5), (7, 6), (6, 7)] {
            let basis = LagrangeBasis1D::from_rule(&gauss_rule(n_in));
            let q = gauss_rule(n_out);
            let m: DMatrix<f64> = basis.value_matrix(&q.points);
            for dir in 0..3 {
                let mut e_in = [n_in + 1, n_in + 2, n_in.max(2) - 1];
                e_in[dir] = n_in;
                let src = rand_tensor(tensor_len(e_in));
                let e_out = extents_after(e_in, dir, n_out);
                for add in [false, true] {
                    let seed = rand_tensor(tensor_len(e_out));
                    let mut fast = seed.clone();
                    let mut refr = seed.clone();
                    apply_1d(&m, &src, &mut fast, e_in, dir, add);
                    apply_1d_ref(&m, &src, &mut refr, e_in, dir, add);
                    for (a, b) in fast.iter().zip(&refr) {
                        for l in 0..4 {
                            assert_eq!(
                                a[l].to_bits(),
                                b[l].to_bits(),
                                "n_in={n_in} n_out={n_out} dir={dir} add={add}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn expand_dir_overwrite_equals_zero_then_add() {
        let s: ShapeInfo1D<f64> = ShapeInfo1D::new(3, NodeSet::Gauss, 4);
        let e = [4usize, 4, 4];
        for dir in 0..3 {
            let w = &s.face_values[0];
            let face = rand_tensor(16);
            let mut a = rand_tensor(64); // arbitrary garbage: must be overwritten
            expand_dir(w, &face, &mut a, e, dir, false);
            let mut b = vec![V::zero(); 64];
            expand_dir(w, &face, &mut b, e, dir, true);
            for (x, y) in a.iter().zip(&b) {
                for l in 0..4 {
                    assert_eq!(x[l].to_bits(), y[l].to_bits());
                }
            }
        }
    }

    #[test]
    fn contract_then_expand_is_rank_one_projection() {
        // expand(w, contract(w, u)) applied to a tensor constant along dir
        // with |w|_1-normalized weights reproduces the tensor.
        let s: ShapeInfo1D<f64> = ShapeInfo1D::new(2, NodeSet::GaussLobatto, 3);
        let w = &s.face_values[1]; // trace at x=1: (0,0,1) for GLL
        let e = [3usize, 3, 3];
        let src = rand_tensor(27);
        for dir in 0..3 {
            let mut face = vec![V::zero(); 9];
            contract_dir(w, &src, &mut face, e, dir);
            // GLL trace at 1 picks the last layer
            let sst = strides(e);
            let (d1, d2) = line_dims(dir);
            for i2 in 0..3 {
                for i1 in 0..3 {
                    let idx = i1 * sst[d1] + i2 * sst[d2] + 2 * sst[dir];
                    for l in 0..4 {
                        assert!((face[i1 + 3 * i2][l] - src[idx][l]).abs() < 1e-12);
                    }
                }
            }
            let mut back = vec![V::zero(); 27];
            expand_dir(w, &face, &mut back, e, dir, true);
            // only the last layer is touched
            for i2 in 0..3 {
                for i1 in 0..3 {
                    let idx = i1 * sst[d1] + i2 * sst[d2] + 2 * sst[dir];
                    for l in 0..4 {
                        assert!((back[idx][l] - src[idx][l]).abs() < 1e-12);
                    }
                }
            }
        }
    }

    #[test]
    fn full_interpolation_is_exact_for_polynomials() {
        // Interpolate a trilinear-in-each-dir polynomial of degree 3 from
        // nodes to quadrature points via three sweeps; compare pointwise.
        let s: ShapeInfo1D<f64> = ShapeInfo1D::new(3, NodeSet::GaussLobatto, 5);
        let n = 4;
        let f = |x: f64, y: f64, z: f64| {
            (1.0 + 2.0 * x + x * x * x) * (0.5 - y * y) * (1.0 + z * z * z)
        };
        let mut nodal = vec![V::zero(); n * n * n];
        for i2 in 0..n {
            for i1 in 0..n {
                for i0 in 0..n {
                    nodal[i0 + n * (i1 + n * i2)] =
                        V::splat(f(s.nodes[i0], s.nodes[i1], s.nodes[i2]));
                }
            }
        }
        let mut t1 = vec![V::zero(); 5 * n * n];
        apply_1d(&s.values, &nodal, &mut t1, [n, n, n], 0, false);
        let mut t2 = vec![V::zero(); 5 * 5 * n];
        apply_1d(&s.values, &t1, &mut t2, [5, n, n], 1, false);
        let mut t3 = vec![V::zero(); 125];
        apply_1d(&s.values, &t2, &mut t3, [5, 5, n], 2, false);
        for q2 in 0..5 {
            for q1 in 0..5 {
                for q0 in 0..5 {
                    let exact = f(s.quad.points[q0], s.quad.points[q1], s.quad.points[q2]);
                    let got = t3[q0 + 5 * (q1 + 5 * q2)][0];
                    assert!((got - exact).abs() < 1e-11, "{got} vs {exact}");
                }
            }
        }
    }
}
