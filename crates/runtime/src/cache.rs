//! The campaign-wide setup cache: memoizes the expensive state that is
//! identical across the cases of a parameter sweep.
//!
//! Two kinds of entries, mirroring [`dgflow_core::solver::SolverSetup`]:
//!
//! * **1-D shape tables** ([`ShapeInfo1D`]) keyed by
//!   `(degree, node set, n_q)` — shared by every case at the same degree
//!   regardless of mesh, so a generations sweep re-derives no Lagrange or
//!   quadrature tables.
//! * **Geometry samplings** ([`Mapping`]) keyed by
//!   `(mesh fingerprint, mapping degree)` — shared by every case on the
//!   same mesh whose mapping degree coincides (degrees ≥ 3 all clamp to
//!   mapping degree 3), so a degree sweep samples the manifold at the
//!   support points once. The metric terms depend on the quadrature and
//!   the precision and are evaluated per case from the shared mapping.
//!
//! The mesh fingerprint hashes the geometry the mapping actually depends
//! on: the trilinear corners of every active cell, in deterministic cell
//! order. Two forests with identical active geometry — however they were
//! refined into that state — share cache entries, which is exactly right
//! for a mapping built through a [`TrilinearManifold`]-style interpolant
//! of those corners. Campaigns built on other manifolds must key their
//! own cache.

use dgflow_check::sync::Mutex;
use dgflow_core::solver::SolverSetup;
use dgflow_fem::Mapping;
use dgflow_mesh::{Forest, Manifold};
use dgflow_tensor::{NodeSet, ShapeInfo1D};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Cache hit/miss counters (monotone; read for telemetry).
#[derive(Debug, Default)]
pub struct CacheStats {
    /// Shape-table requests served from the cache.
    pub shape_hits: AtomicUsize,
    /// Shape-table requests that had to build.
    pub shape_misses: AtomicUsize,
    /// Mapping requests served from the cache.
    pub mapping_hits: AtomicUsize,
    /// Mapping requests that had to build.
    pub mapping_misses: AtomicUsize,
    /// Whole-case submissions served from the result store without
    /// re-solving (counted by the service layer, which owns the result
    /// store keyed by canonical spec fingerprint).
    pub case_hits: AtomicUsize,
    /// Whole-case submissions that had to solve.
    pub case_misses: AtomicUsize,
}

/// A point-in-time copy of every cache counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Shape-table requests served from the cache.
    pub shape_hits: usize,
    /// Shape-table requests that had to build.
    pub shape_misses: usize,
    /// Mapping requests served from the cache.
    pub mapping_hits: usize,
    /// Mapping requests that had to build.
    pub mapping_misses: usize,
    /// Whole-case result-store hits.
    pub case_hits: usize,
    /// Whole-case result-store misses.
    pub case_misses: usize,
}

impl CacheStats {
    /// Snapshot every counter.
    pub fn snapshot(&self) -> CacheSnapshot {
        // ordering: Relaxed — independent monotone telemetry counters; a
        // snapshot is advisory and never ordered against other state.
        CacheSnapshot {
            shape_hits: self.shape_hits.load(Ordering::Relaxed),
            shape_misses: self.shape_misses.load(Ordering::Relaxed),
            mapping_hits: self.mapping_hits.load(Ordering::Relaxed),
            mapping_misses: self.mapping_misses.load(Ordering::Relaxed),
            // ordering: Relaxed — same advisory-telemetry contract as above.
            case_hits: self.case_hits.load(Ordering::Relaxed),
            case_misses: self.case_misses.load(Ordering::Relaxed),
        }
    }

    /// Count a whole-case result-store hit.
    pub fn record_case_hit(&self) {
        // ordering: Relaxed — telemetry counter, see `snapshot`.
        self.case_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a whole-case result-store miss (the case had to solve).
    pub fn record_case_miss(&self) {
        // ordering: Relaxed — telemetry counter, see `snapshot`.
        self.case_misses.fetch_add(1, Ordering::Relaxed);
    }
}

/// Shape-table cache key: `(degree, node set, n_q)`.
type ShapeKey = (usize, NodeSet, usize);
/// Mapping cache key: `(mesh fingerprint, mapping degree)`.
type MappingKey = (u64, usize);

/// The memoizing [`SolverSetup`] implementation.
#[derive(Default)]
pub struct SetupCache {
    shapes: Mutex<HashMap<ShapeKey, Arc<ShapeInfo1D<f64>>>>,
    mappings: Mutex<HashMap<MappingKey, Arc<Mapping>>>,
    /// Hit/miss counters.
    pub stats: CacheStats,
}

impl SetupCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct geometry samplings built so far.
    pub fn n_mappings(&self) -> usize {
        self.mappings.lock().len()
    }
}

/// FNV-1a over a byte stream.
#[derive(Clone, Copy)]
pub(crate) struct Fnv(pub(crate) u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn write_u64(&mut self, x: u64) {
        self.write(&x.to_le_bytes());
    }
    fn write_f64(&mut self, x: f64) {
        self.write_u64(x.to_bits());
    }
}

/// Deterministic fingerprint of the active-cell geometry of a forest.
pub fn mesh_fingerprint(forest: &Forest) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(forest.n_active() as u64);
    for idx in 0..forest.n_active() {
        let corners = forest.cell_corners_trilinear(idx);
        for c in &corners {
            for &x in c {
                h.write_f64(x);
            }
        }
    }
    h.0
}

impl SolverSetup for SetupCache {
    fn mapping(
        &self,
        forest: &Forest,
        manifold: &dyn Manifold,
        mapping_degree: usize,
    ) -> Arc<Mapping> {
        let key = (mesh_fingerprint(forest), mapping_degree);
        if let Some(m) = self.mappings.lock().get(&key) {
            // ordering: Relaxed — telemetry counter; the cached data itself
            // is published by the map mutex, not this counter.
            self.stats.mapping_hits.fetch_add(1, Ordering::Relaxed);
            return m.clone();
        }
        // Build outside the lock: samplings take long enough that holding
        // the map across the build would serialize concurrent cases on
        // *different* meshes. Two racing builders of the same key both
        // produce identical data; first insert wins.
        let built = Arc::new(Mapping::build(forest, manifold, mapping_degree));
        let mut map = self.mappings.lock();
        let entry = map.entry(key).or_insert_with(|| built).clone();
        // ordering: Relaxed — telemetry counter, see mapping_hits above.
        self.stats.mapping_misses.fetch_add(1, Ordering::Relaxed);
        entry
    }

    fn shape(&self, degree: usize, node_set: NodeSet, n_q: usize) -> Arc<ShapeInfo1D<f64>> {
        let key = (degree, node_set, n_q);
        if let Some(s) = self.shapes.lock().get(&key) {
            // ordering: Relaxed — telemetry counter; the cached data itself
            // is published by the map mutex, not this counter.
            self.stats.shape_hits.fetch_add(1, Ordering::Relaxed);
            return s.clone();
        }
        let built = Arc::new(ShapeInfo1D::new(degree, node_set, n_q));
        let mut map = self.shapes.lock();
        let entry = map.entry(key).or_insert_with(|| built).clone();
        // ordering: Relaxed — telemetry counter, see shape_hits above.
        self.stats.shape_misses.fetch_add(1, Ordering::Relaxed);
        entry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgflow_mesh::{CoarseMesh, TrilinearManifold};

    #[test]
    fn shape_tables_are_shared_by_key() {
        let cache = SetupCache::new();
        let a = cache.shape(3, NodeSet::Gauss, 4);
        let b = cache.shape(3, NodeSet::Gauss, 4);
        let c = cache.shape(2, NodeSet::Gauss, 4);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        let snap = cache.stats.snapshot();
        assert_eq!((snap.shape_hits, snap.shape_misses), (1, 2));
        assert_eq!((snap.case_hits, snap.case_misses), (0, 0));
    }

    #[test]
    fn mappings_key_on_mesh_geometry() {
        let cache = SetupCache::new();
        let mut forest = Forest::new(CoarseMesh::hyper_cube());
        forest.refine_global(1);
        let manifold = TrilinearManifold::from_forest(&forest);
        let a = cache.mapping(&forest, &manifold, 2);
        let b = cache.mapping(&forest, &manifold, 2);
        assert!(Arc::ptr_eq(&a, &b));
        // different mapping degree → different entry
        let c = cache.mapping(&forest, &manifold, 1);
        assert!(!Arc::ptr_eq(&a, &c));
        // different refinement → different fingerprint → different entry
        let mut forest2 = Forest::new(CoarseMesh::hyper_cube());
        forest2.refine_global(2);
        let manifold2 = TrilinearManifold::from_forest(&forest2);
        let d = cache.mapping(&forest2, &manifold2, 2);
        assert!(!Arc::ptr_eq(&a, &d));
        assert_eq!(cache.n_mappings(), 3);
    }

    #[test]
    fn fingerprint_is_deterministic_and_geometry_sensitive() {
        let mut f1 = Forest::new(CoarseMesh::hyper_cube());
        f1.refine_global(1);
        let mut f2 = Forest::new(CoarseMesh::hyper_cube());
        f2.refine_global(1);
        assert_eq!(mesh_fingerprint(&f1), mesh_fingerprint(&f2));
        let f3 = Forest::new(CoarseMesh::subdivided_box([1, 1, 1], [2.0, 1.0, 1.0]));
        assert_ne!(mesh_fingerprint(&f1), mesh_fingerprint(&f3));
    }

    #[test]
    fn cached_setup_builds_a_working_solver() {
        use dgflow_core::bc::{BcKind, FlowBcs};
        use dgflow_core::{FlowParams, FlowSolver};
        let cache = SetupCache::new();
        let forest = Forest::new(CoarseMesh::subdivided_box([2, 1, 1], [2.0, 1.0, 1.0]));
        let manifold = TrilinearManifold::from_forest(&forest);
        let mut params = FlowParams::new(3);
        params.use_multigrid = false;
        params.viscosity = 0.5;
        let mk_bcs = || {
            let mut bcs = FlowBcs::new(vec![BcKind::Wall, BcKind::Pressure, BcKind::Pressure]);
            bcs.set_pressure(1, 0.1);
            bcs
        };
        let mut s1 = FlowSolver::<4>::with_setup(&forest, &manifold, params, mk_bcs(), &cache);
        // second solver at degree 4 on the same mesh: both degrees clamp
        // to mapping degree 3, so the geometry sampling is reused
        let params4 = FlowParams {
            degree: 4,
            ..params
        };
        let s2 = FlowSolver::<4>::with_setup(&forest, &manifold, params4, mk_bcs(), &cache);
        assert!(Arc::ptr_eq(&s1.mf_u.mapping, &s2.mf_u.mapping));
        let snap = cache.stats.snapshot();
        assert_eq!((snap.mapping_hits, snap.mapping_misses), (1, 1));
        // the cached-setup solver actually steps
        let info = s1.step();
        assert!(info.dt > 0.0);
        assert!(info.wall_seconds >= 0.0);
    }
}
