//! Morphology-based airway tree generation (Sec. 3.3).
//!
//! CT segmentations are not available (the paper's own artifact appendix
//! notes the patient data cannot be shared), so the whole conducting tree
//! is generated by the recursive morphometric algorithm: monopodial-leaning
//! bifurcations with Weibel/Tawhai-like diameter and length ratios,
//! branching planes alternating between generations, a gravity bias, and
//! early termination of minor pathways — which is what makes the terminal
//! count at g = 11 land near the paper's 1005 rather than the 2^11 of a
//! complete tree.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tree-growth parameters (lengths in metres).
#[derive(Clone, Copy, Debug)]
pub struct TreeParams {
    /// Maximum generation (trachea = 0).
    pub max_generation: usize,
    /// Trachea diameter.
    pub trachea_diameter: f64,
    /// Trachea length.
    pub trachea_length: f64,
    /// Diameter ratio of the major (continuing) daughter.
    pub major_ratio: f64,
    /// Diameter ratio of the minor (lateral) daughter.
    pub minor_ratio: f64,
    /// Length-to-diameter ratio of every branch.
    pub length_over_diameter: f64,
    /// Branches whose diameter falls below this terminate early.
    pub min_diameter: f64,
    /// Major daughter bend angle (radians).
    pub major_angle: f64,
    /// Minor daughter take-off angle from the parent axis (radians).
    pub minor_angle: f64,
    /// RNG seed for the direction jitter.
    pub seed: u64,
}

impl TreeParams {
    /// Adult morphometry, tuned so that `max_generation = 11` yields about
    /// 1000 terminal airways (the paper reports 1005).
    pub fn adult(max_generation: usize) -> Self {
        Self {
            max_generation,
            trachea_diameter: 0.018,
            trachea_length: 0.10,
            major_ratio: 0.88,
            minor_ratio: 0.70,
            length_over_diameter: 3.0,
            min_diameter: 0.00132,
            major_angle: 0.30,
            minor_angle: 0.90,
            seed: 42,
        }
    }
}

/// One airway branch (straight centerline segment).
#[derive(Clone, Debug)]
pub struct Branch {
    /// Parent branch (None for the trachea).
    pub parent: Option<usize>,
    /// Children (empty = terminal; otherwise `[major, minor]`).
    pub children: Vec<usize>,
    /// Generation (trachea = 0).
    pub generation: usize,
    /// Proximal end of the centerline.
    pub start: [f64; 3],
    /// Unit axis direction.
    pub dir: [f64; 3],
    /// First cross-section axis (the side on which minor daughters tap).
    pub e1: [f64; 3],
    /// Second cross-section axis.
    pub e2: [f64; 3],
    /// Branch length.
    pub length: f64,
    /// Branch diameter.
    pub diameter: f64,
    /// Which lateral side (0..4 → +e1, −e1, +e2, −e2) the minor daughter
    /// taps; alternates with generation.
    pub tap_side: u8,
}

impl Branch {
    /// Distal end of the centerline.
    pub fn end(&self) -> [f64; 3] {
        [
            self.start[0] + self.dir[0] * self.length,
            self.start[1] + self.dir[1] * self.length,
            self.start[2] + self.dir[2] * self.length,
        ]
    }
}

/// The generated airway tree.
#[derive(Clone, Debug)]
pub struct AirwayTree {
    /// Branches; index 0 is the trachea.
    pub branches: Vec<Branch>,
    /// Parameters used.
    pub params: TreeParams,
}

fn normalize(v: [f64; 3]) -> [f64; 3] {
    let n = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt();
    [v[0] / n, v[1] / n, v[2] / n]
}

fn cross(a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
    [
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ]
}

fn axpy3(a: f64, x: [f64; 3], y: [f64; 3]) -> [f64; 3] {
    [a * x[0] + y[0], a * x[1] + y[1], a * x[2] + y[2]]
}

/// Rotate `v` about the unit axis `k` by angle `t` (Rodrigues).
fn rotate(v: [f64; 3], k: [f64; 3], t: f64) -> [f64; 3] {
    let c = t.cos();
    let s = t.sin();
    let kxv = cross(k, v);
    let kv = k[0] * v[0] + k[1] * v[1] + k[2] * v[2];
    [
        v[0] * c + kxv[0] * s + k[0] * kv * (1.0 - c),
        v[1] * c + kxv[1] * s + k[1] * kv * (1.0 - c),
        v[2] * c + kxv[2] * s + k[2] * kv * (1.0 - c),
    ]
}

impl AirwayTree {
    /// Grow a tree.
    pub fn grow(params: TreeParams) -> Self {
        let mut rng = StdRng::seed_from_u64(params.seed);
        let trachea = Branch {
            parent: None,
            children: Vec::new(),
            generation: 0,
            start: [0.0, 0.0, 0.0],
            dir: [0.0, 0.0, -1.0], // caudal
            e1: [1.0, 0.0, 0.0],
            e2: [0.0, -1.0, 0.0], // = dir × e1 (right-handed tube frame)
            length: params.trachea_length,
            diameter: params.trachea_diameter,
            tap_side: 0,
        };
        let mut tree = Self {
            branches: vec![trachea],
            params,
        };
        let mut queue = vec![0usize];
        while let Some(b) = queue.pop() {
            let (generation, diameter) = {
                let br = &tree.branches[b];
                (br.generation, br.diameter)
            };
            if generation >= params.max_generation {
                continue;
            }
            let d_major = diameter * params.major_ratio;
            let d_minor = diameter * params.minor_ratio;
            // terminate the whole bifurcation when the *minor* child would
            // be unresolvably small and the major child as well
            if d_major < params.min_diameter {
                continue;
            }
            let major = tree.spawn_major(b, d_major, &mut rng);
            queue.push(major);
            if d_minor >= params.min_diameter {
                let minor = tree.spawn_minor(b, d_minor, &mut rng);
                queue.push(minor);
            }
        }
        tree
    }

    fn spawn_major(&mut self, parent: usize, diameter: f64, rng: &mut StdRng) -> usize {
        let p = self.branches[parent].clone();
        let params = self.params;
        // bend away from the tap side so the two daughters separate, with
        // jitter and a mild gravity (−z) bias
        let side_dir = Self::side_vector(&p, p.tap_side);
        let bend_axis = normalize(cross(p.dir, side_dir));
        let jitter = rng.gen_range(-0.1..0.1);
        let mut dir = rotate(p.dir, bend_axis, params.major_angle + jitter);
        dir = normalize(axpy3(0.1, [0.0, 0.0, -1.0], dir));
        let e1 = normalize(axpy3(
            -(dir[0] * side_dir[0] + dir[1] * side_dir[1] + dir[2] * side_dir[2]),
            dir,
            side_dir,
        ));
        let e2 = normalize(cross(dir, e1));
        let id = self.branches.len();
        let child = Branch {
            parent: Some(parent),
            children: Vec::new(),
            generation: p.generation + 1,
            start: p.end(),
            dir,
            e1,
            e2,
            length: params.length_over_diameter * diameter,
            diameter,
            // alternate the branching plane between generations
            tap_side: Self::next_tap_side(p.tap_side, p.generation + 1),
        };
        self.branches.push(child);
        self.branches[parent].children.push(id);
        id
    }

    fn spawn_minor(&mut self, parent: usize, diameter: f64, rng: &mut StdRng) -> usize {
        let p = self.branches[parent].clone();
        let params = self.params;
        let side_dir = Self::side_vector(&p, p.tap_side);
        // take-off: mostly sideways, tilted downstream
        let jitter = rng.gen_range(-0.12..0.12);
        let tilt = std::f64::consts::FRAC_PI_2 - params.minor_angle + jitter;
        let bend_axis = normalize(cross(side_dir, p.dir));
        let dir = normalize(rotate(side_dir, bend_axis, -tilt));
        let e1 = normalize(axpy3(
            -(p.dir[0] * dir[0] + p.dir[1] * dir[1] + p.dir[2] * dir[2]),
            dir,
            p.dir,
        ));
        let e2 = normalize(cross(dir, e1));
        // start at the tap point on the parent's lateral surface near the
        // distal end (the mesher recomputes the exact node positions)
        let along = p.length * 0.75;
        let start = axpy3(p.diameter * 0.5, side_dir, axpy3(along, p.dir, p.start));
        let id = self.branches.len();
        let child = Branch {
            parent: Some(parent),
            children: Vec::new(),
            generation: p.generation + 1,
            start,
            dir,
            e1,
            e2,
            length: params.length_over_diameter * diameter,
            diameter,
            tap_side: Self::next_tap_side(p.tap_side, p.generation + 1),
        };
        self.branches.push(child);
        self.branches[parent].children.push(id);
        id
    }

    fn side_vector(b: &Branch, side: u8) -> [f64; 3] {
        match side {
            0 => b.e1,
            1 => [-b.e1[0], -b.e1[1], -b.e1[2]],
            2 => b.e2,
            _ => [-b.e2[0], -b.e2[1], -b.e2[2]],
        }
    }

    fn next_tap_side(side: u8, generation: usize) -> u8 {
        // rotate through +e1, +e2, −e1, −e2 and stagger by generation so
        // sibling subtrees spread out
        ((side as usize + 1 + generation) % 4) as u8
    }

    /// Number of terminal (leaf) branches.
    pub fn n_terminals(&self) -> usize {
        self.branches
            .iter()
            .filter(|b| b.children.is_empty())
            .count()
    }

    /// Terminal branch indices.
    pub fn terminals(&self) -> Vec<usize> {
        (0..self.branches.len())
            .filter(|&i| self.branches[i].children.is_empty())
            .collect()
    }

    /// Highest generation present.
    pub fn max_generation(&self) -> usize {
        self.branches
            .iter()
            .map(|b| b.generation)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_tree_is_complete_binary() {
        // with no termination threshold, g generations → 2^g terminals
        let mut p = TreeParams::adult(4);
        p.min_diameter = 0.0;
        let t = AirwayTree::grow(p);
        assert_eq!(t.n_terminals(), 16);
        assert_eq!(t.branches.len(), 31);
        assert_eq!(t.max_generation(), 4);
    }

    #[test]
    fn g11_terminal_count_matches_paper_scale() {
        let t = AirwayTree::grow(TreeParams::adult(11));
        let n = t.n_terminals();
        assert!(
            (700..=1400).contains(&n),
            "g=11 terminals {n}, expected ≈1005"
        );
    }

    #[test]
    fn diameters_decrease_monotonically_along_paths() {
        let t = AirwayTree::grow(TreeParams::adult(6));
        for (i, b) in t.branches.iter().enumerate() {
            if let Some(p) = b.parent {
                assert!(b.diameter < t.branches[p].diameter, "branch {i}");
                assert_eq!(b.generation, t.branches[p].generation + 1);
            }
        }
    }

    #[test]
    fn directions_are_unit_and_frames_orthonormal() {
        let t = AirwayTree::grow(TreeParams::adult(5));
        for b in &t.branches {
            for v in [b.dir, b.e1, b.e2] {
                let n = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt();
                assert!((n - 1.0).abs() < 1e-10);
            }
            let d1 = b.dir[0] * b.e1[0] + b.dir[1] * b.e1[1] + b.dir[2] * b.e1[2];
            let d2 = b.dir[0] * b.e2[0] + b.dir[1] * b.e2[1] + b.dir[2] * b.e2[2];
            let d3 = b.e1[0] * b.e2[0] + b.e1[1] * b.e2[1] + b.e1[2] * b.e2[2];
            assert!(d1.abs() < 1e-10 && d2.abs() < 1e-10 && d3.abs() < 1e-10);
        }
    }

    #[test]
    fn growth_is_deterministic_per_seed() {
        let a = AirwayTree::grow(TreeParams::adult(7));
        let b = AirwayTree::grow(TreeParams::adult(7));
        assert_eq!(a.branches.len(), b.branches.len());
        let mut p = TreeParams::adult(7);
        p.seed = 7;
        let c = AirwayTree::grow(p);
        // different seed jitters directions but keeps the topology scale
        assert_eq!(a.branches.len(), c.branches.len());
    }

    #[test]
    fn cross_section_area_grows_with_generation() {
        // physiological sanity: total cross-section per generation grows
        let t = AirwayTree::grow(TreeParams::adult(8));
        let gmax = t.max_generation();
        let area_of = |g: usize| -> f64 {
            t.branches
                .iter()
                .filter(|b| b.generation == g)
                .map(|b| b.diameter * b.diameter)
                .sum()
        };
        assert!(area_of(gmax.min(6)) > area_of(0));
    }
}
