//! Cross-element SIMD batching of cells and faces.
//!
//! Cells are grouped into batches of `L` lanes in SFC order. Faces are
//! grouped by *category* — all structural parameters (face numbers,
//! orientation, subface, boundary id) equal across the lanes of a batch —
//! so the face kernels are branch-free inside a batch; categories with few
//! members produce partially filled batches, the overhead the paper
//! quantifies (~25 % of face work on the lung mesh at scale).

use dgflow_mesh::{FaceInfo, FaceOrientation};

/// A batch of up to `L` cells processed in lock-step; missing lanes hold
/// `u32::MAX`.
#[derive(Clone, Debug)]
pub struct CellBatch<const L: usize> {
    /// Active cell index per lane (`u32::MAX` = inactive lane).
    pub cells: [u32; L],
    /// Number of filled lanes.
    pub n_filled: usize,
}

impl<const L: usize> CellBatch<L> {
    /// Group `n_cells` consecutive cells into batches.
    pub fn batch_all(n_cells: usize) -> Vec<Self> {
        let mut out = Vec::with_capacity(n_cells.div_ceil(L));
        let mut i = 0;
        while i < n_cells {
            let n_filled = (n_cells - i).min(L);
            let mut cells = [u32::MAX; L];
            for (l, c) in cells.iter_mut().enumerate().take(n_filled) {
                *c = (i + l) as u32;
            }
            out.push(Self { cells, n_filled });
            i += n_filled;
        }
        out
    }
}

/// Structural key shared by all faces of a batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FaceCategory {
    /// Face number in the minus cell.
    pub face_minus: u8,
    /// Face number in the plus cell (0 for boundary).
    pub face_plus: u8,
    /// Orientation code minus→plus (0 for boundary).
    pub orientation: u8,
    /// Subface quadrant + 1 (0 = conforming).
    pub subface_plus1: u8,
    /// Interior (false) or boundary (true).
    pub is_boundary: bool,
    /// Boundary id (boundary faces only).
    pub boundary_id: u32,
}

impl FaceCategory {
    /// Category of a face record.
    pub fn of(f: &FaceInfo) -> Self {
        Self {
            face_minus: f.face_minus,
            face_plus: if f.plus.is_some() { f.face_plus } else { 0 },
            orientation: if f.plus.is_some() {
                f.orientation.code()
            } else {
                0
            },
            subface_plus1: f.subface.map_or(0, |s| s + 1),
            is_boundary: f.plus.is_none(),
            boundary_id: f.boundary_id,
        }
    }

    /// Decoded orientation.
    pub fn orient(&self) -> FaceOrientation {
        FaceOrientation::from_code(self.orientation)
    }

    /// Decoded subface quadrant.
    pub fn subface(&self) -> Option<u8> {
        self.subface_plus1.checked_sub(1)
    }
}

/// A batch of up to `L` faces of one category.
#[derive(Clone, Debug)]
pub struct FaceBatch<const L: usize> {
    /// Shared structural data.
    pub category: FaceCategory,
    /// Minus cell per lane (`u32::MAX` = inactive).
    pub minus: [u32; L],
    /// Plus cell per lane (`u32::MAX` = inactive or boundary).
    pub plus: [u32; L],
    /// Number of filled lanes.
    pub n_filled: usize,
}

/// Group face records into category-homogeneous batches.
pub fn batch_faces<const L: usize>(faces: &[FaceInfo]) -> Vec<FaceBatch<L>> {
    use std::collections::BTreeMap;
    let mut by_cat: BTreeMap<FaceCategory, Vec<&FaceInfo>> = BTreeMap::new();
    for f in faces {
        by_cat.entry(FaceCategory::of(f)).or_default().push(f);
    }
    let mut out = Vec::new();
    for (category, members) in by_cat {
        for chunk in members.chunks(L) {
            let mut minus = [u32::MAX; L];
            let mut plus = [u32::MAX; L];
            for (l, f) in chunk.iter().enumerate() {
                minus[l] = f.minus;
                plus[l] = f.plus.unwrap_or(u32::MAX);
            }
            out.push(FaceBatch {
                category,
                minus,
                plus,
                n_filled: chunk.len(),
            });
        }
    }
    out
}

/// Greedy conflict-free coloring of face batches: two batches sharing a
/// cell never get the same color, so face loops can run each color in
/// parallel while scattering into the destination vector without atomics.
pub fn color_face_batches<const L: usize>(
    batches: &[FaceBatch<L>],
    n_cells: usize,
) -> Vec<Vec<usize>> {
    greedy_colors(
        n_cells,
        batches.iter().map(|b| {
            let mut cells = Vec::with_capacity(2 * L);
            for l in 0..b.n_filled {
                cells.push(b.minus[l]);
                if b.plus[l] != u32::MAX {
                    cells.push(b.plus[l]);
                }
            }
            cells
        }),
    )
}

/// Greedy conflict coloring: batch `i` (in iteration order) touches the
/// keys (cells, dofs, ...) `keys_of_batch[i]`, all below `n_keys`, and
/// gets the smallest color no earlier batch sharing a key has. Batches of
/// one color are then key-disjoint and may scatter concurrently.
pub fn greedy_colors(
    n_keys: usize,
    keys_of_batch: impl IntoIterator<Item = Vec<u32>>,
) -> Vec<Vec<usize>> {
    let mut color_of_key: Vec<Vec<u32>> = vec![Vec::new(); n_keys]; // colors already touching key
    let mut colors: Vec<Vec<usize>> = Vec::new();
    for (bi, keys) in keys_of_batch.into_iter().enumerate() {
        // find the smallest color not used by any touched key
        let mut c = 0u32;
        'search: loop {
            for &k in &keys {
                if color_of_key[k as usize].contains(&c) {
                    c += 1;
                    continue 'search;
                }
            }
            break;
        }
        if c as usize == colors.len() {
            colors.push(Vec::new());
        }
        colors[c as usize].push(bi);
        for &k in &keys {
            color_of_key[k as usize].push(c);
        }
    }
    colors
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgflow_mesh::{CoarseMesh, Forest};

    #[test]
    fn cell_batches_cover_all_cells() {
        let b = CellBatch::<8>::batch_all(21);
        assert_eq!(b.len(), 3);
        assert_eq!(b[2].n_filled, 5);
        assert_eq!(b[2].cells[4], 20);
        assert_eq!(b[2].cells[5], u32::MAX);
    }

    #[test]
    fn face_batches_are_category_homogeneous_and_complete() {
        let mut forest = Forest::new(CoarseMesh::subdivided_box([2, 2, 2], [1.0; 3]));
        forest.refine_global(1);
        let faces = forest.build_faces();
        let batches = batch_faces::<4>(&faces);
        let total: usize = batches.iter().map(|b| b.n_filled).sum();
        assert_eq!(total, faces.len());
        for b in &batches {
            for l in 0..b.n_filled {
                assert_ne!(b.minus[l], u32::MAX);
                if b.category.is_boundary {
                    assert_eq!(b.plus[l], u32::MAX);
                } else {
                    assert_ne!(b.plus[l], u32::MAX);
                }
            }
        }
    }

    #[test]
    fn coloring_has_no_conflicts() {
        let mut forest = Forest::new(CoarseMesh::subdivided_box([2, 2, 1], [2.0, 2.0, 1.0]));
        forest.refine_global(1);
        let mut marks = vec![false; forest.n_active()];
        marks[0] = true;
        forest.refine_active(&marks);
        let faces = forest.build_faces();
        let batches = batch_faces::<4>(&faces);
        let colors = color_face_batches(&batches, forest.n_active());
        let total: usize = colors.iter().map(|c| c.len()).sum();
        assert_eq!(total, batches.len());
        // batches scatter their lanes serially, so a cell may appear twice
        // *within* one batch; only cross-batch sharing within a color races
        for group in &colors {
            let mut touched = std::collections::HashSet::new();
            for &bi in group {
                let b = &batches[bi];
                let mut own = std::collections::HashSet::new();
                for l in 0..b.n_filled {
                    own.insert(b.minus[l]);
                    if b.plus[l] != u32::MAX {
                        own.insert(b.plus[l]);
                    }
                }
                for c in own {
                    assert!(touched.insert(c), "cross-batch conflict in color");
                }
            }
        }
    }

    #[test]
    fn hanging_faces_get_distinct_categories_per_subface() {
        let mut forest = Forest::new(CoarseMesh::hyper_cube());
        forest.refine_global(1);
        let mut marks = vec![false; 8];
        marks[0] = true;
        forest.refine_active(&marks);
        let faces = forest.build_faces();
        let batches = batch_faces::<8>(&faces);
        let hanging_cats: std::collections::HashSet<_> = batches
            .iter()
            .filter(|b| b.category.subface().is_some())
            .map(|b| b.category)
            .collect();
        // 3 coarse faces × 4 subfaces
        assert_eq!(hanging_cats.len(), 12);
    }
}
