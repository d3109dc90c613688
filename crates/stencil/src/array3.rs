//! Dense 3-D arrays with MPDATA-style storage layout.
//!
//! The element at `(i, j, k)` lives at linear offset
//! `((i - base.i) * nj + (j - base.j)) * nk + (k - base.k)`, i.e. `k` is the
//! fastest-varying (contiguous) axis. An [`Array3`] may cover an arbitrary
//! [`Region3`] (not necessarily starting at the origin), which is how
//! block-local scratch arrays for the (3+1)D decomposition and enlarged
//! island sub-domains are represented without index translation at every
//! kernel site.

use crate::region::Region3;
use std::fmt;

/// A dense 3-D array of `f64` covering a [`Region3`] of the global index
/// space.
///
/// Indexing uses *global* coordinates; the array internally subtracts its
/// region origin. Out-of-region accesses panic in debug builds through the
/// slice bounds check (the linear offset is computed without per-axis
/// checks in release builds, so callers must respect [`Array3::region`]).
///
/// # Examples
///
/// ```
/// use stencil_engine::{Array3, Region3};
/// let mut a = Array3::zeros(Region3::of_extent(4, 4, 4));
/// a.set(1, 2, 3, 7.5);
/// assert_eq!(a.get(1, 2, 3), 7.5);
/// assert_eq!(a.get(0, 0, 0), 0.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Array3 {
    region: Region3,
    nj: i64,
    nk: i64,
    data: Vec<f64>,
}

impl Array3 {
    /// Creates an array covering `region`, filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `region` is empty.
    pub fn zeros(region: Region3) -> Self {
        Self::filled(region, 0.0)
    }

    /// Creates an array covering `region`, filled with `value`.
    ///
    /// # Panics
    ///
    /// Panics if `region` is empty.
    pub fn filled(region: Region3, value: f64) -> Self {
        assert!(!region.is_empty(), "cannot allocate an empty Array3");
        Array3 {
            region,
            nj: region.j.len() as i64,
            nk: region.k.len() as i64,
            data: vec![value; region.cells()],
        }
    }

    /// Creates an array by evaluating `f(i, j, k)` at every point of
    /// `region` (global coordinates).
    ///
    /// # Panics
    ///
    /// Panics if `region` is empty.
    pub fn from_fn(region: Region3, mut f: impl FnMut(i64, i64, i64) -> f64) -> Self {
        let mut a = Self::zeros(region);
        for i in region.i.lo..region.i.hi {
            for j in region.j.lo..region.j.hi {
                for k in region.k.lo..region.k.hi {
                    let idx = a.offset(i, j, k);
                    a.data[idx] = f(i, j, k);
                }
            }
        }
        a
    }

    /// The region of global index space this array covers.
    #[inline]
    pub fn region(&self) -> Region3 {
        self.region
    }

    /// Re-targets the array at `region`, reusing the existing
    /// allocation — the per-tile scratch shrink of the tile-fused
    /// replay, which must not allocate on the steady-state path.
    ///
    /// The contents are *not* cleared: cells keep whatever bytes the
    /// previous region left at the same linear offsets, so callers must
    /// write (or explicitly zero) every cell they read. The debug trace
    /// key is the data pointer, which survives a rebase — access
    /// tracing follows the buffer, not the region.
    ///
    /// # Panics
    ///
    /// Panics if `region` is empty or holds more cells than the
    /// original allocation.
    pub fn rebase(&mut self, region: Region3) {
        assert!(!region.is_empty(), "cannot rebase to an empty region");
        assert!(
            region.cells() <= self.data.len(),
            "rebase target {:?} needs {} cells but the allocation holds {}",
            region,
            region.cells(),
            self.data.len()
        );
        self.region = region;
        self.nj = region.j.len() as i64;
        self.nk = region.k.len() as i64;
    }

    /// Slides the array forward along `I` to `region`, keeping the
    /// values of the `I`-planes the old and new regions share — the
    /// per-block window move of the (3+1)D scratch, which must not
    /// allocate.
    ///
    /// `I` is the slowest axis, so the kept planes are one contiguous
    /// tail of the old storage and move to the front with a single
    /// `copy_within`. Planes that enter the window (beyond the old
    /// region's `I` end) hold stale bytes, as after [`Array3::rebase`].
    ///
    /// # Panics
    ///
    /// Panics if `region` is empty, differs from the current region
    /// along `J` or `K`, starts earlier along `I`, or holds more cells
    /// than the allocation.
    pub fn slide(&mut self, region: Region3) {
        let old = self.region;
        assert!(
            region.j == old.j && region.k == old.k && region.i.lo >= old.i.lo,
            "slide from {old:?} to {region:?} must keep J and K and move forward along I"
        );
        let plane = (self.nj * self.nk) as usize;
        let shift = (region.i.lo - old.i.lo) as usize;
        let kept = (old.i.hi.min(region.i.hi) - region.i.lo).max(0) as usize;
        self.rebase(region);
        if shift > 0 && kept > 0 {
            self.data
                .copy_within(shift * plane..(shift + kept) * plane, 0);
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the array holds no elements (never true for a constructed
    /// array, but provided for API completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Linear offset of global coordinates `(i, j, k)`.
    #[inline(always)]
    fn offset(&self, i: i64, j: i64, k: i64) -> usize {
        debug_assert!(
            self.region.contains(i, j, k),
            "index ({i},{j},{k}) outside array region {:?}",
            self.region
        );
        (((i - self.region.i.lo) * self.nj + (j - self.region.j.lo)) * self.nk
            + (k - self.region.k.lo)) as usize
    }

    /// The key under which debug access tracing logs this array (see
    /// [`crate::trace`]).
    #[cfg(debug_assertions)]
    #[inline(always)]
    fn trace_key(&self) -> crate::trace::ArrayKey {
        self.data.as_ptr() as crate::trace::ArrayKey
    }

    /// Reads the element at global coordinates `(i, j, k)`.
    #[inline(always)]
    pub fn get(&self, i: i64, j: i64, k: i64) -> f64 {
        #[cfg(debug_assertions)]
        crate::trace::on_read(self.trace_key(), i, j, k);
        self.data[self.offset(i, j, k)]
    }

    /// Writes the element at global coordinates `(i, j, k)`.
    #[inline(always)]
    pub fn set(&mut self, i: i64, j: i64, k: i64, v: f64) {
        #[cfg(debug_assertions)]
        crate::trace::on_write(self.trace_key(), i, j, k);
        let o = self.offset(i, j, k);
        self.data[o] = v;
    }

    /// Borrow of the raw storage in layout order.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable borrow of the raw storage in layout order.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Fills the whole array with `value`.
    pub fn fill(&mut self, value: f64) {
        self.data.fill(value);
    }

    /// Sum of all elements within `sub` (clipped to this array's region).
    pub fn sum_region(&self, sub: Region3) -> f64 {
        let r = self.region.intersect(sub);
        let mut s = 0.0;
        for i in r.i.lo..r.i.hi {
            for j in r.j.lo..r.j.hi {
                for k in r.k.lo..r.k.hi {
                    s += self.get(i, j, k);
                }
            }
        }
        s
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Minimum element (NaN-poisoned inputs yield unspecified results).
    pub fn min(&self) -> f64 {
        self.data.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum element.
    pub fn max(&self) -> f64 {
        self.data.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Copies the elements of `src` within `sub` into `self`. `sub` is
    /// clipped to the intersection of both arrays' regions.
    pub fn copy_region_from(&mut self, src: &Array3, sub: Region3) {
        let r = self.region.intersect(src.region).intersect(sub);
        for i in r.i.lo..r.i.hi {
            for j in r.j.lo..r.j.hi {
                // Copy contiguous k-rows.
                let d0 = self.offset(i, j, r.k.lo);
                let s0 = src.offset(i, j, r.k.lo);
                let n = r.k.len();
                self.data[d0..d0 + n].copy_from_slice(&src.data[s0..s0 + n]);
            }
        }
    }

    /// Largest absolute element-wise difference on the intersection of the
    /// two regions.
    ///
    /// NaN if any difference is NaN — a cell that is NaN in either
    /// array, or infinite with the same sign in both — so a NaN can
    /// never pass for agreement. Use [`Array3::bits_eq`] for bitwise
    /// equality.
    pub fn max_abs_diff(&self, other: &Array3) -> f64 {
        let r = self.region.intersect(other.region);
        let mut m: f64 = 0.0;
        for i in r.i.lo..r.i.hi {
            for j in r.j.lo..r.j.hi {
                for k in r.k.lo..r.k.hi {
                    let d = (self.get(i, j, k) - other.get(i, j, k)).abs();
                    if d.is_nan() {
                        return f64::NAN;
                    }
                    m = m.max(d);
                }
            }
        }
        m
    }

    /// Whether both arrays cover the same region and every cell has the
    /// same bit pattern (so `-0.0 ≠ +0.0`, and a NaN equals only the
    /// identical NaN).
    pub fn bits_eq(&self, other: &Array3) -> bool {
        let n = self.region.cells();
        self.region == other.region
            && self.data[..n]
                .iter()
                .zip(&other.data[..n])
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// Borrows the contiguous `k`-row of cells `(i, j, kr)` (global
    /// coordinates).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds, via the offset check) if the row is not
    /// fully inside the array's region; `kr` must be non-empty.
    #[inline]
    pub fn row(&self, i: i64, j: i64, kr: crate::region::Range1) -> &[f64] {
        #[cfg(debug_assertions)]
        crate::trace::on_read_row(self.trace_key(), i, j, kr);
        let o = self.offset(i, j, kr.lo);
        &self.data[o..o + kr.len()]
    }

    /// Mutably borrows the contiguous `k`-row of cells `(i, j, kr)`.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Array3::row`].
    #[inline]
    pub fn row_mut(&mut self, i: i64, j: i64, kr: crate::region::Range1) -> &mut [f64] {
        #[cfg(debug_assertions)]
        crate::trace::on_write_row(self.trace_key(), i, j, kr);
        let o = self.offset(i, j, kr.lo);
        &mut self.data[o..o + kr.len()]
    }

    /// Iterates over `(i, j, k, value)` in layout order.
    pub fn iter_indexed(&self) -> impl Iterator<Item = (i64, i64, i64, f64)> + '_ {
        self.region
            .points()
            .map(|(i, j, k)| (i, j, k, self.get(i, j, k)))
    }
}

impl fmt::Debug for Array3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Array3 {{ region: {:?}, len: {} }}",
            self.region,
            self.data.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::Range1;

    #[test]
    fn zeros_and_set_get() {
        let mut a = Array3::zeros(Region3::of_extent(3, 4, 5));
        assert_eq!(a.len(), 60);
        a.set(2, 3, 4, 1.5);
        assert_eq!(a.get(2, 3, 4), 1.5);
        assert_eq!(a.get(0, 0, 0), 0.0);
    }

    #[test]
    fn offset_base_region() {
        // Array covering a region that does not start at the origin.
        let r = Region3::new(Range1::new(10, 13), Range1::new(-2, 2), Range1::new(5, 7));
        let a = Array3::from_fn(r, |i, j, k| (i * 100 + j * 10 + k) as f64);
        assert_eq!(a.get(10, -2, 5), 1000.0 - 20.0 + 5.0);
        assert_eq!(a.get(12, 1, 6), 1216.0);
    }

    #[test]
    fn layout_k_fastest() {
        let a = Array3::from_fn(Region3::of_extent(2, 2, 3), |i, j, k| {
            (i * 6 + j * 3 + k) as f64
        });
        // Linear order must equal enumeration order with k fastest.
        let expect: Vec<f64> = (0..12).map(|v| v as f64).collect();
        assert_eq!(a.as_slice(), expect.as_slice());
    }

    #[test]
    fn sum_min_max() {
        let a = Array3::from_fn(Region3::of_extent(2, 2, 2), |i, j, k| (i + j + k) as f64);
        assert_eq!(a.sum(), 0.0 + 1.0 + 1.0 + 2.0 + 1.0 + 2.0 + 2.0 + 3.0);
        assert_eq!(a.min(), 0.0);
        assert_eq!(a.max(), 3.0);
    }

    #[test]
    fn sum_region_clips() {
        let a = Array3::filled(Region3::of_extent(4, 4, 4), 1.0);
        let sub = Region3::new(Range1::new(2, 10), Range1::new(0, 2), Range1::new(0, 4));
        assert_eq!(a.sum_region(sub), (2 * 2 * 4) as f64);
    }

    #[test]
    fn copy_region_from_contiguous_rows() {
        let src = Array3::from_fn(Region3::of_extent(4, 4, 4), |i, j, k| {
            (i * 16 + j * 4 + k) as f64
        });
        let mut dst = Array3::zeros(Region3::of_extent(4, 4, 4));
        let sub = Region3::new(Range1::new(1, 3), Range1::new(1, 3), Range1::new(0, 4));
        dst.copy_region_from(&src, sub);
        assert_eq!(dst.get(1, 1, 0), src.get(1, 1, 0));
        assert_eq!(dst.get(2, 2, 3), src.get(2, 2, 3));
        assert_eq!(dst.get(0, 0, 0), 0.0);
        assert_eq!(dst.get(3, 3, 3), 0.0);
    }

    #[test]
    fn max_abs_diff_on_intersection() {
        let a = Array3::filled(Region3::of_extent(3, 3, 3), 2.0);
        let mut b = Array3::filled(Region3::of_extent(3, 3, 3), 2.0);
        b.set(1, 1, 1, 2.5);
        assert_eq!(a.max_abs_diff(&b), 0.5);
        assert_eq!(a.max_abs_diff(&a.clone()), 0.0);
    }

    #[test]
    fn max_abs_diff_reports_nan_instead_of_hiding_it() {
        let a = Array3::filled(Region3::of_extent(3, 3, 3), 2.0);
        let mut b = a.clone();
        b.set(2, 2, 2, f64::NAN);
        assert!(a.max_abs_diff(&b).is_nan());
        assert!(b.max_abs_diff(&a).is_nan());
        // A NaN followed by a larger finite difference stays NaN.
        b.set(0, 0, 0, f64::NAN);
        b.set(2, 2, 2, 100.0);
        assert!(a.max_abs_diff(&b).is_nan());
        // Infinities of the same sign differ by NaN, too.
        let inf = Array3::filled(Region3::of_extent(1, 1, 1), f64::INFINITY);
        assert!(inf.max_abs_diff(&inf.clone()).is_nan());
    }

    #[test]
    fn bits_eq_distinguishes_signed_zeros_and_regions() {
        let r = Region3::of_extent(2, 2, 2);
        let a = Array3::filled(r, 0.0);
        let mut b = a.clone();
        assert!(a.bits_eq(&b));
        b.set(1, 1, 1, -0.0);
        assert_eq!(a.max_abs_diff(&b), 0.0);
        assert!(!a.bits_eq(&b));
        let nan = Array3::filled(r, f64::NAN);
        assert!(nan.bits_eq(&nan.clone()));
        assert!(!nan.bits_eq(&a));
        // Same values over a different region are not equal.
        let shifted = Array3::filled(
            Region3::new(Range1::new(1, 3), Range1::new(0, 2), Range1::new(0, 2)),
            0.0,
        );
        assert!(!a.bits_eq(&shifted));
        // Only the region's cells count after a rebase shrinks it.
        let mut seven = Array3::filled(Region3::of_extent(3, 3, 3), 7.0);
        let mut nine = Array3::filled(Region3::of_extent(3, 3, 3), 9.0);
        for x in [&mut seven, &mut nine] {
            x.rebase(r);
            for (i, j, k) in r.points() {
                x.set(i, j, k, 0.0);
            }
        }
        assert!(seven.bits_eq(&nine));
    }

    #[test]
    #[should_panic]
    fn empty_region_panics() {
        let _ = Array3::zeros(Region3::empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic]
    fn out_of_region_access_panics_in_debug() {
        let a = Array3::zeros(Region3::of_extent(2, 2, 2));
        let _ = a.get(2, 0, 0);
    }

    #[test]
    fn row_accessors_match_get() {
        let r = Region3::new(Range1::new(2, 5), Range1::new(1, 4), Range1::new(10, 16));
        let mut a = Array3::from_fn(r, |i, j, k| (i * 1000 + j * 100 + k) as f64);
        let row = a.row(3, 2, Range1::new(11, 15));
        assert_eq!(row.len(), 4);
        assert_eq!(row[0], a.get(3, 2, 11));
        assert_eq!(row[3], a.get(3, 2, 14));
        let row = a.row_mut(4, 1, Range1::new(10, 16));
        row[5] = -7.0;
        assert_eq!(a.get(4, 1, 15), -7.0);
    }

    #[test]
    fn rebase_reuses_allocation_and_reindexes() {
        let big = Region3::of_extent(4, 4, 4);
        let mut a = Array3::from_fn(big, |i, j, k| (i * 100 + j * 10 + k) as f64);
        let small = Region3::new(Range1::new(10, 12), Range1::new(-1, 2), Range1::new(0, 3));
        assert!(small.cells() <= big.cells());
        a.rebase(small);
        assert_eq!(a.region(), small);
        // Same allocation, new indexing: writing through the new region
        // and reading it back round-trips.
        for (i, j, k) in small.points() {
            a.set(i, j, k, (i - j + k) as f64);
        }
        for (i, j, k) in small.points() {
            assert_eq!(a.get(i, j, k), (i - j + k) as f64);
        }
        // Rebasing back to a same-cell-count region also works.
        a.rebase(big);
        assert_eq!(a.region(), big);
    }

    #[test]
    fn slide_keeps_the_shared_planes_in_place() {
        let value = |i: i64, j: i64, k: i64| (i * 100 + j * 10 + k) as f64;
        let old = Region3::new(Range1::new(3, 8), Range1::new(-1, 2), Range1::new(0, 4));
        let mut a = Array3::from_fn(old, value);
        let ptr = a.as_slice().as_ptr();
        // Forward by two planes and one plane longer: planes 5..8 kept.
        let new = old.with_range(crate::region::Axis::I, Range1::new(5, 9));
        a.slide(new);
        assert_eq!(a.region(), new);
        assert_eq!(a.as_slice().as_ptr(), ptr, "a slide never reallocates");
        for (i, j, k) in new.points().filter(|&(i, _, _)| i < 8) {
            assert_eq!(a.get(i, j, k), value(i, j, k), "at ({i},{j},{k})");
        }
        // A window past the old end keeps nothing; an unmoved one keeps
        // everything.
        let mut b = Array3::from_fn(old, value);
        b.slide(old.with_range(crate::region::Axis::I, Range1::new(9, 11)));
        let mut c = Array3::from_fn(old, value);
        c.slide(old);
        assert!(c.bits_eq(&Array3::from_fn(old, value)));
    }

    #[test]
    #[should_panic(expected = "move forward along I")]
    fn slide_backwards_panics() {
        let r = Region3::new(Range1::new(3, 8), Range1::new(0, 2), Range1::new(0, 2));
        let mut a = Array3::zeros(r);
        a.slide(r.with_range(crate::region::Axis::I, Range1::new(2, 6)));
    }

    #[test]
    #[should_panic(expected = "rebase target")]
    fn rebase_larger_than_allocation_panics() {
        let mut a = Array3::zeros(Region3::of_extent(2, 2, 2));
        a.rebase(Region3::of_extent(3, 3, 3));
    }

    #[test]
    fn iter_indexed_matches_get() {
        let a = Array3::from_fn(Region3::of_extent(2, 3, 2), |i, j, k| {
            (i * 100 + j * 10 + k) as f64
        });
        for (i, j, k, v) in a.iter_indexed() {
            assert_eq!(v, a.get(i, j, k));
        }
        assert_eq!(a.iter_indexed().count(), 12);
    }
}
