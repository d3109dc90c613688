//! Axis-aligned index ranges and 3-D regions.
//!
//! A [`Region3`] is the basic unit of work distribution in this crate: a
//! half-open box `[i.lo, i.hi) × [j.lo, j.hi) × [k.lo, k.hi)` of grid
//! indices. Regions are closed under intersection and (outward) expansion,
//! which is exactly what the backward stage-requirement analysis in
//! [`crate::graph`] needs.
//!
//! Indices are signed (`i64`) so that a region expanded by a stencil halo
//! may temporarily extend below zero before being clipped to the domain.

use std::fmt;

/// A half-open, possibly empty range of signed grid indices `[lo, hi)`.
///
/// # Examples
///
/// ```
/// use stencil_engine::Range1;
/// let r = Range1::new(2, 10);
/// assert_eq!(r.len(), 8);
/// assert!(r.contains(2) && !r.contains(10));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Range1 {
    /// Inclusive lower bound.
    pub lo: i64,
    /// Exclusive upper bound.
    pub hi: i64,
}

impl Range1 {
    /// Creates the range `[lo, hi)`. If `hi <= lo` the range is empty.
    #[inline]
    pub fn new(lo: i64, hi: i64) -> Self {
        Range1 { lo, hi }
    }

    /// The canonical empty range `[0, 0)`.
    #[inline]
    pub fn empty() -> Self {
        Range1 { lo: 0, hi: 0 }
    }

    /// Number of indices in the range (zero when empty).
    #[inline]
    pub fn len(self) -> usize {
        if self.hi > self.lo {
            (self.hi - self.lo) as usize
        } else {
            0
        }
    }

    /// Whether the range contains no indices.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.hi <= self.lo
    }

    /// Whether `x` lies in `[lo, hi)`.
    #[inline]
    pub fn contains(self, x: i64) -> bool {
        self.lo <= x && x < self.hi
    }

    /// Whether `other` is entirely inside `self` (empty ranges are inside
    /// everything).
    #[inline]
    pub fn contains_range(self, other: Range1) -> bool {
        other.is_empty() || (self.lo <= other.lo && other.hi <= self.hi)
    }

    /// Intersection of two ranges; empty ranges are normalized to
    /// [`Range1::empty`].
    #[inline]
    pub fn intersect(self, other: Range1) -> Range1 {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        if hi <= lo {
            Range1::empty()
        } else {
            Range1 { lo, hi }
        }
    }

    /// Smallest range covering both inputs (the *hull*; gaps are filled).
    /// An empty input is the identity.
    #[inline]
    pub fn hull(self, other: Range1) -> Range1 {
        if self.is_empty() {
            other
        } else if other.is_empty() {
            self
        } else {
            Range1::new(self.lo.min(other.lo), self.hi.max(other.hi))
        }
    }

    /// Expands the range by `neg` indices downward and `pos` upward.
    /// Expanding an empty range yields an empty range.
    #[inline]
    pub fn expand(self, neg: i64, pos: i64) -> Range1 {
        if self.is_empty() {
            Range1::empty()
        } else {
            Range1::new(self.lo - neg, self.hi + pos)
        }
    }

    /// Shifts both bounds by `d`.
    #[inline]
    pub fn shift(self, d: i64) -> Range1 {
        Range1::new(self.lo + d, self.hi + d)
    }

    /// Splits the range into `parts` contiguous chunks whose lengths differ
    /// by at most one (earlier chunks receive the remainder), mirroring how
    /// the paper decomposes the MPDATA grid into equal parts.
    ///
    /// # Panics
    ///
    /// Panics if `parts == 0`.
    pub fn split(self, parts: usize) -> Vec<Range1> {
        assert!(parts > 0, "cannot split a range into zero parts");
        let n = self.len();
        let base = n / parts;
        let rem = n % parts;
        let mut out = Vec::with_capacity(parts);
        let mut lo = self.lo;
        for p in 0..parts {
            let len = base + usize::from(p < rem);
            out.push(Range1::new(lo, lo + len as i64));
            lo += len as i64;
        }
        out
    }

    /// Splits the range into chunks of at most `chunk` indices.
    ///
    /// # Panics
    ///
    /// Panics if `chunk == 0`.
    pub fn chunks(self, chunk: usize) -> Vec<Range1> {
        assert!(chunk > 0, "chunk size must be positive");
        let mut out = Vec::new();
        let mut lo = self.lo;
        while lo < self.hi {
            let hi = (lo + chunk as i64).min(self.hi);
            out.push(Range1::new(lo, hi));
            lo = hi;
        }
        out
    }
}

impl fmt::Debug for Range1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.lo, self.hi)
    }
}

impl fmt::Display for Range1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.lo, self.hi)
    }
}

/// The three grid axes of an MPDATA-style domain.
///
/// The array layout (see [`crate::Array3`]) makes `K` the fastest-varying
/// axis, so partitioning along [`Axis::I`] yields fully contiguous parts
/// and partitioning along [`Axis::J`] yields plane-contiguous parts —
/// exactly the "first and second dimensions" restriction from the paper.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Axis {
    /// First (slowest-varying) dimension.
    I,
    /// Second dimension.
    J,
    /// Third (fastest-varying, contiguous) dimension.
    K,
}

impl Axis {
    /// All three axes in storage order.
    pub const ALL: [Axis; 3] = [Axis::I, Axis::J, Axis::K];

    /// Index of the axis in `(i, j, k)` order.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Axis::I => 0,
            Axis::J => 1,
            Axis::K => 2,
        }
    }
}

impl fmt::Display for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Axis::I => write!(f, "i"),
            Axis::J => write!(f, "j"),
            Axis::K => write!(f, "k"),
        }
    }
}

/// A half-open axis-aligned 3-D box of grid indices.
///
/// # Examples
///
/// ```
/// use stencil_engine::Region3;
/// let dom = Region3::of_extent(8, 4, 2);
/// assert_eq!(dom.cells(), 64);
/// let inner = dom.expand_uniform(-1);
/// assert_eq!(inner.cells(), 6 * 2 * 0); // k collapses to empty
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Region3 {
    /// Range along the first axis.
    pub i: Range1,
    /// Range along the second axis.
    pub j: Range1,
    /// Range along the third axis.
    pub k: Range1,
}

impl Region3 {
    /// Creates a region from three ranges.
    #[inline]
    pub fn new(i: Range1, j: Range1, k: Range1) -> Self {
        Region3 { i, j, k }
    }

    /// The region `[0, ni) × [0, nj) × [0, nk)`.
    #[inline]
    pub fn of_extent(ni: usize, nj: usize, nk: usize) -> Self {
        Region3 {
            i: Range1::new(0, ni as i64),
            j: Range1::new(0, nj as i64),
            k: Range1::new(0, nk as i64),
        }
    }

    /// The canonical empty region.
    #[inline]
    pub fn empty() -> Self {
        Region3 {
            i: Range1::empty(),
            j: Range1::empty(),
            k: Range1::empty(),
        }
    }

    /// Range along `axis`.
    #[inline]
    pub fn range(self, axis: Axis) -> Range1 {
        match axis {
            Axis::I => self.i,
            Axis::J => self.j,
            Axis::K => self.k,
        }
    }

    /// Returns a copy with the range along `axis` replaced.
    #[inline]
    pub fn with_range(mut self, axis: Axis, r: Range1) -> Self {
        match axis {
            Axis::I => self.i = r,
            Axis::J => self.j = r,
            Axis::K => self.k = r,
        }
        self
    }

    /// Number of cells in the region.
    #[inline]
    pub fn cells(self) -> usize {
        self.i.len() * self.j.len() * self.k.len()
    }

    /// Whether the region contains no cells.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.i.is_empty() || self.j.is_empty() || self.k.is_empty()
    }

    /// Whether the point `(i, j, k)` lies inside.
    #[inline]
    pub fn contains(self, i: i64, j: i64, k: i64) -> bool {
        self.i.contains(i) && self.j.contains(j) && self.k.contains(k)
    }

    /// Whether `other` lies entirely inside `self`.
    #[inline]
    pub fn contains_region(self, other: Region3) -> bool {
        other.is_empty()
            || (self.i.contains_range(other.i)
                && self.j.contains_range(other.j)
                && self.k.contains_range(other.k))
    }

    /// Intersection of two regions.
    #[inline]
    pub fn intersect(self, other: Region3) -> Region3 {
        let r = Region3 {
            i: self.i.intersect(other.i),
            j: self.j.intersect(other.j),
            k: self.k.intersect(other.k),
        };
        if r.is_empty() {
            Region3::empty()
        } else {
            r
        }
    }

    /// Smallest box covering both regions (gaps filled). Empty inputs are
    /// identities.
    #[inline]
    pub fn hull(self, other: Region3) -> Region3 {
        if self.is_empty() {
            other
        } else if other.is_empty() {
            self
        } else {
            Region3 {
                i: self.i.hull(other.i),
                j: self.j.hull(other.j),
                k: self.k.hull(other.k),
            }
        }
    }

    /// Expands the region outward by a [`Halo3`]. Negative components
    /// shrink the region. Empty regions stay empty.
    #[inline]
    pub fn expand(self, halo: Halo3) -> Region3 {
        if self.is_empty() {
            return Region3::empty();
        }
        let r = Region3 {
            i: self.i.expand(halo.i_neg, halo.i_pos),
            j: self.j.expand(halo.j_neg, halo.j_pos),
            k: self.k.expand(halo.k_neg, halo.k_pos),
        };
        if r.is_empty() {
            Region3::empty()
        } else {
            r
        }
    }

    /// Expands uniformly by `d` in every direction (negative `d` shrinks).
    #[inline]
    pub fn expand_uniform(self, d: i64) -> Region3 {
        self.expand(Halo3 {
            i_neg: d,
            i_pos: d,
            j_neg: d,
            j_pos: d,
            k_neg: d,
            k_pos: d,
        })
    }

    /// Whether the two regions share at least one cell.
    #[inline]
    pub fn overlaps(self, other: Region3) -> bool {
        !self.intersect(other).is_empty()
    }

    /// Splits the region along `axis` into `parts` near-equal sub-regions.
    ///
    /// # Panics
    ///
    /// Panics if `parts == 0`.
    pub fn split(self, axis: Axis, parts: usize) -> Vec<Region3> {
        self.range(axis)
            .split(parts)
            .into_iter()
            .map(|r| self.with_range(axis, r))
            .collect()
    }

    /// Splits along `axis` into chunks of at most `chunk` indices.
    ///
    /// # Panics
    ///
    /// Panics if `chunk == 0`.
    pub fn chunks(self, axis: Axis, chunk: usize) -> Vec<Region3> {
        self.range(axis)
            .chunks(chunk)
            .into_iter()
            .map(|r| self.with_range(axis, r))
            .collect()
    }

    /// Set difference `self ∖ other` as up to six disjoint boxes (slab
    /// decomposition: i-slabs below/above the cut, then j-slabs, then
    /// k-slabs). Returns `[self]` when the regions do not overlap and
    /// `[]` when `other` covers `self`.
    pub fn subtract(self, other: Region3) -> Vec<Region3> {
        let cut = self.intersect(other);
        if cut.is_empty() {
            return if self.is_empty() { vec![] } else { vec![self] };
        }
        let mut out = Vec::new();
        let mut push = |r: Region3| {
            if !r.is_empty() {
                out.push(r);
            }
        };
        // i-slabs outside the cut, spanning full j × k of self.
        push(Region3::new(
            Range1::new(self.i.lo, cut.i.lo),
            self.j,
            self.k,
        ));
        push(Region3::new(
            Range1::new(cut.i.hi, self.i.hi),
            self.j,
            self.k,
        ));
        // Within the cut's i-range: j-slabs spanning full k.
        push(Region3::new(
            cut.i,
            Range1::new(self.j.lo, cut.j.lo),
            self.k,
        ));
        push(Region3::new(
            cut.i,
            Range1::new(cut.j.hi, self.j.hi),
            self.k,
        ));
        // Within the cut's i×j: k-slabs.
        push(Region3::new(cut.i, cut.j, Range1::new(self.k.lo, cut.k.lo)));
        push(Region3::new(cut.i, cut.j, Range1::new(cut.k.hi, self.k.hi)));
        out
    }

    /// Iterates over all `(i, j, k)` points, `k` fastest.
    pub fn points(self) -> impl Iterator<Item = (i64, i64, i64)> {
        let (j, k) = (self.j, self.k);
        (self.i.lo..self.i.hi).flat_map(move |i| {
            (j.lo..j.hi).flat_map(move |jj| (k.lo..k.hi).map(move |kk| (i, jj, kk)))
        })
    }
}

impl fmt::Debug for Region3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}×{:?}×{:?}", self.i, self.j, self.k)
    }
}

impl fmt::Display for Region3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}×{}×{}", self.i, self.j, self.k)
    }
}

/// Per-direction halo widths of a stencil pattern or accumulated
/// requirement: how far reads reach below (`*_neg`) and above (`*_pos`)
/// the written cell along each axis. All components are non-negative for
/// halos derived from patterns.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct Halo3 {
    /// Reach toward lower `i`.
    pub i_neg: i64,
    /// Reach toward higher `i`.
    pub i_pos: i64,
    /// Reach toward lower `j`.
    pub j_neg: i64,
    /// Reach toward higher `j`.
    pub j_pos: i64,
    /// Reach toward lower `k`.
    pub k_neg: i64,
    /// Reach toward higher `k`.
    pub k_pos: i64,
}

impl Halo3 {
    /// The zero halo (pointwise access).
    pub const ZERO: Halo3 = Halo3 {
        i_neg: 0,
        i_pos: 0,
        j_neg: 0,
        j_pos: 0,
        k_neg: 0,
        k_pos: 0,
    };

    /// Uniform halo of width `w` in every direction.
    #[inline]
    pub fn uniform(w: i64) -> Self {
        Halo3 {
            i_neg: w,
            i_pos: w,
            j_neg: w,
            j_pos: w,
            k_neg: w,
            k_pos: w,
        }
    }

    /// Component-wise maximum (union of reaches).
    #[inline]
    pub fn max(self, o: Halo3) -> Halo3 {
        Halo3 {
            i_neg: self.i_neg.max(o.i_neg),
            i_pos: self.i_pos.max(o.i_pos),
            j_neg: self.j_neg.max(o.j_neg),
            j_pos: self.j_pos.max(o.j_pos),
            k_neg: self.k_neg.max(o.k_neg),
            k_pos: self.k_pos.max(o.k_pos),
        }
    }

    /// Component-wise sum (composition of two dependency steps).
    #[inline]
    pub fn plus(self, o: Halo3) -> Halo3 {
        Halo3 {
            i_neg: self.i_neg + o.i_neg,
            i_pos: self.i_pos + o.i_pos,
            j_neg: self.j_neg + o.j_neg,
            j_pos: self.j_pos + o.j_pos,
            k_neg: self.k_neg + o.k_neg,
            k_pos: self.k_pos + o.k_pos,
        }
    }

    /// Reach (neg, pos) along `axis`.
    #[inline]
    pub fn along(self, axis: Axis) -> (i64, i64) {
        match axis {
            Axis::I => (self.i_neg, self.i_pos),
            Axis::J => (self.j_neg, self.j_pos),
            Axis::K => (self.k_neg, self.k_pos),
        }
    }

    /// Whether every component is zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self == Halo3::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_basic_ops() {
        let r = Range1::new(3, 9);
        assert_eq!(r.len(), 6);
        assert!(!r.is_empty());
        assert!(r.contains(3));
        assert!(r.contains(8));
        assert!(!r.contains(9));
        assert!(!r.contains(2));
    }

    #[test]
    fn range_empty_is_normalized() {
        let e = Range1::new(5, 5);
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        let e2 = Range1::new(7, 3);
        assert!(e2.is_empty());
        assert_eq!(e2.intersect(Range1::new(0, 10)), Range1::empty());
    }

    #[test]
    fn range_intersect_and_hull() {
        let a = Range1::new(0, 10);
        let b = Range1::new(5, 15);
        assert_eq!(a.intersect(b), Range1::new(5, 10));
        assert_eq!(a.hull(b), Range1::new(0, 15));
        let c = Range1::new(20, 30);
        assert!(a.intersect(c).is_empty());
        assert_eq!(a.hull(c), Range1::new(0, 30));
        assert_eq!(a.hull(Range1::empty()), a);
        assert_eq!(Range1::empty().hull(a), a);
    }

    #[test]
    fn range_expand_and_shift() {
        let r = Range1::new(4, 8);
        assert_eq!(r.expand(2, 3), Range1::new(2, 11));
        assert_eq!(r.shift(-4), Range1::new(0, 4));
        assert!(Range1::empty().expand(5, 5).is_empty());
    }

    #[test]
    fn range_split_covers_exactly() {
        let r = Range1::new(0, 14);
        let parts = r.split(4);
        assert_eq!(parts.len(), 4);
        // Lengths 4,4,3,3.
        assert_eq!(
            parts.iter().map(|p| p.len()).collect::<Vec<_>>(),
            vec![4, 4, 3, 3]
        );
        // Contiguous cover.
        assert_eq!(parts[0].lo, 0);
        for w in parts.windows(2) {
            assert_eq!(w[0].hi, w[1].lo);
        }
        assert_eq!(parts.last().unwrap().hi, 14);
    }

    #[test]
    fn range_split_more_parts_than_len() {
        let parts = Range1::new(0, 2).split(5);
        assert_eq!(parts.iter().map(|p| p.len()).sum::<usize>(), 2);
        assert_eq!(parts.len(), 5);
    }

    #[test]
    fn range_chunks() {
        let r = Range1::new(0, 10);
        let cs = r.chunks(4);
        assert_eq!(cs.len(), 3);
        assert_eq!(cs[2], Range1::new(8, 10));
    }

    #[test]
    fn region_cells_and_contains() {
        let r = Region3::of_extent(4, 3, 2);
        assert_eq!(r.cells(), 24);
        assert!(r.contains(0, 0, 0));
        assert!(r.contains(3, 2, 1));
        assert!(!r.contains(4, 0, 0));
        assert!(!r.contains(0, 0, -1));
    }

    #[test]
    fn region_intersect_empty_normalized() {
        let a = Region3::of_extent(4, 4, 4);
        let b = Region3::new(Range1::new(10, 12), Range1::new(0, 4), Range1::new(0, 4));
        assert_eq!(a.intersect(b), Region3::empty());
        assert!(!a.overlaps(b));
    }

    #[test]
    fn region_expand_and_clip() {
        let dom = Region3::of_extent(8, 8, 8);
        let inner = Region3::new(Range1::new(2, 4), Range1::new(2, 4), Range1::new(2, 4));
        let h = Halo3 {
            i_neg: 3,
            i_pos: 1,
            ..Halo3::ZERO
        };
        let e = inner.expand(h);
        assert_eq!(e.i, Range1::new(-1, 5));
        let clipped = e.intersect(dom);
        assert_eq!(clipped.i, Range1::new(0, 5));
        assert_eq!(clipped.j, inner.j);
    }

    #[test]
    fn region_split_is_partition() {
        let dom = Region3::of_extent(10, 6, 4);
        let parts = dom.split(Axis::J, 4);
        assert_eq!(parts.iter().map(|p| p.cells()).sum::<usize>(), dom.cells());
        for (a, b) in parts.iter().zip(parts.iter().skip(1)) {
            assert!(!a.overlaps(*b));
        }
    }

    #[test]
    fn region_points_order_k_fastest() {
        let r = Region3::new(Range1::new(0, 2), Range1::new(0, 1), Range1::new(0, 2));
        let pts: Vec<_> = r.points().collect();
        assert_eq!(pts, vec![(0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1)]);
    }

    #[test]
    fn halo_ops() {
        let a = Halo3 {
            i_neg: 1,
            i_pos: 0,
            j_neg: 2,
            j_pos: 1,
            k_neg: 0,
            k_pos: 0,
        };
        let b = Halo3::uniform(1);
        let m = a.max(b);
        assert_eq!(m.j_neg, 2);
        assert_eq!(m.i_pos, 1);
        let s = a.plus(b);
        assert_eq!(s.j_neg, 3);
        assert_eq!(s.k_pos, 1);
        assert!(Halo3::ZERO.is_zero());
        assert!(!b.is_zero());
    }

    #[test]
    fn region_hull() {
        let a = Region3::of_extent(2, 2, 2);
        let b = Region3::new(Range1::new(5, 6), Range1::new(0, 1), Range1::new(0, 1));
        let h = a.hull(b);
        assert_eq!(h.i, Range1::new(0, 6));
        assert_eq!(h.j, Range1::new(0, 2));
        assert_eq!(a.hull(Region3::empty()), a);
    }

    #[test]
    fn subtract_disjoint_and_covering_cases() {
        let a = Region3::of_extent(4, 4, 4);
        let far = Region3::new(Range1::new(9, 12), a.j, a.k);
        assert_eq!(a.subtract(far), vec![a]);
        let all = Region3::new(Range1::new(-1, 5), Range1::new(-1, 5), Range1::new(-1, 5));
        assert!(a.subtract(all).is_empty());
        assert!(Region3::empty().subtract(a).is_empty());
    }

    #[test]
    fn subtract_interior_hole_yields_six_shells() {
        let a = Region3::of_extent(6, 6, 6);
        let hole = Region3::new(Range1::new(2, 4), Range1::new(2, 4), Range1::new(2, 4));
        let parts = a.subtract(hole);
        assert_eq!(parts.len(), 6);
        let total: usize = parts.iter().map(|p| p.cells()).sum();
        assert_eq!(total, a.cells() - hole.cells());
        for (n, p) in parts.iter().enumerate() {
            assert!(!p.overlaps(hole), "part {n} overlaps the hole");
            assert!(a.contains_region(*p));
            for q in &parts[n + 1..] {
                assert!(!p.overlaps(*q), "parts overlap each other");
            }
        }
    }

    #[test]
    fn subtract_edge_cut() {
        let a = Region3::of_extent(8, 4, 4);
        let cut = Region3::new(Range1::new(0, 3), a.j, a.k);
        let parts = a.subtract(cut);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].i, Range1::new(3, 8));
    }

    #[test]
    fn axis_roundtrip() {
        for ax in Axis::ALL {
            assert_eq!(Axis::ALL[ax.index()], ax);
        }
        assert_eq!(format!("{}", Axis::I), "i");
    }
}
