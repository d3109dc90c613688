//! Row kernels: the [`Boundary::Open`](crate::Boundary::Open) sweep of
//! every stage kind, boundary cells included.
//!
//! A sweep walks the region as contiguous `k`-rows and hands each
//! kind's cell function (see [`crate::kernels`]) operand *rows* instead
//! of single reads:
//!
//! * **`i`/`j` neighbours**: the row coordinates are clamped onto the
//!   domain before the fetch, which selects exactly the cells the
//!   scalar kernels' clamped reads select.
//! * **`k` neighbours**: each row splits into a vector middle
//!   `[max(kr.lo, d.k.lo + 1), min(kr.hi, d.k.hi − 1))`, whose `k ± 1`
//!   reads stay inside the domain, and the cells before and after it
//!   (at most one per end when the region lies in the domain). A peeled
//!   cell evaluates the same cell function on reads clamped in every
//!   axis. The split follows the kind's own `k` reach, taken from its
//!   operand list: a kind that reads no `k − 1` (or `k + 1`) neighbour
//!   peels nothing at that end.
//!
//! The operand lists (`*_ops`) and cell functions (`*_cell`) are the
//! ones the scalar kernels of [`crate::apply_kind_scalar`] evaluate, so
//! both paths agree bitwise by construction — pinned by the
//! `fast_paths_bitwise_equal` test. Each operand row is bound to its
//! own local and re-sliced to the stretch length before the loop, so
//! the loop carries no bounds checks and vectorizes across cells; a
//! cell's own arithmetic is never reassociated.

use crate::graph::StageKind;
use crate::kernels::{
    antidiff_axes, antidiff_cell, antidiff_ops, beta_cell, beta_ops, face, flux_cell, flux_ops,
    lim_flux_cell, lim_flux_ops, minmax_cell, minmax_ops, take, take_mut, update_cell, update_ops,
    Off, Read,
};
use std::cell::Cell;
use stencil_engine::{Array3, Range1, Region3};

/// [`crate::apply_kind`] on open boundaries: `kind` over `region`.
pub(crate) fn apply_rows(
    kind: StageKind,
    domain: Region3,
    inputs: &[&Array3],
    outputs: &mut [&mut Array3],
    region: Region3,
) {
    use StageKind as S;
    let (d, r) = (domain, region);
    match kind {
        S::FluxI | S::FluxJ | S::FluxK => {
            let ins = take(inputs, "flux stage takes [scalar, velocity]");
            let outs = take_mut(outputs, "flux stage writes one flux array");
            let m = face(kind);
            sweep(
                d,
                r,
                k_reach(|p| flux_ops(ins, m, p)),
                outs,
                |s, [f]| {
                    let [xl, xr, u] = flux_ops(ins, m, s);
                    let f = s.out(f);
                    for n in 0..s.len() {
                        f[n] = flux_cell([xl[n], xr[n], u[n]]);
                    }
                },
                |c| [flux_cell(flux_ops(ins, m, c))],
            );
        }
        S::Update => {
            let ins = take(inputs, "update takes [x, f1, f2, f3, h]");
            let outs = take_mut(outputs, "update writes [xp]");
            sweep(
                d,
                r,
                k_reach(|p| update_ops(ins, p)),
                outs,
                |s, [xp]| {
                    let [x, h, f1a, f1b, f2a, f2b, f3a, f3b] = update_ops(ins, s);
                    let xp = s.out(xp);
                    for n in 0..s.len() {
                        xp[n] = update_cell([
                            x[n], h[n], f1a[n], f1b[n], f2a[n], f2b[n], f3a[n], f3b[n],
                        ]);
                    }
                },
                |c| [update_cell(update_ops(ins, c))],
            );
        }
        S::AntidiffI | S::AntidiffJ | S::AntidiffK => {
            let ins = take(inputs, "antidiff takes [xp, u_a, u_b, u_c, h]");
            let outs = take_mut(outputs, "antidiff writes [v]");
            let axes = antidiff_axes(kind);
            sweep(
                d,
                r,
                k_reach(|p| antidiff_ops(ins, axes, p)),
                outs,
                |s, [v]| {
                    let [a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15, a16, a17, a18, a19, a20] =
                        antidiff_ops(ins, axes, s);
                    let v = s.out(v);
                    for n in 0..s.len() {
                        v[n] = antidiff_cell([
                            a0[n], a1[n], a2[n], a3[n], a4[n], a5[n], a6[n], a7[n], a8[n], a9[n],
                            a10[n], a11[n], a12[n], a13[n], a14[n], a15[n], a16[n], a17[n], a18[n],
                            a19[n], a20[n],
                        ]);
                    }
                },
                |c| [antidiff_cell(antidiff_ops(ins, axes, c))],
            );
        }
        S::MinMax => {
            let ins = take(inputs, "minmax takes [x, xp]");
            let outs = take_mut(outputs, "minmax writes [mx, mn]");
            sweep(
                d,
                r,
                k_reach(|p| minmax_ops(ins, p)),
                outs,
                |s, [mx, mn]| {
                    let [a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13] =
                        minmax_ops(ins, s);
                    let (mx, mn) = (s.out(mx), s.out(mn));
                    for n in 0..s.len() {
                        [mx[n], mn[n]] = minmax_cell([
                            a0[n], a1[n], a2[n], a3[n], a4[n], a5[n], a6[n], a7[n], a8[n], a9[n],
                            a10[n], a11[n], a12[n], a13[n],
                        ]);
                    }
                },
                |c| minmax_cell(minmax_ops(ins, c)),
            );
        }
        S::BetaUp | S::BetaDn => {
            let ins = take(inputs, "beta takes [extreme, xp, g1, g2, g3, h]");
            let outs = take_mut(outputs, "beta writes one limiter array");
            let up = kind == S::BetaUp;
            sweep(
                d,
                r,
                k_reach(|p| beta_ops(ins, p)),
                outs,
                |s, [b]| {
                    let [e, x, h, g1a, g1b, g2a, g2b, g3a, g3b] = beta_ops(ins, s);
                    let b = s.out(b);
                    for n in 0..s.len() {
                        b[n] = beta_cell(
                            up,
                            [
                                e[n], x[n], h[n], g1a[n], g1b[n], g2a[n], g2b[n], g3a[n], g3b[n],
                            ],
                        );
                    }
                },
                |c| [beta_cell(up, beta_ops(ins, c))],
            );
        }
        S::LimFluxI | S::LimFluxJ | S::LimFluxK => {
            let ins = take(inputs, "lim_flux takes [g, bu, bd]");
            let outs = take_mut(outputs, "lim_flux writes one flux array");
            let m = face(kind);
            sweep(
                d,
                r,
                k_reach(|p| lim_flux_ops(ins, m, p)),
                outs,
                |s, [f]| {
                    let [g, bu_m, bd_m, bu, bd] = lim_flux_ops(ins, m, s);
                    let f = s.out(f);
                    for n in 0..s.len() {
                        f[n] = lim_flux_cell([g[n], bu_m[n], bd_m[n], bu[n], bd[n]]);
                    }
                },
                |c| [lim_flux_cell(lim_flux_ops(ins, m, c))],
            );
        }
    }
}

/// The vector middle of one `k`-row: cells `(i, j, k)`, whose operand
/// rows sit at clamped `i`/`j` and at `k` shifted by the offset.
#[derive(Clone, Copy)]
struct Stretch {
    i: i64,
    j: i64,
    k: Range1,
    /// `i - 1, i, i + 1`, clamped onto the domain.
    ii: [i64; 3],
    /// `j - 1, j, j + 1`, clamped onto the domain.
    jj: [i64; 3],
}

impl Stretch {
    #[inline(always)]
    fn len(&self) -> usize {
        self.k.len()
    }

    /// The cells of output `a` this stretch writes.
    #[inline(always)]
    fn out<'o>(&self, a: &'o mut Array3) -> &'o mut [f64] {
        let len = self.len();
        &mut a.row_mut(self.i, self.j, self.k)[..len]
    }
}

impl<'a> Read<'a> for Stretch {
    type Out = &'a [f64];
    /// The operand row of `a` at offset `off`, re-sliced to the stretch
    /// length.
    #[inline(always)]
    fn rd(&self, a: &'a Array3, (di, dj, dk): Off) -> &'a [f64] {
        let len = self.len();
        let row = a.row(
            self.ii[(di + 1) as usize],
            self.jj[(dj + 1) as usize],
            self.k.shift(dk),
        );
        &row[..len]
    }
}

/// A peeled end cell: every operand read is clamped onto the domain,
/// `k` included.
struct Peel {
    ii: [i64; 3],
    jj: [i64; 3],
    /// `k - 1, k, k + 1`, clamped onto the domain.
    kk: [i64; 3],
}

impl<'a> Read<'a> for Peel {
    type Out = f64;
    #[inline(always)]
    fn rd(&self, a: &'a Array3, (di, dj, dk): Off) -> f64 {
        let at = |d: i64| (d + 1) as usize;
        a.get(self.ii[at(di)], self.jj[at(dj)], self.kk[at(dk)])
    }
}

/// Records how far an operand list reads along `k`: `[below, above]`.
struct KReach(Cell<[i64; 2]>);

impl<'a> Read<'a> for KReach {
    type Out = ();
    fn rd(&self, _: &'a Array3, (_, _, dk): Off) {
        let [below, above] = self.0.get();
        self.0.set([below.max(-dk), above.max(dk)]);
    }
}

/// The `k` reach `[below, above]` of the operand list `ops` lists.
fn k_reach<const N: usize>(ops: impl FnOnce(&KReach) -> [(); N]) -> [i64; 2] {
    let probe = KReach(Cell::new([0, 0]));
    ops(&probe);
    probe.0.get()
}

/// Sweeps `region` row by row: `row` evaluates each row's vector middle
/// (when non-empty) into `outputs`, and `cell` each peeled end cell.
/// `reach` is the operand list's `k` reach ([`k_reach`]): the middle
/// is `[max(kr.lo, d.k.lo + below), min(kr.hi, d.k.hi − above))`.
#[inline(always)]
fn sweep<const M: usize>(
    domain: Region3,
    region: Region3,
    [below, above]: [i64; 2],
    outputs: &mut [&mut Array3; M],
    mut row: impl FnMut(&Stretch, &mut [&mut Array3; M]),
    cell: impl Fn(&Peel) -> [f64; M],
) {
    if region.is_empty() {
        return;
    }
    let d = domain;
    let clamp = |x: i64, r: Range1| x.max(r.lo).min(r.hi - 1);
    let near = |x: i64, r: Range1| [clamp(x - 1, r), clamp(x, r), clamp(x + 1, r)];
    let kr = region.k;
    let lo = clamp(d.k.lo + below, Range1::new(kr.lo, kr.hi + 1));
    let hi = clamp(d.k.hi - above, Range1::new(lo, kr.hi + 1));
    let mid = Range1::new(lo, hi);
    for i in region.i.lo..region.i.hi {
        let ii = near(i, d.i);
        for j in region.j.lo..region.j.hi {
            let jj = near(j, d.j);
            if !mid.is_empty() {
                row(
                    &Stretch {
                        i,
                        j,
                        k: mid,
                        ii,
                        jj,
                    },
                    outputs,
                );
            }
            for k in (kr.lo..lo).chain(hi..kr.hi) {
                let y = cell(&Peel {
                    ii,
                    jj,
                    kk: near(k, d.k),
                });
                for (o, y) in outputs.iter_mut().zip(y) {
                    o.set(i, j, k, y);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// `sweep` evaluates every cell of the region exactly once. The
    /// vector middle of each row is `[max(kr.lo, d.k.lo + below),
    /// min(kr.hi, d.k.hi − above))`, and only cells on a domain `k` face
    /// the kind reads past are peeled: at most one per row end, one in
    /// total on a domain one cell deep.
    #[test]
    fn sweep_peels_only_the_domain_k_faces() {
        for [below, above] in [[1, 1], [1, 0], [0, 1], [0, 0]] {
            sweep_case(below, above);
        }
    }

    fn sweep_case(below: i64, above: i64) {
        for nk in 1..=4 {
            let d = Region3::new(
                Range1::new(0, 3),
                Range1::new(-1, 1),
                Range1::new(10, 10 + nk),
            );
            for lo in d.k.lo..d.k.hi {
                for hi in lo + 1..=d.k.hi {
                    let region = Region3::new(d.i, d.j, Range1::new(lo, hi));
                    let mut a = Array3::filled(d, 0.0);
                    let mut mid = Vec::new();
                    let peeled = RefCell::new(Vec::new());
                    sweep(
                        d,
                        region,
                        [below, above],
                        &mut [&mut a],
                        |s, _| {
                            let want = Range1::new(lo.max(d.k.lo + below), hi.min(d.k.hi - above));
                            assert_eq!(s.k, want);
                            mid.extend(s.k.lo..s.k.hi);
                        },
                        |c| {
                            peeled.borrow_mut().push(c.kk[1]);
                            [1.0]
                        },
                    );
                    let peeled = peeled.into_inner();
                    let rows = (d.i.len() * d.j.len()) as i64;
                    for k in lo..hi {
                        let on_face = (below > 0 && k == d.k.lo) || (above > 0 && k == d.k.hi - 1);
                        let count = |v: &[i64]| v.iter().filter(|&&x| x == k).count() as i64;
                        assert_eq!(count(&peeled), if on_face { rows } else { 0 }, "k = {k}");
                        assert_eq!(count(&mid), if on_face { 0 } else { rows }, "k = {k}");
                    }
                    assert!(peeled.len() as i64 <= (below + above) * rows);
                    assert_eq!((mid.len() + peeled.len()) as i64, rows * (hi - lo));
                }
            }
        }
    }

    /// The probed `k` reach of each operand list: kinds without `k`
    /// neighbours peel nothing, the `k`-face kinds peel one end.
    #[test]
    fn k_reach_follows_the_operand_lists() {
        use crate::kernels::{I, J, K};
        let a = Array3::zeros(Region3::of_extent(1, 1, 1));
        let a2 = [&a; 2];
        let (a3, a5, a6) = ([&a; 3], [&a; 5], [&a; 6]);
        assert_eq!(k_reach(|p| flux_ops(a2, I, p)), [0, 0]);
        assert_eq!(k_reach(|p| flux_ops(a2, J, p)), [0, 0]);
        assert_eq!(k_reach(|p| flux_ops(a2, K, p)), [1, 0]);
        assert_eq!(k_reach(|p| lim_flux_ops(a3, I, p)), [0, 0]);
        assert_eq!(k_reach(|p| lim_flux_ops(a3, K, p)), [1, 0]);
        assert_eq!(k_reach(|p| update_ops(a5, p)), [0, 1]);
        assert_eq!(k_reach(|p| beta_ops(a6, p)), [0, 1]);
        assert_eq!(k_reach(|p| minmax_ops(a2, p)), [1, 1]);
        assert_eq!(k_reach(|p| antidiff_ops(a5, [I, J, K], p)), [1, 1]);
        assert_eq!(k_reach(|p| antidiff_ops(a5, [K, I, J], p)), [1, 0]);
    }
}
