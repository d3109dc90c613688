//! The numerics of the 17 MPDATA stages.
//!
//! Each kernel writes one region of its output array(s), reading inputs
//! at the offsets declared by the matching [`crate::graph`] stage —
//! a correspondence enforced by the `kernel_patterns` test below, which
//! perturbs inputs outside the declared pattern and asserts the output
//! is unaffected.
//!
//! Every kind is written once, in two halves: an `*_ops` function that
//! lists its operands (input and offset, in order) through a caller's
//! reader, and an `#[inline(always)]` `*_cell` function of those
//! operands. Two sweeps share both halves: the row kernels of
//! [`crate::kernels_fast`] ([`apply_kind`] on open boundaries) read
//! whole operand rows, and the scalar kernels of [`apply_kind_scalar`]
//! read one boundary-resolved value at a time. The same operands reach
//! the same expression, so the two agree bitwise by construction.
//!
//! Boundary handling: reads are clamped to the domain box (zero-gradient
//! extension). Combined with [`crate::fields::MpdataFields::close_boundaries`]
//! this makes the scheme exactly conservative in a closed box, and —
//! crucially for the reproduction — makes every execution strategy
//! (reference, original, (3+1)D, islands) produce **bitwise identical**
//! results, because a redundantly recomputed cell always sees exactly
//! the same operands.

use crate::fields::EPS;
use crate::graph::StageKind;
use stencil_engine::{Array3, Region3};

/// How reads beyond the domain box resolve.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Boundary {
    /// Zero-gradient extension: out-of-domain indices are projected onto
    /// the nearest face (the paper's setting; all executors support it).
    #[default]
    Open,
    /// Periodic wrap-around. Supported by the reference and original
    /// executors; the cache-blocked executors reject it because the
    /// box-shaped requirement analysis cannot express wrap dependencies.
    Periodic,
}

/// Boundary-resolved read.
#[inline(always)]
fn rd_bc(a: &Array3, d: Region3, bc: Boundary, i: i64, j: i64, k: i64) -> f64 {
    match bc {
        Boundary::Open => a.get(
            i.clamp(d.i.lo, d.i.hi - 1),
            j.clamp(d.j.lo, d.j.hi - 1),
            k.clamp(d.k.lo, d.k.hi - 1),
        ),
        Boundary::Periodic => a.get(
            d.i.lo + (i - d.i.lo).rem_euclid(d.i.len() as i64),
            d.j.lo + (j - d.j.lo).rem_euclid(d.j.len() as i64),
            d.k.lo + (k - d.k.lo).rem_euclid(d.k.len() as i64),
        ),
    }
}

/// Applies a kernel of the given [`StageKind`] over `region`.
///
/// `inputs` and `outputs` must follow the field order declared by the
/// corresponding [`crate::graph::MpdataProblem`] stage.
///
/// # Panics
///
/// Panics if the number of inputs/outputs does not match the kind, or
/// (in debug builds) if an array does not cover an accessed cell.
pub fn apply_kind(
    kind: StageKind,
    domain: Region3,
    bc: Boundary,
    inputs: &[&Array3],
    outputs: &mut [&mut Array3],
    region: Region3,
) {
    // Open boundaries run the row kernels over the whole region,
    // boundary cells included: they clamp neighbour rows in `i`/`j` and
    // peel the `k` end cells, so no cell takes the scalar kernels.
    // Periodic wrap has no row kernel.
    match bc {
        Boundary::Open => crate::kernels_fast::apply_rows(kind, domain, inputs, outputs, region),
        Boundary::Periodic => apply_kind_scalar(kind, domain, bc, inputs, outputs, region),
    }
}

/// The clamp-everywhere scalar kernels — the reference implementation
/// [`apply_kind`] is pinned against (bitwise), and the only path for
/// [`Boundary::Periodic`]. Exposed so downstream code and benchmarks
/// can compare the two paths.
///
/// # Panics
///
/// Same conditions as [`apply_kind`].
pub fn apply_kind_scalar(
    kind: StageKind,
    domain: Region3,
    bc: Boundary,
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
            cells(d, bc, r, outs, |rd| [flux_cell(flux_ops(ins, m, rd))]);
        }
        S::Update => {
            let ins = take(inputs, "update takes [x, f1, f2, f3, h]");
            let outs = take_mut(outputs, "update writes [xp]");
            cells(d, bc, r, outs, |rd| [update_cell(update_ops(ins, rd))]);
        }
        S::AntidiffI | S::AntidiffJ | S::AntidiffK => {
            let ins = take(inputs, "antidiff takes [xp, u_a, u_b, u_c, h]");
            let outs = take_mut(outputs, "antidiff writes [v]");
            let axes = antidiff_axes(kind);
            cells(d, bc, r, outs, |rd| {
                [antidiff_cell(antidiff_ops(ins, axes, rd))]
            });
        }
        S::MinMax => {
            let ins = take(inputs, "minmax takes [x, xp]");
            let outs = take_mut(outputs, "minmax writes [mx, mn]");
            cells(d, bc, r, outs, |rd| minmax_cell(minmax_ops(ins, rd)));
        }
        S::BetaUp | S::BetaDn => {
            let ins = take(inputs, "beta takes [extreme, xp, g1, g2, g3, h]");
            let outs = take_mut(outputs, "beta writes one limiter array");
            let up = kind == S::BetaUp;
            cells(d, bc, r, outs, |rd| [beta_cell(up, beta_ops(ins, rd))]);
        }
        S::LimFluxI | S::LimFluxJ | S::LimFluxK => {
            let ins = take(inputs, "lim_flux takes [g, bu, bd]");
            let outs = take_mut(outputs, "lim_flux writes one flux array");
            let m = face(kind);
            cells(d, bc, r, outs, |rd| {
                [lim_flux_cell(lim_flux_ops(ins, m, rd))]
            });
        }
    }
}

/// The scalar sweep: every cell of `region` reads its operands one
/// boundary-resolved value at a time.
fn cells<const M: usize>(
    domain: Region3,
    bc: Boundary,
    region: Region3,
    outputs: &mut [&mut Array3; M],
    cell: impl Fn(&CellRead) -> [f64; M],
) {
    for i in region.i.lo..region.i.hi {
        for j in region.j.lo..region.j.hi {
            for k in region.k.lo..region.k.hi {
                let rd = CellRead {
                    domain,
                    bc,
                    at: (i, j, k),
                };
                for (o, y) in outputs.iter_mut().zip(cell(&rd)) {
                    o.set(i, j, k, y);
                }
            }
        }
    }
}

/// Applies stage `stage` (0-based) of the *17-stage* graph over
/// `region` — the index-based convenience wrapper around
/// [`apply_kind`].
///
/// # Panics
///
/// Panics if `stage >= 17`, if the number of inputs/outputs does not
/// match the stage, or (in debug builds) if an array does not cover an
/// accessed cell.
pub fn apply_stage(
    stage: usize,
    domain: Region3,
    inputs: &[&Array3],
    outputs: &mut [&mut Array3],
    region: Region3,
) {
    assert!(
        stage < crate::graph::STAGE_COUNT,
        "MPDATA has 17 stages; stage {stage} does not exist"
    );
    apply_kind(
        crate::graph::STANDARD_KINDS[stage],
        domain,
        Boundary::Open,
        inputs,
        outputs,
        region,
    );
}

/// Offset `(di, dj, dk)` of an operand from the cell it feeds.
pub(crate) type Off = (i64, i64, i64);

/// How an `*_ops` list reads one operand: a boundary-resolved value
/// (the scalar kernels) or a whole operand row (the row kernels).
pub(crate) trait Read<'a> {
    type Out;
    fn rd(&self, a: &'a Array3, off: Off) -> Self::Out;
}

/// The scalar kernels' reader: cell `(i, j, k)` through `rd_bc`.
struct CellRead {
    domain: Region3,
    bc: Boundary,
    at: (i64, i64, i64),
}

impl<'a> Read<'a> for CellRead {
    type Out = f64;
    #[inline(always)]
    fn rd(&self, a: &'a Array3, (di, dj, dk): Off) -> f64 {
        let (i, j, k) = self.at;
        rd_bc(a, self.domain, self.bc, i + di, j + dj, k + dk)
    }
}

/// The kind's inputs as a fixed-size array.
///
/// # Panics
///
/// Panics with `what` if the count does not match.
pub(crate) fn take<'a, const N: usize>(inputs: &[&'a Array3], what: &str) -> [&'a Array3; N] {
    inputs.try_into().unwrap_or_else(|_| panic!("{what}"))
}

/// The kind's outputs as a fixed-size array.
///
/// # Panics
///
/// Panics with `what` if the count does not match.
pub(crate) fn take_mut<'o, 'a, const N: usize>(
    outputs: &'o mut [&'a mut Array3],
    what: &str,
) -> &'o mut [&'a mut Array3; N] {
    outputs.try_into().unwrap_or_else(|_| panic!("{what}"))
}

const C: Off = (0, 0, 0);
pub(crate) const I: Off = (1, 0, 0);
pub(crate) const J: Off = (0, 1, 0);
pub(crate) const K: Off = (0, 0, 1);

#[inline(always)]
fn neg(a: Off) -> Off {
    (-a.0, -a.1, -a.2)
}

#[inline(always)]
fn add(a: Off, b: Off) -> Off {
    (a.0 + b.0, a.1 + b.1, a.2 + b.2)
}

/// Unit offset along the face axis of an axis-bound kind.
pub(crate) fn face(kind: StageKind) -> Off {
    use StageKind as S;
    match kind {
        S::FluxI | S::AntidiffI | S::LimFluxI => I,
        S::FluxJ | S::AntidiffJ | S::LimFluxJ => J,
        _ => K,
    }
}

/// Stages 1–3 and 9–11: donor-cell (upwind) flux through the low face
/// along one axis, with Courant number `u`, upstream value `xl` and
/// downstream value `xr`. 5 flops.
#[inline(always)]
fn donor(xl: f64, xr: f64, u: f64) -> f64 {
    u.max(0.0) * xl + u.min(0.0) * xr
}

/// Operands of [`flux_cell`] along face axis `m`, for
/// `inputs = [scalar, velocity]`: `[x(-m), x, u]`.
#[inline(always)]
pub(crate) fn flux_ops<'a, R>(
    [x, u]: [&'a Array3; 2],
    m: Off,
    rd: &impl Read<'a, Out = R>,
) -> [R; 3] {
    [rd.rd(x, neg(m)), rd.rd(x, C), rd.rd(u, C)]
}

/// The donor-cell flux stage; `outputs = [flux]`.
#[inline(always)]
pub(crate) fn flux_cell([xl, xr, u]: [f64; 3]) -> f64 {
    donor(xl, xr, u)
}

/// Operands of [`update_cell`], for `inputs = [x, f1, f2, f3, h]`:
/// `[x, h, f1, f1(+i), f2, f2(+j), f3, f3(+k)]`.
#[inline(always)]
pub(crate) fn update_ops<'a, R>(
    [x, f1, f2, f3, h]: [&'a Array3; 5],
    rd: &impl Read<'a, Out = R>,
) -> [R; 8] {
    [
        rd.rd(x, C),
        rd.rd(h, C),
        rd.rd(f1, C),
        rd.rd(f1, I),
        rd.rd(f2, C),
        rd.rd(f2, J),
        rd.rd(f3, C),
        rd.rd(f3, K),
    ]
}

/// Stage 4 (and 17): first-order update ψ* = ψ − div(F)/h;
/// `outputs = [xp]`. 7 flops.
#[inline(always)]
pub(crate) fn update_cell([x, h, f1a, f1b, f2a, f2b, f3a, f3b]: [f64; 8]) -> f64 {
    let div = (f1b - f1a) + (f2b - f2a) + (f3b - f3a);
    x - div / h
}

/// The face axis `m` and the two cross axes `p`, `q` of an antidiff
/// kind (b ↔ p, c ↔ q to match the graph's input ordering).
pub(crate) fn antidiff_axes(kind: StageKind) -> [Off; 3] {
    match face(kind) {
        I => [I, J, K],
        J => [J, I, K],
        _ => [K, I, J],
    }
}

/// Operands of [`antidiff_cell`], for `inputs = [xp, u_axis, u_crossA,
/// u_crossB, h]` and `[m, p, q]` from [`antidiff_axes`] (`cm` = the
/// cell at `-m`): `xp` at `c`, `cm`, `c+p`, `cm+p`, `c-p`, `cm-p`,
/// `c+q`, `cm+q`, `c-q`, `cm-q`; `u_axis` at `c`; `u_crossA` at `c`,
/// `cm`, `c+p`, `cm+p`; `u_crossB` at `c`, `cm`, `c+q`, `cm+q`; `h` at
/// `c`, `cm`.
#[inline(always)]
pub(crate) fn antidiff_ops<'a, R>(
    [xp, ua, ub, uc, h]: [&'a Array3; 5],
    [m, p, q]: [Off; 3],
    rd: &impl Read<'a, Out = R>,
) -> [R; 21] {
    let b = neg(m);
    [
        rd.rd(xp, C),
        rd.rd(xp, b),
        rd.rd(xp, p),
        rd.rd(xp, add(b, p)),
        rd.rd(xp, neg(p)),
        rd.rd(xp, add(b, neg(p))),
        rd.rd(xp, q),
        rd.rd(xp, add(b, q)),
        rd.rd(xp, neg(q)),
        rd.rd(xp, add(b, neg(q))),
        rd.rd(ua, C),
        rd.rd(ub, C),
        rd.rd(ub, b),
        rd.rd(ub, p),
        rd.rd(ub, add(b, p)),
        rd.rd(uc, C),
        rd.rd(uc, b),
        rd.rd(uc, q),
        rd.rd(uc, add(b, q)),
        rd.rd(h, C),
        rd.rd(h, b),
    ]
}

/// Stages 5–7: antidiffusive pseudo-velocity through the low face along
/// `m` (Smolarkiewicz's second-order correction with the two cross
/// terms); `outputs = [v_axis]`. 36 flops.
#[inline(always)]
pub(crate) fn antidiff_cell(
    [xc, xm, xpp_c, xpp_m, xpm_c, xpm_m, xqp_c, xqp_m, xqm_c, xqm_m, u, ub_c, ub_m, ub_cp, ub_mp, uc_c, uc_m, uc_cq, uc_mq, h_c, h_m]: [f64;
        21],
) -> f64 {
    let a = (xc - xm) / (xc + xm + EPS);
    // Cross-derivative term along p.
    let xpp = xpp_c + xpp_m;
    let xpm = xpm_c + xpm_m;
    let b_p = 0.5 * (xpp - xpm) / (xpp + xpm + EPS);
    // Cross-derivative term along q.
    let xqp = xqp_c + xqp_m;
    let xqm = xqm_c + xqm_m;
    let b_q = 0.5 * (xqp - xqm) / (xqp + xqm + EPS);
    // Cross velocities averaged to this face.
    let ub_bar = 0.25 * (ub_c + ub_m + ub_cp + ub_mp);
    let uc_bar = 0.25 * (uc_c + uc_m + uc_cq + uc_mq);
    let hbar = 0.5 * (h_c + h_m);
    u.abs() * (1.0 - u.abs() / hbar) * a - u * (ub_bar * b_p + uc_bar * b_q) / hbar
}

/// Operands of [`minmax_cell`], for `inputs = [x, xp]`: `x` then `xp`
/// at each offset of the 7-point neighbourhood (centre, −i, +i, −j,
/// +j, −k, +k).
#[inline(always)]
pub(crate) fn minmax_ops<'a, R>([x, xp]: [&'a Array3; 2], rd: &impl Read<'a, Out = R>) -> [R; 14] {
    let (mi, mj, mk) = (neg(I), neg(J), neg(K));
    [
        rd.rd(x, C),
        rd.rd(xp, C),
        rd.rd(x, mi),
        rd.rd(xp, mi),
        rd.rd(x, I),
        rd.rd(xp, I),
        rd.rd(x, mj),
        rd.rd(xp, mj),
        rd.rd(x, J),
        rd.rd(xp, J),
        rd.rd(x, mk),
        rd.rd(xp, mk),
        rd.rd(x, K),
        rd.rd(xp, K),
    ]
}

/// Stage 8: local extrema over ψ and ψ* (7-point neighbourhoods),
/// folded in operand order; `outputs = [mx, mn]`. 26 flops.
#[inline(always)]
pub(crate) fn minmax_cell(v: [f64; 14]) -> [f64; 2] {
    let (mut hi, mut lo) = (v[0], v[0]);
    for a in &v[1..] {
        hi = max_sel(hi, *a);
        lo = min_sel(lo, *a);
    }
    [hi, lo]
}

/// Branch-free maximum, `if a > b { a } else { b }`: one `maxsd` /
/// `maxpd`, where `f64::max` adds NaN fix-ups that keep [`minmax_cell`]
/// from vectorizing.
///
/// Equal to `f64::max` on all ordered, non-zero-tie inputs. The edge
/// cases are not symmetric, because a false comparison returns `b`:
/// a NaN `b` is returned (propagates), a NaN `a` is dropped, and of
/// `+0.0` and `-0.0` the second operand wins.
#[inline(always)]
fn max_sel(a: f64, b: f64) -> f64 {
    if a > b {
        a
    } else {
        b
    }
}

/// Branch-free minimum, `if a < b { a } else { b }`: the mirror of
/// [`max_sel`], with the same NaN and signed-zero behaviour (on a false
/// comparison, `b` wins).
#[inline(always)]
fn min_sel(a: f64, b: f64) -> f64 {
    if a < b {
        a
    } else {
        b
    }
}

/// Operands of [`beta_cell`], for `inputs = [extreme, xp, g1, g2, g3,
/// h]`: `[extreme, xp, h, g1, g1(+i), g2, g2(+j), g3, g3(+k)]`.
#[inline(always)]
pub(crate) fn beta_ops<'a, R>(
    [e, xp, g1, g2, g3, h]: [&'a Array3; 6],
    rd: &impl Read<'a, Out = R>,
) -> [R; 9] {
    [
        rd.rd(e, C),
        rd.rd(xp, C),
        rd.rd(h, C),
        rd.rd(g1, C),
        rd.rd(g1, I),
        rd.rd(g2, C),
        rd.rd(g2, J),
        rd.rd(g3, C),
        rd.rd(g3, K),
    ]
}

/// Stages 12–13: the non-oscillatory β limiters, β↑ (`up`, extreme =
/// `mx`) and β↓ (extreme = `mn`); `outputs = [bu|bd]`. 15 flops.
#[inline(always)]
pub(crate) fn beta_cell(up: bool, [e, x, h, g1a, g1b, g2a, g2b, g3a, g3b]: [f64; 9]) -> f64 {
    let (num, den) = if up {
        // Inflow: positive parts of low-face fluxes minus negative
        // parts of high-face fluxes.
        let inflow =
            g1a.max(0.0) - g1b.min(0.0) + g2a.max(0.0) - g2b.min(0.0) + g3a.max(0.0) - g3b.min(0.0);
        (e - x, inflow)
    } else {
        let outflow =
            g1b.max(0.0) - g1a.min(0.0) + g2b.max(0.0) - g2a.min(0.0) + g3b.max(0.0) - g3a.min(0.0);
        (x - e, outflow)
    };
    num * h / (den + EPS)
}

/// Operands of [`lim_flux_cell`] along face axis `m`, for
/// `inputs = [g, bu, bd]`: `[g, bu(-m), bd(-m), bu, bd]`.
#[inline(always)]
pub(crate) fn lim_flux_ops<'a, R>(
    [g, bu, bd]: [&'a Array3; 3],
    m: Off,
    rd: &impl Read<'a, Out = R>,
) -> [R; 5] {
    let b = neg(m);
    [
        rd.rd(g, C),
        rd.rd(bu, b),
        rd.rd(bd, b),
        rd.rd(bu, C),
        rd.rd(bd, C),
    ]
}

/// Stages 14–16: monotone limiting of the pseudo flux along one axis,
/// `min(1, bd[-m], bu) · g⁺ + min(1, bu[-m], bd) · g⁻`;
/// `outputs = [f_limited]`. 9 flops.
#[inline(always)]
pub(crate) fn lim_flux_cell([g, bu_m, bd_m, bu, bd]: [f64; 5]) -> f64 {
    // A positive flux leaves the low cell and enters this one.
    let cp = 1.0_f64.min(bd_m).min(bu);
    let cn = 1.0_f64.min(bu_m).min(bd);
    cp * g.max(0.0) + cn * g.min(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::mpdata_graph;
    use stencil_engine::{FieldRole, Range1};

    /// Regions of `d` the row kernels split differently: the whole
    /// domain; a single cell and a single `k`-row at every face, edge
    /// and corner position (and the middle); and half rows that end on
    /// either `k` face.
    fn probe_regions(d: Region3) -> Vec<Region3> {
        let middle = |r: Range1| r.lo + (r.hi - r.lo) / 2;
        let spots = |r: Range1| [r.lo, middle(r), r.hi - 1];
        let one = |x: i64| Range1::new(x, x + 1);
        let mid_k = middle(d.k);
        let mut out: Vec<Region3> = vec![d];
        for i in spots(d.i) {
            for j in spots(d.j) {
                for k in spots(d.k) {
                    out.push(Region3::new(one(i), one(j), one(k)));
                }
                out.push(Region3::new(one(i), one(j), d.k));
                out.push(Region3::new(one(i), one(j), Range1::new(d.k.lo, mid_k + 1)));
                out.push(Region3::new(one(i), one(j), Range1::new(mid_k, d.k.hi)));
            }
        }
        let mut seen = std::collections::HashSet::new();
        out.retain(|r| seen.insert(*r));
        out
    }

    /// Input values: smooth and positive, or drawn from a small palette
    /// so that neighbours tie and signed zeros meet.
    fn probe_value(ties: bool, slot: usize, i: i64, j: i64, k: i64) -> f64 {
        let h = (i * 37 + j * 11 + k * 3 + slot as i64 * 5).rem_euclid(97);
        if ties {
            const PALETTE: [f64; 6] = [0.0, -0.0, 0.5, 0.5, -0.25, 1.0];
            PALETTE[(h % 6) as usize]
        } else {
            0.7 + 0.013 * slot as f64 + 0.001 * h as f64
                - 0.0005 * ((i + 2 * j + 3 * k) % 13) as f64
        }
    }

    /// The row kernels must be bit-identical to the scalar kernels for
    /// every kind, on every region shape they split differently, on
    /// domains down to extent 1 per axis, with input arrays covering
    /// either the whole domain or only the block the region reads (as
    /// the islands executors pass them), and on inputs with ties and
    /// signed zeros.
    #[test]
    fn fast_paths_bitwise_equal() {
        use crate::graph::MpdataProblem;
        let p = MpdataProblem::standard();
        let at = |lo: i64, n: i64| Range1::new(lo, lo + n);
        let mut domains = vec![Region3::new(at(3, 11), at(-2, 9), at(5, 13))];
        for ni in 1..=3 {
            for nj in 1..=3 {
                for nk in 1..=3 {
                    domains.push(Region3::new(at(-1, ni), at(4, nj), at(2, nk)));
                }
            }
        }
        let mut cases = 0;
        for &domain in &domains {
            for region in probe_regions(domain) {
                // The cells the region's clamped reads can touch.
                let block = region.expand_uniform(1).intersect(domain);
                for st in p.graph().stages() {
                    let kind = p.kind(st.id);
                    for (arrays, ties) in [(domain, false), (block, true), (block, false)] {
                        let ins: Vec<Array3> = (0..st.inputs.len())
                            .map(|n| {
                                Array3::from_fn(arrays, |i, j, k| probe_value(ties, n, i, j, k))
                            })
                            .collect();
                        let in_refs: Vec<&Array3> = ins.iter().collect();
                        let out_region = if arrays == domain { domain } else { region };
                        let run = |scalar: bool| {
                            let mut outs: Vec<Array3> = st
                                .outputs
                                .iter()
                                .map(|_| Array3::filled(out_region, -9.0))
                                .collect();
                            let mut o: Vec<&mut Array3> = outs.iter_mut().collect();
                            if scalar {
                                apply_kind_scalar(
                                    kind,
                                    domain,
                                    Boundary::Open,
                                    &in_refs,
                                    &mut o,
                                    region,
                                );
                            } else {
                                apply_kind(kind, domain, Boundary::Open, &in_refs, &mut o, region);
                            }
                            outs
                        };
                        for (f, s) in run(false).iter().zip(&run(true)) {
                            assert!(
                                f.bits_eq(s),
                                "{kind:?} ({}) row kernels diverged from scalar: domain {domain:?}, \
                                 region {region:?}, arrays {arrays:?}, ties {ties}",
                                st.name
                            );
                        }
                        cases += 1;
                    }
                }
            }
        }
        assert!(cases > 10_000, "only {cases} cases ran");
    }

    #[test]
    fn donor_cell_upwinds() {
        assert_eq!(donor(2.0, 5.0, 0.5), 1.0);
        assert_eq!(donor(2.0, 5.0, -0.5), -2.5);
        assert_eq!(donor(2.0, 5.0, 0.0), 0.0);
    }

    #[test]
    fn clamped_read_projects_to_faces() {
        let d = Region3::of_extent(3, 3, 3);
        let a = Array3::from_fn(d, |i, j, k| (i * 9 + j * 3 + k) as f64);
        let bc = Boundary::Open;
        assert_eq!(rd_bc(&a, d, bc, -5, 1, 1), a.get(0, 1, 1));
        assert_eq!(rd_bc(&a, d, bc, 1, 7, 1), a.get(1, 2, 1));
        assert_eq!(rd_bc(&a, d, bc, 2, 2, 2), a.get(2, 2, 2));
    }

    #[test]
    fn periodic_read_wraps() {
        let d = Region3::of_extent(3, 3, 3);
        let a = Array3::from_fn(d, |i, j, k| (i * 9 + j * 3 + k) as f64);
        let bc = Boundary::Periodic;
        assert_eq!(rd_bc(&a, d, bc, -1, 0, 0), a.get(2, 0, 0));
        assert_eq!(rd_bc(&a, d, bc, 3, 1, 1), a.get(0, 1, 1));
        assert_eq!(rd_bc(&a, d, bc, -4, 5, 7), a.get(2, 2, 1));
        assert_eq!(rd_bc(&a, d, bc, 1, 1, 1), a.get(1, 1, 1));
    }

    #[test]
    fn flux_stage_writes_exact_region() {
        let d = Region3::of_extent(6, 4, 4);
        let x = Array3::filled(d, 3.0);
        let u = Array3::filled(d, 0.5);
        let mut f = Array3::filled(d, -1.0);
        let region = Region3::new(Range1::new(2, 4), d.j, d.k);
        apply_stage(0, d, &[&x, &u], &mut [&mut f], region);
        assert_eq!(f.get(2, 0, 0), 1.5);
        assert_eq!(f.get(3, 3, 3), 1.5);
        assert_eq!(f.get(1, 0, 0), -1.0, "outside region untouched");
        assert_eq!(f.get(4, 0, 0), -1.0);
    }

    #[test]
    fn constant_field_is_fixed_point_of_low_order() {
        // With uniform x and divergence-free u (uniform here), ψ* = ψ.
        let d = Region3::of_extent(5, 5, 5);
        let x = Array3::filled(d, 4.0);
        let u = Array3::filled(d, 0.3);
        let h = Array3::filled(d, 1.0);
        let mut f1 = Array3::zeros(d);
        let mut f2 = Array3::zeros(d);
        let mut f3 = Array3::zeros(d);
        apply_stage(0, d, &[&x, &u], &mut [&mut f1], d);
        apply_stage(1, d, &[&x, &u], &mut [&mut f2], d);
        apply_stage(2, d, &[&x, &u], &mut [&mut f3], d);
        let mut xp = Array3::zeros(d);
        apply_stage(3, d, &[&x, &f1, &f2, &f3, &h], &mut [&mut xp], d);
        // Interior cells: flux divergence of a constant field is zero.
        assert_eq!(xp.get(2, 2, 2), 4.0);
    }

    #[test]
    fn antidiff_vanishes_for_constant_field() {
        let d = Region3::of_extent(5, 5, 5);
        let xp = Array3::filled(d, 2.0);
        let u = Array3::filled(d, 0.4);
        let h = Array3::filled(d, 1.0);
        let mut v = Array3::filled(d, 9.0);
        apply_stage(4, d, &[&xp, &u, &u, &u, &h], &mut [&mut v], d);
        // A and B terms vanish ⇒ v = 0 everywhere.
        for (_, _, _, val) in v.iter_indexed() {
            assert!(val.abs() < 1e-12);
        }
    }

    #[test]
    fn minmax_brackets_the_field() {
        let d = Region3::of_extent(4, 4, 4);
        let x = Array3::from_fn(d, |i, j, k| (i + j + k) as f64);
        let xp = Array3::from_fn(d, |i, j, k| (i * j * k) as f64);
        let mut mx = Array3::zeros(d);
        let mut mn = Array3::zeros(d);
        apply_stage(7, d, &[&x, &xp], &mut [&mut mx, &mut mn], d);
        for (i, j, k) in d.points() {
            assert!(mx.get(i, j, k) >= x.get(i, j, k).max(xp.get(i, j, k)));
            assert!(mn.get(i, j, k) <= x.get(i, j, k).min(xp.get(i, j, k)));
        }
    }

    #[test]
    fn beta_is_nonnegative_for_bracketed_xp() {
        let d = Region3::of_extent(4, 4, 4);
        let xp = Array3::filled(d, 1.0);
        let mx = Array3::filled(d, 2.0);
        let g = Array3::filled(d, 0.1);
        let h = Array3::filled(d, 1.0);
        let mut bu = Array3::zeros(d);
        apply_stage(11, d, &[&mx, &xp, &g, &g, &g, &h], &mut [&mut bu], d);
        for (_, _, _, v) in bu.iter_indexed() {
            assert!(v >= 0.0);
        }
    }

    #[test]
    fn lim_flux_clamps_but_preserves_sign() {
        let d = Region3::of_extent(4, 1, 1);
        let g = Array3::from_fn(d, |i, _, _| if i % 2 == 0 { 0.5 } else { -0.5 });
        let big = Array3::filled(d, 5.0); // β ≥ 1 ⇒ no limiting
        let mut f = Array3::zeros(d);
        apply_stage(13, d, &[&g, &big, &big], &mut [&mut f], d);
        assert_eq!(f.max_abs_diff(&g), 0.0);
        let zero = Array3::filled(d, 0.0); // β = 0 ⇒ flux fully limited
        let mut f2 = Array3::zeros(d);
        apply_stage(13, d, &[&g, &zero, &zero], &mut [&mut f2], d);
        assert_eq!(f2.sum(), 0.0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_stage_panics() {
        let d = Region3::of_extent(2, 2, 2);
        let a = Array3::zeros(d);
        let mut o = Array3::zeros(d);
        apply_stage(17, d, &[&a], &mut [&mut o], d);
    }

    /// The declared patterns in the graph are sound: perturbing an input
    /// cell *outside* the declared pattern of a stage never changes the
    /// kernel's output at the probe cell. (Completeness — that every
    /// declared offset is actually read — is deliberately not required:
    /// a pattern may over-approximate.)
    #[test]
    fn kernel_patterns_are_sound() {
        let (g, _) = mpdata_graph();
        let d = Region3::of_extent(7, 7, 7);
        let probe = (3, 3, 3);
        let probe_region = Region3::new(Range1::new(3, 4), Range1::new(3, 4), Range1::new(3, 4));
        for st in g.stages() {
            let n_in = st.inputs.len();
            // Baseline arrays: smooth positive values, all distinct.
            let base: Vec<Array3> = (0..n_in)
                .map(|n| {
                    Array3::from_fn(d, |i, j, k| {
                        1.5 + 0.01 * (n as f64) + 0.003 * (i * 49 + j * 7 + k) as f64
                    })
                })
                .collect();
            let run = |inputs: &[Array3]| -> Vec<f64> {
                let refs: Vec<&Array3> = inputs.iter().collect();
                let mut outs: Vec<Array3> = st.outputs.iter().map(|_| Array3::zeros(d)).collect();
                {
                    let mut out_refs: Vec<&mut Array3> = outs.iter_mut().collect();
                    apply_stage(st.id.index(), d, &refs, &mut out_refs, probe_region);
                }
                outs.iter()
                    .map(|o| o.get(probe.0, probe.1, probe.2))
                    .collect()
            };
            let baseline = run(&base);
            for (slot, (_, pattern)) in st.inputs.iter().enumerate() {
                // Perturb each offset in a ring around the probe that is
                // NOT in the declared pattern (and also not reachable by
                // another declared read of the same field in this stage —
                // pattern_for unions duplicates).
                let full = st
                    .inputs
                    .iter()
                    .filter(|(f2, _)| *f2 == st.inputs[slot].0)
                    .fold(pattern.clone(), |acc, (_, p)| acc.union(p));
                for di in -2..=2_i64 {
                    for dj in -2..=2_i64 {
                        for dk in -2..=2_i64 {
                            if full.contains(stencil_engine::Offset3::new(di, dj, dk)) {
                                continue;
                            }
                            let mut tweaked = base.clone();
                            // Perturb every slot bound to the same field.
                            for (s2, (f2, _)) in st.inputs.iter().enumerate() {
                                if *f2 == st.inputs[slot].0 {
                                    let old =
                                        tweaked[s2].get(probe.0 + di, probe.1 + dj, probe.2 + dk);
                                    tweaked[s2].set(
                                        probe.0 + di,
                                        probe.1 + dj,
                                        probe.2 + dk,
                                        old + 7.0,
                                    );
                                }
                            }
                            let out = run(&tweaked);
                            assert_eq!(
                                baseline, out,
                                "stage {} ({}) reads undeclared offset ({di},{dj},{dk}) of input {}",
                                st.id.index(),
                                st.name,
                                slot
                            );
                        }
                    }
                }
            }
        }
        // Sanity: the graph must know its externals.
        assert_eq!(g.fields().with_role(FieldRole::External).len(), 5);
    }
}
