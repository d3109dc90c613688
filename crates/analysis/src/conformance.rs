//! Pass 1 — pattern conformance.
//!
//! Drives every kernel of an MPDATA stage graph over single-cell
//! regions with access recording on ([`stencil_engine::trace`]) and
//! diffs the observed read/write sets against the stage's *declared*
//! [`stencil_engine::StencilPattern`]s and outputs. Because every
//! kernel read is boundary-resolved exactly like the checker's own
//! `resolve` (clamp for [`Boundary::Open`], wrap for
//! [`Boundary::Periodic`]) and kernels read their operands
//! unconditionally, any difference is a genuine declaration/kernel
//! mismatch, not a value-dependent artifact:
//!
//! * a recorded read no declared offset resolves to ⇒ `undeclared-read`;
//! * a declared offset whose resolved cell was never read ⇒
//!   `overdeclared-offset` (sound at *any* cell, complete at interior
//!   cells where resolution is injective);
//! * writes must hit exactly the requested cell of exactly the declared
//!   outputs ⇒ `undeclared-write`, `out-of-region-write`,
//!   `missing-write`.
//!
//! Single-cell regions make attribution exact. On open boundaries a
//! single cell takes the row kernels' peeled path on a domain `k` face
//! its kind reads past and their vector path everywhere else, so both
//! are exercised, as are the scalar kernels through
//! [`KernelPath::Scalar`].

use crate::diag::{Diagnostic, DiagnosticCode};
use mpdata::{apply_kind, apply_kind_scalar, Boundary, MpdataProblem, StageKind};
use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;
use stencil_engine::{trace, Array3, Offset3, Range1, Region3, StageGraph, StencilPattern};

/// Which kernel implementation the harness drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelPath {
    /// [`mpdata::apply_kind`]: the row kernels on open boundaries, the
    /// scalar kernels on periodic ones (the production dispatch).
    Dispatch,
    /// [`mpdata::apply_kind_scalar`]: the clamp-everything reference
    /// kernels, everywhere.
    Scalar,
}

impl fmt::Display for KernelPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            KernelPath::Dispatch => "dispatch",
            KernelPath::Scalar => "scalar",
        })
    }
}

/// Access recording is compiled out of this build (release), so the
/// conformance pass cannot observe anything.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceUnavailable;

impl fmt::Display for TraceUnavailable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(
            "access tracing is compiled out of release builds; \
             run the conformance pass from a debug build",
        )
    }
}

impl Error for TraceUnavailable {}

/// Outcome of one conformance run.
#[derive(Clone, Debug)]
pub struct ConformanceReport {
    /// Stages driven.
    pub stages: usize,
    /// Kernel invocations (stages × domain cells).
    pub cells: usize,
    /// Deduplicated findings, in deterministic order.
    pub diagnostics: Vec<Diagnostic>,
}

/// Checks a whole [`MpdataProblem`] (its graph, kernel kinds and
/// boundary) over `domain`.
///
/// # Errors
///
/// [`TraceUnavailable`] when recording is compiled out (release build).
pub fn check_problem(
    problem: &MpdataProblem,
    domain: Region3,
    path: KernelPath,
) -> Result<ConformanceReport, TraceUnavailable> {
    check_graph(
        problem.graph(),
        problem.kinds(),
        problem.boundary(),
        domain,
        path,
    )
}

/// Checks an arbitrary stage graph against the kernels named by
/// `kinds` (one per stage, same order). This is the entry point for
/// regression tests that feed *mutated* declarations to the linter.
///
/// # Errors
///
/// [`TraceUnavailable`] when recording is compiled out (release build).
///
/// # Panics
///
/// Panics when `kinds.len()` differs from the graph's stage count.
pub fn check_graph(
    graph: &StageGraph,
    kinds: &[StageKind],
    bc: Boundary,
    domain: Region3,
    path: KernelPath,
) -> Result<ConformanceReport, TraceUnavailable> {
    if !trace::is_enabled() {
        return Err(TraceUnavailable);
    }
    assert_eq!(
        kinds.len(),
        graph.stage_count(),
        "one kernel kind per stage"
    );
    // One array per field, deterministic positive values (h is a
    // divisor). Values never influence which cells a kernel touches —
    // all kernel reads are unconditional — so any fill works; varied
    // values simply keep the numerics finite.
    let mut arrays: Vec<Option<Array3>> = (0..graph.fields().len())
        .map(|n| {
            Some(Array3::from_fn(domain, |i, j, k| {
                1.0 + 0.125 * (((n as i64 * 31 + i * 7 + j * 5 + k * 3).rem_euclid(17)) as f64)
            }))
        })
        .collect();
    // Heap addresses are stable under moves, so keys taken now remain
    // valid while output arrays are temporarily taken out of `arrays`.
    let keys: Vec<trace::ArrayKey> = arrays
        .iter()
        .map(|a| trace::array_key(a.as_ref().expect("present")))
        .collect();
    let field_of: BTreeMap<trace::ArrayKey, usize> =
        keys.iter().enumerate().map(|(n, &k)| (k, n)).collect();
    let name = |key: trace::ArrayKey| -> String {
        graph
            .fields()
            .name(stencil_engine::FieldId(field_of[&key] as u32))
            .to_string()
    };

    let mut found: BTreeSet<Diagnostic> = BTreeSet::new();
    let mut cells = 0usize;
    for st in graph.stages() {
        let kind = kinds[st.id.index()];
        let mut outs: Vec<Array3> = st
            .outputs
            .iter()
            .map(|f| arrays[f.index()].take().expect("outputs are distinct"))
            .collect();
        let out_keys: BTreeSet<trace::ArrayKey> =
            st.outputs.iter().map(|f| keys[f.index()]).collect();
        {
            let ins: Vec<&Array3> = st
                .inputs
                .iter()
                .map(|(f, _)| arrays[f.index()].as_ref().expect("inputs are not outputs"))
                .collect();
            for (ci, cj, ck) in domain.points() {
                cells += 1;
                let cell = Region3::new(
                    Range1::new(ci, ci + 1),
                    Range1::new(cj, cj + 1),
                    Range1::new(ck, ck + 1),
                );
                let mut out_refs: Vec<&mut Array3> = outs.iter_mut().collect();
                let ((), log) = trace::record(|| match path {
                    KernelPath::Dispatch => apply_kind(kind, domain, bc, &ins, &mut out_refs, cell),
                    KernelPath::Scalar => {
                        apply_kind_scalar(kind, domain, bc, &ins, &mut out_refs, cell)
                    }
                });
                diff_cell(
                    st,
                    &keys,
                    &out_keys,
                    &name,
                    bc,
                    domain,
                    (ci, cj, ck),
                    &log,
                    &mut found,
                );
            }
        }
        for (f, a) in st.outputs.iter().zip(outs) {
            arrays[f.index()] = Some(a);
        }
    }
    Ok(ConformanceReport {
        stages: graph.stage_count(),
        cells,
        diagnostics: found.into_iter().collect(),
    })
}

/// Boundary resolution, bit-for-bit the formula of the kernels' `rd_bc`.
fn resolve(bc: Boundary, d: Region3, i: i64, j: i64, k: i64) -> (i64, i64, i64) {
    match bc {
        Boundary::Open => (
            i.clamp(d.i.lo, d.i.hi - 1),
            j.clamp(d.j.lo, d.j.hi - 1),
            k.clamp(d.k.lo, d.k.hi - 1),
        ),
        Boundary::Periodic => (
            d.i.lo + (i - d.i.lo).rem_euclid(d.i.len() as i64),
            d.j.lo + (j - d.j.lo).rem_euclid(d.j.len() as i64),
            d.k.lo + (k - d.k.lo).rem_euclid(d.k.len() as i64),
        ),
    }
}

/// Diffs one recorded single-cell invocation against the declaration.
#[allow(clippy::too_many_arguments)]
fn diff_cell(
    st: &stencil_engine::StageDef,
    keys: &[trace::ArrayKey],
    out_keys: &BTreeSet<trace::ArrayKey>,
    name: &dyn Fn(trace::ArrayKey) -> String,
    bc: Boundary,
    domain: Region3,
    c: (i64, i64, i64),
    log: &trace::AccessLog,
    found: &mut BTreeSet<Diagnostic>,
) {
    let (ci, cj, ck) = c;
    // Expected reads: per array, the declared offsets resolved at `c`.
    let mut expected: BTreeMap<trace::ArrayKey, BTreeSet<(i64, i64, i64)>> = BTreeMap::new();
    let mut declared: BTreeMap<trace::ArrayKey, Vec<Offset3>> = BTreeMap::new();
    for (f, pat) in &st.inputs {
        let key = keys[f.index()];
        let exp = expected.entry(key).or_default();
        let dec = declared.entry(key).or_default();
        for &o in pat.offsets() {
            exp.insert(resolve(bc, domain, ci + o.di, cj + o.dj, ck + o.dk));
            dec.push(o);
        }
    }
    let mut recorded: BTreeMap<trace::ArrayKey, BTreeSet<(i64, i64, i64)>> = BTreeMap::new();
    for &(key, i, j, k) in &log.reads {
        recorded.entry(key).or_default().insert((i, j, k));
    }
    for (&key, cells) in &recorded {
        match expected.get(&key) {
            None => {
                // Reads of an array that is not an input at all: its own
                // output, or an unrelated field.
                let what = if out_keys.contains(&key) {
                    "kernel reads its own output"
                } else {
                    "kernel reads a field not declared as an input"
                };
                for &(i, j, k) in cells {
                    found.insert(Diagnostic {
                        code: DiagnosticCode::UndeclaredRead,
                        site: st.name.clone(),
                        field: name(key),
                        detail: format!("{what} at offset ({}, {}, {})", i - ci, j - cj, k - ck),
                    });
                }
            }
            Some(exp) => {
                for &(i, j, k) in cells.difference(exp) {
                    found.insert(Diagnostic {
                        code: DiagnosticCode::UndeclaredRead,
                        site: st.name.clone(),
                        field: name(key),
                        detail: format!(
                            "read at offset ({}, {}, {}) not covered by the declared pattern",
                            i - ci,
                            j - cj,
                            k - ck
                        ),
                    });
                }
            }
        }
    }
    for (&key, exp) in &expected {
        let got = recorded.get(&key);
        for &miss in exp.iter().filter(|m| got.is_none_or(|g| !g.contains(m))) {
            // Attribute the unread cell back to every declared offset
            // resolving there. Sound anywhere: a genuinely read offset
            // resolves into the recorded set by construction.
            for o in &declared[&key] {
                if resolve(bc, domain, ci + o.di, cj + o.dj, ck + o.dk) == miss {
                    found.insert(Diagnostic {
                        code: DiagnosticCode::OverdeclaredOffset,
                        site: st.name.clone(),
                        field: name(key),
                        detail: format!(
                            "declared offset ({}, {}, {}) is never read",
                            o.di, o.dj, o.dk
                        ),
                    });
                }
            }
        }
    }
    // Writes: exactly the requested cell, exactly the declared outputs.
    let mut written: BTreeMap<trace::ArrayKey, BTreeSet<(i64, i64, i64)>> = BTreeMap::new();
    for &(key, i, j, k) in &log.writes {
        written.entry(key).or_default().insert((i, j, k));
    }
    for (&key, cells) in &written {
        if !out_keys.contains(&key) {
            found.insert(Diagnostic {
                code: DiagnosticCode::UndeclaredWrite,
                site: st.name.clone(),
                field: name(key),
                detail: "kernel writes a field not declared as an output".into(),
            });
            continue;
        }
        for &(i, j, k) in cells {
            if (i, j, k) != c {
                found.insert(Diagnostic {
                    code: DiagnosticCode::OutOfRegionWrite,
                    site: st.name.clone(),
                    field: name(key),
                    detail: format!(
                        "write at offset ({}, {}, {}) outside the requested region",
                        i - ci,
                        j - cj,
                        k - ck
                    ),
                });
            }
        }
    }
    for &key in out_keys {
        if !written.get(&key).is_some_and(|w| w.contains(&c)) {
            found.insert(Diagnostic {
                code: DiagnosticCode::MissingWrite,
                site: st.name.clone(),
                field: name(key),
                detail: "requested cell was not written".into(),
            });
        }
    }
}

/// Clones `graph` with one offset removed from the pattern of input
/// `slot` of stage `stage` — the seeded mutant the regression tests and
/// `stencil-lint --mutant drop-offset` feed back into [`check_graph`]
/// to prove the linter catches under-declaration.
///
/// # Panics
///
/// Panics if the offset is not in the pattern, if removing it would
/// empty the pattern, or if the mutated graph fails validation.
pub fn with_offset_removed(
    graph: &StageGraph,
    stage: usize,
    slot: usize,
    o: Offset3,
) -> StageGraph {
    let mut stages = graph.stages().to_vec();
    let (_, pat) = &mut stages[stage].inputs[slot];
    assert!(pat.contains(o), "offset to remove must be declared");
    *pat = StencilPattern::from_offsets(
        pat.offsets()
            .iter()
            .copied()
            .filter(|&p| p != o)
            .map(|p| (p.di, p.dj, p.dk)),
    );
    StageGraph::build(graph.fields().clone(), stages).expect("mutant graph still validates")
}
