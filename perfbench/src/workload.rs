//! The benchmark's workloads and the closed loop that drives them: one
//! caller runs an interval, checks it, then runs the next.

use crate::alloc::AllocCount;
use crate::host::WORKERS;
use crate::stats::Spans;
use islands_trace::{chrome, json, metrics::RunMetrics, Session, NO_ISLAND};
use mpdata::{
    random_fields, IslandsExecutor, MpdataFields, MpdataProblem, OriginalExecutor,
    ReferenceExecutor, TileMode,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use stencil_engine::rng::Xoshiro256pp;
use stencil_engine::{Array3, Axis, Region3};
use work_scheduler::{TeamSpec, WorkerPool};

/// Largest relative mass drift an interval may show. MPDATA conserves
/// mass exactly in a closed box; what remains is summation rounding,
/// orders of magnitude below this.
pub const MASS_TOL: f64 = 1e-9;

/// Which executor a workload drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// `IslandsExecutor`: one island per team, halo recomputed.
    Islands,
    /// `OriginalExecutor`: one pool broadcast per stage, full-size
    /// intermediates.
    Original,
}

/// One named workload.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Domain extent `(ni, nj, nk)`.
    pub extent: (usize, usize, usize),
    pub strategy: Strategy,
    /// Fixed `(ti, tj)` tiles, or `None` for the library default
    /// (untiled wavefront blocks under `DEFAULT_CACHE_BYTES`).
    pub tile: Option<(usize, usize)>,
    /// Steps per interval, which is also the executor's fuse depth.
    pub steps: usize,
    /// Whether every interval records the program's own trace and saves
    /// it the way `mpdata-run --trace --metrics-json` does.
    pub program_trace: bool,
}

/// The paper's domain (Table 4).
const PAPER: (usize, usize, usize) = (256, 256, 64);

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "islands-paper",
        extent: PAPER,
        strategy: Strategy::Islands,
        tile: None,
        steps: 1,
        program_trace: false,
    },
    Workload {
        name: "original-paper",
        extent: PAPER,
        strategy: Strategy::Original,
        tile: None,
        steps: 1,
        program_trace: false,
    },
    Workload {
        name: "traced-tiles",
        extent: (96, 48, 24),
        strategy: Strategy::Islands,
        tile: Some((12, 12)),
        steps: 2,
        program_trace: true,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn domain(&self) -> Region3 {
        let (ni, nj, nk) = self.extent;
        Region3::of_extent(ni, nj, nk)
    }

    /// Two islands of one core each for the islands executor; the
    /// original executor has no teams, so its barrier probe uses one
    /// team spanning both workers.
    pub fn teams(&self) -> TeamSpec {
        match self.strategy {
            Strategy::Islands => TeamSpec::even(WORKERS, 2),
            Strategy::Original => TeamSpec::even(WORKERS, 1),
        }
    }

    /// The workload's inputs, generated from `seed` alone.
    pub fn fields(&self, seed: u64) -> MpdataFields {
        random_fields(&mut Xoshiro256pp::seed_from_u64(seed), self.domain(), 0.9)
    }

    pub fn executor<'p>(&self, pool: &'p WorkerPool) -> Exec<'p> {
        match self.strategy {
            Strategy::Original => Exec::Original(OriginalExecutor::new(pool)),
            Strategy::Islands => {
                let mut e =
                    IslandsExecutor::new(pool, self.teams(), Axis::I).fuse_steps(self.steps);
                if let Some((ti, tj)) = self.tile {
                    e = e.tile(TileMode::Fixed { ti, tj });
                }
                Exec::Islands(Box::new(e))
            }
        }
    }
}

/// A workload's executor.
pub enum Exec<'p> {
    Islands(Box<IslandsExecutor<'p>>),
    Original(OriginalExecutor<'p>),
}

impl Exec<'_> {
    /// Advances `f` by `steps`; an `Err` or a panic is a failed run.
    pub fn run(&self, f: &mut MpdataFields, steps: usize) -> Result<(), String> {
        catch_unwind(AssertUnwindSafe(|| match self {
            Exec::Islands(e) => e.run(f, steps).map_err(|e| e.to_string()),
            Exec::Original(e) => {
                e.run(f, steps);
                Ok(())
            }
        }))
        .unwrap_or_else(|_| Err("the executor panicked".into()))
    }
}

/// The serial reference's advected field after the first step and after
/// the first step plus one interval, on the workload's own inputs.
pub struct Reference {
    pub first: Array3,
    pub warm: Array3,
}

impl Reference {
    pub fn new(w: &Workload, fields: &MpdataFields) -> Reference {
        let reference = ReferenceExecutor::new();
        let mut f = fields.clone();
        reference.run(&mut f, 1);
        let first = f.x.clone();
        reference.run(&mut f, w.steps);
        Reference { first, warm: f.x }
    }
}

/// The verification op: bitwise equality of two advected fields.
pub fn bitwise_equal(got: &Array3, want: &Array3) -> bool {
    got.region() == want.region()
        && got
            .as_slice()
            .iter()
            .zip(want.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Total mass `Σ x·h`, summed straight over the stored cells: the same
/// quantity as `MpdataFields::mass`, at a fraction of its cost, so the
/// per-interval check stays a small share of the interval.
pub fn mass(f: &MpdataFields) -> f64 {
    f.x.as_slice()
        .iter()
        .zip(f.h.as_slice())
        .map(|(x, h)| x * h)
        .sum()
}

/// The host check after every interval: mass conserved and the field
/// still non-negative.
pub fn check_fields(f: &MpdataFields, mass0: f64) -> Result<(), String> {
    let drift = (mass(f) / mass0 - 1.0).abs();
    if drift.is_nan() || drift > MASS_TOL {
        return Err(format!("mass drifted by {drift:e}"));
    }
    let min = f.x.as_slice().iter().copied().fold(f64::INFINITY, f64::min);
    if min.is_nan() || min < 0.0 {
        return Err(format!("positivity lost: min {min:e}"));
    }
    Ok(())
}

/// What one saved program trace contained.
#[derive(Clone, Debug, Default)]
pub struct TraceOutcome {
    pub events: usize,
    pub dropped: u64,
    pub chrome_bytes: usize,
    /// Summed worker time in kernel sweeps and barrier waits, and the
    /// summed step wall time × island workers it is a share of.
    pub kernel_ns: u64,
    pub barrier_ns: u64,
    pub worker_wall_ns: u64,
}

/// One interval's measurements.
pub struct Interval {
    pub total: Duration,
    pub run: Duration,
    pub allocs: AllocCount,
    pub error: Option<String>,
    pub trace: Option<TraceOutcome>,
}

/// Everything an interval needs besides the executor and the fields.
pub struct Runner {
    pub workload: &'static Workload,
    pub mass0: f64,
    stage_names: Vec<String>,
    out_dir: PathBuf,
}

impl Runner {
    pub fn new(workload: &'static Workload, fields: &MpdataFields) -> Runner {
        let stage_names = MpdataProblem::standard()
            .graph()
            .stages()
            .iter()
            .map(|st| st.name.clone())
            .collect();
        // Trace artifacts go next to the build output, which is
        // ignored by git.
        let out_dir = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("target"), PathBuf::from)
            .join("perfbench");
        Runner {
            workload,
            mass0: mass(fields),
            stage_names,
            out_dir,
        }
    }

    /// Runs one interval: the executor's `run` for the workload's steps,
    /// the program trace pipeline when `program_trace` is on, then the
    /// host check. Spans are recorded around each layer call when
    /// `spans` is enabled.
    pub fn interval(
        &self,
        exec: &Exec,
        f: &mut MpdataFields,
        spans: &mut Spans,
        program_trace: bool,
    ) -> Interval {
        let t0 = Instant::now();
        let whole = spans.enter("interval");
        let session = program_trace.then(Session::start);
        let sp = spans.enter("exec.run");
        let a0 = AllocCount::now();
        let r0 = Instant::now();
        let result = exec.run(f, self.workload.steps);
        let run = r0.elapsed();
        let allocs = AllocCount::now().since(a0);
        spans.exit(sp);
        let mut error = result.err();
        let trace = session.and_then(|s| match self.save_trace(s, spans) {
            Ok(t) => Some(t),
            Err(e) => {
                error.get_or_insert(e);
                None
            }
        });
        let sp = spans.enter("host.check");
        if error.is_none() {
            error = check_fields(f, self.mass0).err();
        }
        spans.exit(sp);
        spans.exit(whole);
        Interval {
            total: t0.elapsed(),
            run,
            allocs,
            error,
            trace,
        }
    }

    /// Drains the session, aggregates `RunMetrics`, exports and
    /// validates the Chrome trace, round-trips the metrics JSON through
    /// the strict renderer and parser, and writes both files.
    fn save_trace(&self, session: Session, spans: &mut Spans) -> Result<TraceOutcome, String> {
        let sp = spans.enter("trace.drain");
        let drained = session.finish();
        spans.exit(sp);
        let sp = spans.enter("trace.aggregate");
        let metrics = RunMetrics::aggregate(&drained);
        spans.exit(sp);
        let sp = spans.enter("trace.export");
        let names: Vec<&str> = self.stage_names.iter().map(String::as_str).collect();
        let text = chrome::export(&drained, &names);
        spans.exit(sp);
        let sp = spans.enter("trace.validate");
        let valid = chrome::validate(&text);
        spans.exit(sp);
        valid.map_err(|e| format!("chrome trace failed validation: {e}"))?;
        let sp = spans.enter("trace.metrics_json");
        let rendered = metrics_json(&metrics);
        spans.exit(sp);
        let rendered = rendered?;
        let sp = spans.enter("trace.write");
        let written = write_artifacts(&self.out_dir, &text, &rendered);
        spans.exit(sp);
        written?;
        let mut out = TraceOutcome {
            events: drained.events.len(),
            dropped: drained.dropped,
            chrome_bytes: text.len(),
            ..TraceOutcome::default()
        };
        let mut workers = 0u64;
        for m in metrics.totals().iter().filter(|m| m.island != NO_ISLAND) {
            out.kernel_ns += m.kernel_ns;
            out.barrier_ns += m.barrier_wait_ns();
            workers += u64::from(m.workers);
        }
        out.worker_wall_ns = metrics.wall_ns() * workers;
        Ok(out)
    }
}

/// `RunMetrics::to_json` → render → parse, checked to round-trip.
fn metrics_json(metrics: &RunMetrics) -> Result<String, String> {
    let doc = metrics.to_json();
    let text = doc
        .render()
        .map_err(|e| format!("metrics JSON failed validation: {e}"))?;
    match json::parse(&text) {
        Ok(back) if back == doc => Ok(text),
        Ok(_) => Err("metrics JSON did not round-trip".into()),
        Err(e) => Err(format!("metrics JSON failed self-parse: {e}")),
    }
}

fn write_artifacts(dir: &Path, trace: &str, metrics: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(dir.join("trace.json"), trace))
        .and_then(|()| std::fs::write(dir.join("metrics.json"), metrics))
        .map_err(|e| format!("cannot write trace artifacts to {}: {e}", dir.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verification_fails_on_a_perturbed_field() {
        let w = Workload {
            extent: (12, 10, 6),
            ..WORKLOADS[0].clone()
        };
        let fields = w.fields(7);
        let reference = Reference::new(&w, &fields);
        let pool = WorkerPool::new(WORKERS);
        let exec = w.executor(&pool);
        let mut f = fields.clone();
        exec.run(&mut f, 1).unwrap();
        assert!(bitwise_equal(&f.x, &reference.first));
        let (i, j, k) = (3, 4, 2);
        let v = f.x.get(i, j, k);
        f.x.set(i, j, k, f64::from_bits(v.to_bits() ^ 1));
        assert!(!bitwise_equal(&f.x, &reference.first));
    }

    #[test]
    fn host_check_rejects_mass_drift_and_negative_cells() {
        let w = Workload {
            extent: (8, 8, 4),
            ..WORKLOADS[1].clone()
        };
        let mut f = w.fields(3);
        let mass0 = mass(&f);
        assert!((mass0 / f.mass() - 1.0).abs() < 1e-12);
        assert!(check_fields(&f, mass0).is_ok());
        f.x.set(2, 2, 2, f.x.get(2, 2, 2) + 1.0);
        assert!(check_fields(&f, mass0).unwrap_err().contains("mass"));
        let mut f = w.fields(3);
        f.x.set(1, 1, 1, -1e-30);
        assert!(check_fields(&f, mass(&f))
            .unwrap_err()
            .contains("positivity"));
    }
}
