//! A minimal, std-only microbenchmark harness.
//!
//! The hermetic build rules out the external `criterion` crate, and the
//! microbenches under `benches/` only ever used a sliver of its API:
//! named groups, per-group sample counts, and a timed closure. This
//! module provides exactly that sliver. Each benchmark
//!
//! 1. calibrates a batch size so one sample runs for at least
//!    [`MIN_SAMPLE_NANOS`] (timer noise stays far below 1 %),
//! 2. takes `samples` timed batches after one warmup batch,
//! 3. prints min / median / max per-iteration times.
//!
//! Building the bench crate with `--features criterion` multiplies the
//! sample counts and minimum sample time for steadier numbers; the
//! default profile keeps `cargo bench` quick enough for CI.
//!
//! A single positional command-line argument (as in
//! `cargo bench --bench kernels -- fused`) filters benchmarks by
//! substring of `group/label`. Two flags extend that:
//!
//! * `--json <path>` — besides the human-readable report, write every
//!   result as a JSON array of `{group, label, min_ns, median_ns,
//!   max_ns, iters}` objects to `path` (the `bench-check` binary
//!   validates such artifacts in CI). Rows with a phase breakdown
//!   attached via [`Group::attach_phases`] additionally carry the
//!   worker-summed `kernel_ns` / `barrier_ns` / `swap_ns`, the worker
//!   count, comparable-across-P `*_pw_ns` per-worker values, the
//!   imbalance-attributable `imbalance_ns` and the per-step latency
//!   quantiles `p50_step_ns` / `p99_step_ns` (see [`Phases`]);
//! * `--quick` — benches that call [`Harness::quick`] shrink their
//!   configurations for smoke runs.

use crate::json::Json;
use std::time::{Duration, Instant};

/// Phase breakdown of one benchmark iteration, measured by an untimed
/// traced replay of the benched operation (see
/// [`Group::attach_phases`]). The `*_ns` phase fields are
/// *worker-summed* nanoseconds per iteration — on a P-worker run an
/// iteration can account up to P × its wall time — so raw phase values
/// are not comparable across different worker counts. The JSON artifact
/// therefore also carries per-worker (`*_pw_ns = *_ns / workers`)
/// values, which are on the wall-clock scale of `median_ns` and compare
/// across P.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Phases {
    /// Workers that contributed to the summed phase times.
    pub workers: f64,
    /// Kernel (stencil sweep) time.
    pub kernel_ns: f64,
    /// Barrier wait (team + global, all of spin/yield/park).
    pub barrier_ns: f64,
    /// Serial buffer-swap and gap re-zero time.
    pub swap_ns: f64,
    /// Worker time lost to inter-island imbalance per iteration:
    /// `Σ_i workers_i × (max_pw − pw_i)` over islands, where `pw_i` is
    /// island i's per-worker share of the step (kernel time on
    /// dedicated cores; the steady-state bench derives it from the
    /// deterministic per-island cell counts at the measured kernel
    /// rate, so the value is preemption-noise-free on oversubscribed
    /// hosts). Worker-summed, like the phase fields. On dedicated
    /// cores this is the barrier wait attributable to imbalance rather
    /// than oversubscription.
    pub imbalance_ns: f64,
    /// Global barrier crossings per iteration (a count, not a time) —
    /// per logical step when the bench uses `bench_per_unit`. Temporal
    /// blocking (`--fuse-steps=k`) amortizes the global pair over k
    /// steps, so this falls from 2 toward 2/k as k grows.
    pub global_barriers: f64,
    /// Modeled main-memory bytes moved per iteration (logical step) by
    /// the benched schedule, from the compulsory-stream traffic models
    /// (`staged_traffic_bytes` for per-stage sweeps,
    /// `tiled_traffic_bytes` for tile-fused chains). Zero when the
    /// bench attaches no traffic model to the row.
    pub bytes_moved: f64,
    /// Measured throughput in millions of lattice updates per second,
    /// derived from the row's median time and the domain cell count
    /// (`cells × 1000 / median_ns`). Zero when not attached.
    pub mlups: f64,
    /// Median per-step wall time of the traced replay, from the
    /// `islands-trace` log2-bucketed latency histogram — the value is
    /// the histogram's bucket ceiling, so it quantizes to powers of
    /// two. Zero when the replay tracked no steps.
    pub p50_step_ns: f64,
    /// 99th-percentile per-step wall time, same histogram and same
    /// quantization. The p99/p50 ratio is the per-step jitter figure
    /// `bench-check --max-p99-ratio` gates.
    pub p99_step_ns: f64,
}

impl Phases {
    fn per_worker(&self, summed: f64) -> f64 {
        summed / self.workers.max(1.0)
    }
}

/// One finished measurement, as serialized by `--json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// Group name (the [`Harness::group`] argument).
    pub group: String,
    /// Label within the group (including any `bench_param` parameter).
    pub label: String,
    /// Fastest per-iteration time over all samples, nanoseconds.
    pub min_ns: f64,
    /// Median per-iteration time, nanoseconds.
    pub median_ns: f64,
    /// Slowest per-iteration time, nanoseconds.
    pub max_ns: f64,
    /// Total timed iterations (samples × calibrated batch).
    pub iters: u64,
    /// Optional phase breakdown (kernel / barrier / swap), attached
    /// after the timed samples by [`Group::attach_phases`].
    pub phases: Option<Phases>,
}

/// Minimum duration of one timed sample, before the `criterion`
/// feature's multiplier.
pub const MIN_SAMPLE_NANOS: u64 = 2_000_000;

/// Upper bound on the calibrated batch size. No real benchmark body
/// needs 2³⁴ iterations to fill [`MIN_SAMPLE_NANOS`]; hitting the cap
/// means the body was optimized away or the clock is broken, and
/// calibration reports that instead of saturating at `u64::MAX` and
/// spinning forever.
const MAX_BATCH: u64 = 1 << 34;

/// One calibration step: the next batch size after `batch` iterations
/// took `elapsed_ns` against a `min_ns` sample target, or `None` once
/// growth would exceed [`MAX_BATCH`]. Grows by at least 2× per round
/// and overshoots toward the target (clamped at 1024×) so calibration
/// converges in a few rounds even for nanosecond-scale bodies.
fn grow_batch(batch: u64, elapsed_ns: u64, min_ns: u64) -> Option<u64> {
    let scale = (min_ns / elapsed_ns.max(1)).clamp(2, 1024);
    let next = batch.saturating_mul(scale);
    (next <= MAX_BATCH).then_some(next)
}

fn effort_multiplier() -> u64 {
    if cfg!(feature = "criterion") {
        5
    } else {
        1
    }
}

/// Top-level harness: owns the filter and prints the report.
#[derive(Debug)]
pub struct Harness {
    filter: Option<String>,
    json_path: Option<String>,
    quick: bool,
    records: Vec<Record>,
    ran: usize,
    skipped: usize,
}

impl Harness {
    /// Builds a harness from `std::env::args`: `--json <path>` and
    /// `--quick` are consumed, the first remaining non-flag argument
    /// becomes the substring filter, and other flags cargo may pass are
    /// ignored.
    pub fn from_env() -> Self {
        let mut filter = None;
        let mut json_path = None;
        let mut quick = false;
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            if a == "--json" {
                json_path = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--json requires a path argument");
                    std::process::exit(2);
                }));
            } else if a == "--quick" {
                quick = true;
            } else if !a.starts_with('-') && filter.is_none() {
                filter = Some(a);
            }
        }
        Harness {
            filter,
            json_path,
            quick,
            records: Vec::new(),
            ran: 0,
            skipped: 0,
        }
    }

    /// True when `--quick` was passed: benches should shrink their
    /// configurations to smoke-test size.
    pub fn quick(&self) -> bool {
        self.quick
    }

    /// Starts a named group of benchmarks.
    pub fn group(&mut self, name: &str) -> Group<'_> {
        Group {
            harness: self,
            name: name.to_string(),
            samples: 20,
        }
    }

    /// Prints the run summary and writes the `--json` artifact (if one
    /// was requested). Call once at the end of `main`.
    ///
    /// # Panics
    ///
    /// Panics when the JSON artifact cannot be written.
    pub fn finish(self) {
        println!(
            "\n{} benchmark(s) run, {} filtered out",
            self.ran, self.skipped
        );
        if let Some(path) = &self.json_path {
            std::fs::write(path, render_json(&self.records))
                .unwrap_or_else(|e| panic!("writing bench JSON to {path}: {e}"));
            println!("wrote {} record(s) to {path}", self.records.len());
        }
    }
}

/// Renders records as a JSON array (stable key order) — the exact
/// format `bench-check` parses back. Rows with an attached phase
/// breakdown carry the extra members described in [`Phases`]
/// (worker-summed phases, `workers`, per-worker `*_pw_ns` values and
/// `imbalance_ns`). Goes through [`crate::json`]'s emitter, so a NaN or
/// infinity in a record is an error here rather than an invalid
/// artifact downstream.
///
/// # Panics
///
/// Panics when any record holds a non-finite number.
pub fn render_json(records: &[Record]) -> String {
    let items: Vec<Json> = records
        .iter()
        .map(|r| {
            let mut m = vec![
                ("group".to_string(), Json::Str(r.group.clone())),
                ("label".to_string(), Json::Str(r.label.clone())),
                ("min_ns".to_string(), Json::Num(r.min_ns)),
                ("median_ns".to_string(), Json::Num(r.median_ns)),
                ("max_ns".to_string(), Json::Num(r.max_ns)),
                ("iters".to_string(), Json::Num(r.iters as f64)),
            ];
            if let Some(p) = r.phases {
                m.push(("kernel_ns".to_string(), Json::Num(p.kernel_ns)));
                m.push(("barrier_ns".to_string(), Json::Num(p.barrier_ns)));
                m.push(("swap_ns".to_string(), Json::Num(p.swap_ns)));
                m.push(("workers".to_string(), Json::Num(p.workers)));
                m.push((
                    "kernel_pw_ns".to_string(),
                    Json::Num(p.per_worker(p.kernel_ns)),
                ));
                m.push((
                    "barrier_pw_ns".to_string(),
                    Json::Num(p.per_worker(p.barrier_ns)),
                ));
                m.push(("swap_pw_ns".to_string(), Json::Num(p.per_worker(p.swap_ns))));
                m.push(("imbalance_ns".to_string(), Json::Num(p.imbalance_ns)));
                m.push(("global_barriers".to_string(), Json::Num(p.global_barriers)));
                m.push(("bytes_moved".to_string(), Json::Num(p.bytes_moved)));
                m.push(("mlups".to_string(), Json::Num(p.mlups)));
                m.push(("p50_step_ns".to_string(), Json::Num(p.p50_step_ns)));
                m.push(("p99_step_ns".to_string(), Json::Num(p.p99_step_ns)));
            }
            Json::Object(m)
        })
        .collect();
    let mut s = Json::Array(items)
        .render()
        .unwrap_or_else(|e| panic!("bench record holds a non-finite number: {e}"));
    s.push('\n');
    s
}

/// A named group of benchmarks sharing a sample count.
#[derive(Debug)]
pub struct Group<'a> {
    harness: &'a mut Harness,
    name: String,
    samples: usize,
}

impl Group<'_> {
    /// Sets the number of timed samples per benchmark in this group.
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        self.samples = samples.max(3);
        self
    }

    /// Times `f`, reporting per-iteration statistics under
    /// `group/label`.
    pub fn bench<F: FnMut()>(&mut self, label: &str, f: F) {
        self.bench_per_unit(label, 1, f);
    }

    /// Like [`Group::bench`], but one call of `f` performs `units`
    /// logical iterations (e.g. a multi-step `run`), so measured times
    /// are divided by `units` before reporting — the honest per-step
    /// cost of a batched operation.
    ///
    /// # Panics
    ///
    /// Panics if `units` is zero.
    pub fn bench_per_unit<F: FnMut()>(&mut self, label: &str, units: u64, mut f: F) {
        assert!(units > 0, "a call must cover at least one unit");
        let full = format!("{}/{}", self.name, label);
        if let Some(flt) = &self.harness.filter {
            if !full.contains(flt.as_str()) {
                self.harness.skipped += 1;
                return;
            }
        }
        let min_sample = Duration::from_nanos(MIN_SAMPLE_NANOS * effort_multiplier());
        let samples = self.samples * effort_multiplier() as usize;

        // Calibrate: grow the batch until one batch clears min_sample.
        let mut batch = 1_u64;
        loop {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            let elapsed = t.elapsed();
            if elapsed >= min_sample {
                break;
            }
            batch = grow_batch(
                batch,
                elapsed.as_nanos() as u64,
                min_sample.as_nanos() as u64,
            )
            .unwrap_or_else(|| {
                panic!(
                    "calibrating {full}: {batch} iterations still finished in \
                     {elapsed:?} (target {min_sample:?}); the benchmark body \
                     appears to be optimized away or the clock is broken"
                )
            });
        }

        // Warmup batch, then timed samples.
        for _ in 0..batch {
            f();
        }
        let mut per_iter: Vec<f64> = Vec::with_capacity(samples);
        for _ in 0..samples {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            per_iter.push(t.elapsed().as_nanos() as f64 / (batch * units) as f64);
        }
        per_iter.sort_by(|a, b| a.total_cmp(b));
        let min = per_iter[0];
        let median = per_iter[per_iter.len() / 2];
        let max = per_iter[per_iter.len() - 1];
        println!(
            "{full:<44} {:>12}  (min {}, max {}, {samples}×{batch} iters)",
            fmt_ns(median),
            fmt_ns(min),
            fmt_ns(max),
        );
        self.harness.records.push(Record {
            group: self.name.clone(),
            label: label.to_string(),
            min_ns: min,
            median_ns: median,
            max_ns: max,
            iters: samples as u64 * batch * units,
            phases: None,
        });
        self.harness.ran += 1;
    }

    /// The median per-iteration time of the already-benched `label` of
    /// this group, or `None` when it was filtered out — lets a bench
    /// derive throughput figures (MLUPS) from its own timed result.
    pub fn median_ns(&self, label: &str) -> Option<f64> {
        let name = self.name.as_str();
        self.harness
            .records
            .iter()
            .find(|r| r.group == name && r.label == label)
            .map(|r| r.median_ns)
    }

    /// True when `label` in this group survived the filter and was
    /// benched — callers can skip the extra traced replay otherwise.
    pub fn benched(&self, label: &str) -> bool {
        let name = self.name.as_str();
        self.harness
            .records
            .iter()
            .any(|r| r.group == name && r.label == label)
    }

    /// Attaches a phase breakdown to the already-benched `label` of
    /// this group (measured separately, e.g. by replaying the benched
    /// operation once under the `islands-trace` recorder — tracing
    /// never runs during the timed samples). A no-op when the label
    /// was filtered out or never benched.
    pub fn attach_phases(&mut self, label: &str, phases: Phases) {
        let name = self.name.as_str();
        if let Some(r) = self
            .harness
            .records
            .iter_mut()
            .find(|r| r.group == name && r.label == label)
        {
            r.phases = Some(phases);
        }
    }

    /// Criterion-style alias: benchmark `f` with a parameter shown in
    /// the label, e.g. `bench_param("original", 4, || ...)`.
    pub fn bench_param<P: std::fmt::Display, F: FnMut()>(&mut self, label: &str, param: P, f: F) {
        let composite = format!("{label}/{param}");
        self.bench(&composite, f);
    }

    /// Ends the group (kept for call-site symmetry; no work needed).
    pub fn finish(self) {}
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_time_scales() {
        assert_eq!(fmt_ns(12.34), "12.3 ns");
        assert_eq!(fmt_ns(12_340.0), "12.34 µs");
        assert_eq!(fmt_ns(12_340_000.0), "12.34 ms");
        assert_eq!(fmt_ns(2_500_000_000.0), "2.500 s");
    }

    fn test_harness(filter: Option<String>) -> Harness {
        Harness {
            filter,
            json_path: None,
            quick: false,
            records: Vec::new(),
            ran: 0,
            skipped: 0,
        }
    }

    #[test]
    fn bench_runs_and_counts() {
        let mut h = test_harness(None);
        let mut g = h.group("t");
        g.sample_size(3);
        let mut hits = 0_u64;
        // `black_box` keeps each iteration observable: a bare
        // `hits += 1` loop folds into one add in release builds and the
        // calibration (rightly) rejects it as optimized away.
        g.bench("noop", || hits = std::hint::black_box(hits + 1));
        g.finish();
        assert_eq!(h.ran, 1);
        assert!(hits > 0);
        assert_eq!(h.records.len(), 1);
        let r = &h.records[0];
        assert_eq!((r.group.as_str(), r.label.as_str()), ("t", "noop"));
        assert!(r.min_ns <= r.median_ns && r.median_ns <= r.max_ns);
        assert!(r.iters > 0);
    }

    #[test]
    fn filter_skips_nonmatching() {
        let mut h = test_harness(Some("nomatch".into()));
        let mut g = h.group("t");
        g.bench("noop", || {});
        g.finish();
        assert_eq!(h.ran, 0);
        assert_eq!(h.skipped, 1);
        assert!(h.records.is_empty());
    }

    #[test]
    fn per_unit_divides_reported_times() {
        let mut h = test_harness(None);
        let mut g = h.group("t");
        g.sample_size(3);
        // One call covers 4 units of ~400 µs total: the per-unit median
        // must come out near a quarter of the call, far below the whole.
        g.bench_per_unit("batched", 4, || {
            std::thread::sleep(Duration::from_micros(400));
        });
        g.finish();
        let r = &h.records[0];
        assert!(
            r.median_ns < 400_000.0,
            "per-unit time {} ns should be well below the whole call",
            r.median_ns
        );
        assert_eq!(r.iters % 4, 0);
    }

    #[test]
    fn json_rendering_is_parseable_and_escaped() {
        let records = vec![
            Record {
                group: "g".into(),
                label: "plain/4".into(),
                min_ns: 1.5,
                median_ns: 2.5,
                max_ns: 3.5,
                iters: 60,
                phases: None,
            },
            Record {
                group: "g".into(),
                label: "quo\"te\\back".into(),
                min_ns: 10.0,
                median_ns: 20.0,
                max_ns: 30.0,
                iters: 3,
                phases: Some(Phases {
                    workers: 2.0,
                    kernel_ns: 15.5,
                    barrier_ns: 3.0,
                    swap_ns: 0.5,
                    imbalance_ns: 1.25,
                    global_barriers: 0.75,
                    bytes_moved: 4096.0,
                    mlups: 12.5,
                    p50_step_ns: 8192.0,
                    p99_step_ns: 16384.0,
                }),
            },
        ];
        let s = render_json(&records);
        let parsed = crate::json::parse(&s).expect("own output parses");
        let arr = parsed.as_array().expect("top-level array");
        assert_eq!(arr.len(), 2);
        assert_eq!(
            arr[0].get("label").and_then(|v| v.as_str()),
            Some("plain/4")
        );
        assert_eq!(arr[0].get("median_ns").and_then(|v| v.as_f64()), Some(2.5));
        assert_eq!(arr[0].get("iters").and_then(|v| v.as_f64()), Some(60.0));
        assert!(arr[0].get("kernel_ns").is_none());
        assert_eq!(
            arr[1].get("label").and_then(|v| v.as_str()),
            Some("quo\"te\\back")
        );
        assert_eq!(arr[1].get("kernel_ns").and_then(|v| v.as_f64()), Some(15.5));
        assert_eq!(arr[1].get("barrier_ns").and_then(|v| v.as_f64()), Some(3.0));
        assert_eq!(arr[1].get("swap_ns").and_then(|v| v.as_f64()), Some(0.5));
        // Per-worker values are the summed phases over `workers`, on the
        // same wall-clock scale as median_ns.
        assert_eq!(arr[1].get("workers").and_then(|v| v.as_f64()), Some(2.0));
        assert_eq!(
            arr[1].get("kernel_pw_ns").and_then(|v| v.as_f64()),
            Some(7.75)
        );
        assert_eq!(
            arr[1].get("barrier_pw_ns").and_then(|v| v.as_f64()),
            Some(1.5)
        );
        assert_eq!(
            arr[1].get("swap_pw_ns").and_then(|v| v.as_f64()),
            Some(0.25)
        );
        assert_eq!(
            arr[1].get("imbalance_ns").and_then(|v| v.as_f64()),
            Some(1.25)
        );
        assert_eq!(
            arr[1].get("global_barriers").and_then(|v| v.as_f64()),
            Some(0.75)
        );
        assert_eq!(
            arr[1].get("bytes_moved").and_then(|v| v.as_f64()),
            Some(4096.0)
        );
        assert_eq!(arr[1].get("mlups").and_then(|v| v.as_f64()), Some(12.5));
        assert_eq!(
            arr[1].get("p50_step_ns").and_then(|v| v.as_f64()),
            Some(8192.0)
        );
        assert_eq!(
            arr[1].get("p99_step_ns").and_then(|v| v.as_f64()),
            Some(16384.0)
        );
        assert!(arr[0].get("p50_step_ns").is_none());
    }

    #[test]
    fn batch_growth_is_capped_instead_of_pinning_at_max() {
        // A zero-elapsed clock (body optimized away, broken timer) must
        // walk up to the cap and then report None — the old
        // `saturating_mul` pinned the batch at u64::MAX and the
        // calibration loop span forever trying to run it.
        let mut batch = 1_u64;
        let mut rounds = 0;
        while let Some(next) = grow_batch(batch, 0, MIN_SAMPLE_NANOS) {
            assert!(next > batch, "growth stalled at {batch}");
            assert!(next <= MAX_BATCH);
            batch = next;
            rounds += 1;
            assert!(rounds < 64, "growth never reached the cap");
        }
        assert!(batch <= MAX_BATCH);
        // Ordinary convergence is untouched: half the target doubles...
        assert_eq!(
            grow_batch(100, MIN_SAMPLE_NANOS / 2, MIN_SAMPLE_NANOS),
            Some(200)
        );
        // ...and a near-instant batch jumps by the clamped 1024× max.
        assert_eq!(grow_batch(1, 1, u64::MAX / 2), Some(1024));
    }

    #[test]
    fn attach_phases_marks_only_the_named_record() {
        let mut h = test_harness(None);
        let mut g = h.group("t");
        g.sample_size(3);
        g.bench("a", || std::hint::black_box(()));
        g.bench("b", || std::hint::black_box(()));
        let attached = Phases {
            workers: 4.0,
            kernel_ns: 1.0,
            barrier_ns: 2.0,
            swap_ns: 3.0,
            imbalance_ns: 0.5,
            global_barriers: 2.0,
            bytes_moved: 0.0,
            mlups: 0.0,
            p50_step_ns: 0.0,
            p99_step_ns: 0.0,
        };
        g.attach_phases("b", attached);
        g.attach_phases(
            "absent",
            Phases {
                workers: 1.0,
                kernel_ns: 9.0,
                barrier_ns: 9.0,
                swap_ns: 9.0,
                imbalance_ns: 9.0,
                global_barriers: 9.0,
                bytes_moved: 9.0,
                mlups: 9.0,
                p50_step_ns: 9.0,
                p99_step_ns: 9.0,
            },
        );
        g.finish();
        assert_eq!(h.records[0].phases, None);
        assert_eq!(h.records[1].phases, Some(attached));
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn render_rejects_non_finite_medians() {
        let records = vec![Record {
            group: "g".into(),
            label: "bad".into(),
            min_ns: 1.0,
            median_ns: f64::NAN,
            max_ns: 3.0,
            iters: 1,
            phases: None,
        }];
        render_json(&records);
    }
}
