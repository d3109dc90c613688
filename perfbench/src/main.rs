//! The repository benchmark: runs one named MPDATA workload from a seed
//! in a closed loop, verifies it, and prints every metric with its unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload islands-paper --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` is the separate
//! traced run that prints the per-layer metrics. The last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; a metadata line (host, toolchain, commit,
//! seed, sample counts) precedes it. See `README.md` beside this file.

mod alloc;
mod host;
mod layers;
mod report;
mod stats;
mod workload;

use host::WORKERS;
use islands_trace::json::Json;
use mpdata::MpdataFields;
use report::{Report, END_TO_END};
use stats::{median, tail, Spans};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use work_scheduler::WorkerPool;
use workload::{bitwise_equal, Exec, Interval, Reference, Runner, Workload};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Independent set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Fewest timed intervals of one kind, so `interval_ms_tail` exists.
const MIN_INTERVALS: usize = 11;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(val).ok_or_else(|| {
                    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!(
                        "unknown workload {val:?} (expected one of {})",
                        names.join(", ")
                    )
                })?)
            }
            "--seed" => seed = Some(val.parse().map_err(|e| format!("bad --seed: {e}"))?),
            "--seconds" => {
                let s: f64 = val.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Attempted and failed operations: intervals and verification ops.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
}

impl Tally {
    fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.first_error.get_or_insert(format!("{what}: {e}"));
        }
    }

    /// Verification op: `got` must equal the reference bitwise.
    fn verify(
        &mut self,
        what: &str,
        run: Result<(), String>,
        got: &MpdataFields,
        want: &stencil_engine::Array3,
    ) {
        let outcome = run.and_then(|()| {
            bitwise_equal(&got.x, want)
                .then_some(())
                .ok_or_else(|| "not bitwise equal to the reference".to_string())
        });
        self.record(what, outcome);
    }

    fn interval(&mut self, iv: &Interval) {
        self.record("interval", iv.error.clone().map_or(Ok(()), Err));
    }
}

/// Set-up times: pool creation to the return of the first step, and the
/// first step alone.
struct Setup {
    total_s: f64,
    first_run_s: f64,
}

/// Sets the workload up from scratch — pool, executor, first
/// `run(&mut f, 1)` — verifies that step and the next interval against
/// the reference, and hands the live executor to `body`.
fn setup<R>(
    runner: &Runner,
    fields: &MpdataFields,
    reference: &Reference,
    tally: &mut Tally,
    body: impl FnOnce(&WorkerPool, &Exec, MpdataFields, &mut Tally) -> R,
) -> (Setup, R) {
    let w = runner.workload;
    let mut f = fields.clone();
    let t0 = Instant::now();
    let pool = WorkerPool::new(WORKERS);
    let exec = w.executor(&pool);
    let r0 = Instant::now();
    let first = exec.run(&mut f, 1);
    let times = Setup {
        total_s: t0.elapsed().as_secs_f64(),
        first_run_s: r0.elapsed().as_secs_f64(),
    };
    tally.verify("first step", first, &f, &reference.first);
    // One untimed warm-up interval: fills caches and checks the
    // workload's own interval shape against the reference.
    let warm = runner.interval(&exec, &mut f, &mut Spans::new(false), w.program_trace);
    tally.verify(
        "warm-up interval",
        warm.error.map_or(Ok(()), Err),
        &f,
        &reference.warm,
    );
    let out = body(&pool, &exec, f, tally);
    (times, out)
}

/// Keeps running intervals until `seconds` have passed and `fewest`
/// reaches [`MIN_INTERVALS`] (stopping at four times `seconds`
/// regardless).
fn keep_going(start: Instant, seconds: f64, fewest: usize) -> bool {
    let t = start.elapsed().as_secs_f64();
    t < 4.0 * seconds && (t < seconds || fewest < MIN_INTERVALS)
}

/// `(value, note)` for `interval_ms_tail`.
fn tail_ms(times_ms: &[f64]) -> (f64, String) {
    match tail(times_ms) {
        Some((v, p)) => (
            v,
            format!("p{p:.1} (10 of {} intervals beyond it)", times_ms.len()),
        ),
        None => {
            let max = times_ms.iter().copied().fold(0.0, f64::max);
            (max, format!("max: only {} intervals", times_ms.len()))
        }
    }
}

fn end_to_end(
    args: &Args,
    fields: &MpdataFields,
    runner: &Runner,
    reference: &Reference,
    tally: &mut Tally,
) -> Report {
    let w = args.workload;
    // Each set-up (fresh pool threads, executor, plan and buffers) times
    // an equal share of the run, so one run samples several thread
    // placements and memory layouts instead of one.
    let share = args.seconds / SETUPS as f64;
    let (mut setups, mut times_ms, mut wall) = (Vec::new(), Vec::new(), Duration::ZERO);
    let (mut rss, mut rss_reset) = (0.0f64, true);
    for _ in 0..SETUPS {
        let (s, ()) = setup(runner, fields, reference, tally, |_, exec, mut f, tally| {
            rss_reset &= host::reset_peak_rss();
            let mut spans = Spans::new(false);
            let start = Instant::now();
            let mut n = 0;
            while keep_going(start, share, n * SETUPS) {
                let iv = runner.interval(exec, &mut f, &mut spans, w.program_trace);
                tally.interval(&iv);
                times_ms.push(iv.total.as_secs_f64() * 1e3);
                n += 1;
            }
            wall += start.elapsed();
            rss = rss.max(host::peak_rss_mb().unwrap_or(0.0));
        });
        setups.push(s.total_s);
    }

    let mut r = Report::new(
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect(),
    );
    let n = times_ms.len();
    r.set(
        "setup_s",
        median(&setups),
        setups.len(),
        "median: pool start + executor + first run(1)",
    );
    let mlups = (w.domain().cells() * w.steps * n) as f64 / wall.as_secs_f64() / 1e6;
    r.set(
        "mlups",
        mlups,
        n,
        format!("= {:.3} GFlop/s at 235 flop/cell", mlups * 0.235),
    );
    r.set("interval_ms_p50", median(&times_ms), n, "");
    let (v, note) = tail_ms(&times_ms);
    r.set("interval_ms_tail", v, n, note);
    let note = if rss_reset {
        "max VmHWM over each set-up's timed intervals"
    } else {
        "VmHWM since process start (reset refused)"
    };
    r.set("peak_rss_mb", rss, 1, note);
    r
}

/// Everything the traced run's interval loop produces.
#[derive(Default)]
struct TracedLoop {
    untraced_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    run_s_per_step: Vec<f64>,
    allocs: u64,
    alloc_bytes: u64,
    steps: usize,
    traces: Vec<workload::TraceOutcome>,
    spans: Vec<stats::Span>,
    dispatch_us: f64,
    barrier_us: f64,
}

/// The traced run. `triad_elems` sizes each STREAM triad array.
fn traced(
    args: &Args,
    fields: &MpdataFields,
    runner: &Runner,
    reference: &Reference,
    tally: &mut Tally,
    triad_elems: usize,
) -> Report {
    let w = args.workload;
    let (setup_times, lp) = setup(
        runner,
        fields,
        reference,
        tally,
        |pool, exec, mut f, tally| {
            let mut lp = TracedLoop::default();
            let mut spans = Spans::new(false);
            let start = Instant::now();
            // Alternate untraced and traced intervals so drift on the host
            // hits both sides of `bench.span_overhead` alike.
            while keep_going(
                start,
                args.seconds,
                lp.traced_ms.len().min(lp.untraced_ms.len()),
            ) {
                let on = lp.untraced_ms.len() > lp.traced_ms.len();
                spans.set_enabled(on);
                let iv = runner.interval(exec, &mut f, &mut spans, on || w.program_trace);
                tally.interval(&iv);
                let ms = iv.total.as_secs_f64() * 1e3;
                if on {
                    lp.traced_ms.push(ms);
                    lp.traces.extend(iv.trace);
                } else {
                    lp.untraced_ms.push(ms);
                    lp.run_s_per_step
                        .push(iv.run.as_secs_f64() / w.steps as f64);
                    lp.allocs += iv.allocs.allocs;
                    lp.alloc_bytes += iv.allocs.bytes;
                    lp.steps += w.steps;
                }
            }
            lp.spans = spans.spans().to_vec();
            lp.dispatch_us = layers::dispatch_us(pool);
            lp.barrier_us = layers::barrier_us(pool, &w.teams());
            lp
        },
    );

    let kernels = layers::kernels(fields);
    let plan = layers::plan_model(w);
    let fma = host::fma_gflops();
    let triad = host::triad_gbs(triad_elems);

    let mut r = Report::new(report::per_layer());
    let nk = report::kernel_metric;
    for (name, ns) in &kernels.per_stage {
        r.set(&nk(name), *ns, 3, "median of 3 trials, 2 threads");
    }
    r.set(
        "kernels.total.ns_per_cell",
        kernels.total_ns_per_cell,
        17,
        "sum over stages per domain cell",
    );
    r.set(
        "kernels.total.gflops",
        kernels.gflops,
        17,
        "STAGE_FLOPS over isolated stage time",
    );

    let n_untraced = lp.untraced_ms.len();
    let step_s = median(&lp.run_s_per_step);
    r.set(
        "exec.run_ms_per_step",
        step_s * 1e3,
        n_untraced,
        "median, untraced intervals",
    );
    let steps = lp.steps.max(1) as f64;
    r.set(
        "exec.allocs_per_step",
        lp.allocs as f64 / steps,
        lp.steps,
        "counting allocator, run() only",
    );
    r.set(
        "exec.alloc_mb_per_step",
        lp.alloc_bytes as f64 / steps / 1e6,
        lp.steps,
        "counting allocator, run() only",
    );
    let sum = |f: fn(&workload::TraceOutcome) -> u64| lp.traces.iter().map(f).sum::<u64>() as f64;
    let worker_wall = sum(|t| t.worker_wall_ns);
    if worker_wall > 0.0 {
        let n = lp.traces.len();
        r.set(
            "exec.kernel_frac",
            sum(|t| t.kernel_ns) / worker_wall,
            n,
            "program-reported (trace session)",
        );
        r.set(
            "exec.barrier_wait_frac",
            sum(|t| t.barrier_ns) / worker_wall,
            n,
            "program-reported (trace session)",
        );
    } else {
        // The executor records no kernel or barrier spans: derive the
        // kernel share from the isolated stage times instead.
        let k = kernels.total_s / step_s;
        r.set(
            "exec.kernel_frac",
            k,
            17,
            "bench-derived: isolated kernels / step (no program spans)",
        );
        r.set(
            "exec.barrier_wait_frac",
            (1.0 - k).max(0.0),
            17,
            "bench-derived: rest of the step (no program spans)",
        );
    }
    r.set(
        "plan.build_ms",
        (setup_times.first_run_s - step_s) * 1e3,
        1,
        "first run(1) - median step",
    );
    r.set(
        "plan.useful_cell_frac",
        plan.useful_cell_frac,
        1,
        "model: required_regions + tile_grid",
    );
    r.set(
        "plan.model_bytes_per_step",
        plan.bytes_per_step,
        1,
        "model: staged/tiled_traffic_bytes",
    );
    let model_gbs = plan.bytes_per_step / step_s / 1e9;
    r.set(
        "plan.model_gbs",
        model_gbs,
        n_untraced,
        "model bytes / measured step",
    );
    r.set(
        "scheduler.dispatch_us",
        lp.dispatch_us,
        15,
        "no-op broadcast, median of 15 x 200",
    );
    r.set(
        "scheduler.barrier_us",
        lp.barrier_us,
        7,
        "global barrier under the workload's TeamSpec",
    );

    let span_ms = |name: &str| -> (f64, usize) {
        let d: Vec<f64> = lp
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect();
        (if d.is_empty() { 0.0 } else { median(&d) }, d.len())
    };
    for (metric, span) in [
        ("trace.drain_ms", "trace.drain"),
        ("trace.aggregate_ms", "trace.aggregate"),
        ("trace.export_ms", "trace.export"),
        ("trace.validate_ms", "trace.validate"),
        ("trace.metrics_json_ms", "trace.metrics_json"),
    ] {
        let (v, n) = span_ms(span);
        r.set(metric, v, n, "median span");
    }
    let validate_s: f64 = lp
        .spans
        .iter()
        .filter(|s| s.name == "trace.validate")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
        .sum();
    let n_traces = lp.traces.len();
    r.set(
        "trace.validate_mb_s",
        sum(|t| t.chrome_bytes as u64) / 1e6 / validate_s.max(1e-12),
        n_traces,
        "chrome trace bytes / validate time",
    );
    let events = sum(|t| t.events as u64);
    r.set(
        "trace.events_per_step",
        events / (n_traces * w.steps).max(1) as f64,
        n_traces,
        "",
    );
    let dropped = sum(|t| t.dropped);
    r.set(
        "trace.dropped_frac",
        dropped / (events + dropped).max(1.0),
        n_traces,
        "",
    );

    r.set(
        "host.fma_gflops",
        fma,
        5,
        "best of 5, 2 threads, mul+add chains",
    );
    r.set(
        "host.triad_gbs",
        triad,
        5,
        format!(
            "best of 5, 2 threads, 3 x {} MB arrays",
            triad_elems * 8 / 1_000_000
        ),
    );
    r.set(
        "host.pct_peak",
        100.0 * kernels.gflops / fma,
        1,
        "kernels.total.gflops / host.fma_gflops",
    );
    r.set(
        "host.model_pct_triad",
        100.0 * model_gbs / triad,
        1,
        "plan.model_gbs (model) / host.triad_gbs",
    );
    r.set(
        "bench.span_overhead",
        median(&lp.traced_ms) / median(&lp.untraced_ms),
        lp.traced_ms.len(),
        "traced / untraced interval median",
    );

    println!("span ledger (traced intervals): name, count, total ms, self ms");
    for (name, (count, total, own)) in stats::ledger(&lp.spans) {
        println!(
            "  {name:<20} {count:>6} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    r
}

fn metadata(args: &Args, report: &Report, tally: &Tally) -> Json {
    let (llc, caches) = host::llc_and_caches();
    let s = |v: String| Json::Str(v);
    Json::Object(vec![
        ("workload".into(), s(args.workload.name.into())),
        ("seed".into(), Json::Num(args.seed as f64)),
        ("seconds".into(), Json::Num(args.seconds)),
        ("trace".into(), Json::Bool(args.trace)),
        ("workers".into(), Json::Num(WORKERS as f64)),
        (
            "available_parallelism".into(),
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("cpu_model".into(), s(host::cpu_model())),
        ("caches".into(), s(caches)),
        ("llc_bytes".into(), Json::Num(llc as f64)),
        ("isa".into(), s(host::isa_level())),
        ("rustc".into(), s(host::rustc_version())),
        ("git_commit".into(), s(host::git_commit())),
        (
            "failed_frac".into(),
            Json::Num(tally.failed as f64 / tally.attempted.max(1) as f64),
        ),
        (
            "first_error".into(),
            tally.first_error.clone().map_or(Json::Null, Json::Str),
        ),
        ("samples".into(), report.sample_counts()),
    ])
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let fields = w.fields(args.seed);
    let reference = Reference::new(w, &fields);
    let runner = Runner::new(w, &fields);
    let mut tally = Tally::default();
    let t0 = Instant::now();
    let report = if args.trace {
        // Each triad array holds at least 4x the summed LLC.
        let (llc, _) = host::llc_and_caches();
        traced(
            &args,
            &fields,
            &runner,
            &reference,
            &mut tally,
            (4 * llc).div_ceil(8) as usize,
        )
    } else {
        end_to_end(&args, &fields, &runner, &reference, &mut tally)
    };
    println!(
        "workload {} seed {} ({}x{}x{}, {} step(s) per interval, {:.1?} measured)",
        w.name,
        args.seed,
        w.extent.0,
        w.extent.1,
        w.extent.2,
        w.steps,
        Duration::from_secs_f64(t0.elapsed().as_secs_f64())
    );
    print!("{}", report.table());
    println!(
        "failed_frac {:.6} ({} of {} operations failed)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    if let Some(e) = &tally.first_error {
        println!("first failure: {e}");
    }
    match metadata(&args, &report, &tally).render() {
        Ok(meta) => println!("meta {meta}"),
        Err(e) => {
            eprintln!("error: metadata: {e}");
            return ExitCode::FAILURE;
        }
    }
    match report.result_line(tally.failed == 0, tally.attempted, tally.failed) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `name` on a small domain for a fraction of a second.
    fn run_small(name: &str, trace: bool) -> (Report, Tally) {
        let w: &'static Workload = Box::leak(Box::new(Workload {
            extent: (12, 10, 6),
            ..Workload::by_name(name).unwrap().clone()
        }));
        let args = Args {
            workload: w,
            seed: 9,
            seconds: 0.05,
            trace,
        };
        let fields = w.fields(args.seed);
        let reference = Reference::new(w, &fields);
        let runner = Runner::new(w, &fields);
        let mut tally = Tally::default();
        let report = if trace {
            traced(&args, &fields, &runner, &reference, &mut tally, 1 << 12)
        } else {
            end_to_end(&args, &fields, &runner, &reference, &mut tally)
        };
        (report, tally)
    }

    fn emitted(report: &Report, tally: &Tally) -> Vec<(String, String)> {
        assert_eq!(tally.failed, 0, "{:?}", tally.first_error);
        let line = report
            .result_line(true, tally.attempted, tally.failed)
            .unwrap();
        let doc = islands_trace::json::parse(&line).unwrap();
        let Some(Json::Object(metrics)) = doc.get("metrics") else {
            panic!("no metrics object in {line}");
        };
        metrics
            .iter()
            .map(|(n, m)| {
                (
                    n.clone(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn every_end_to_end_metric_is_emitted_with_its_unit() {
        let want: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        for w in &workload::WORKLOADS {
            let (report, tally) = run_small(w.name, false);
            assert_eq!(emitted(&report, &tally), want, "{}", w.name);
            assert!(tally.attempted >= 15 + 2 * SETUPS as u64);
        }
    }

    #[test]
    fn every_per_layer_metric_is_emitted_with_its_unit() {
        let want: Vec<(String, String)> = report::per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        for name in ["traced-tiles", "original-paper"] {
            let (report, tally) = run_small(name, true);
            assert_eq!(emitted(&report, &tally), want, "{name}");
        }
    }
}
