//! `stencil-lint` — CI entry point for both analyzer passes.
//!
//! With no arguments, runs the full matrix — pattern conformance for
//! every boundary condition and kernel path over both the 17-stage
//! (iord = 2) and the extended iord = 3 graphs, then plan-time
//! disjointness over a spread of domains, partitions, team shapes,
//! split axes, schedules, fuse depths and tile modes, plus the
//! Original preset (one part, one whole-domain block, split along `I`)
//! and the exchange (scenario 1) plans over the same partitions — and
//! exits non-zero if *any* diagnostic is produced.
//!
//! `--mutant <name>` instead seeds one known-bad input and runs the
//! relevant pass on it; the exit code is still "non-zero iff
//! diagnostics", so CI asserts the linter *fails* on these:
//!
//! * `drop-offset` — stage 0's donor-cell pattern loses `(-1, 0, 0)`,
//!   so the kernel reads an undeclared offset;
//! * `overlap-partition` — two island parts overlap, so both teams
//!   write the same output cells with no intra-step synchronization;
//! * `overlap-ranks` — rank 0's write slices are widened past the team
//!   split, overlapping rank 1 inside barrier-fenced epochs;
//! * `stale-output` — one island's writes to the shared output are
//!   dropped, so its half of a reused output buffer would carry the
//!   previous step's values;
//! * `overlap-chunks` — under a self-scheduled plan, one dynamic
//!   chunk's write region is widened into the next chunk's share, so
//!   two concurrently claimable work units write the same cells;
//! * `fused-overlap-step2` — in a temporally blocked (k = 3) plan, rank
//!   0's write slices of the *second* fused step are widened past the
//!   team split, so the fused epoch table races where the unfused one
//!   would not;
//! * `tile-halo-too-narrow` — in a tile-fused plan, every tile's
//!   first-stage scratch writes are shaved by one I-slab, modelling a
//!   rebased scratch footprint too small for the chain's halo reads;
//!   later stages then read cells no earlier stage of the tile wrote;
//! * `exchange-unfenced-copy` — in an exchange plan, every halo copy
//!   epoch is moved into the global phase of the stage it copies, so
//!   the copies read neighbour scratch the neighbour is still writing;
//! * `exchange-missing-margin` — in an exchange plan, one halo piece is
//!   dropped from team 0's first copy, so the next stage reads margin
//!   cells nobody wrote;
//! * `window-too-narrow` — in a multi-block plan, one field's window at
//!   one block loses its lowest kept plane, so the slide forgets values
//!   the block still reads.
//!
//! Exit codes: 0 clean, 1 diagnostics found, 2 tracing unavailable
//! (release build — rebuild in debug).

use islands_analysis::{
    check_disjointness, check_graph, check_problem, islands_plan, with_offset_removed, Diagnostic,
    KernelPath, SchedulePlan,
};
use islands_core::Partition;
use mpdata::{Boundary, HaloPolicy, MpdataProblem, PlanConfig, SchedulePolicy, TileMode};
use stencil_engine::{balanced_cuts, trace, Axis, CostModel, Offset3, Range1, Region3};

/// Cache budget used for all disjointness plans — small enough to force
/// several wavefront blocks per island on the lint domains.
const CACHE_BYTES: usize = 64 * 1024;

/// A tighter budget that cuts every lint island into at least three
/// wavefront blocks, so the scratch windows slide.
const WINDOW_CACHE_BYTES: usize = 32 * 1024;

/// At most this many diagnostics are printed per run.
const PRINT_CAP: usize = 40;

/// The lint configuration: [`CACHE_BYTES`] blocks split along
/// `split_axis`, everything else at the library defaults.
fn config(split_axis: Axis) -> PlanConfig {
    PlanConfig {
        cache_bytes: CACHE_BYTES,
        split_axis,
        ..PlanConfig::default()
    }
}

/// The exchange (scenario 1) configuration, split along `J` like the
/// `ExchangeExecutor` preset.
fn exchange() -> PlanConfig {
    PlanConfig {
        halo: HaloPolicy::Exchange,
        ..config(Axis::J)
    }
}

/// The plan for `parts` of `domain` under `config`, on the lint's
/// domains, which always fit the cache budget.
fn plan(domain: Region3, parts: &[Region3], sizes: &[usize], config: &PlanConfig) -> SchedulePlan {
    islands_plan(&MpdataProblem::standard(), domain, parts, sizes, config)
        .expect("lint domains fit the cache budget")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(run(&args));
}

fn run(args: &[String]) -> i32 {
    if !trace::is_enabled() {
        eprintln!(
            "stencil-lint: access tracing is compiled out of release builds; \
             run with a debug profile (plain `cargo run`)"
        );
        return 2;
    }
    let mutant = match args {
        [] => None,
        [flag, name] if flag == "--mutant" => Some(name.as_str()),
        _ => {
            eprintln!(
                "usage: stencil-lint [--mutant drop-offset|overlap-partition\
                 |overlap-ranks|stale-output|overlap-chunks|fused-overlap-step2\
                 |tile-halo-too-narrow|exchange-unfenced-copy|exchange-missing-margin\
                 |window-too-narrow]"
            );
            return 2;
        }
    };
    let diagnostics = match mutant {
        None => full_matrix(),
        Some("drop-offset") => mutant_drop_offset(),
        Some("overlap-partition") => mutant_overlap_partition(),
        Some("overlap-ranks") => mutant_overlap_ranks(),
        Some("stale-output") => mutant_stale_output(),
        Some("overlap-chunks") => mutant_overlap_chunks(),
        Some("fused-overlap-step2") => mutant_fused_overlap_step2(),
        Some("tile-halo-too-narrow") => mutant_tile_halo_too_narrow(),
        Some("exchange-unfenced-copy") => mutant_exchange_unfenced_copy(),
        Some("exchange-missing-margin") => mutant_exchange_missing_margin(),
        Some("window-too-narrow") => mutant_window_too_narrow(),
        Some(other) => {
            eprintln!("stencil-lint: unknown mutant `{other}`");
            return 2;
        }
    };
    report(&diagnostics)
}

fn report(diagnostics: &[Diagnostic]) -> i32 {
    for d in diagnostics.iter().take(PRINT_CAP) {
        println!("{d}");
    }
    if diagnostics.len() > PRINT_CAP {
        println!("... and {} more", diagnostics.len() - PRINT_CAP);
    }
    if diagnostics.is_empty() {
        println!("stencil-lint: clean");
        0
    } else {
        println!("stencil-lint: {} diagnostic(s)", diagnostics.len());
        1
    }
}

/// A small domain with non-trivial (negative and positive) bases, so
/// any global-vs-relative coordinate confusion in a kernel or in the
/// checker itself surfaces immediately.
fn conformance_domain() -> Region3 {
    Region3::new(Range1::new(2, 7), Range1::new(-1, 3), Range1::new(3, 6))
}

fn full_matrix() -> Vec<Diagnostic> {
    let mut all = Vec::new();

    // Pass 1: conformance. iord = 2 is the paper's 17-stage graph; the
    // iord = 3 graph adds the second corrective iteration's stages.
    for (iord, bcs) in [
        (2, &[Boundary::Open, Boundary::Periodic][..]),
        // Periodic dispatch degenerates to the scalar path, already
        // covered by iord = 2; keep the wider graph to Open.
        (3, &[Boundary::Open][..]),
    ] {
        for &bc in bcs {
            let problem = MpdataProblem::with_iord(iord).with_boundary(bc);
            for path in [KernelPath::Dispatch, KernelPath::Scalar] {
                let rep = check_problem(&problem, conformance_domain(), path)
                    .expect("tracing checked at startup");
                println!(
                    "conformance iord={iord} bc={bc:?} path={path}: \
                     {} stages x {} invocations, {} diagnostic(s)",
                    rep.stages,
                    rep.cells / rep.stages.max(1),
                    rep.diagnostics.len()
                );
                all.extend(rep.diagnostics);
            }
        }
    }

    // Pass 2: disjointness over a spread of schedules.
    let problem = MpdataProblem::standard();
    let domains = [
        Region3::of_extent(24, 12, 6),
        // Prime extents (13 × 7 × 5) with mixed bases.
        Region3::new(Range1::new(-3, 10), Range1::new(2, 9), Range1::new(0, 5)),
    ];
    for domain in domains {
        let mut partitions: Vec<(String, Vec<Region3>)> = Vec::new();
        for islands in [1, 2, 4, 16] {
            // 16 islands exceed the slab count of both domains along I:
            // the surplus parts are empty, as in the executor.
            let p = Partition::one_d(domain, islands_core::Variant::A, islands)
                .expect("non-zero island count");
            partitions.push((p.description().to_string(), p.parts().to_vec()));
        }
        let pb = Partition::one_d(domain, islands_core::Variant::B, 3).expect("non-zero");
        partitions.push((pb.description().to_string(), pb.parts().to_vec()));
        let grid = Partition::grid2d(domain, 2, 2).expect("non-zero");
        partitions.push((grid.description().to_string(), grid.parts().to_vec()));

        // Non-uniform cuts from the cost model: slab widths differ, so
        // any "equal shares" assumption in the planner would misalign.
        let model = CostModel::from_graph(problem.graph());
        let balanced = balanced_cuts(problem.graph(), domain, domain, Axis::I, 3, &model);
        partitions.push(("balanced 1D A x 3".to_string(), balanced));

        // Degenerate extremes: a 1-cell-wide island next to the rest of
        // the domain, and more islands than there are I-slabs (the
        // surplus parts are empty, as in the executor).
        let ir = domain.range(Axis::I);
        let sliver = vec![
            domain.with_range(Axis::I, Range1::new(ir.lo, ir.lo + 1)),
            domain.with_range(Axis::I, Range1::new(ir.lo + 1, ir.hi)),
        ];
        partitions.push(("1-cell sliver + remainder".to_string(), sliver));
        let overcut = Partition::one_d(domain, islands_core::Variant::A, ir.len() + 3)
            .expect("non-zero island count");
        partitions.push((
            format!("{} (P > nx)", overcut.description()),
            overcut.parts().to_vec(),
        ));

        for (desc, parts) in &partitions {
            for split_axis in [Axis::J, Axis::K] {
                for shape in ["uniform-2", "mixed"] {
                    let sizes: Vec<usize> = match shape {
                        "uniform-2" => vec![2; parts.len()],
                        _ => (0..parts.len()).map(|n| 1 + n % 3).collect(),
                    };
                    let found =
                        check_disjointness(&plan(domain, parts, &sizes, &config(split_axis)));
                    println!(
                        "disjointness domain={:?} partition={desc} split={split_axis:?} \
                         teams={shape}: {} diagnostic(s)",
                        domain,
                        found.len()
                    );
                    all.extend(found);

                    // Same schedule under dynamic self-scheduling: every
                    // chunk becomes its own claimable slot, so chunk-level
                    // disjointness proves safety for *any* claim order.
                    let dynamic = PlanConfig {
                        schedule: SchedulePolicy::Dynamic { chunks_per_rank: 3 },
                        ..config(split_axis)
                    };
                    let found = check_disjointness(&plan(domain, parts, &sizes, &dynamic));
                    println!(
                        "disjointness domain={:?} partition={desc} split={split_axis:?} \
                         teams={shape} schedule=dynamic(3): {} diagnostic(s)",
                        domain,
                        found.len()
                    );
                    all.extend(found);

                    // Temporally blocked schedules: prove the k-step
                    // fused epoch tables — including the x-slot
                    // hand-offs between fused steps — for the same
                    // partitions. One (axis, shape) combination per
                    // partition keeps the matrix affordable.
                    if split_axis == Axis::J && shape == "uniform-2" {
                        for fuse in [2, 3] {
                            let fused = PlanConfig {
                                fuse_steps: fuse,
                                ..config(split_axis)
                            };
                            let found = check_disjointness(&plan(domain, parts, &sizes, &fused));
                            println!(
                                "disjointness domain={:?} partition={desc} \
                                 split={split_axis:?} teams={shape} fuse={fuse}: \
                                 {} diagnostic(s)",
                                domain,
                                found.len()
                            );
                            all.extend(found);
                        }

                        // Tile-fused schedules: slot-per-tile plans
                        // proving chain privacy, tile-halo sufficiency
                        // and output disjointness — a mid-size tile
                        // that straddles part boundaries and a fat
                        // tile that swallows whole parts, alone and
                        // under temporal blocking. (The team shape is
                        // irrelevant: the proof holds for any tile →
                        // rank assignment.)
                        for (ti, tj) in [(3, 2), (64, 64)] {
                            for fuse in [1, 2] {
                                let tiled = PlanConfig {
                                    fuse_steps: fuse,
                                    tile: TileMode::Fixed { ti, tj },
                                    ..config(split_axis)
                                };
                                let found =
                                    check_disjointness(&plan(domain, parts, &sizes, &tiled));
                                println!(
                                    "disjointness domain={:?} partition={desc} \
                                     tile={ti}x{tj} fuse={fuse}: {} diagnostic(s)",
                                    domain,
                                    found.len()
                                );
                                all.extend(found);
                            }
                        }
                    }
                }
            }
        }

        // The Original preset: one part, one whole-domain block (an
        // unbounded cache budget), every stage split along `I`.
        for team in [1, 2, 3] {
            let original = PlanConfig {
                cache_bytes: usize::MAX,
                split_axis: Axis::I,
                ..PlanConfig::default()
            };
            let found = check_disjointness(&plan(domain, &[domain], &[team], &original));
            println!(
                "disjointness domain={domain:?} original teams=1x{team}: {} diagnostic(s)",
                found.len()
            );
            all.extend(found);
        }

        // Sliding scratch windows: a budget that cuts the islands into
        // several wavefront blocks, so every scratch window slides from
        // block to block and rule 4 proves no slide forgets a value a
        // later block reads — unfused and fused, static and dynamic.
        for (desc, parts) in &partitions {
            let sizes = vec![2; parts.len()];
            for (fuse, schedule) in [
                (1, SchedulePolicy::Static),
                (1, SchedulePolicy::Dynamic { chunks_per_rank: 3 }),
                (2, SchedulePolicy::Static),
                (3, SchedulePolicy::Static),
            ] {
                let windowed = PlanConfig {
                    cache_bytes: WINDOW_CACHE_BYTES,
                    fuse_steps: fuse,
                    schedule,
                    ..config(Axis::J)
                };
                let found = check_disjointness(&plan(domain, parts, &sizes, &windowed));
                println!(
                    "disjointness domain={domain:?} partition={desc} cache={WINDOW_CACHE_BYTES} \
                     fuse={fuse} schedule={schedule:?}: {} diagnostic(s)",
                    found.len()
                );
                all.extend(found);
            }
        }

        // Scenario 1: the exchange plans over the same partitions —
        // copy epochs fenced by global phases, margins covered by the
        // copies, diagonal neighbours of the 2×2 grid included.
        for (desc, parts) in &partitions {
            for shape in ["uniform-2", "mixed"] {
                let sizes: Vec<usize> = match shape {
                    "uniform-2" => vec![2; parts.len()],
                    _ => (0..parts.len()).map(|n| 1 + n % 3).collect(),
                };
                let found = check_disjointness(&plan(domain, parts, &sizes, &exchange()));
                println!(
                    "disjointness domain={domain:?} partition={desc} teams={shape} \
                     halo=exchange: {} diagnostic(s)",
                    found.len()
                );
                all.extend(found);
            }
        }
    }

    // Sliver tiles on a small prime-extent domain: every tile is a
    // single (i, j) column, the degenerate extreme of the tile cutter.
    let domain = Region3::of_extent(11, 7, 4);
    let parts = domain.split(Axis::I, 2);
    for fuse in [1, 2] {
        let sliver = PlanConfig {
            fuse_steps: fuse,
            tile: TileMode::Fixed { ti: 1, tj: 1 },
            ..config(Axis::J)
        };
        let found = check_disjointness(&plan(domain, &parts, &[2, 2], &sliver));
        println!(
            "disjointness domain={domain:?} partition=1D x 2 tile=1x1 fuse={fuse}: \
             {} diagnostic(s)",
            found.len()
        );
        all.extend(found);
    }
    all
}

fn mutant_drop_offset() -> Vec<Diagnostic> {
    let problem = MpdataProblem::standard();
    // Stage 0 (donor-cell flux along i) declares x at {(0,0,0), (-1,0,0)};
    // drop the upstream neighbour from the declaration.
    let mutated = with_offset_removed(
        problem.graph(),
        0,
        0,
        Offset3 {
            di: -1,
            dj: 0,
            dk: 0,
        },
    );
    check_graph(
        &mutated,
        problem.kinds(),
        problem.boundary(),
        conformance_domain(),
        KernelPath::Dispatch,
    )
    .expect("tracing checked at startup")
    .diagnostics
}

fn mutant_overlap_partition() -> Vec<Diagnostic> {
    let domain = Region3::of_extent(16, 12, 6);
    let halves = domain.split(Axis::I, 2);
    // Widen the second island one slab into the first: both teams now
    // write the overlap of the shared output with no step-internal sync.
    let grown = halves[1].with_range(Axis::I, Range1::new(halves[1].i.lo - 1, halves[1].i.hi));
    let parts = vec![halves[0], grown];
    check_disjointness(&plan(domain, &parts, &[2, 2], &config(Axis::J)))
}

fn mutant_overlap_ranks() -> Vec<Diagnostic> {
    let domain = Region3::of_extent(16, 12, 6);
    let parts = domain.split(Axis::I, 2);
    let split_axis = Axis::J;
    let mut plan = plan(domain, &parts, &[2, 2], &config(split_axis));
    // Widen every rank-0 write one slab past its split boundary, into
    // rank 1's share of the same barrier-fenced epoch.
    for team in &mut plan.teams {
        for ep in &mut team.epochs {
            if let Some(rank0) = ep.per_rank.first_mut() {
                for acc in rank0.iter_mut().filter(|a| a.write) {
                    let r = acc.region.range(split_axis);
                    let hi = (r.hi + 1).min(plan.domain.range(split_axis).hi);
                    acc.region = acc.region.with_range(split_axis, Range1::new(r.lo, hi));
                }
            }
        }
    }
    check_disjointness(&plan)
}

fn mutant_overlap_chunks() -> Vec<Diagnostic> {
    let domain = Region3::of_extent(16, 12, 6);
    let parts = domain.split(Axis::I, 2);
    let split_axis = Axis::J;
    // Two ranks × two chunks each: four claimable slots per epoch.
    let dynamic = PlanConfig {
        schedule: SchedulePolicy::Dynamic { chunks_per_rank: 2 },
        ..config(split_axis)
    };
    let mut plan = plan(domain, &parts, &[2, 2], &dynamic);
    // Widen the first chunk's writes one slab into the second chunk's
    // share. Unlike `overlap-ranks` this overlap is between two units a
    // *single* worker may claim back to back — still unsafe, because
    // another worker can claim the second chunk concurrently.
    for team in &mut plan.teams {
        for ep in &mut team.epochs {
            if let Some(chunk0) = ep.per_rank.first_mut() {
                for acc in chunk0.iter_mut().filter(|a| a.write) {
                    let r = acc.region.range(split_axis);
                    let hi = (r.hi + 1).min(plan.domain.range(split_axis).hi);
                    acc.region = acc.region.with_range(split_axis, Range1::new(r.lo, hi));
                }
            }
        }
    }
    check_disjointness(&plan)
}

fn mutant_fused_overlap_step2() -> Vec<Diagnostic> {
    let domain = Region3::of_extent(16, 12, 6);
    let parts = domain.split(Axis::I, 2);
    let split_axis = Axis::J;
    let fused = PlanConfig {
        fuse_steps: 3,
        ..config(split_axis)
    };
    let mut plan = plan(domain, &parts, &[2, 2], &fused);
    // Widen rank 0's writes one slab past the split boundary — but only
    // in the *second* fused step's epochs, so a checker that collapses
    // the fused table to its first (or last) step would miss the race.
    for team in &mut plan.teams {
        for ep in &mut team.epochs {
            if !ep.label.starts_with("step 1 /") {
                continue;
            }
            if let Some(rank0) = ep.per_rank.first_mut() {
                for acc in rank0.iter_mut().filter(|a| a.write) {
                    let r = acc.region.range(split_axis);
                    let hi = (r.hi + 1).min(plan.domain.range(split_axis).hi);
                    acc.region = acc.region.with_range(split_axis, Range1::new(r.lo, hi));
                }
            }
        }
    }
    check_disjointness(&plan)
}

fn mutant_tile_halo_too_narrow() -> Vec<Diagnostic> {
    let domain = Region3::of_extent(16, 12, 6);
    let parts = domain.split(Axis::I, 2);
    let tiled = PlanConfig {
        tile: TileMode::Fixed { ti: 4, tj: 4 },
        ..config(Axis::J)
    };
    let mut plan = plan(domain, &parts, &[2, 2], &tiled);
    // Shave one I-slab off every tile's first-stage scratch writes: the
    // chain now computes the producer over less than tile + halo —
    // exactly what a rebased scratch footprint one cell too narrow
    // would do — so later stages read cells no stage of the tile wrote.
    for team in &mut plan.teams {
        if let Some(ep) = team.epochs.first_mut() {
            for accs in &mut ep.per_rank {
                for acc in accs.iter_mut().filter(|a| a.write) {
                    let r = acc.region.range(Axis::I);
                    acc.region = acc.region.with_range(Axis::I, Range1::new(r.lo + 1, r.hi));
                }
            }
        }
    }
    check_disjointness(&plan)
}

fn mutant_stale_output() -> Vec<Diagnostic> {
    let domain = Region3::of_extent(16, 12, 6);
    let parts = domain.split(Axis::I, 2);
    let mut plan = plan(domain, &parts, &[2, 2], &config(Axis::J));
    // Drop the second island's writes to the shared output: its half of
    // the domain is never produced this step, which a reused output
    // buffer (the persistent-plan path) turns into last step's data.
    let out = (0..plan.field_names.len())
        .find(|&f| plan.shared[f] && !plan.external[f])
        .expect("the graph has an output field");
    for ep in &mut plan.teams[1].epochs {
        for accs in &mut ep.per_rank {
            accs.retain(|a| !(a.write && a.field == out));
        }
    }
    check_disjointness(&plan)
}

fn mutant_exchange_unfenced_copy() -> Vec<Diagnostic> {
    let domain = Region3::of_extent(16, 12, 6);
    let parts = domain.split(Axis::I, 2);
    let mut plan = plan(domain, &parts, &[2, 2], &exchange());
    // Drop the global barrier before every halo copy: each copy epoch
    // joins the phase of the stage it copies, so it reads neighbour
    // scratch while the neighbour may still be writing it.
    for team in &mut plan.teams {
        for ep in team
            .epochs
            .iter_mut()
            .filter(|ep| ep.label.contains("/ copy "))
        {
            ep.phase -= 1;
        }
    }
    check_disjointness(&plan)
}

fn mutant_exchange_missing_margin() -> Vec<Diagnostic> {
    let domain = Region3::of_extent(16, 12, 6);
    let parts = domain.split(Axis::I, 2);
    let mut plan = plan(domain, &parts, &[2, 2], &exchange());
    // Drop one piece of team 0's first halo copy: the next stage reads
    // margin cells no copy filled.
    let copy = plan.teams[0]
        .epochs
        .iter_mut()
        .find(|ep| ep.label.contains("/ copy "))
        .expect("exchange plans copy halos");
    copy.per_rank.remove(0);
    check_disjointness(&plan)
}

fn mutant_window_too_narrow() -> Vec<Diagnostic> {
    let domain = Region3::of_extent(16, 12, 6);
    let parts = domain.split(Axis::I, 2);
    let windowed = PlanConfig {
        cache_bytes: WINDOW_CACHE_BYTES,
        ..config(Axis::J)
    };
    let mut plan = plan(domain, &parts, &[2, 2], &windowed);
    // Shave the lowest plane off team 0's first slid window that keeps
    // planes of the previous block's: the slide forgets that plane's
    // values one block early, while the block still reads them.
    let mut prev: Vec<Option<Region3>> = vec![None; plan.field_names.len()];
    let shaved = plan.teams[0]
        .epochs
        .iter_mut()
        .flat_map(|ep| &mut ep.windows)
        .find(|w| {
            let kept = w.keep && prev[w.field].is_some_and(|p| p.i.hi > w.region.i.lo);
            prev[w.field] = Some(w.region);
            kept
        })
        .expect("multi-block plans slide windows");
    let r = shaved.region.i;
    shaved.region.i = Range1::new(r.lo + 1, r.hi);
    check_disjointness(&plan)
}
