//! Regression pins: the linter must *fail* on seeded bugs.
//!
//! Each test feeds a known-bad declaration or schedule to the analyzer
//! and asserts the specific diagnostic code comes back — so a future
//! refactor cannot silently lobotomize a check.

use islands_analysis::{
    check_disjointness, check_graph, islands_plan, with_offset_removed, DiagnosticCode, KernelPath,
    PlannedAccess,
};
use mpdata::{HaloPolicy, MpdataProblem, PlanConfig, SchedulePolicy};
use stencil_engine::{trace, Axis, Offset3, Range1, Region3, StageGraph, StencilPattern};

fn domain() -> Region3 {
    Region3::new(Range1::new(2, 7), Range1::new(-1, 3), Range1::new(3, 6))
}

const CACHE: usize = 64 * 1024;

/// [`CACHE`]-sized blocks split along `split_axis`, otherwise defaults.
fn config(split_axis: Axis) -> PlanConfig {
    PlanConfig {
        cache_bytes: CACHE,
        split_axis,
        ..PlanConfig::default()
    }
}

/// [`config`] with `fuse_steps` fused steps per epoch.
fn fused(split_axis: Axis, fuse_steps: usize) -> PlanConfig {
    PlanConfig {
        fuse_steps,
        ..config(split_axis)
    }
}

/// [`config`] self-scheduled with `chunks_per_rank` chunks per rank.
fn dynamic(split_axis: Axis, chunks_per_rank: usize) -> PlanConfig {
    PlanConfig {
        schedule: SchedulePolicy::Dynamic { chunks_per_rank },
        ..config(split_axis)
    }
}

/// [`config`] under the exchange halo policy (scenario 1).
fn exchange(split_axis: Axis) -> PlanConfig {
    PlanConfig {
        halo: HaloPolicy::Exchange,
        ..config(split_axis)
    }
}

#[test]
fn dropped_offset_is_an_undeclared_read() {
    if !trace::is_enabled() {
        return;
    }
    let problem = MpdataProblem::standard();
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
    for path in [KernelPath::Dispatch, KernelPath::Scalar] {
        let rep = check_graph(
            &mutated,
            problem.kinds(),
            problem.boundary(),
            domain(),
            path,
        )
        .unwrap();
        assert!(
            rep.diagnostics
                .iter()
                .any(|d| d.code == DiagnosticCode::UndeclaredRead
                    && d.site == "flux_i"
                    && d.field == "x"
                    && d.detail.contains("(-1, 0, 0)")),
            "expected the undeclared (-1,0,0) read of x, got: {:?}",
            rep.diagnostics
        );
    }
}

/// Widens one declared pattern with an offset the kernel never reads.
fn with_offset_added(
    graph: &StageGraph,
    stage: usize,
    slot: usize,
    o: (i64, i64, i64),
) -> StageGraph {
    let mut stages = graph.stages().to_vec();
    let (_, pat) = &mut stages[stage].inputs[slot];
    let mut offsets: Vec<(i64, i64, i64)> =
        pat.offsets().iter().map(|p| (p.di, p.dj, p.dk)).collect();
    offsets.push(o);
    *pat = StencilPattern::from_offsets(offsets);
    StageGraph::build(graph.fields().clone(), stages).unwrap()
}

#[test]
fn padded_pattern_is_an_overdeclared_offset() {
    if !trace::is_enabled() {
        return;
    }
    let problem = MpdataProblem::standard();
    // Stage 0 reads the Courant field u1 pointwise; declare a phantom
    // (0, 0, -1) dependency on it.
    let mutated = with_offset_added(problem.graph(), 0, 1, (0, 0, -1));
    let rep = check_graph(
        &mutated,
        problem.kinds(),
        problem.boundary(),
        domain(),
        KernelPath::Dispatch,
    )
    .unwrap();
    assert!(
        rep.diagnostics
            .iter()
            .any(|d| d.code == DiagnosticCode::OverdeclaredOffset
                && d.site == "flux_i"
                && d.detail.contains("(0, 0, -1)")),
        "expected the phantom (0,0,-1) offset, got: {:?}",
        rep.diagnostics
    );
}

#[test]
fn overlapping_parts_are_a_cross_team_overlap() {
    let problem = MpdataProblem::standard();
    let d = Region3::of_extent(16, 12, 6);
    let halves = d.split(Axis::I, 2);
    let grown = halves[1].with_range(Axis::I, Range1::new(halves[1].i.lo - 1, halves[1].i.hi));
    let plan = islands_plan(&problem, d, &[halves[0], grown], &[2, 2], &config(Axis::J)).unwrap();
    let found = check_disjointness(&plan);
    assert!(
        found
            .iter()
            .any(|f| f.code == DiagnosticCode::CrossTeamOverlap && f.field == "xout"),
        "expected a cross-team xout overlap, got: {found:?}"
    );
}

#[test]
fn widened_rank_slices_are_an_intra_team_overlap() {
    let problem = MpdataProblem::standard();
    let d = Region3::of_extent(16, 12, 6);
    let parts = d.split(Axis::I, 2);
    let split = Axis::J;
    let mut plan = islands_plan(&problem, d, &parts, &[2, 2], &config(split)).unwrap();
    for team in &mut plan.teams {
        for ep in &mut team.epochs {
            if let Some(rank0) = ep.per_rank.first_mut() {
                for acc in rank0.iter_mut().filter(|a| a.write) {
                    let r = acc.region.range(split);
                    let hi = (r.hi + 1).min(d.range(split).hi);
                    acc.region = acc.region.with_range(split, Range1::new(r.lo, hi));
                }
            }
        }
    }
    let found = check_disjointness(&plan);
    assert!(
        found
            .iter()
            .any(|f| f.code == DiagnosticCode::IntraTeamOverlap),
        "expected an intra-team overlap, got: {found:?}"
    );
}

#[test]
fn writing_an_external_is_flagged() {
    let problem = MpdataProblem::standard();
    let d = Region3::of_extent(16, 12, 6);
    let parts = d.split(Axis::I, 2);
    let mut plan = islands_plan(&problem, d, &parts, &[1, 1], &config(Axis::J)).unwrap();
    let x = plan.field_names.iter().position(|n| n == "x").unwrap();
    assert!(plan.external[x]);
    plan.teams[0].epochs[0].per_rank[0].push(PlannedAccess {
        field: x,
        region: parts[0],
        write: true,
    });
    let found = check_disjointness(&plan);
    assert!(
        found
            .iter()
            .any(|f| f.code == DiagnosticCode::ExternalWrite && f.field == "x"),
        "expected an external-write, got: {found:?}"
    );
}

#[test]
fn deleting_a_producer_epoch_is_an_uncovered_read() {
    let problem = MpdataProblem::standard();
    let d = Region3::of_extent(16, 12, 6);
    let parts = d.split(Axis::I, 2);
    let mut plan = islands_plan(&problem, d, &parts, &[2, 2], &config(Axis::J)).unwrap();
    // Drop team 0's very first epoch (block 0, stage flux_i, the f1
    // producer): the low-order update's read of f1 is now uncovered.
    assert!(plan.teams[0].epochs[0].label.contains("flux_i"));
    plan.teams[0].epochs.remove(0);
    let found = check_disjointness(&plan);
    assert!(
        found
            .iter()
            .any(|f| f.code == DiagnosticCode::UncoveredRead && f.field == "f1"),
        "expected an uncovered read of f1, got: {found:?}"
    );
}

#[test]
fn dropping_an_islands_output_writes_is_an_uncovered_output() {
    let problem = MpdataProblem::standard();
    let d = Region3::of_extent(16, 12, 6);
    let parts = d.split(Axis::I, 2);
    let mut plan = islands_plan(&problem, d, &parts, &[2, 2], &config(Axis::J)).unwrap();
    // Team 1 never writes xout: with the persistent-plan executors the
    // output buffer is reused across steps, so its half would silently
    // keep the previous step's values.
    let out = plan.field_names.iter().position(|n| n == "xout").unwrap();
    for ep in &mut plan.teams[1].epochs {
        for accs in &mut ep.per_rank {
            accs.retain(|a| !(a.write && a.field == out));
        }
    }
    let found = check_disjointness(&plan);
    assert!(
        found
            .iter()
            .any(|f| f.code == DiagnosticCode::UncoveredOutput && f.field == "xout"),
        "expected an uncovered output over team 1's half, got: {found:?}"
    );
    // The gap must name team 1's (upper-i) half, not team 0's.
    let gap = found
        .iter()
        .find(|f| f.code == DiagnosticCode::UncoveredOutput)
        .unwrap();
    assert!(
        gap.detail.contains("[8, 16)"),
        "gap should cover i = [8, 16), got: {}",
        gap.detail
    );
}

#[test]
fn widened_chunk_is_an_intra_team_overlap_naming_both_slots() {
    let problem = MpdataProblem::standard();
    let d = Region3::of_extent(16, 12, 6);
    let parts = d.split(Axis::I, 2);
    let split = Axis::J;
    // Two ranks × two chunks: four claimable slots per epoch. Widen the
    // first chunk's writes one slab into the second chunk's share — any
    // claim order where different workers take slots 0 and 1 races.
    let mut plan = islands_plan(&problem, d, &parts, &[2, 2], &dynamic(split, 2)).unwrap();
    for team in &mut plan.teams {
        for ep in &mut team.epochs {
            if let Some(chunk0) = ep.per_rank.first_mut() {
                for acc in chunk0.iter_mut().filter(|a| a.write) {
                    let r = acc.region.range(split);
                    let hi = (r.hi + 1).min(d.range(split).hi);
                    acc.region = acc.region.with_range(split, Range1::new(r.lo, hi));
                }
            }
        }
    }
    let found = check_disjointness(&plan);
    let hit = found
        .iter()
        .find(|f| f.code == DiagnosticCode::IntraTeamOverlap)
        .unwrap_or_else(|| panic!("expected an intra-team chunk overlap, got: {found:?}"));
    // The diagnostic must name both overlapping chunk slots and mark the
    // epoch as dynamically scheduled.
    assert!(
        hit.site.contains("(dynamic chunks)"),
        "site should mark the dynamic schedule, got: {}",
        hit.site
    );
    assert!(
        hit.detail.contains("rank 0 writes") && hit.detail.contains("rank 1 writes"),
        "detail should name both chunk slots, got: {}",
        hit.detail
    );
}

#[test]
fn clean_schedule_stays_clean_as_a_control() {
    let problem = MpdataProblem::standard();
    let d = Region3::of_extent(16, 12, 6);
    let parts = d.split(Axis::I, 2);
    let plan = islands_plan(&problem, d, &parts, &[2, 2], &config(Axis::J)).unwrap();
    assert_eq!(check_disjointness(&plan), vec![]);
    // The dynamic variant of the same schedule is clean too: chunk-level
    // disjointness holds, so any claim order is safe.
    let dyn_plan = islands_plan(&problem, d, &parts, &[2, 2], &dynamic(Axis::J, 3)).unwrap();
    assert_eq!(check_disjointness(&dyn_plan), vec![]);
}

#[test]
fn widened_second_fused_step_is_an_intra_team_overlap() {
    // The temporal-blocking mutant: rank 0's write slices of the
    // *second* fused step (label prefix "step 1 /") are widened past
    // the team split. A checker that only modelled the first or last
    // fused step would miss this.
    let problem = MpdataProblem::standard();
    let d = Region3::of_extent(16, 12, 6);
    let parts = d.split(Axis::I, 2);
    let split = Axis::J;
    let mut plan = islands_plan(&problem, d, &parts, &[2, 2], &fused(split, 3)).unwrap();
    for team in &mut plan.teams {
        for ep in &mut team.epochs {
            if !ep.label.starts_with("step 1 /") {
                continue;
            }
            if let Some(rank0) = ep.per_rank.first_mut() {
                for acc in rank0.iter_mut().filter(|a| a.write) {
                    let r = acc.region.range(split);
                    let hi = (r.hi + 1).min(d.range(split).hi);
                    acc.region = acc.region.with_range(split, Range1::new(r.lo, hi));
                }
            }
        }
    }
    let found = check_disjointness(&plan);
    let hit = found
        .iter()
        .find(|f| f.code == DiagnosticCode::IntraTeamOverlap)
        .unwrap_or_else(|| panic!("expected an intra-team overlap, got: {found:?}"));
    assert!(
        hit.site.contains("step 1 /"),
        "overlap should sit in the second fused step, got: {}",
        hit.site
    );
    // The widened final-stage write lands in an x slot, so the fused
    // model must surface a slot-field overlap too.
    assert!(
        found
            .iter()
            .any(|f| f.code == DiagnosticCode::IntraTeamOverlap && f.field.starts_with("x@slot")),
        "expected an x-slot overlap among: {found:?}"
    );
}

#[test]
fn dropping_first_step_producers_is_an_uncovered_slot_read() {
    // Delete every final-stage (x-slot) write of fused step 0: step 1's
    // advected reads now resolve to a slot nobody produced. Rule 4 must
    // name the slot pseudo-field — this is the machine proof that the
    // halo widening of earlier fused steps is load-bearing.
    let problem = MpdataProblem::standard();
    let d = Region3::of_extent(16, 12, 6);
    let parts = d.split(Axis::I, 2);
    let mut plan = islands_plan(&problem, d, &parts, &[2, 2], &fused(Axis::J, 2)).unwrap();
    let slot0 = plan
        .field_names
        .iter()
        .position(|n| n == "x@slot0")
        .expect("fused plans expose the slot pseudo-fields");
    assert!(!plan.shared[slot0] && !plan.external[slot0]);
    for team in &mut plan.teams {
        for ep in &mut team.epochs {
            for accs in &mut ep.per_rank {
                accs.retain(|a| !(a.write && a.field == slot0));
            }
        }
    }
    let found = check_disjointness(&plan);
    assert!(
        found
            .iter()
            .any(|f| f.code == DiagnosticCode::UncoveredRead && f.field == "x@slot0"),
        "expected an uncovered x@slot0 read, got: {found:?}"
    );
}

#[test]
fn clean_fused_schedule_stays_clean_as_a_control() {
    let problem = MpdataProblem::standard();
    let d = Region3::of_extent(16, 12, 6);
    let parts = d.split(Axis::I, 2);
    for fuse in [2, 3, 4] {
        let plan = islands_plan(&problem, d, &parts, &[2, 2], &fused(Axis::J, fuse)).unwrap();
        assert_eq!(check_disjointness(&plan), vec![], "fuse={fuse} not clean");
    }
    // fuse = 0 is treated as 1, as by the executor: the classic plan,
    // labels included.
    let fused0 = islands_plan(&problem, d, &parts, &[2, 2], &fused(Axis::J, 0)).unwrap();
    let plain = islands_plan(&problem, d, &parts, &[2, 2], &config(Axis::J)).unwrap();
    assert_eq!(fused0.field_names, plain.field_names);
    assert_eq!(
        fused0.teams[0].epochs[0].label,
        plain.teams[0].epochs[0].label
    );
}

#[test]
fn unfenced_exchange_copy_is_a_cross_team_overlap() {
    // Move every halo copy into the global phase of the stage it
    // copies: the copy then reads neighbour scratch in the same phase
    // the neighbour writes it.
    let problem = MpdataProblem::standard();
    let d = Region3::of_extent(16, 12, 6);
    let parts = d.split(Axis::I, 2);
    let mut plan = islands_plan(&problem, d, &parts, &[2, 2], &exchange(Axis::J)).unwrap();
    for team in &mut plan.teams {
        for ep in team
            .epochs
            .iter_mut()
            .filter(|ep| ep.label.contains("/ copy "))
        {
            ep.phase -= 1;
        }
    }
    let found = check_disjointness(&plan);
    let hit = found
        .iter()
        .find(|f| f.code == DiagnosticCode::CrossTeamOverlap && f.field == "t0:f1")
        .unwrap_or_else(|| panic!("expected a cross-team overlap on t0:f1, got: {found:?}"));
    assert!(
        hit.site == "teams 0+1 / phase 0" && hit.detail.contains("team 1 reads [7, 8)"),
        "team 1's copy of team 0's boundary plane should race stage 0, got: {hit:?}"
    );
}

#[test]
fn dropped_exchange_piece_is_an_uncovered_margin_read() {
    // Drop the one piece of team 0's first copy (f1 from team 1): the
    // low-order update reads f1 one plane into team 1's part.
    let problem = MpdataProblem::standard();
    let d = Region3::of_extent(16, 12, 6);
    let parts = d.split(Axis::I, 2);
    let mut plan = islands_plan(&problem, d, &parts, &[2, 2], &exchange(Axis::J)).unwrap();
    let copy = plan.teams[0]
        .epochs
        .iter_mut()
        .find(|ep| ep.label.contains("/ copy "))
        .unwrap();
    assert_eq!(copy.per_rank.len(), 1, "one neighbour, one output field");
    copy.per_rank.clear();
    let found = check_disjointness(&plan);
    assert!(
        found.iter().any(|f| f.code == DiagnosticCode::UncoveredRead
            && f.field == "t0:f1"
            && f.detail.contains("wrote [8, 9)")),
        "expected an uncovered read of team 0's f1 margin, got: {found:?}"
    );
}

/// A 2×2 island grid over `d`, team order `(i, j)` row-major.
fn grid2x2(d: Region3) -> Vec<Region3> {
    d.split(Axis::I, 2)
        .into_iter()
        .flat_map(|half| half.split(Axis::J, 2))
        .collect()
}

#[test]
fn clean_exchange_schedule_stays_clean_as_a_control() {
    let problem = MpdataProblem::standard();
    let d = Region3::of_extent(16, 12, 6);
    let dynamic_k = PlanConfig {
        schedule: SchedulePolicy::Dynamic { chunks_per_rank: 2 },
        ..exchange(Axis::K)
    };
    for (parts, sizes) in [
        (d.split(Axis::I, 2), vec![2, 2]),
        (grid2x2(d), vec![1, 2, 1, 3]),
    ] {
        for config in [exchange(Axis::J), dynamic_k] {
            let plan = islands_plan(&problem, d, &parts, &sizes, &config).unwrap();
            assert_eq!(
                check_disjointness(&plan),
                vec![],
                "{} parts, {config:?}",
                parts.len()
            );
            // Scratch is team-owned, and every copy epoch sits one
            // global phase after the stage it copies.
            let t1_f1 = plan.field_names.iter().position(|n| n == "t1:f1").unwrap();
            assert_eq!(plan.owner[t1_f1], Some(1));
            for team in &plan.teams {
                for pair in team.epochs.windows(2) {
                    if pair[1].label.contains("/ copy ") {
                        assert_eq!(pair[1].phase, pair[0].phase + 1);
                    }
                }
            }
        }
    }
    // On the 2×2 grid, team 0's first copy pulls from all three
    // neighbours — the diagonal one included.
    let plan = islands_plan(&problem, d, &grid2x2(d), &[1; 4], &exchange(Axis::J)).unwrap();
    let first_copy = plan.teams[0]
        .epochs
        .iter()
        .find(|ep| ep.label.contains("/ copy "))
        .unwrap();
    let sources: Vec<&str> = first_copy
        .per_rank
        .iter()
        .map(|accs| plan.field_names[accs[1].field].as_str())
        .collect();
    assert_eq!(sources, ["t1:f1", "t2:f1", "t3:f1"]);
}

/// [`config`] at a budget that cuts each island of the 16 × 12 × 6
/// domain into several wavefront blocks, so scratch windows slide.
fn windowed(split_axis: Axis) -> PlanConfig {
    PlanConfig {
        cache_bytes: 32 * 1024,
        ..config(split_axis)
    }
}

#[test]
fn shaved_window_is_an_uncovered_read() {
    // Raise the low end of team 0's first window that keeps planes of
    // the previous block's by one plane: the slide forgets values the
    // block still reads.
    let problem = MpdataProblem::standard();
    let d = Region3::of_extent(16, 12, 6);
    let parts = d.split(Axis::I, 2);
    let mut plan = islands_plan(&problem, d, &parts, &[2, 2], &windowed(Axis::J)).unwrap();
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
    let lo = shaved.region.i.lo;
    shaved.region.i = Range1::new(lo + 1, shaved.region.i.hi);
    let found = check_disjointness(&plan);
    assert!(
        found.iter().any(|f| f.code == DiagnosticCode::UncoveredRead
            && f.field == "f1"
            && f.detail.contains(&format!("wrote [{lo}, {})", lo + 1))),
        "expected an uncovered read of the forgotten f1 plane, got: {found:?}"
    );
    assert!(
        found.iter().any(|f| f.code == DiagnosticCode::OutOfWindow),
        "the block's read of the shaved plane lies outside its window: {found:?}"
    );
}

#[test]
fn clean_windowed_schedule_stays_clean_as_a_control() {
    let problem = MpdataProblem::standard();
    let d = Region3::of_extent(16, 12, 6);
    let parts = d.split(Axis::I, 2);
    for config in [
        windowed(Axis::J),
        PlanConfig {
            fuse_steps: 3,
            ..windowed(Axis::J)
        },
        PlanConfig {
            schedule: SchedulePolicy::Dynamic { chunks_per_rank: 2 },
            ..windowed(Axis::K)
        },
    ] {
        let plan = islands_plan(&problem, d, &parts, &[2, 2], &config).unwrap();
        assert_eq!(check_disjointness(&plan), vec![], "{config:?}");
        // Windows slide: within a fused step each field's window only
        // moves forward along I, at least one keeps planes, and each
        // step starts every field afresh.
        let mut prev: Vec<Option<Region3>> = vec![None; plan.field_names.len()];
        let mut slides = 0;
        for w in plan.teams[0].epochs.iter().flat_map(|ep| &ep.windows) {
            match prev[w.field].filter(|_| w.keep) {
                Some(p) => {
                    assert!(w.region.i.lo >= p.i.lo && w.region.i.hi >= p.i.hi);
                    assert_eq!((w.region.j, w.region.k), (p.j, p.k));
                    slides += usize::from(p != w.region);
                }
                None => assert!(!w.keep, "a kept window needs a predecessor"),
            }
            prev[w.field] = Some(w.region);
        }
        assert!(slides > 0, "no window slid under {config:?}");
    }
}
