//! Pass 2 — plan-time disjointness.
//!
//! Reconstructs, from a partition, a team shape and a [`PlanConfig`],
//! exactly the per-rank read/write regions the plan engine will touch —
//! [`islands_plan`] mirrors `IslandsExecutor::step` region for region,
//! for every configuration the executor accepts — and then proves the
//! schedule race-free by region arithmetic alone:
//!
//! * within a team, every `(block, stage)` pair is one barrier-fenced
//!   *epoch*; no rank's write region may intersect another rank's
//!   read-or-write region of the same field inside an epoch;
//! * across teams, only global barriers order accesses: each epoch
//!   records how many precede it (its *global phase*; the whole step is
//!   phase 0 unless halos are exchanged), and no team's write to a field
//!   other teams see — shared fields (externals and outputs) and the
//!   team-owned scratch of exchange plans — may intersect any other
//!   team's access to it in the same phase;
//! * external fields are read-only everywhere;
//! * every read of an island-private (intermediate) field must be
//!   covered by same-team writes from strictly earlier epochs that its
//!   scratch windows kept since (each block's first epoch lists the
//!   [`Window`]s its team's store holds; entering one forgets the cells
//!   that slide out), and a read of another team's scratch (an exchange
//!   copy) by its owner's writes from strictly earlier global phases;
//! * every access of a windowed field falls inside its block's window;
//! * the union of all teams' writes to each shared output field must
//!   cover the whole domain — the executors keep output buffers alive
//!   across steps (the persistent-plan path re-claims scratch and
//!   output per step instead of reallocating), so an unwritten output
//!   cell is not merely uninitialized, it silently carries the
//!   previous step's value. Team-owned scratch covers only its owner's
//!   margin-expanded part and is exempt.
//!
//! The checks are sound for [`mpdata::Boundary::Open`] problems because
//! open-boundary reads clamp into the halo-expanded boxes recorded
//! here; the engine accepts periodic problems only as a single
//! whole-domain sweep, where every box is the whole domain.

use crate::diag::{Diagnostic, DiagnosticCode};
use mpdata::{HaloPolicy, MpdataProblem, PlanConfig, SchedulePolicy, TileMode};
use std::collections::BTreeMap;
use std::ops::Range;
use stencil_engine::{
    choose_tile, tile_grid, Axis, BlockPlanner, FieldId, FieldRole, Halo3, PlanBlocksError, Range1,
    Region3, StageDef,
};

/// One planned access of one rank inside an epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlannedAccess {
    /// Field index (into [`SchedulePlan::field_names`]).
    pub field: usize,
    /// The region touched.
    pub region: Region3,
    /// Write (`true`) or read (`false`).
    pub write: bool,
}

/// One barrier-fenced unit of a team's schedule: all ranks run their
/// accesses concurrently, then meet at the team barrier.
#[derive(Clone, Debug)]
pub struct Epoch {
    /// Human-readable position, e.g. `block 2 / stage upd-1`.
    pub label: String,
    /// Global barriers that precede the epoch within the step — its
    /// global phase (always 0 without halo exchange).
    pub phase: usize,
    /// The scratch windows that open the epoch's block — one per
    /// island-private field the block touches, on the block's first
    /// epoch only (empty elsewhere, and for tiled plans).
    pub windows: Vec<Window>,
    /// Accesses per rank (index = rank).
    pub per_rank: Vec<Vec<PlannedAccess>>,
}

/// The cells of one scratch field a team's store holds while a block
/// runs. Entering a window forgets every written cell outside it (all
/// of them unless `keep`), and every access of the field inside the
/// block must fall within it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Window {
    /// Field index (into [`SchedulePlan::field_names`]).
    pub field: usize,
    /// The window.
    pub region: Region3,
    /// Slid from the previous block's window, keeping the cells both
    /// share (`false` at the first block of a fused step touching the
    /// field: its store starts afresh).
    pub keep: bool,
}

/// The full schedule of one team (island) for one time step.
#[derive(Clone, Debug)]
pub struct TeamPlan {
    /// Epochs in execution order.
    pub epochs: Vec<Epoch>,
}

/// Everything the disjointness checker needs about one planned step.
/// All fields are public so tests and `stencil-lint --mutant …` can
/// seed broken schedules.
#[derive(Clone, Debug)]
pub struct SchedulePlan {
    /// The global domain.
    pub domain: Region3,
    /// Field names, indexed by the `field` of [`PlannedAccess`].
    pub field_names: Vec<String>,
    /// Per field: visible to all teams (externals and final outputs)
    /// rather than island-private scratch.
    pub shared: Vec<bool>,
    /// Per field: external input, never legally written in-step.
    pub external: Vec<bool>,
    /// Per field: the team owning it, for exchange scratch — island
    /// scratch that other teams' copies read (`None` otherwise).
    pub owner: Vec<Option<usize>>,
    /// One plan per team, in team order.
    pub teams: Vec<TeamPlan>,
}

/// Builds the [`SchedulePlan`] the plan engine would run under
/// `config` — `IslandsExecutor`, and with it the (3+1)D (one part) and
/// Original (one part, one whole-domain block) presets: one part per
/// team (empty parts allowed — surplus islands idle), `team_sizes`
/// ranks per team (`TeamSpec::team_sizes` provides this shape). Every
/// access is derived from the region algebra — requirement regions,
/// wavefront blocking, the tile grid — never from the executor's own
/// tables.
///
/// * **Untiled** plans get one epoch per `(fused step, wavefront block,
///   stage)`, each rank owning its `rank_slice` of the stage region
///   along `split_axis`. Each block's first epoch carries the scratch
///   windows of the graph's intermediates, derived from the plan's own
///   accesses by the executor's rule (see [`Window`]); exchange plans
///   carry one window per team-owned field for the whole step. Under
///   [`SchedulePolicy::Dynamic`] every one of
///   the `ranks × chunks_per_rank` chunks is its own slot: chunk-level
///   disjointness implies disjointness under **any** assignment of
///   chunks to claiming ranks, which is exactly the freedom dynamic
///   claiming has.
/// * **Fused** plans (`fuse_steps = k > 1`) mirror the fused
///   `StepPlan`: fused step `k-1` computes each team's own part; every
///   earlier step's target is enlarged backwards by one cumulative
///   stencil halo ([`stencil_engine::StageGraph::external_read_regions`]
///   on the advected field), and the advected field ping-pongs between
///   two *team-private* pseudo-fields `x@slot0`/`x@slot1` (fused step
///   `s < k-1` writes slot `s % 2`; fused step `s > 0` reads slot
///   `(s-1) % 2` instead of the shared input). Rule 4 (coverage) then
///   demands each step's halo enlargement be wide enough for the next
///   step's reads; rules 2–3 prove the slot hand-offs race-free; rule 5
///   still demands the last fused step's output writes tile the domain.
/// * **Exchange** plans ([`HaloPolicy::Exchange`], scenario 1 of the
///   paper) mirror the exchange `StepPlan`: per team one epoch per stage over
///   `part ∩ region_s(domain)` in global phase `s`, sliced like an
///   untiled epoch; after every non-final stage a copy epoch in phase
///   `s + 1` with one slot per piece — `hull ∩ neighbour part` of each
///   stage output, `hull` being the part expanded by the widest
///   single-stage input halo and clipped to the domain — reading the
///   neighbour's scratch and writing the team's own. Each team's
///   intermediates are team-owned pseudo-fields (`t1:f1`), so rule 3
///   checks every copy read against the neighbour's writes of the same
///   phase, rule 4 proves the margins covered by the copies and the
///   copied cells written in an earlier phase, and rule 5 skips them.
/// * **Tiled** plans cut each fused-step target into the same balanced
///   `(ti, tj)` tile grid the plan builder uses ([`TileMode::Auto`]
///   resolved through [`stencil_engine::choose_tile`] from
///   `cache_bytes`). Each tile is one slot — tile-level disjointness
///   covers any tile → rank assignment, static or dynamic, so the team
///   shape and schedule do not enter — and each tile's intermediates
///   are tile-private pseudo-fields (`t0/s0/tile3:flux-i`), mirroring
///   the rank store rebased per tile, so rule 4 proves the tile halo
///   sufficient. Epochs are stage-granular: the executor fences only
///   between fused steps, but the extra model fences are sound for
///   these graphs — a tile's chain is serial on one rank, and the only
///   cross-tile mutable fields (the output and the x slots) are written
///   solely at the final stage over tiles that partition the target.
///   Unlike the executor, the model does not zero-fill chain-uncovered
///   scratch reads; for graphs that have any (the MPDATA graphs have
///   none) the checker is conservative and reports them.
///
/// `fuse_steps = 0`, `chunks_per_rank = 0` and zero tile extents are
/// treated as 1, as in the executor.
///
/// # Errors
///
/// Returns [`PlanBlocksError`] when an untiled part's blocks cannot fit
/// the cache budget — the same error `IslandsExecutor::step` would
/// surface.
///
/// # Panics
///
/// Panics if `parts` and `team_sizes` disagree in length, the problem
/// is not open-boundary, or an exchange plan asks for step fusion or
/// tiling (which the executor rejects too).
pub fn islands_plan(
    problem: &MpdataProblem,
    domain: Region3,
    parts: &[Region3],
    team_sizes: &[usize],
    config: &PlanConfig,
) -> Result<SchedulePlan, PlanBlocksError> {
    assert_eq!(parts.len(), team_sizes.len(), "one part per team");
    assert_eq!(
        problem.boundary(),
        mpdata::Boundary::Open,
        "the islands schedule is only defined for open boundaries"
    );
    let k = config.fuse_steps.max(1);
    let graph = problem.graph();
    let fields = graph.fields();
    let nf = fields.len();
    let x_ext = problem.ext().x;
    let tile = match config.tile {
        TileMode::Off => None,
        TileMode::Auto => Some(choose_tile(graph, domain, config.cache_bytes)),
        TileMode::Fixed { ti, tj } => Some((ti.max(1), tj.max(1))),
    };
    let mut plan = SchedulePlan {
        domain,
        field_names: (0..nf)
            .map(|n| fields.name(FieldId(n as u32)).to_string())
            .collect(),
        shared: (0..nf)
            .map(|n| fields.role(FieldId(n as u32)) != FieldRole::Intermediate)
            .collect(),
        external: (0..nf)
            .map(|n| fields.role(FieldId(n as u32)) == FieldRole::External)
            .collect(),
        owner: vec![None; nf],
        teams: Vec::with_capacity(parts.len()),
    };
    // A static schedule is the 1-chunk-per-rank case (slot index = rank).
    let slots_for = |size: usize| match config.schedule {
        SchedulePolicy::Static => (size, ""),
        SchedulePolicy::Dynamic { chunks_per_rank } => {
            (size * chunks_per_rank.max(1), " (dynamic chunks)")
        }
    };
    if config.halo == HaloPolicy::Exchange {
        assert!(
            k == 1 && tile.is_none(),
            "the exchange halo policy cannot fuse time steps or tile stage chains"
        );
        exchange_teams(&mut plan, problem, parts, team_sizes, config, slots_for);
        return Ok(plan);
    }
    if k > 1 {
        // The team-private ping-pong buffers the advected field moves
        // through between fused steps (fields `nf` and `nf + 1`).
        // Island-private and non-external, so rule 2 forbids same-epoch
        // slot races, rule 4 demands every slot read be covered by
        // earlier same-team slot writes, and rules 3/5 ignore them.
        for slot in 0..2 {
            plan.add_field(format!("x@slot{slot}"), None);
        }
    }
    // The advected field's home in fused step `ts` (`None` for every
    // other field): the output is written to the step's x slot before
    // the last fused step, and the input is read after the first fused
    // step from the previous step's slot.
    let xout = problem.xout();
    let x_write = |ts: usize, o: FieldId| {
        (o == xout).then(|| if ts + 1 < k { nf + ts % 2 } else { o.index() })
    };
    let x_read = |ts: usize, f: FieldId| (f == x_ext && ts > 0).then(|| nf + (ts - 1) % 2);

    for (t, (&part, &size)) in parts.iter().zip(team_sizes).enumerate() {
        let mut epochs = Vec::new();
        let mut step_blocks = Vec::new();
        if !part.is_empty() {
            // Fused-step targets, back to front: step k-1 computes the
            // part itself, step s the hull of step s+1's advected-field
            // reads (one cumulative stencil halo wider, clipped to the
            // domain).
            let mut step_parts = vec![part; k];
            for ts in (0..k - 1).rev() {
                step_parts[ts] = graph
                    .external_read_regions(step_parts[ts + 1], domain)
                    .get(&x_ext)
                    .copied()
                    .unwrap_or_else(Region3::empty);
            }
            for (ts, &sp) in step_parts.iter().enumerate() {
                match tile {
                    Some(extents) => {
                        let tiles = tile_grid(sp, extents);
                        let reqs: Vec<Vec<Region3>> = tiles
                            .iter()
                            .map(|&tl| graph.required_regions(tl, domain))
                            .collect();
                        // One fresh pseudo-field per (tile, intermediate):
                        // sharing them across tiles would let one tile's
                        // writes spuriously cover another tile's reads.
                        let scratch: Vec<Vec<usize>> = (0..tiles.len())
                            .map(|n| {
                                (0..nf)
                                    .map(|f| {
                                        let fid = FieldId(f as u32);
                                        if fields.role(fid) == FieldRole::Intermediate {
                                            plan.add_field(
                                                format!("t{t}/s{ts}/tile{n}:{}", fields.name(fid)),
                                                None,
                                            )
                                        } else {
                                            f
                                        }
                                    })
                                    .collect()
                            })
                            .collect();
                        for st in graph.stages() {
                            let per_rank = (0..tiles.len())
                                .map(|n| {
                                    stage_accesses(
                                        st,
                                        reqs[n][st.id.index()],
                                        domain,
                                        |o| x_write(ts, o).unwrap_or(scratch[n][o.index()]),
                                        |f| x_read(ts, f).unwrap_or(scratch[n][f.index()]),
                                    )
                                })
                                .collect();
                            epochs.push(Epoch {
                                label: format!("step {ts} / stage {} (tiles)", st.name),
                                phase: 0,
                                windows: Vec::new(),
                                per_rank,
                            });
                        }
                    }
                    None => {
                        let (slots, slot_word) = slots_for(size);
                        let step_word = if k > 1 {
                            format!("step {ts} / ")
                        } else {
                            String::new()
                        };
                        let blocking = BlockPlanner::new(config.cache_bytes)
                            .plan_wavefront(graph, sp, domain)?;
                        let mut blocks = Vec::with_capacity(blocking.blocks.len());
                        for (b, block) in blocking.blocks.iter().enumerate() {
                            let first = epochs.len();
                            for st in graph.stages() {
                                let region = block.stage_regions[st.id.index()];
                                let per_rank = (0..slots)
                                    .map(|slot| {
                                        stage_accesses(
                                            st,
                                            mpdata::rank_slice(
                                                region,
                                                config.split_axis,
                                                slot,
                                                slots,
                                            ),
                                            domain,
                                            |o| x_write(ts, o).unwrap_or(o.index()),
                                            |f| x_read(ts, f).unwrap_or(f.index()),
                                        )
                                    })
                                    .collect();
                                epochs.push(Epoch {
                                    label: format!(
                                        "{step_word}block {b} / stage {}{slot_word}",
                                        st.name
                                    ),
                                    phase: 0,
                                    windows: Vec::new(),
                                    per_rank,
                                });
                            }
                            blocks.push(first..epochs.len());
                        }
                        step_blocks.push(blocks);
                    }
                }
            }
            // The graph's intermediates live in windowed team stores;
            // the x slots are whole arrays.
            add_windows(&mut epochs, &step_blocks, |f| f < nf && !plan.shared[f]);
        }
        plan.teams.push(TeamPlan { epochs });
    }
    Ok(plan)
}

/// Records one team's scratch windows on the first epoch of each block,
/// derived from the team's own accesses (`steps` holds every fused
/// step's block epoch ranges; `scratch` selects the windowed fields).
/// A field's window at a block is the hull of the block's accesses to
/// it, widened to the field's `J`/`K` extent over the whole plan and
/// along `I` back to the lowest plane a later block of the fused step
/// touches and forward to the highest plane an earlier one touched.
/// The first block of a fused step touching the field starts it afresh.
fn add_windows(epochs: &mut [Epoch], steps: &[Vec<Range<usize>>], scratch: impl Fn(usize) -> bool) {
    let mut extent: BTreeMap<usize, Region3> = BTreeMap::new();
    let mut hulls: Vec<Vec<(usize, BTreeMap<usize, Region3>)>> = Vec::new();
    for blocks in steps {
        let mut step = Vec::new();
        for r in blocks {
            let mut h: BTreeMap<usize, Region3> = BTreeMap::new();
            for a in epochs[r.clone()]
                .iter()
                .flat_map(|ep| ep.per_rank.iter().flatten())
                .filter(|a| scratch(a.field) && !a.region.is_empty())
            {
                let e = h.entry(a.field).or_insert(a.region);
                *e = e.hull(a.region);
            }
            for (&f, &r) in &h {
                let e = extent.entry(f).or_insert(r);
                *e = e.hull(r);
            }
            step.push((r.start, h));
        }
        hulls.push(step);
    }
    for (&f, ext) in &extent {
        for blocks in &hulls {
            let touched: Vec<(usize, Range1)> = blocks
                .iter()
                .filter_map(|(first, h)| h.get(&f).map(|r| (*first, r.i)))
                .collect();
            let mut lows = vec![0; touched.len()];
            let mut lo = i64::MAX;
            for (n, (_, r)) in touched.iter().enumerate().rev() {
                lo = lo.min(r.lo);
                lows[n] = lo;
            }
            let mut hi = i64::MIN;
            for (n, (&(first, r), &lo)) in touched.iter().zip(&lows).enumerate() {
                hi = hi.max(r.hi);
                epochs[first].windows.push(Window {
                    field: f,
                    region: ext.with_range(Axis::I, Range1::new(lo, hi)),
                    keep: n > 0,
                });
            }
        }
    }
}

/// Fills `plan.teams` with the exchange (scenario 1) schedule described
/// at [`islands_plan`], from the region algebra alone.
fn exchange_teams(
    plan: &mut SchedulePlan,
    problem: &MpdataProblem,
    parts: &[Region3],
    team_sizes: &[usize],
    config: &PlanConfig,
    slots_for: impl Fn(usize) -> (usize, &'static str),
) {
    let domain = plan.domain;
    let graph = problem.graph();
    let fields = graph.fields();
    let xout = problem.xout();
    let base = graph.required_regions(domain, domain);
    let margin = graph
        .stages()
        .iter()
        .fold(Halo3::ZERO, |h, st| h.max(st.input_halo()));
    // Team `t`'s home of field `f`: its own pseudo-field for
    // intermediates, the field itself otherwise.
    let home: Vec<Vec<usize>> = (0..parts.len())
        .map(|t| {
            (0..fields.len())
                .map(|f| {
                    let fid = FieldId(f as u32);
                    if fields.role(fid) == FieldRole::Intermediate {
                        plan.add_field(format!("t{t}:{}", fields.name(fid)), Some(t))
                    } else {
                        f
                    }
                })
                .collect()
        })
        .collect();
    for (t, (&part, &size)) in parts.iter().zip(team_sizes).enumerate() {
        let mut epochs = Vec::new();
        if !part.is_empty() {
            let hull = part.expand(margin).intersect(domain);
            let (slots, slot_word) = slots_for(size);
            for (s, st) in graph.stages().iter().enumerate() {
                let region = part.intersect(base[st.id.index()]);
                let per_rank = (0..slots)
                    .map(|slot| {
                        stage_accesses(
                            st,
                            mpdata::rank_slice(region, config.split_axis, slot, slots),
                            domain,
                            |o| home[t][o.index()],
                            |f| home[t][f.index()],
                        )
                    })
                    .collect();
                epochs.push(Epoch {
                    label: format!("phase {s} / stage {}{slot_word}", st.name),
                    phase: s,
                    windows: Vec::new(),
                    per_rank,
                });
                if st.outputs == [xout] {
                    continue;
                }
                let mut pieces = Vec::new();
                for (o, &other) in parts.iter().enumerate() {
                    let region = hull.intersect(other);
                    if o == t || region.is_empty() {
                        continue;
                    }
                    for &f in &st.outputs {
                        pieces.push(vec![
                            PlannedAccess {
                                field: home[t][f.index()],
                                region,
                                write: true,
                            },
                            PlannedAccess {
                                field: home[o][f.index()],
                                region,
                                write: false,
                            },
                        ]);
                    }
                }
                epochs.push(Epoch {
                    label: format!("phase {} / copy {}", s + 1, st.name),
                    phase: s + 1,
                    windows: Vec::new(),
                    per_rank: pieces,
                });
            }
            // One block: each of the team's own scratch fields keeps
            // one window for the whole step.
            let own = |f: usize| plan.owner[f] == Some(t);
            let block = 0..epochs.len();
            add_windows(&mut epochs, &[vec![block]], own);
        }
        plan.teams.push(TeamPlan { epochs });
    }
}

impl SchedulePlan {
    /// Registers an island-private, non-external pseudo-field — owned
    /// by team `owner` when other teams' copies read it — and returns
    /// its index.
    fn add_field(&mut self, name: String, owner: Option<usize>) -> usize {
        self.field_names.push(name);
        self.shared.push(false);
        self.external.push(false);
        self.owner.push(owner);
        self.field_names.len() - 1
    }
}

/// One slot's accesses for `stage` computing `region` (none when empty):
/// its outputs written over `region`, its inputs read over the
/// halo-expanded region clipped to `domain`. `output`/`input` name the
/// field each access lands in.
fn stage_accesses(
    stage: &StageDef,
    region: Region3,
    domain: Region3,
    output: impl Fn(FieldId) -> usize,
    input: impl Fn(FieldId) -> usize,
) -> Vec<PlannedAccess> {
    if region.is_empty() {
        return Vec::new();
    }
    let writes = stage.outputs.iter().map(|&o| PlannedAccess {
        field: output(o),
        region,
        write: true,
    });
    let reads = stage.inputs.iter().map(|(f, pat)| PlannedAccess {
        field: input(*f),
        region: region.expand(pat.halo()).intersect(domain),
        write: false,
    });
    writes.chain(reads).collect()
}

/// Proves (or refutes) the plan race-free. Returns all violations, in
/// deterministic order; an empty vector is the proof.
pub fn check_disjointness(plan: &SchedulePlan) -> Vec<Diagnostic> {
    let mut found = Vec::new();
    let fname = |f: usize| plan.field_names[f].clone();

    // Rule 1: externals are read-only, anywhere, by anyone.
    for (t, team) in plan.teams.iter().enumerate() {
        for ep in &team.epochs {
            for (rank, accs) in ep.per_rank.iter().enumerate() {
                for a in accs {
                    if a.write && plan.external[a.field] {
                        found.push(Diagnostic {
                            code: DiagnosticCode::ExternalWrite,
                            site: format!("team {t} rank {rank} / {}", ep.label),
                            field: fname(a.field),
                            detail: format!("schedule writes external field over {:?}", a.region),
                        });
                    }
                }
            }
        }
    }

    // Rule 2: intra-team, per epoch — a rank's write region must not
    // intersect any other rank's read-or-write region of the field.
    for (t, team) in plan.teams.iter().enumerate() {
        for ep in &team.epochs {
            for (ra, accs_a) in ep.per_rank.iter().enumerate() {
                for (rb, accs_b) in ep.per_rank.iter().enumerate() {
                    if ra == rb {
                        continue;
                    }
                    for wa in accs_a.iter().filter(|a| a.write) {
                        for ab in accs_b.iter().filter(|b| b.field == wa.field) {
                            // Write–read pairs are reported once (from
                            // the writer); write–write pairs once per
                            // unordered pair.
                            if (ab.write && ra > rb) || !wa.region.overlaps(ab.region) {
                                continue;
                            }
                            found.push(Diagnostic {
                                code: DiagnosticCode::IntraTeamOverlap,
                                site: format!("team {t} / {}", ep.label),
                                field: fname(wa.field),
                                detail: format!(
                                    "rank {ra} writes {:?} while rank {rb} {} {:?}",
                                    wa.region,
                                    if ab.write { "writes" } else { "reads" },
                                    ab.region
                                ),
                            });
                        }
                    }
                }
            }
        }
    }

    // Rule 3: cross-team, per global phase — writes to fields other
    // teams see (shared fields, team-owned exchange scratch) must not
    // intersect any other team's access to them in the same phase.
    let phased = plan
        .teams
        .iter()
        .flat_map(|team| &team.epochs)
        .any(|ep| ep.phase > 0);
    let unordered = if phased {
        "no global barrier between them"
    } else {
        "no intra-step synchronization between teams"
    };
    let step_accesses = |team: &TeamPlan| -> Vec<(usize, PlannedAccess)> {
        team.epochs
            .iter()
            .flat_map(|ep| ep.per_rank.iter().flatten().map(|a| (ep.phase, a.clone())))
            .collect()
    };
    let seen_across = |f: usize| plan.shared[f] || plan.owner[f].is_some();
    for ta in 0..plan.teams.len() {
        let accs_a = step_accesses(&plan.teams[ta]);
        for tb in 0..plan.teams.len() {
            if ta == tb {
                continue;
            }
            let accs_b = step_accesses(&plan.teams[tb]);
            for (pa, wa) in accs_a
                .iter()
                .filter(|(_, a)| a.write && seen_across(a.field))
            {
                for (_, ab) in accs_b
                    .iter()
                    .filter(|(pb, b)| pb == pa && b.field == wa.field)
                {
                    if (ab.write && ta > tb) || !wa.region.overlaps(ab.region) {
                        continue;
                    }
                    found.push(Diagnostic {
                        code: DiagnosticCode::CrossTeamOverlap,
                        site: if phased {
                            format!("teams {ta}+{tb} / phase {pa}")
                        } else {
                            format!("teams {ta}+{tb}")
                        },
                        field: fname(wa.field),
                        detail: format!(
                            "team {ta} writes {:?} while team {tb} {} {:?} with {unordered}",
                            wa.region,
                            if ab.write { "writes" } else { "reads" },
                            ab.region
                        ),
                    });
                }
            }
        }
    }

    // Rule 4: coverage — island-private reads must resolve to cells the
    // same team wrote in a strictly earlier epoch and kept in its
    // scratch windows since; a copy's read of another team's scratch, to
    // cells the owner wrote in a strictly earlier global phase. Every
    // access of a windowed field must fall inside the current window.
    let phase_writes: Vec<Vec<(usize, usize, Region3)>> = plan
        .teams
        .iter()
        .map(|team| {
            team.epochs
                .iter()
                .flat_map(|ep| {
                    ep.per_rank
                        .iter()
                        .flatten()
                        .filter(|a| a.write)
                        .map(|a| (ep.phase, a.field, a.region))
                })
                .collect()
        })
        .collect();
    for (t, team) in plan.teams.iter().enumerate() {
        let mut written: Vec<(usize, Region3)> = Vec::new();
        let mut window: Vec<Option<Region3>> = vec![None; plan.field_names.len()];
        for ep in &team.epochs {
            // Entering a window forgets the cells that slide out of it
            // (all of them when the store starts afresh).
            for w in &ep.windows {
                window[w.field] = Some(w.region);
                written.retain_mut(|(f, r)| {
                    if *f != w.field {
                        return true;
                    }
                    *r = r.intersect(w.region);
                    w.keep && !r.is_empty()
                });
            }
            for (rank, accs) in ep.per_rank.iter().enumerate() {
                for a in accs {
                    if let Some(w) = window[a.field].filter(|w| !w.contains_region(a.region)) {
                        found.push(Diagnostic {
                            code: DiagnosticCode::OutOfWindow,
                            site: format!("team {t} rank {rank} / {}", ep.label),
                            field: fname(a.field),
                            detail: format!(
                                "{} {:?} outside the block's window {w:?}",
                                if a.write { "writes" } else { "reads" },
                                a.region
                            ),
                        });
                    }
                }
                for rd in accs.iter().filter(|a| !a.write) {
                    if plan.shared[rd.field] {
                        continue; // pre-existing inputs / the output
                    }
                    // A copy reading another team's scratch is ordered
                    // only after that team's earlier-phase writes.
                    let other = plan.owner[rd.field].filter(|&o| o != t);
                    let theirs = other.into_iter().flat_map(|o| {
                        phase_writes[o]
                            .iter()
                            .filter(|w| w.0 < ep.phase && w.1 == rd.field)
                            .map(|w| w.2)
                    });
                    let ours = written
                        .iter()
                        .filter(|w| other.is_none() && w.0 == rd.field)
                        .map(|w| w.1);
                    let mut remaining = vec![rd.region];
                    for wr in theirs.chain(ours) {
                        remaining = remaining.into_iter().flat_map(|r| r.subtract(wr)).collect();
                        if remaining.is_empty() {
                            break;
                        }
                    }
                    if let Some(gap) = remaining.first() {
                        let by = match other {
                            Some(o) => format!("no earlier phase of team {o}"),
                            None => "no earlier epoch of this team".to_string(),
                        };
                        found.push(Diagnostic {
                            code: DiagnosticCode::UncoveredRead,
                            site: format!("team {t} rank {rank} / {}", ep.label),
                            field: fname(rd.field),
                            detail: format!("reads {:?} but {by} wrote {:?}", rd.region, gap),
                        });
                    }
                }
            }
            // Merge this epoch's writes only after its reads were
            // checked: same-epoch write→read has no fence between them.
            for accs in &ep.per_rank {
                for wr in accs.iter().filter(|a| a.write) {
                    written.push((wr.field, wr.region));
                }
            }
        }
    }

    // Rule 5: output coverage — every domain cell of each shared,
    // non-external field must be written by some team. Output buffers
    // persist across steps, so a coverage gap is stale data, not zeros.
    // (Team-owned exchange scratch is not shared: each team's copy spans
    // only its own margin-expanded part.)
    if !plan.domain.is_empty() {
        for f in 0..plan.field_names.len() {
            if !plan.shared[f] || plan.external[f] {
                continue;
            }
            let mut remaining = vec![plan.domain];
            'cover: for team in &plan.teams {
                for ep in &team.epochs {
                    for accs in &ep.per_rank {
                        for wr in accs.iter().filter(|a| a.write && a.field == f) {
                            remaining = remaining
                                .into_iter()
                                .flat_map(|r| r.subtract(wr.region))
                                .collect();
                            if remaining.is_empty() {
                                break 'cover;
                            }
                        }
                    }
                }
            }
            if let Some(gap) = remaining.first() {
                found.push(Diagnostic {
                    code: DiagnosticCode::UncoveredOutput,
                    site: "whole step".to_string(),
                    field: fname(f),
                    detail: format!(
                        "no team writes {gap:?}; a reused output buffer would hand \
                         those cells the previous step's values"
                    ),
                });
            }
        }
    }

    found.sort();
    found.dedup();
    found
}
