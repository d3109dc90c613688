//! Persistent execution plans: plan once, replay every step.
//!
//! This module is the one execution engine behind every threaded
//! strategy. [`crate::IslandsExecutor`] owns a cached [`StepPlan`] and
//! replays it; the paper's strategies are configurations of it, not
//! separate executors:
//!
//! * *islands* — one team per island, cache-sized wavefront blocks;
//! * *(3+1)D* — a single team spanning the pool (`TeamSpec::even(n, 1)`),
//!   cache-sized blocks;
//! * *Original* ([`crate::OriginalExecutor`]) — a single team and a
//!   single whole-domain block (`cache_bytes = usize::MAX`), split
//!   along `I`;
//! * *exchange* ([`crate::ExchangeExecutor`], the paper's scenario 1) —
//!   one team per island under [`HaloPolicy::Exchange`]: each island
//!   computes exactly its part of every stage and copies its halo
//!   margins from the neighbours' stores after every stage but the
//!   last.
//!
//! A [`StepPlan`] hoists everything but the kernels out of the step
//! loop:
//!
//! * the partition, per-island blocking, stage→region tables and
//!   work-unit slices are computed once and keyed by [`PlanKey`] —
//!   `(domain, partition, PlanConfig)`, compared with `==` — so any
//!   change of domain, partition, cache budget, split axis, schedule
//!   policy, fuse depth or tile mode rebuilds the plan;
//! * the island [`ParStore`]s persist across steps, each intermediate
//!   in a *sliding window along `I`* rather than over the island's
//!   whole hull, so a wavefront block's intermediates stay in cache.
//!   The builder gives every field, per block, the hull of the block's
//!   accesses to it, widened so windows only move forward and every
//!   value stays in the window until its last read (see
//!   `plan_windows`); the field is allocated once at its widest window.
//!   At each block start the team's ranks slide the moved fields
//!   ([`Array3::slide`], between two team barriers, recorded as
//!   `Refill` spans); the first block of a fused step re-targets with
//!   nothing kept. Single-block plans (Original, exchange) never move.
//!   Instead of re-zeroing whole scratches, the builder runs the same
//!   coverage analysis as the `islands-analysis` `uncovered-read` rule
//!   and records exactly the cells each team reads before writing; the
//!   replay zeroes only those, as they enter a window (none, for the
//!   real MPDATA graphs);
//! * `run` ping-pongs two persistent full-domain arrays (`cur`/`out`)
//!   by pointer swap under the once-per-epoch global barrier, instead
//!   of allocating `Array3::zeros(domain)` and copying back per step.
//!
//! # Halo exchange (`HaloPolicy::Exchange`)
//!
//! An exchange plan has one epoch per stage over `part ∩ base_regions[s]`
//! (no wavefront blocking, no enlargement). Each team's store spans its
//! part plus a margin of the widest single-stage input halo, clipped to
//! the domain. After every non-final stage a plan-time copy table lists
//! the pieces `(field, hull ∩ neighbour part, neighbour)` the team
//! copies store to store, diagonal neighbours included. The replay
//! fences such an epoch with a global barrier (every neighbour has
//! finished the stage), then the team's ranks copy their share of the
//! pieces, then a team barrier publishes the margins to the next stage.
//! Every team, empty parts included, passes every global barrier. The
//! coverage analysis counts the copies as writes, so `must_zero` stays
//! empty for the MPDATA graphs.
//!
//! Box-shaped stage regions cannot express periodic wrap reads, so the
//! engine accepts [`Boundary::Periodic`] only for plans with one part,
//! one block per step, no tiling and no step fusion: every stage then
//! covers the whole domain, wrap reads included.
//!
//! # Temporal blocking (`fuse_steps = k`)
//!
//! With `fuse_steps = k > 1` the plan fuses k whole time steps into one
//! replay epoch, so `run` pays the global-barrier pair once per k steps
//! instead of once per step. Each team's epoch table then holds k
//! *fused-step* sections: the last section computes the island's own
//! part of the final step; every earlier section's target is enlarged
//! backwards by one cumulative stencil halo
//! (`StageGraph::external_read_regions` on the advected field), so a
//! team can compute step s+1 of its enlarged region entirely from its
//! *own* step-s values — no other island's output is ever read between
//! global barriers. Intermediate advected fields ping-pong through two
//! team-private x-slot buffers (`TeamPlan::xslots`), sized to the first
//! (widest) fused step; the last fused step writes the shared output
//! exactly as before. A `run` whose step count is not a multiple of k
//! replays a tail epoch made of the *last* `steps mod k` sections,
//! which keeps every section's enlargement exactly right; `step` is the
//! one-section tail, identical to an unfused plan.
//!
//! Replay is bit-identical to the allocate-per-step path for every k:
//! the kernels are pointwise in their declared neighborhoods, so
//! computing a cell inside an enlarged region produces the same bits as
//! computing it as somebody's "own" cell; covered scratch reads see the
//! same in-step values, uncovered reads see zeros either way (they are
//! zeroed as they enter a window, in every fused step), and the output
//! cells not
//! covered by final-stage writes (`out_gaps` — empty for any covering
//! partition) are re-zeroed at swap time.

use crate::exec::{rank_slice, ExtFields, ParStore};
use crate::graph::{MpdataProblem, StageKind};
use crate::kernels::Boundary;
use std::fmt;
use std::sync::Arc;
use stencil_engine::{
    choose_tile, tile_grid, Array3, Axis, BlockPlan, BlockPlanner, FieldId, FieldRole, Halo3,
    PlanBlocksError, Range1, Region3, StageDef, StageGraph,
};
use work_scheduler::{AccessTracker, ChunkQueue, DisjointCell, TeamCtx, TeamSpec, WorkerPool};

/// How each epoch's work units are assigned to the ranks of a team.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SchedulePolicy {
    /// One fixed slice per rank (the paper's schedule): zero scheduling
    /// overhead, optimal for homogeneous stages.
    #[default]
    Static,
    /// Intra-island self-scheduling: every epoch is pre-split into
    /// `ranks × chunks_per_rank` slices and ranks claim them from a
    /// per-epoch [`ChunkQueue`] until drained. The chunks are computed
    /// at plan time and the queue reset is one atomic store, so the
    /// steady-state replay stays allocation-free; epoch fencing is
    /// unchanged, so plan-time disjointness still proves the schedule
    /// for *any* claim order.
    Dynamic {
        /// Chunks per rank per epoch (clamped to at least 1). More
        /// chunks → finer-grained stealing, more claim traffic.
        chunks_per_rank: usize,
    },
}

impl SchedulePolicy {
    /// Work units per epoch for a team of `ranks`.
    fn units_for(self, ranks: usize) -> usize {
        match self {
            SchedulePolicy::Static => ranks,
            SchedulePolicy::Dynamic { chunks_per_rank } => ranks * chunks_per_rank.max(1),
        }
    }
}

/// Cache-tiled stage fusion: how (and whether) each fused-step target
/// is cut into `(i, j)` tiles whose whole stage chain runs back-to-back
/// on tile-local scratch.
///
/// Untiled replay sweeps each stage across the island's full part,
/// round-tripping every intermediate array through main memory between
/// stages. Tiled replay instead partitions the target into tiles sized
/// so one tile's scratch (tile + cumulative halo, times the peak live
/// buffer count) stays resident in L2, and executes all 17 stages of
/// one tile before moving to the next: intermediates never leave cache,
/// and the per-stage team barriers collapse to one per fused step. Tile
/// faces pay redundant halo recomputation — the same overlapped-tiling
/// trade the (3+1)D blocks make along `I`, here in both `I` and `J`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum TileMode {
    /// Per-stage sweeps (the classic replay; the default).
    #[default]
    Off,
    /// Tile extents chosen from the plan's cache budget by
    /// [`stencil_engine::choose_tile`].
    Auto,
    /// Explicit tile extents along `I` and `J` (clamped to ≥ 1).
    Fixed {
        /// Tile extent along `I`.
        ti: usize,
        /// Tile extent along `J`.
        tj: usize,
    },
}

/// Where an island's halo cells come from — Fig. 1's two scenarios.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum HaloPolicy {
    /// Scenario 2, the paper's islands: every island recomputes the halo
    /// cells its blocks need, so islands meet only once per step.
    #[default]
    Recompute,
    /// Scenario 1: every island computes exactly its own part of each
    /// stage and, after every stage but the last, copies its halo
    /// margins from the neighbouring islands between a global and a team
    /// barrier. One unfused, untiled step per epoch; the cache budget is
    /// unused.
    Exchange,
}

/// Default cache budget per block: the 16 MiB L3 of the paper's Xeon
/// E5-4627v2.
pub const DEFAULT_CACHE_BYTES: usize = 16 << 20;

/// Everything about a plan except its domain and partition: the one
/// configuration shared by the executor's plan builder and the
/// `islands-analysis` schedule prover.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanConfig {
    /// Per-block cache budget. The wavefront block depth and the
    /// [`TileMode::Auto`] tile extents follow from it; `usize::MAX`
    /// makes every part a single block.
    pub cache_bytes: usize,
    /// Axis along which a team splits each stage sweep among its ranks.
    pub split_axis: Axis,
    /// How each epoch's work units are handed to the ranks.
    pub schedule: SchedulePolicy,
    /// Time steps fused into one replay epoch (1 = per-step global
    /// synchronization; 0 is treated as 1).
    pub fuse_steps: usize,
    /// Cache-tiled stage fusion.
    pub tile: TileMode,
    /// Recompute halos (scenario 2) or exchange them (scenario 1).
    pub halo: HaloPolicy,
}

impl Default for PlanConfig {
    /// The library defaults: [`DEFAULT_CACHE_BYTES`], sweeps split
    /// along `J`, static schedule, no fusion, no tiling, recomputed
    /// halos.
    fn default() -> Self {
        PlanConfig {
            cache_bytes: DEFAULT_CACHE_BYTES,
            split_axis: Axis::J,
            schedule: SchedulePolicy::Static,
            fuse_steps: 1,
            tile: TileMode::Off,
            halo: HaloPolicy::Recompute,
        }
    }
}

/// How the domain is divided among islands.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum PartitionKind {
    /// 1-D split along an axis (variant A = `I`, variant B = `J`).
    Axis(Axis),
    /// Explicit parts, one per team in order (e.g. 2-D island grids).
    /// Shared, so building a [`PlanKey`] per call never allocates.
    Explicit(Arc<[Region3]>),
}

impl PartitionKind {
    /// The island partition of `domain`: one part per team.
    ///
    /// # Panics
    ///
    /// Panics if an explicit partition does not disjointly cover
    /// `domain` or disagrees with `team_count`.
    pub(crate) fn parts(&self, domain: Region3, team_count: usize) -> Vec<Region3> {
        match self {
            PartitionKind::Axis(axis) => domain.split(*axis, team_count),
            PartitionKind::Explicit(parts) => {
                assert_eq!(parts.len(), team_count, "one part per team required");
                let covered: usize = parts.iter().map(|p| p.cells()).sum();
                assert_eq!(covered, domain.cells(), "partition must cover the domain");
                for (n, a) in parts.iter().enumerate() {
                    assert!(domain.contains_region(*a), "part {n} outside domain");
                    for b in &parts[n + 1..] {
                        assert!(!a.overlaps(*b), "parts overlap");
                    }
                }
                parts.to_vec()
            }
        }
    }
}

/// Everything a cached [`StepPlan`] depends on. A `step`/`run` call
/// whose key differs from the cached one rebuilds the plan; building
/// and comparing a key allocates nothing, so cache hits cost a few
/// field compares.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct PlanKey {
    pub(crate) domain: Region3,
    pub(crate) partition: PartitionKind,
    pub(crate) config: PlanConfig,
}

/// One barrier-fenced unit of a team's replay: one stage of one block,
/// with every work-unit slice precomputed (so the hot loop never calls
/// the allocating `Region3::split`). Under [`SchedulePolicy::Static`]
/// there is exactly one unit per rank (unit index = rank); under
/// [`SchedulePolicy::Dynamic`] there are `ranks × chunks_per_rank`
/// units claimed from the epoch's [`ChunkQueue`].
struct EpochPlan {
    /// Index into `graph.stages()`.
    stage: usize,
    /// The stage's kernel.
    kind: StageKind,
    /// Final stage: written straight into the step's x output — the
    /// shared output buffer for the last fused step, a team-private
    /// x slot for earlier ones.
    is_final: bool,
    /// Fused-step index within the plan's k-step table (0-based).
    step: u16,
    /// Block index within the island's wavefront blocking (trace tag).
    block: u16,
    /// The whole epoch region (the union of `units`, which slice it
    /// contiguously along the split axis).
    region: Region3,
    /// Slice per work unit (empty regions for surplus units).
    units: Vec<Region3>,
    /// Per unit: cells of the slice lying outside `part ∩
    /// region_s(domain)` — the redundant halo recomputation this
    /// epoch performs (fused steps before the last one recompute a
    /// whole widened halo band), precomputed so traced kernels can
    /// report it without any plan-time math on the hot path.
    units_extra: Vec<u64>,
    /// How the epoch ends: `None` — a team barrier; `Some(pieces)` —
    /// the exchange fence: a global barrier, the team's halo copies
    /// (strided over its ranks), then a team barrier.
    copies: Option<Vec<CopyPiece>>,
    /// The scratch window moves that open this epoch's block (empty on
    /// every other epoch, and on every epoch of a plan whose windows
    /// never change): the team's ranks split them, then meet at a team
    /// barrier before the epoch's kernels run.
    enter: Vec<WindowMove>,
}

/// One scratch field's window move at a block start: the buffer is
/// re-targeted at `window` — slid forward keeping the planes both
/// windows share (`keep`), or rebased keeping nothing at the first
/// block of a fused step — and then `zero` is cleared: the cells
/// entering the window that the fused step reads before writing (none
/// for the real MPDATA graphs).
struct WindowMove {
    field: FieldId,
    window: Region3,
    keep: bool,
    zero: Vec<Region3>,
}

/// One halo piece of an exchange plan: `region` of `field`, copied from
/// team `source`'s store into this team's margin.
struct CopyPiece {
    field: FieldId,
    region: Region3,
    source: usize,
}

/// One `(i, j)` tile of a fused-step target under [`TileMode`]: the
/// whole stage chain replayed back-to-back by one rank on that rank's
/// private scratch, rebased to this tile's footprint.
struct TileTask {
    /// The owned output region (tiles partition the fused-step target,
    /// so concurrent final-stage writes are disjoint by construction).
    tile: Region3,
    /// Per-stage compute regions from the backward requirement analysis
    /// (`required_regions(tile, domain)`): every intra-chain read of an
    /// intermediate resolves to a cell this chain computed earlier.
    stage_regions: Vec<Region3>,
    /// Per scratch field, the region the rank store is rebased to
    /// before the chain runs — the producing stage's region, which
    /// contains every later read of the field.
    field_regions: Vec<(FieldId, Region3)>,
    /// Scratch cells the chain reads before writing them, zeroed after
    /// the rebase (rebased scratch holds *stale* cells of the previous
    /// tile, not zeros, so coverage must be exact). Empty for the real
    /// MPDATA graphs — the chain-coverage analysis proves it per tile.
    must_zero: Vec<(FieldId, Region3)>,
    /// Per-stage redundant cells beyond `tile ∩ part ∩ base_regions[s]`
    /// (trace attribution, mirroring `EpochPlan::units_extra`).
    stage_extra: Vec<u64>,
}

/// One team's replay schedule.
struct TeamPlan {
    epochs: Vec<EpochPlan>,
    /// Epoch index range per fused step: `epochs[step_bounds[s].0 ..
    /// step_bounds[s].1]` are fused step `s`'s epochs (all `(0, 0)` for
    /// empty islands).
    step_bounds: Vec<(usize, usize)>,
    /// One preallocated work queue per epoch (dynamic schedules only;
    /// empty for static). Reset between steps by one relaxed store per
    /// epoch, inside the serial sections the barriers already fence —
    /// so self-scheduling adds no allocation to the steady state.
    queues: Vec<ChunkQueue>,
    /// Team-private ping-pong buffers for the advected field between
    /// fused steps (`None` when `fuse_steps == 1`): fused step `s < k-1`
    /// writes slot `s % 2`, fused step `s > 0` reads slot `(s-1) % 2`.
    /// Sized to the first (widest) fused step's target, which contains
    /// every later step's writes and reads.
    xslots: Option<[DisjointCell<Array3>; 2]>,
    /// Tile tables, one `Vec<TileTask>` per fused step (tiled plans
    /// only; empty when `TileMode::Off`). Tiles of step `s` partition
    /// `fused_step_targets[s]`.
    tiles: Vec<Vec<TileTask>>,
    /// One preallocated claim queue per fused step over that step's
    /// tiles (dynamic tiled plans only). Same reset contract as
    /// `queues`.
    tile_queues: Vec<ChunkQueue>,
}

impl TeamPlan {
    /// The external inputs of fused step `ts` of an epoch that starts at
    /// `first_ts`: `ext` itself for the first step; afterwards the
    /// advected field is the team-private slot the previous fused step
    /// just produced. Hold the returned tracker while the view is used.
    fn step_ext<'a>(
        &'a self,
        ext: ExtFields<'a>,
        ts: usize,
        first_ts: usize,
    ) -> (ExtFields<'a>, Option<AccessTracker<'a, Array3>>) {
        if ts == first_ts {
            return (ext, None);
        }
        let slots = self.xslots.as_ref().expect("fused plans allocate x slots");
        let slot = &slots[(ts - 1) % 2];
        let tracker = slot.track_read();
        // SAFETY: the team barrier ending fused step ts-1 fences its slot
        // writes; within this step the slot is only read (this step
        // writes the *other* slot or the shared output).
        let x = unsafe { slot.get_ref() };
        (ExtFields { x, ..ext }, Some(tracker))
    }
}

/// A fully materialized, reusable execution plan for one time step (or,
/// with `fuse_steps = k`, one k-step fused epoch).
///
/// Owns the per-island scratch stores and the two ping-pong domain
/// buffers, so steps 2..N of `run` allocate nothing at all.
pub(crate) struct StepPlan {
    key: PlanKey,
    teams: Vec<TeamPlan>,
    stores: Vec<ParStore>,
    /// Rank-private scratch stores for the tiled replay, indexed
    /// `[team][rank]` (empty when `TileMode::Off`). Each holds every
    /// scratch field at its worst-case tile footprint and is rebased
    /// tile by tile, so the steady state allocates nothing.
    tile_stores: Vec<Vec<ParStore>>,
    /// Stage kinds in stage order (the tiled replay walks the graph
    /// directly instead of through per-epoch tables).
    stage_kinds: Vec<StageKind>,
    /// Index of the final stage (the single writer of the advected
    /// output).
    final_stage: usize,
    /// Domain cells no final-stage write covers (empty for covering
    /// partitions); re-zeroed in the output buffer at swap time.
    out_gaps: Vec<Region3>,
    /// `run`'s current-input buffer (`x` of the step being computed).
    cur: DisjointCell<Array3>,
    /// The shared output buffer all teams write disjoint parts of.
    ///
    /// Invariant between steps: cells in `out_gaps` are zero.
    out: DisjointCell<Array3>,
}

impl fmt::Debug for StepPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StepPlan")
            .field("key", &self.key)
            .field("teams", &self.teams.len())
            .field(
                "epochs",
                &self.teams.iter().map(|t| t.epochs.len()).sum::<usize>(),
            )
            .finish_non_exhaustive()
    }
}

/// Removes `cut` from every region of `from`.
fn subtract_all(from: Vec<Region3>, cut: Region3) -> Vec<Region3> {
    from.into_iter().flat_map(|r| r.subtract(cut)).collect()
}

/// The scratch cells a team reads before any same-step write covers
/// them — mirror of the analyzer's `uncovered-read` rule, restricted to
/// intermediate fields (externals are inputs; the output is written,
/// never read).
fn uncovered_reads(
    graph: &StageGraph,
    epochs: &[EpochPlan],
    domain: Region3,
) -> Vec<(FieldId, Region3)> {
    // Coverage is checked at *epoch* granularity: an epoch's units
    // slice `ep.region` contiguously along one axis, and halo
    // expansion distributes over a contiguous split, so the union of
    // the per-unit read hulls is exactly the epoch-region read hull —
    // same gap cells, far fewer region subtractions. Writes are
    // bucketed per field so each read only scans its own field's
    // history instead of one flat list (this analysis used to dominate
    // the first-step cost of whole-domain fused plans).
    let mut written: Vec<Vec<Region3>> = vec![Vec::new(); graph.fields().len()];
    let mut gaps: Vec<(FieldId, Region3)> = Vec::new();
    for ep in epochs {
        let st = &graph.stages()[ep.stage];
        if ep.region.is_empty() {
            continue;
        }
        for (f, pat) in &st.inputs {
            if graph.fields().role(*f) != FieldRole::Intermediate {
                continue;
            }
            let mut remaining = vec![ep.region.expand(pat.halo()).intersect(domain)];
            for &wr in &written[f.index()] {
                remaining = subtract_all(remaining, wr);
                if remaining.is_empty() {
                    break;
                }
            }
            gaps.extend(remaining.into_iter().map(|g| (*f, g)));
        }
        // Merge writes only after the epoch's reads: a same-epoch
        // write→read pair has no fence between them, so it cannot
        // provide coverage (matching the analyzer).
        if !ep.is_final {
            for &o in &st.outputs {
                written[o.index()].push(ep.region);
            }
        }
        // The halo copies land after the epoch's fence, before the next
        // epoch reads.
        for c in ep.copies.iter().flatten() {
            written[c.field.index()].push(c.region);
        }
    }
    gaps
}

/// Plans one team's scratch windows along `I` for its wavefront replay
/// and returns every scratch field's allocation: its widest window.
///
/// A field's window at a block is the hull of the block's writes of it
/// and its halo-expanded reads of it (clipped to the domain; exchange
/// copies count as writes), widened to the field's `J`/`K` extent over
/// the whole plan and along `I` back to the lowest plane a later block
/// of the fused step touches and forward to the highest plane an
/// earlier one touched. Windows therefore only slide forward, and a
/// cell stays in the window from the block that writes it to every
/// block that reads it. The first block of each fused step re-targets
/// with nothing kept (a fused step never reads the previous one's
/// scratch); later blocks slide. Each move zeroes the cells of the
/// step's `must_zero` set entering the window. A field whose window
/// never changes (every single-block plan) never moves.
///
/// Fills the `enter` table of each block's first epoch.
fn plan_windows(
    graph: &StageGraph,
    epochs: &mut [EpochPlan],
    step_bounds: &[(usize, usize)],
    must_zero: &[Vec<(FieldId, Region3)>],
    domain: Region3,
) -> Vec<(FieldId, Region3)> {
    let nf = graph.fields().len();
    // Per fused step, per block: its first epoch and per-field hulls.
    let mut steps: Vec<Vec<(usize, Vec<Region3>)>> = Vec::with_capacity(step_bounds.len());
    let mut extent = vec![Region3::empty(); nf];
    for &(lo, hi) in step_bounds {
        let mut blocks: Vec<(usize, Vec<Region3>)> = Vec::new();
        for (e, ep) in epochs.iter().enumerate().take(hi).skip(lo) {
            if blocks
                .last()
                .is_none_or(|&(first, _)| epochs[first].block != ep.block)
            {
                blocks.push((e, vec![Region3::empty(); nf]));
            }
            let hulls = &mut blocks.last_mut().expect("pushed above").1;
            let mut touch = |f: FieldId, r: Region3| {
                if graph.fields().role(f) == FieldRole::Intermediate {
                    hulls[f.index()] = hulls[f.index()].hull(r);
                }
            };
            let st = &graph.stages()[ep.stage];
            if !ep.region.is_empty() {
                for (f, pat) in &st.inputs {
                    touch(*f, ep.region.expand(pat.halo()).intersect(domain));
                }
                if !ep.is_final {
                    for &o in &st.outputs {
                        touch(o, ep.region);
                    }
                }
            }
            for c in ep.copies.iter().flatten() {
                touch(c.field, c.region);
            }
        }
        for (_, hulls) in &blocks {
            for (x, &h) in extent.iter_mut().zip(hulls) {
                *x = x.hull(h);
            }
        }
        steps.push(blocks);
    }
    let mut alloc = Vec::new();
    for (f, ext) in extent.iter().enumerate() {
        if ext.is_empty() {
            continue;
        }
        let field = FieldId(f as u32);
        // `(step, block, window)` for every block touching the field.
        let mut wins: Vec<(usize, usize, Region3)> = Vec::new();
        for (ts, blocks) in steps.iter().enumerate() {
            let touched: Vec<(usize, Range1)> = blocks
                .iter()
                .enumerate()
                .filter(|(_, (_, h))| !h[f].is_empty())
                .map(|(b, (_, h))| (b, h[f].i))
                .collect();
            let mut lows = vec![0; touched.len()];
            let mut lo = i64::MAX;
            for (n, &(_, r)) in touched.iter().enumerate().rev() {
                lo = lo.min(r.lo);
                lows[n] = lo;
            }
            let mut hi = i64::MIN;
            for (&(b, r), &lo) in touched.iter().zip(&lows) {
                hi = hi.max(r.hi);
                wins.push((ts, b, ext.with_range(Axis::I, Range1::new(lo, hi))));
            }
        }
        let widest = wins
            .iter()
            .map(|w| w.2)
            .max_by_key(|w| w.cells())
            .expect("a non-empty extent has a window");
        let fixed = wins.iter().all(|w| w.2 == widest);
        alloc.push((field, widest));
        let mut prev: Option<(usize, Region3)> = None;
        for &(ts, b, window) in &wins {
            let kept = prev.filter(|&(pts, _)| pts == ts).map(|(_, p)| p);
            let entering = match kept {
                Some(p) => {
                    assert!(
                        window.i.lo >= p.i.lo && window.i.hi >= p.i.hi,
                        "scratch windows move forward along I"
                    );
                    window.with_range(Axis::I, Range1::new(p.i.hi.max(window.i.lo), window.i.hi))
                }
                None => window,
            };
            let zero: Vec<Region3> = must_zero[ts]
                .iter()
                .filter(|&&(g, _)| g == field)
                .map(|&(_, r)| r.intersect(entering))
                .filter(|r| !r.is_empty())
                .collect();
            let moved = kept.map_or(!fixed, |p| p != window);
            if moved || !zero.is_empty() {
                epochs[steps[ts][b].0].enter.push(WindowMove {
                    field,
                    window,
                    keep: kept.is_some(),
                    zero,
                });
            }
            prev = Some((ts, window));
        }
    }
    alloc
}

/// The per-fused-step targets for one island: index `k-1` is the
/// island's own `part`; each earlier step's target is the hull of the
/// advected-field reads the next step's target requires (clipped to
/// `domain`), i.e. one cumulative stencil halo wider per fused step.
/// Monotone: `targets[s] ⊇ targets[s+1]`.
pub(crate) fn fused_step_targets(
    graph: &StageGraph,
    x: FieldId,
    part: Region3,
    domain: Region3,
    fuse_steps: usize,
) -> Vec<Region3> {
    let k = fuse_steps.max(1);
    let mut targets = vec![part; k];
    for ts in (0..k.saturating_sub(1)).rev() {
        targets[ts] = graph
            .external_read_regions(targets[ts + 1], domain)
            .get(&x)
            .copied()
            .unwrap_or_else(Region3::empty);
    }
    targets
}

/// Builds one tile's chain table: per-stage compute regions from the
/// backward requirement analysis, the scratch footprints the rank store
/// is rebased to, and the chain-coverage obligations.
fn plan_tile(
    graph: &StageGraph,
    xout: FieldId,
    tile: Region3,
    part: Region3,
    domain: Region3,
    base_regions: &[Region3],
) -> TileTask {
    let regs = graph.required_regions(tile, domain);
    // Scratch footprint per field = the producing stage's region, which
    // (by the backward requirement invariant) contains every later read
    // of the field clipped to the domain.
    let mut scratch: Vec<Region3> = vec![Region3::empty(); graph.fields().len()];
    let mut field_regions = Vec::new();
    let mut stage_extra = vec![0u64; regs.len()];
    for st in graph.stages() {
        let r = regs[st.id.index()];
        let owned = r
            .intersect(tile)
            .intersect(part)
            .intersect(base_regions[st.id.index()]);
        stage_extra[st.id.index()] = (r.cells() - owned.cells()) as u64;
        if r.is_empty() {
            continue;
        }
        for &o in &st.outputs {
            if o != xout {
                scratch[o.index()] = r;
                field_regions.push((o, r));
            }
        }
    }
    // Chain coverage: the chain is serial on one rank, so each stage's
    // writes are visible to every later stage — merge after *each*
    // stage (unlike the epoch analysis, which merges only across
    // barrier fences). Rebased scratch holds stale cells of the
    // previous tile, not zeros, so any read the chain's own writes do
    // not cover must be zeroed first. Empty for the real MPDATA graphs:
    // the requirement regions cover every read by construction.
    let mut written: Vec<Vec<Region3>> = vec![Vec::new(); graph.fields().len()];
    let mut must_zero = Vec::new();
    for st in graph.stages() {
        let r = regs[st.id.index()];
        if r.is_empty() {
            continue;
        }
        for (f, pat) in &st.inputs {
            if graph.fields().role(*f) != FieldRole::Intermediate {
                continue;
            }
            let read = r.expand(pat.halo()).intersect(domain);
            debug_assert!(
                scratch[f.index()].contains_region(read),
                "tile chain read escapes the rebased scratch footprint"
            );
            let mut remaining = vec![read.intersect(scratch[f.index()])];
            for &wr in &written[f.index()] {
                remaining = subtract_all(remaining, wr);
                if remaining.is_empty() {
                    break;
                }
            }
            must_zero.extend(remaining.into_iter().map(|g| (*f, g)));
        }
        for &o in &st.outputs {
            if o != xout {
                written[o.index()].push(r);
            }
        }
    }
    TileTask {
        tile,
        stage_regions: regs,
        field_regions,
        must_zero,
        stage_extra,
    }
}

impl StepPlan {
    /// Builds the plan for `key`: partition, per-island and
    /// per-fused-step blocking, epoch tables with precomputed rank
    /// slices and window moves, window-sized persistent stores, and the
    /// coverage facts. This is the only allocating phase.
    ///
    /// # Errors
    ///
    /// Returns [`PlanBlocksError`] when an island's block does not fit
    /// the cache budget.
    ///
    /// # Panics
    ///
    /// Panics when an exchange plan asks for step fusion or tiling.
    fn build(
        problem: &MpdataProblem,
        spec: &TeamSpec,
        key: PlanKey,
    ) -> Result<Self, PlanBlocksError> {
        let domain = key.domain;
        let k = key.config.fuse_steps.max(1);
        let exchange = key.config.halo == HaloPolicy::Exchange;
        assert!(
            !exchange || (k == 1 && key.config.tile == TileMode::Off),
            "the exchange halo policy copies halos between the stages of one step: \
             it cannot fuse time steps or tile stage chains (fuse_steps must be 1 \
             and tiling off)"
        );
        let parts = key.partition.parts(domain, spec.team_count());
        let graph = problem.graph();
        let xout = problem.xout();
        let x = problem.ext().x;
        let final_stage = graph
            .stages()
            .iter()
            .position(|st| st.outputs == [xout])
            .expect("the graph ends in the advected-output stage");
        let stage_kinds: Vec<StageKind> = graph
            .stages()
            .iter()
            .map(|st| problem.kind(st.id))
            .collect();
        // Tile extents for tiled plans (`Fixed` is clamped to ≥ 1, so a
        // degenerate request still partitions the target).
        let tile_extents = match key.config.tile {
            TileMode::Off => None,
            TileMode::Auto => Some(choose_tile(graph, domain, key.config.cache_bytes)),
            TileMode::Fixed { ti, tj } => Some((ti.max(1), tj.max(1))),
        };
        // Per-stage regions a zero-overlap schedule would compute —
        // the baseline against which each epoch's redundant halo
        // recomputation is measured (indexed by `StageId::index`).
        // Fused steps before the last one are measured against the
        // same baseline: everything beyond `part ∩ region_s(domain)`
        // is recomputation some island performs anyway.
        let base_regions = graph.required_regions(domain, domain);
        // Exchange stores span each part plus this margin: the widest
        // single-stage input halo.
        let margin = graph
            .stages()
            .iter()
            .fold(Halo3::ZERO, |h, st| h.max(st.input_halo()));
        let mut teams = Vec::with_capacity(parts.len());
        let mut stores = Vec::with_capacity(parts.len());
        let mut tile_stores = Vec::with_capacity(parts.len());
        let mut out_gaps = vec![domain];
        for (t, &part) in parts.iter().enumerate() {
            let size = spec.members(t).len();
            let mut store = ParStore::new(graph.fields().len(), problem.ext());
            let mut rank_stores = Vec::new();
            let mut epochs = Vec::new();
            let mut step_bounds = vec![(0usize, 0usize); k];
            let mut xslots = None;
            let mut queues = Vec::new();
            let mut tiles: Vec<Vec<TileTask>> = Vec::new();
            let mut tile_queues = Vec::new();
            // Exchange teams with empty parts still replay (empty)
            // epochs: every team must pass every global barrier.
            if exchange || !part.is_empty() {
                let step_parts = fused_step_targets(graph, x, part, domain, k);
                if let Some((ti, tj)) = tile_extents {
                    // Tiled: cut each fused-step target into the
                    // balanced (i, j) tile grid and table the whole
                    // chain per tile; no wavefront blocking and no
                    // shared scratch.
                    for (ts, &sp) in step_parts.iter().enumerate() {
                        let mut tasks = Vec::new();
                        for tile in tile_grid(sp, (ti, tj)) {
                            let task = plan_tile(graph, xout, tile, part, domain, &base_regions);
                            // Only the last fused step writes the
                            // shared output buffer. The final-stage
                            // requirement region of a tile is the
                            // tile itself, which is what makes
                            // concurrent output writes disjoint.
                            if ts + 1 == k {
                                let written =
                                    task.stage_regions[graph.stages()[final_stage].id.index()];
                                debug_assert_eq!(written, task.tile);
                                out_gaps = subtract_all(out_gaps, written);
                            }
                            tasks.push(task);
                        }
                        if let SchedulePolicy::Dynamic { .. } = key.config.schedule {
                            tile_queues.push(ChunkQueue::new(tasks.len()));
                        }
                        tiles.push(tasks);
                    }
                    // Every rank owns a private store sized for the
                    // fattest tile of any fused step; the replay
                    // rebases it tile by tile, so the steady state
                    // allocates nothing.
                    let mut widest: Vec<Option<(FieldId, Region3)>> =
                        vec![None; graph.fields().len()];
                    for task in tiles.iter().flatten() {
                        for &(f, r) in &task.field_regions {
                            let slot = &mut widest[f.index()];
                            if slot.is_none_or(|(_, w)| w.cells() < r.cells()) {
                                *slot = Some((f, r));
                            }
                        }
                    }
                    for _ in 0..size {
                        let mut rs = ParStore::new(graph.fields().len(), problem.ext());
                        for &(f, r) in widest.iter().flatten() {
                            rs.alloc(f, r);
                        }
                        rank_stores.push(rs);
                    }
                } else {
                    // The blocks of each fused step, and for exchange
                    // plans the margin-expanded part the copies fill.
                    let mut blockings: Vec<Vec<BlockPlan>> = Vec::with_capacity(k);
                    let mut hull = Region3::empty();
                    if exchange {
                        // One block computing exactly the part; the
                        // copies fill the margin (clipped to the domain).
                        blockings.push(vec![BlockPlan {
                            output_region: part,
                            stage_regions: base_regions.iter().map(|r| r.intersect(part)).collect(),
                        }]);
                        if !part.is_empty() {
                            hull = part.expand(margin).intersect(domain);
                        }
                    } else {
                        // One wavefront blocking per fused step.
                        for &sp in &step_parts {
                            let blocking = BlockPlanner::new(key.config.cache_bytes)
                                .plan_wavefront(graph, sp, domain)?;
                            blockings.push(blocking.blocks);
                        }
                    }
                    let n_units = key.config.schedule.units_for(size);
                    for (ts, blocks) in blockings.iter().enumerate() {
                        let start = epochs.len();
                        for (b, block) in blocks.iter().enumerate() {
                            for (s, st) in graph.stages().iter().enumerate() {
                                let region = block.stage_regions[st.id.index()];
                                let is_final = st.outputs == [xout];
                                // Only the last fused step writes the
                                // shared output buffer.
                                if is_final && ts + 1 == k {
                                    out_gaps = subtract_all(out_gaps, region);
                                }
                                let units: Vec<Region3> = (0..n_units)
                                    .map(|u| rank_slice(region, key.config.split_axis, u, n_units))
                                    .collect();
                                let needed = part.intersect(base_regions[st.id.index()]);
                                let units_extra = units
                                    .iter()
                                    .map(|&mine| {
                                        (mine.cells() - mine.intersect(needed).cells()) as u64
                                    })
                                    .collect();
                                // Exchange: after every non-final stage,
                                // this team's margin pieces, one per
                                // (neighbour, output field).
                                let copies = (exchange && !is_final).then(|| {
                                    let mut pieces = Vec::new();
                                    for (o, &po) in parts.iter().enumerate() {
                                        let region = hull.intersect(po);
                                        if o == t || region.is_empty() {
                                            continue;
                                        }
                                        for &field in &st.outputs {
                                            pieces.push(CopyPiece {
                                                field,
                                                region,
                                                source: o,
                                            });
                                        }
                                    }
                                    pieces
                                });
                                epochs.push(EpochPlan {
                                    stage: s,
                                    kind: problem.kind(st.id),
                                    is_final,
                                    step: ts.min(usize::from(u16::MAX)) as u16,
                                    block: b.min(usize::from(u16::MAX)) as u16,
                                    region,
                                    units,
                                    units_extra,
                                    copies,
                                    enter: Vec::new(),
                                });
                            }
                        }
                        step_bounds[ts] = (start, epochs.len());
                    }
                    // Coverage is per fused step: each step must cover
                    // its own scratch reads, and the cells it reads
                    // before writing are zeroed as they enter a window,
                    // exactly like a fresh store.
                    let must_zero: Vec<_> = step_bounds
                        .iter()
                        .map(|&(lo, hi)| uncovered_reads(graph, &epochs[lo..hi], domain))
                        .collect();
                    for (f, window) in
                        plan_windows(graph, &mut epochs, &step_bounds, &must_zero, domain)
                    {
                        store.alloc(f, window);
                    }
                    if let SchedulePolicy::Dynamic { .. } = key.config.schedule {
                        queues = epochs
                            .iter()
                            .map(|ep| ChunkQueue::new(ep.units.len()))
                            .collect();
                    }
                }
                if k > 1 {
                    // Ping-pong x buffers between fused steps, sized to
                    // the widest (first) step: every later step writes
                    // and reads inside it.
                    xslots = Some([
                        DisjointCell::new(Array3::zeros(step_parts[0])),
                        DisjointCell::new(Array3::zeros(step_parts[0])),
                    ]);
                }
            }
            teams.push(TeamPlan {
                epochs,
                step_bounds,
                queues,
                xslots,
                tiles,
                tile_queues,
            });
            stores.push(store);
            tile_stores.push(rank_stores);
        }
        Ok(StepPlan {
            key,
            teams,
            stores,
            tile_stores,
            stage_kinds,
            final_stage,
            out_gaps,
            cur: DisjointCell::new(Array3::zeros(domain)),
            out: DisjointCell::new(Array3::zeros(domain)),
        })
    }

    /// The buffer fused step `ts`'s final stage writes: the shared
    /// output for the last fused step, the step's team-private x slot
    /// otherwise.
    fn final_dest_for<'a>(&'a self, team: &'a TeamPlan, ts: usize) -> &'a DisjointCell<Array3> {
        if ts + 1 == self.key.config.fuse_steps.max(1) {
            &self.out
        } else {
            &team.xslots.as_ref().expect("fused plans allocate x slots")[ts % 2]
        }
    }

    /// The buffer an epoch's final stage writes.
    fn final_dest<'a>(&'a self, team: &'a TeamPlan, ep: &EpochPlan) -> &'a DisjointCell<Array3> {
        self.final_dest_for(team, usize::from(ep.step))
    }

    /// Replays one fused epoch of `epoch_len ∈ 1..=k` time steps for
    /// the calling worker's team — the *last* `epoch_len` fused-step
    /// sections of the table, so a tail epoch keeps each section's halo
    /// enlargement exact. Per fused step: every `(block, stage)` epoch
    /// fenced by the team barrier, each block opened by its scratch
    /// window moves (when it has any); the team barrier
    /// ending one fused step fences its x-slot writes from the next
    /// step's reads. `base_step` numbers the trace spans, so per-step
    /// attribution survives fusion. Allocation-free in release builds —
    /// including with tracing compiled in but disabled, where every
    /// instrumentation site below reduces to one relaxed load and a
    /// branch.
    #[allow(clippy::too_many_arguments)]
    fn replay(
        &self,
        ctx: &TeamCtx,
        ext: ExtFields<'_>,
        domain: Region3,
        bc: Boundary,
        graph: &StageGraph,
        base_step: u32,
        epoch_len: usize,
    ) {
        islands_trace::set_island_rank(ctx.team as u32, ctx.rank as u32);
        if self.key.config.tile != TileMode::Off {
            return self.replay_tiled(ctx, ext, domain, bc, graph, base_step, epoch_len);
        }
        let k = self.key.config.fuse_steps.max(1);
        debug_assert!((1..=k).contains(&epoch_len));
        let first_ts = k - epoch_len;
        let team = &self.teams[ctx.team];
        let store = &self.stores[ctx.team];
        for ts in first_ts..k {
            islands_trace::set_step(base_step + (ts - first_ts) as u32);
            let (step_ext, _slot_read) = team.step_ext(ext, ts, first_ts);
            let (lo, hi) = team.step_bounds.get(ts).copied().unwrap_or((0, 0));
            match self.key.config.schedule {
                SchedulePolicy::Static => {
                    for ep in &team.epochs[lo..hi] {
                        self.enter_block(ctx, ep);
                        let st = &graph.stages()[ep.stage];
                        let dest = self.final_dest(team, ep);
                        // Static: unit index = rank, exactly one per epoch.
                        self.run_unit(ep, st, store, ctx.rank, step_ext, domain, bc, dest);
                        self.end_epoch(ctx, ep);
                    }
                }
                SchedulePolicy::Dynamic { .. } => {
                    for (ep, q) in team.epochs[lo..hi].iter().zip(&team.queues[lo..hi]) {
                        self.enter_block(ctx, ep);
                        let st = &graph.stages()[ep.stage];
                        let dest = self.final_dest(team, ep);
                        // Self-schedule: claim precomputed chunks until the
                        // epoch drains. Any claim order is race-free — the
                        // chunks are pairwise disjoint and the epoch still
                        // ends at the same team barrier.
                        while let Some(u) = q.claim() {
                            self.run_unit(ep, st, store, u, step_ext, domain, bc, dest);
                        }
                        self.end_epoch(ctx, ep);
                    }
                }
            }
        }
    }

    /// Opens a block: moves the scratch windows listed on its first
    /// epoch. The team barrier ending the previous epoch fenced every
    /// access of the old windows; the ranks split the fields (one rank
    /// moves and zeroes each), and a team barrier publishes the moves
    /// before the block's kernels run. No-op on every other epoch.
    #[inline]
    fn enter_block(&self, ctx: &TeamCtx, ep: &EpochPlan) {
        if ep.enter.is_empty() {
            return;
        }
        let store = &self.stores[ctx.team];
        let t0 = if ctx.rank < ep.enter.len() {
            islands_trace::now()
        } else {
            None
        };
        for m in ep.enter.iter().skip(ctx.rank).step_by(ctx.size) {
            store.retarget(m.field, m.window, m.keep);
            for &r in &m.zero {
                store.zero_region(m.field, r);
            }
        }
        if let Some(t0) = t0 {
            islands_trace::record(
                islands_trace::SpanKind::Refill,
                t0,
                islands_trace::now_ns(),
                ep.stage.min(usize::from(u16::MAX)) as u16,
                ep.block,
                [0; 3],
            );
        }
        ctx.team_barrier();
    }

    /// Ends an epoch. Recompute plans synchronize within the island only
    /// — the whole point of the approach. After a non-final stage of an
    /// exchange plan the islands meet at a global barrier (every
    /// neighbour has written the stage), this rank copies its stride of
    /// the team's halo pieces, and the team barrier publishes the
    /// margins to the next stage.
    #[inline]
    fn end_epoch(&self, ctx: &TeamCtx, ep: &EpochPlan) {
        if let Some(pieces) = &ep.copies {
            ctx.global_barrier();
            let t0 = if ctx.rank < pieces.len() {
                islands_trace::now()
            } else {
                None
            };
            let store = &self.stores[ctx.team];
            for p in pieces.iter().skip(ctx.rank).step_by(ctx.size) {
                store.copy_from(&self.stores[p.source], p.field, p.region);
            }
            if let Some(t0) = t0 {
                islands_trace::record(
                    islands_trace::SpanKind::Exchange,
                    t0,
                    islands_trace::now_ns(),
                    ep.stage.min(usize::from(u16::MAX)) as u16,
                    ep.block,
                    [0; 3],
                );
            }
        }
        ctx.team_barrier();
    }

    /// Tiled replay of one fused epoch: each tile of each fused-step
    /// target runs its *whole* stage chain back-to-back on the calling
    /// rank's private scratch, so intermediates stay cache-resident and
    /// the per-stage team barriers collapse to one per fused step (the
    /// barrier fences step `ts`'s x-slot and output-tile writes from
    /// step `ts+1`'s reads; the dispatch join or global barrier fences
    /// the last step). Static schedules stride tiles round-robin by
    /// rank; dynamic schedules claim tiles from the step's
    /// [`ChunkQueue`]. Allocation-free in release builds: the only
    /// per-tile bookkeeping is rebasing the rank store's arrays.
    #[allow(clippy::too_many_arguments)]
    fn replay_tiled(
        &self,
        ctx: &TeamCtx,
        ext: ExtFields<'_>,
        domain: Region3,
        bc: Boundary,
        graph: &StageGraph,
        base_step: u32,
        epoch_len: usize,
    ) {
        let k = self.key.config.fuse_steps.max(1);
        debug_assert!((1..=k).contains(&epoch_len));
        let first_ts = k - epoch_len;
        let team = &self.teams[ctx.team];
        // Empty islands allocate no rank stores (and no tiles).
        let rank_stores = &self.tile_stores[ctx.team];
        for ts in first_ts..k {
            islands_trace::set_step(base_step + (ts - first_ts) as u32);
            let (step_ext, _slot_read) = team.step_ext(ext, ts, first_ts);
            let tasks = team.tiles.get(ts).map_or(&[][..], |v| v.as_slice());
            if !tasks.is_empty() {
                let store = &rank_stores[ctx.rank];
                let dest = self.final_dest_for(team, ts);
                match self.key.config.schedule {
                    SchedulePolicy::Static => {
                        let mut n = ctx.rank;
                        while n < tasks.len() {
                            self.run_tile(&tasks[n], n, store, graph, step_ext, domain, bc, dest);
                            n += ctx.size;
                        }
                    }
                    SchedulePolicy::Dynamic { .. } => {
                        // Self-schedule whole tiles: any claim order is
                        // race-free — tiles own disjoint output regions
                        // and all scratch is rank-private.
                        let q = &team.tile_queues[ts];
                        while let Some(n) = q.claim() {
                            self.run_tile(&tasks[n], n, store, graph, step_ext, domain, bc, dest);
                        }
                    }
                }
            }
            // One team barrier per fused step (the whole synchronization
            // saving of tile fusion); the last step is fenced by the
            // caller's join or global barrier instead.
            if ts + 1 < k {
                ctx.team_barrier();
            }
        }
    }

    /// Runs one tile's whole stage chain on `store` (the calling rank's
    /// private scratch): rebase every scratch field to the tile
    /// footprint, zero the (normally empty) uncovered reads, then apply
    /// each stage over its requirement region — the final stage straight
    /// into `dest`, everything else into the rebased scratch.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn run_tile(
        &self,
        task: &TileTask,
        n: usize,
        store: &ParStore,
        graph: &StageGraph,
        ext: ExtFields<'_>,
        domain: Region3,
        bc: Boundary,
        dest: &DisjointCell<Array3>,
    ) {
        for &(f, r) in &task.field_regions {
            store.retarget(f, r, false);
        }
        for &(f, r) in &task.must_zero {
            store.zero_region(f, r);
        }
        for (s, st) in graph.stages().iter().enumerate() {
            let mine = task.stage_regions[st.id.index()];
            if mine.is_empty() {
                continue;
            }
            let t0 = islands_trace::now();
            if s == self.final_stage {
                let _wt = dest.track_write();
                // SAFETY: tiles partition the fused-step target, so
                // concurrent final-stage writes (this tile region) are
                // pairwise disjoint; earlier steps' x slots are
                // team-private.
                let out_arr = unsafe { dest.get_mut() };
                store.apply(
                    st,
                    self.stage_kinds[s],
                    domain,
                    bc,
                    mine,
                    ext,
                    Some(out_arr),
                );
            } else {
                store.apply(st, self.stage_kinds[s], domain, bc, mine, ext, None);
            }
            if let Some(t0) = t0 {
                islands_trace::record(
                    islands_trace::SpanKind::Kernel,
                    t0,
                    islands_trace::now_ns(),
                    s.min(usize::from(u16::MAX)) as u16,
                    n.min(usize::from(u16::MAX)) as u16,
                    [mine.cells() as u64, task.stage_extra[st.id.index()], 0],
                );
            }
        }
    }

    /// Executes one work unit of one epoch: the kernel over the unit's
    /// slice, routed to the scratch store or (for final stages) `dest`
    /// — the step's x output buffer — with the kernel trace span
    /// attached.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn run_unit(
        &self,
        ep: &EpochPlan,
        st: &StageDef,
        store: &ParStore,
        unit: usize,
        ext: ExtFields<'_>,
        domain: Region3,
        bc: Boundary,
        dest: &DisjointCell<Array3>,
    ) {
        let mine = ep.units[unit];
        let t0 = if mine.is_empty() {
            None
        } else {
            islands_trace::now()
        };
        if ep.is_final {
            // Final stage: write straight into the step's x output.
            // Blocks of different islands are disjoint on the shared
            // output, units split disjointly, and x slots are
            // team-private.
            if !mine.is_empty() {
                let _wt = dest.track_write();
                // SAFETY: all concurrent writers cover mutually
                // disjoint regions.
                let out_arr = unsafe { dest.get_mut() };
                store.apply(st, ep.kind, domain, bc, mine, ext, Some(out_arr));
            }
        } else {
            store.apply(st, ep.kind, domain, bc, mine, ext, None);
        }
        if let Some(t0) = t0 {
            islands_trace::record(
                islands_trace::SpanKind::Kernel,
                t0,
                islands_trace::now_ns(),
                ep.stage.min(usize::from(u16::MAX)) as u16,
                ep.block,
                [mine.cells() as u64, ep.units_extra[unit], 0],
            );
        }
    }

    /// One team sweeping the whole domain as a single untiled block per
    /// step, unfused: every stage region is then the whole domain, so
    /// periodic wrap reads land in cells the step computes too.
    fn sweeps_whole_domain(&self) -> bool {
        self.key.config.tile == TileMode::Off
            && self.key.config.fuse_steps <= 1
            && self.teams.len() == 1
            && self.teams[0].epochs.len() == self.stage_kinds.len()
    }

    /// Whether no team zeroes scratch as it enters a window: the
    /// coverage analysis proved every scratch read written first.
    #[cfg(test)]
    pub(crate) fn refill_is_empty(&self) -> bool {
        self.teams
            .iter()
            .flat_map(|t| &t.epochs)
            .flat_map(|ep| &ep.enter)
            .all(|m| m.zero.is_empty())
    }

    /// Scratch cells held by each team's store, in team order.
    #[cfg(test)]
    pub(crate) fn scratch_cells(&mut self) -> Vec<usize> {
        self.stores
            .iter_mut()
            .map(ParStore::cells_allocated)
            .collect()
    }

    /// Window moves per fused-step replay of each team, in team order.
    #[cfg(test)]
    pub(crate) fn window_moves(&self) -> Vec<usize> {
        self.teams
            .iter()
            .map(|t| t.epochs.iter().map(|ep| ep.enter.len()).sum())
            .collect()
    }

    /// Rewinds every dynamic epoch queue to full (one relaxed store
    /// per epoch; no-op for static plans). Callers must hold exclusive
    /// access or be in a barrier-fenced serial section.
    fn reset_queues(&self) {
        for team in &self.teams {
            for q in &team.queues {
                q.reset();
            }
            for q in &team.tile_queues {
                q.reset();
            }
        }
    }
}

/// Returns the cached plan when its key equals `key`, else rebuilds it
/// (dropping the stale plan first). A planning failure leaves the slot
/// empty.
///
/// # Panics
///
/// Panics when the problem has periodic boundaries and the built plan
/// is not a single whole-domain sweep (see
/// [`StepPlan::sweeps_whole_domain`]).
pub(crate) fn ensure_plan<'s>(
    slot: &'s mut Option<StepPlan>,
    problem: &MpdataProblem,
    spec: &TeamSpec,
    key: PlanKey,
) -> Result<&'s mut StepPlan, PlanBlocksError> {
    if slot.as_ref().is_none_or(|p| p.key != key) {
        *slot = None;
        let plan = StepPlan::build(problem, spec, key)?;
        assert!(
            problem.boundary() == Boundary::Open || plan.sweeps_whole_domain(),
            "this plan requires open boundaries: periodic wrap dependencies cannot be \
             expressed by box-shaped island, block or tile regions (only one team \
             sweeping the whole domain as one untiled, unfused block supports them)"
        );
        *slot = Some(plan);
    }
    Ok(slot.as_mut().expect("just ensured"))
}

/// Zeroes `region` of `arr` in place.
fn zero_region_of(arr: &mut Array3, region: Region3) {
    for i in region.i.lo..region.i.hi {
        for j in region.j.lo..region.j.hi {
            for v in arr.row_mut(i, j, region.k) {
                *v = 0.0;
            }
        }
    }
}

/// One time step through the plan cache: ensure the plan, lend it a
/// fresh zeroed output buffer, replay, and hand the buffer back. The
/// persistent `out` buffer (and its gap invariant) is untouched, so
/// `step` and `run` calls interleave freely. On a fused plan this
/// replays the one-section tail (the unenlarged last fused step), so a
/// single `step` stays bit-identical for every fuse depth.
pub(crate) fn plan_step(
    pool: &WorkerPool,
    spec: &TeamSpec,
    problem: &MpdataProblem,
    slot: &mut Option<StepPlan>,
    key: PlanKey,
    fields: &crate::fields::MpdataFields,
) -> Result<Array3, PlanBlocksError> {
    let domain = key.domain;
    let plan = ensure_plan(slot, problem, spec, key)?;
    // Rewind the self-scheduling queues before the dispatch sees them.
    plan.reset_queues();
    let mut result = Array3::zeros(domain);
    std::mem::swap(plan.out.get_mut_exclusive(), &mut result);
    let ext = ExtFields::new(fields);
    let graph = problem.graph();
    let bc = problem.boundary();
    let plan: &StepPlan = plan;
    pool.run_teams(spec, |ctx| plan.replay(&ctx, ext, domain, bc, graph, 0, 1));
    // `result` currently holds the plan's persistent buffer; swap the
    // freshly written output out and the persistent buffer back in.
    let plan = slot.as_mut().expect("ensured above");
    std::mem::swap(plan.out.get_mut_exclusive(), &mut result);
    Ok(result)
}

/// Advances `fields.x` by `steps` steps inside a *single* `run_teams`
/// dispatch: each fused epoch (k steps; the final epoch may be
/// shorter) is one replay, one global barrier, one leader-side
/// `cur`/`out` pointer swap, and one more global barrier — the paper's
/// once-per-step global synchronization, now paid once per k steps,
/// with zero heap allocations from the second step on (and none at all
/// on a plan-cache hit, beyond the pool dispatch itself).
pub(crate) fn plan_run(
    pool: &WorkerPool,
    spec: &TeamSpec,
    problem: &MpdataProblem,
    slot: &mut Option<StepPlan>,
    key: PlanKey,
    fields: &mut crate::fields::MpdataFields,
    steps: usize,
) -> Result<(), PlanBlocksError> {
    if steps == 0 {
        return Ok(());
    }
    let domain = key.domain;
    let plan = ensure_plan(slot, problem, spec, key)?;
    plan.reset_queues();
    // Lend `fields.x` to the plan's current-input slot; the plan's old
    // buffer parks in `fields.x` until the swap back below.
    std::mem::swap(&mut fields.x, plan.cur.get_mut_exclusive());
    let (u1, u2, u3, h) = (&fields.u1, &fields.u2, &fields.u3, &fields.h);
    let graph = problem.graph();
    let bc = problem.boundary();
    let k = plan.key.config.fuse_steps.max(1);
    let plan: &StepPlan = plan;
    pool.run_teams(spec, |ctx| {
        let mut done = 0usize;
        while done < steps {
            // Every worker computes the same epoch lengths, so the
            // global-barrier counts agree without coordination.
            let epoch_len = k.min(steps - done);
            {
                let _xr = plan.cur.track_read();
                let ext = ExtFields {
                    // SAFETY: between the surrounding global barriers
                    // `cur` is only read; the leader's swap below is
                    // fenced off by both barriers.
                    x: unsafe { plan.cur.get_ref() },
                    u1,
                    u2,
                    u3,
                    h,
                };
                plan.replay(&ctx, ext, domain, bc, graph, done as u32, epoch_len);
            }
            // All teams done writing `out` / reading `cur`.
            if ctx.global_barrier() {
                let t0 = islands_trace::now();
                let _wc = plan.cur.track_write();
                let _wo = plan.out.track_write();
                // SAFETY: every other worker is parked between the two
                // global barriers; the serial worker has exclusive
                // access to both buffers.
                unsafe { std::mem::swap(plan.cur.get_mut(), plan.out.get_mut()) };
                // The next epoch's output buffer is the old input: its
                // gap cells (never written by final stages) carry stale
                // values and must read as zero, like a fresh buffer.
                let out_arr = unsafe { plan.out.get_mut() };
                for &g in &plan.out_gaps {
                    zero_region_of(out_arr, g);
                }
                // Refill the self-scheduling queues for the next epoch
                // while every other worker is parked between the two
                // global barriers (the release of the second barrier
                // publishes the relaxed stores).
                plan.reset_queues();
                if let Some(t0) = t0 {
                    islands_trace::record(
                        islands_trace::SpanKind::Swap,
                        t0,
                        islands_trace::now_ns(),
                        0,
                        0,
                        [0; 3],
                    );
                }
            }
            // Publish the swap before the next epoch reads `cur`.
            ctx.global_barrier();
            done += epoch_len;
        }
    });
    let plan = slot.as_mut().expect("ensured above");
    std::mem::swap(&mut fields.x, plan.cur.get_mut_exclusive());
    Ok(())
}
