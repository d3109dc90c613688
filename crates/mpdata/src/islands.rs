//! The islands-of-cores executor — the paper's contribution, as real
//! threaded code, and the one plan-replay engine every threaded
//! strategy runs on.
//!
//! The domain is partitioned into one part per work team (island). Each
//! island runs the (3+1)D decomposition on its part, computing every
//! stage on the *enlarged* regions from the backward requirement
//! analysis: the handful of boundary cells whose values would otherwise
//! have to be fetched from a neighbouring island are simply recomputed
//! (the paper's "extra elements", Table 2). Within a time step islands
//! synchronize only among their own cores (team barriers between
//! stages); all islands meet once per step when the team run joins.
//!
//! The paper's other strategies are configurations of the same engine:
//! the pure (3+1)D decomposition is a single island spanning the pool
//! (`TeamSpec::even(n, 1)`), the Original version is
//! [`crate::OriginalExecutor`], a single island with one whole-domain
//! block, and scenario 1 is [`crate::ExchangeExecutor`], islands that
//! copy halos after every stage instead of recomputing them.

use crate::fields::MpdataFields;
use crate::graph::MpdataProblem;
use crate::plan::{
    plan_run, plan_step, PartitionKind, PlanConfig, PlanKey, SchedulePolicy, StepPlan, TileMode,
};
use std::sync::Mutex;
use stencil_engine::{Array3, Axis, PlanBlocksError, Region3, StageGraph};
use work_scheduler::{TeamSpec, WorkerPool};

/// Parallel islands-of-cores MPDATA executor.
///
/// # Examples
///
/// ```
/// use mpdata::{gaussian_pulse, IslandsExecutor, ReferenceExecutor};
/// use stencil_engine::{Axis, Region3};
/// use work_scheduler::{TeamSpec, WorkerPool};
///
/// let pool = WorkerPool::new(4);
/// let teams = TeamSpec::even(4, 2); // two islands of two cores
/// let domain = Region3::of_extent(24, 8, 4);
/// let fields = gaussian_pulse(domain, (0.3, 0.0, 0.0));
/// let islands = IslandsExecutor::new(&pool, teams, Axis::I)
///     .cache_bytes(64 * 1024)
///     .step(&fields)?;
/// let reference = ReferenceExecutor::new().step(&fields);
/// assert_eq!(islands.max_abs_diff(&reference), 0.0);
///
/// // The pure (3+1)D decomposition: one island spanning the pool.
/// let fused = IslandsExecutor::new(&pool, TeamSpec::even(4, 1), Axis::I)
///     .cache_bytes(64 * 1024)
///     .step(&fields)?;
/// assert_eq!(fused.max_abs_diff(&reference), 0.0);
/// # Ok::<(), stencil_engine::PlanBlocksError>(())
/// ```
#[derive(Debug)]
pub struct IslandsExecutor<'p> {
    pool: &'p WorkerPool,
    teams: TeamSpec,
    problem: MpdataProblem,
    partition: PartitionKind,
    /// Plan settings; the presets set the fields that have no setter.
    pub(crate) config: PlanConfig,
    /// Cached execution plan, rebuilt whenever its key (domain,
    /// partition, config) changes.
    plan: Mutex<Option<StepPlan>>,
}

impl<'p> IslandsExecutor<'p> {
    /// Creates the executor: one island per team of `teams`, partitioning
    /// the domain along `partition_axis`, with the
    /// [`PlanConfig::default`] settings.
    pub fn new(pool: &'p WorkerPool, teams: TeamSpec, partition_axis: Axis) -> Self {
        Self::with_problem(pool, teams, partition_axis, MpdataProblem::standard())
    }

    /// Creates the executor for an arbitrary MPDATA problem.
    pub fn with_problem(
        pool: &'p WorkerPool,
        teams: TeamSpec,
        partition_axis: Axis,
        problem: MpdataProblem,
    ) -> Self {
        IslandsExecutor {
            pool,
            teams,
            problem,
            partition: PartitionKind::Axis(partition_axis),
            config: PlanConfig::default(),
            plan: Mutex::new(None),
        }
    }

    /// Replaces the 1-D axis split with an explicit partition: one part
    /// per team, in team order (2-D island grids, uneven splits, …).
    /// Parts must disjointly cover every domain this executor is run on;
    /// [`IslandsExecutor::step`] asserts the cover per call.
    pub fn with_partition(mut self, parts: Vec<Region3>) -> Self {
        assert_eq!(
            parts.len(),
            self.teams.team_count(),
            "one part per team required"
        );
        self.partition = PartitionKind::Explicit(parts.into());
        self
    }

    /// Sets the per-block cache budget of each island (`usize::MAX`
    /// makes each island's part a single block).
    pub fn cache_bytes(mut self, bytes: usize) -> Self {
        self.config.cache_bytes = bytes;
        self
    }

    /// Sets the axis along which a team splits stage sweeps internally
    /// (default `J`).
    pub fn split_axis(mut self, axis: Axis) -> Self {
        self.config.split_axis = axis;
        self
    }

    /// Sets the intra-island schedule policy (static rank slices by
    /// default). [`SchedulePolicy::Dynamic`] is bit-identical to the
    /// static schedule — chunk boundaries, not claim order, determine
    /// every written value.
    pub fn schedule(mut self, policy: SchedulePolicy) -> Self {
        self.config.schedule = policy;
        self
    }

    /// Fuses `k` whole time steps into one replay epoch (temporal
    /// blocking): each island's per-step targets are enlarged backwards
    /// by one cumulative stencil halo per fused step, intermediate
    /// advected fields ping-pong through team-private buffers, and
    /// [`IslandsExecutor::run`] pays the global-barrier pair once per
    /// `k` steps instead of once per step. Bit-identical to `k = 1` for
    /// any step count (a trailing partial epoch replays only its last
    /// sections). Values below 1 are treated as 1.
    pub fn fuse_steps(mut self, k: usize) -> Self {
        self.config.fuse_steps = k.max(1);
        self
    }

    /// Enables cache-tiled stage fusion: each fused-step target is cut
    /// into `(i, j)` tiles sized so a tile's scratch (tile plus
    /// cumulative halo) stays cache-resident, and the whole 17-stage
    /// chain of one tile runs back-to-back on the executing rank's
    /// private scratch. Intermediates stop round-tripping through main
    /// memory and the per-stage team barriers collapse to one per fused
    /// step, at the price of redundant halo recomputation along tile
    /// faces. Bit-identical to the untiled replay for every tile size,
    /// schedule and fuse depth (the kernels are pointwise in their
    /// declared neighborhoods).
    pub fn tile(mut self, mode: TileMode) -> Self {
        self.config.tile = mode;
        self
    }

    /// The stage graph.
    pub fn graph(&self) -> &StageGraph {
        self.problem.graph()
    }

    /// The island partition of `domain`: one part per team.
    ///
    /// # Panics
    ///
    /// Panics if an explicit partition does not disjointly cover
    /// `domain`.
    pub fn partition(&self, domain: Region3) -> Vec<Region3> {
        self.partition.parts(domain, self.teams.team_count())
    }

    /// Builds (or reuses) the plan for `domain` without stepping and
    /// returns each island's scratch cells.
    #[cfg(test)]
    fn scratch_cells(&self, domain: Region3) -> Vec<usize> {
        let mut slot = self.plan.lock().unwrap_or_else(|e| e.into_inner());
        crate::plan::ensure_plan(&mut slot, &self.problem, &self.teams, self.key(domain))
            .expect("the plan fits its cache budget")
            .scratch_cells()
    }

    fn key(&self, domain: Region3) -> PlanKey {
        PlanKey {
            domain,
            partition: self.partition.clone(),
            config: self.config,
        }
    }

    /// Performs one time step.
    ///
    /// # Errors
    ///
    /// Returns [`PlanBlocksError`] when an island's block does not fit
    /// the cache budget.
    ///
    /// # Panics
    ///
    /// Panics on a periodic problem unless the plan is one island
    /// sweeping the whole domain as one untiled, unfused block.
    pub fn step(&self, fields: &MpdataFields) -> Result<Array3, PlanBlocksError> {
        let mut slot = self.plan.lock().unwrap_or_else(|e| e.into_inner());
        let key = self.key(fields.domain());
        plan_step(
            self.pool,
            &self.teams,
            &self.problem,
            &mut slot,
            key,
            fields,
        )
    }

    /// Advances `fields.x` by `steps` time steps.
    ///
    /// # Errors
    ///
    /// Returns [`PlanBlocksError`] when an island's block does not fit
    /// the cache budget.
    ///
    /// # Panics
    ///
    /// Panics on a periodic problem unless the plan is one island
    /// sweeping the whole domain as one untiled, unfused block.
    pub fn run(&self, fields: &mut MpdataFields, steps: usize) -> Result<(), PlanBlocksError> {
        let mut slot = self.plan.lock().unwrap_or_else(|e| e.into_inner());
        let key = self.key(fields.domain());
        plan_run(
            self.pool,
            &self.teams,
            &self.problem,
            &mut slot,
            key,
            fields,
            steps,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields::{gaussian_pulse, random_fields, rotating_cone};
    use crate::plan::HaloPolicy;
    use crate::reference::ReferenceExecutor;
    use stencil_engine::rng::Xoshiro256pp;
    use stencil_engine::BlockPlanner;

    /// Self-scheduling with `chunks_per_rank` chunks per rank.
    fn dynamic(chunks_per_rank: usize) -> SchedulePolicy {
        SchedulePolicy::Dynamic { chunks_per_rank }
    }

    /// `exec` under the exchange halo policy (scenario 1): the
    /// `ExchangeExecutor` preset's configuration, here also on explicit
    /// partitions and dynamic schedules the preset does not expose.
    fn exchanging(mut exec: IslandsExecutor<'_>) -> IslandsExecutor<'_> {
        exec.config.halo = HaloPolicy::Exchange;
        exec
    }

    /// One step of an exchange executor, pinning that its plan never
    /// re-zeroes scratch: the copies cover every margin read.
    fn exchange_step(exec: &IslandsExecutor<'_>, f: &MpdataFields) -> Array3 {
        let got = exec.step(f).unwrap();
        let slot = exec.plan.lock().unwrap();
        assert!(
            slot.as_ref().unwrap().refill_is_empty(),
            "exchange plan refills"
        );
        got
    }

    #[test]
    fn matches_reference_bitwise_variant_a() {
        // One island ((3+1)D) across block sizes from many blocks to
        // one, then the multi-island shapes — each of those also under
        // halo exchange, which must equal both the reference and the
        // recomputing islands.
        let d = Region3::of_extent(24, 9, 5);
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let f = random_fields(&mut rng, d, 0.7);
        let expect = ReferenceExecutor::new().step(&f);
        for (workers, teams, cache) in [
            (3, 1, 64 * 1024),
            (3, 1, 256 * 1024),
            (3, 1, 16 << 20),
            (2, 2, 64 * 1024),
            (4, 2, 64 * 1024),
            (6, 3, 64 * 1024),
            (8, 4, 64 * 1024),
        ] {
            let pool = WorkerPool::new(workers);
            let spec = TeamSpec::even(workers, teams);
            let exec = IslandsExecutor::new(&pool, spec, Axis::I).cache_bytes(cache);
            let got = exec.step(&f).unwrap();
            assert!(
                got.bits_eq(&expect),
                "{workers} workers / {teams} islands / cache {cache} diverged"
            );
            if teams > 1 {
                let exchanged = exchange_step(&exchanging(exec), &f);
                assert!(
                    exchanged.bits_eq(&got),
                    "{workers} workers / {teams} exchange islands diverged"
                );
            }
        }
    }

    #[test]
    fn matches_reference_bitwise_variant_b() {
        let d = Region3::of_extent(12, 18, 4);
        let f = gaussian_pulse(d, (0.2, 0.2, 0.0));
        let expect = ReferenceExecutor::new().step(&f);
        let pool = WorkerPool::new(6);
        let exec =
            IslandsExecutor::new(&pool, TeamSpec::even(6, 3), Axis::J).cache_bytes(48 * 1024);
        let got = exec.step(&f).unwrap();
        assert!(got.bits_eq(&expect));
        assert!(exchange_step(&exchanging(exec), &f).bits_eq(&expect));
    }

    #[test]
    fn multi_step_matches_reference() {
        let d = Region3::of_extent(20, 10, 4);
        let mut expect = rotating_cone(d, 0.25);
        ReferenceExecutor::new().run(&mut expect, 3);
        let pool = WorkerPool::new(4);
        for teams in [2, 1] {
            // Scenario 1 (exchange) and scenario 2 (recompute) must
            // agree exactly — the paper's two parallelizations of the
            // same computation.
            for exchange in [false, true] {
                let mut f = rotating_cone(d, 0.25);
                let exec = IslandsExecutor::new(&pool, TeamSpec::even(4, teams), Axis::I)
                    .cache_bytes(48 * 1024);
                let exec = if exchange { exchanging(exec) } else { exec };
                exec.run(&mut f, 3).unwrap();
                assert!(
                    f.x.bits_eq(&expect.x),
                    "{teams} islands, exchange={exchange}"
                );
            }
        }
    }

    #[test]
    fn single_island_equals_fused() {
        // (3+1)D is one island spanning the pool: cache-sized blocks,
        // a single whole-domain block and the Original preset must
        // agree with each other and with the multi-island plan.
        let d = Region3::of_extent(16, 8, 4);
        let f = gaussian_pulse(d, (0.3, 0.0, 0.0));
        let pool = WorkerPool::new(4);
        let islands = IslandsExecutor::new(&pool, TeamSpec::even(4, 2), Axis::I)
            .cache_bytes(64 * 1024)
            .step(&f)
            .unwrap();
        let one_island = IslandsExecutor::new(&pool, TeamSpec::even(4, 1), Axis::I);
        let blocking = BlockPlanner::new(crate::DEFAULT_CACHE_BYTES)
            .plan(one_island.graph(), d, d)
            .unwrap();
        assert_eq!(blocking.len(), 1, "the default budget holds the domain");
        let single_block = one_island.step(&f).unwrap();
        let fused = one_island.cache_bytes(64 * 1024).step(&f).unwrap();
        let original = crate::OriginalExecutor::new(&pool).step(&f);
        assert_eq!(islands.max_abs_diff(&fused), 0.0);
        assert_eq!(single_block.max_abs_diff(&fused), 0.0);
        assert_eq!(original.max_abs_diff(&fused), 0.0);
        assert_eq!(fused.max_abs_diff(&ReferenceExecutor::new().step(&f)), 0.0);
    }

    #[test]
    fn explicit_2d_partition_matches_reference() {
        // A 2×2 island grid — the paper's future-work shape — executed
        // with real threads.
        let d = Region3::of_extent(16, 16, 4);
        let f = gaussian_pulse(d, (0.2, 0.2, 0.0));
        let expect = ReferenceExecutor::new().step(&f);
        let pool = WorkerPool::new(4);
        let mut parts = Vec::new();
        for half_i in d.split(Axis::I, 2) {
            parts.extend(half_i.split(Axis::J, 2));
        }
        let exec = IslandsExecutor::new(&pool, TeamSpec::even(4, 4), Axis::I)
            .with_partition(parts)
            .cache_bytes(64 * 1024);
        assert!(exec.step(&f).unwrap().bits_eq(&expect));
        // Under exchange, each island's corner margin cells belong to
        // its diagonal neighbour: a copy table without diagonal pieces
        // would leave them zero.
        assert!(exchange_step(&exchanging(exec), &f).bits_eq(&expect));
    }

    #[test]
    #[should_panic]
    fn explicit_partition_must_cover_domain() {
        let d = Region3::of_extent(8, 8, 4);
        let f = gaussian_pulse(d, (0.1, 0.0, 0.0));
        let pool = WorkerPool::new(2);
        let half = d.split(Axis::I, 2)[0];
        let _ = IslandsExecutor::new(&pool, TeamSpec::even(2, 2), Axis::I)
            .with_partition(vec![half, half]) // overlapping, not covering
            .step(&f);
    }

    #[test]
    fn self_schedule_matches_reference_bitwise() {
        // Dynamic claiming must not change a single bit: the chunk
        // regions, not the claim order, determine every written value.
        let d = Region3::of_extent(24, 9, 5);
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let f = random_fields(&mut rng, d, 0.7);
        let expect = ReferenceExecutor::new().step(&f);
        for (teams, chunks, exchange) in [
            (2, 1, false),
            (2, 2, false),
            (2, 4, false),
            (1, 3, false),
            (2, 3, true),
            (4, 2, true),
        ] {
            let pool = WorkerPool::new(4);
            let exec = IslandsExecutor::new(&pool, TeamSpec::even(4, teams), Axis::I)
                .cache_bytes(64 * 1024)
                .schedule(dynamic(chunks));
            let got = if exchange {
                exchange_step(&exchanging(exec), &f)
            } else {
                exec.step(&f).unwrap()
            };
            assert!(
                got.bits_eq(&expect),
                "{teams} islands, dynamic({chunks}), exchange={exchange} diverged"
            );
        }
    }

    #[test]
    fn self_schedule_multi_step_matches_reference() {
        let d = Region3::of_extent(20, 10, 4);
        let mut f1 = rotating_cone(d, 0.25);
        let mut f2 = f1.clone();
        let pool = WorkerPool::new(4);
        IslandsExecutor::new(&pool, TeamSpec::even(4, 2), Axis::I)
            .cache_bytes(48 * 1024)
            .schedule(dynamic(3))
            .run(&mut f1, 4)
            .unwrap();
        ReferenceExecutor::new().run(&mut f2, 4);
        assert_eq!(f1.x.max_abs_diff(&f2.x), 0.0);
    }

    #[test]
    fn balanced_nonuniform_partition_matches_reference() {
        // Cost-model cuts produce unequal slab widths; any disjoint
        // cover must stay bitwise exact, statically and dynamically.
        let d = Region3::of_extent(30, 10, 4);
        let f = gaussian_pulse(d, (0.2, 0.1, 0.0));
        let expect = ReferenceExecutor::new().step(&f);
        let pool = WorkerPool::new(4);
        let problem = MpdataProblem::standard();
        let model = stencil_engine::CostModel::from_graph(problem.graph());
        let parts = stencil_engine::balanced_cuts(problem.graph(), d, d, Axis::I, 4, &model);
        let widths: Vec<usize> = parts.iter().map(|p| p.i.len()).collect();
        assert!(
            widths.iter().any(|&w| w != widths[0]),
            "cuts unexpectedly uniform: {widths:?}"
        );
        for self_scheduled in [false, true] {
            let exec = IslandsExecutor::new(&pool, TeamSpec::even(4, 4), Axis::I)
                .with_partition(parts.clone())
                .cache_bytes(64 * 1024);
            let exec = if self_scheduled {
                exec.schedule(dynamic(2))
            } else {
                exec
            };
            let got = exec.step(&f).unwrap();
            assert_eq!(
                got.max_abs_diff(&expect),
                0.0,
                "self_scheduled={self_scheduled} diverged"
            );
        }
    }

    #[test]
    fn one_cell_wide_island_matches_reference() {
        // Degenerate non-uniform partition: a single-plane island next
        // to a fat one.
        let d = Region3::of_extent(17, 8, 4);
        let f = gaussian_pulse(d, (0.2, 0.0, 0.0));
        let expect = ReferenceExecutor::new().step(&f);
        let pool = WorkerPool::new(2);
        let thin = d.with_range(Axis::I, stencil_engine::Range1::new(0, 1));
        let fat = d.with_range(Axis::I, stencil_engine::Range1::new(1, 17));
        let got = IslandsExecutor::new(&pool, TeamSpec::even(2, 2), Axis::I)
            .with_partition(vec![thin, fat])
            .cache_bytes(64 * 1024)
            .step(&f)
            .unwrap();
        assert_eq!(got.max_abs_diff(&expect), 0.0);
    }

    #[test]
    fn fused_epochs_match_reference_bitwise() {
        // Temporal blocking must not change a single bit: every fused
        // step computes the same kernels over (enlarged) regions, and
        // region shape never enters the arithmetic of a cell.
        let d = Region3::of_extent(20, 10, 4);
        let mut expect = rotating_cone(d, 0.25);
        ReferenceExecutor::new().run(&mut expect, 8);
        for (teams, k) in [(2, 2), (2, 3), (2, 4), (1, 2), (1, 3)] {
            let mut f = rotating_cone(d, 0.25);
            let pool = WorkerPool::new(4);
            IslandsExecutor::new(&pool, TeamSpec::even(4, teams), Axis::I)
                .cache_bytes(48 * 1024)
                .fuse_steps(k)
                .run(&mut f, 8)
                .unwrap();
            assert_eq!(
                f.x.max_abs_diff(&expect.x),
                0.0,
                "{teams} islands, fuse_steps({k}) diverged"
            );
        }
    }

    #[test]
    fn fused_remainder_steps_match_reference() {
        // steps not divisible by k: the trailing partial epoch replays
        // only the last sections of the table.
        let d = Region3::of_extent(18, 9, 4);
        let mut expect = rotating_cone(d, 0.2);
        ReferenceExecutor::new().run(&mut expect, 7);
        let mut f = rotating_cone(d, 0.2);
        let pool = WorkerPool::new(4);
        IslandsExecutor::new(&pool, TeamSpec::even(4, 2), Axis::I)
            .cache_bytes(48 * 1024)
            .fuse_steps(3)
            .run(&mut f, 7)
            .unwrap();
        assert_eq!(f.x.max_abs_diff(&expect.x), 0.0);
    }

    #[test]
    fn fused_single_step_matches_reference() {
        // `step` on a fused plan replays the one-section tail — the
        // unenlarged last fused step — so it must equal k = 1 exactly.
        let d = Region3::of_extent(24, 9, 5);
        let mut rng = Xoshiro256pp::seed_from_u64(17);
        let f = random_fields(&mut rng, d, 0.7);
        let expect = ReferenceExecutor::new().step(&f);
        let pool = WorkerPool::new(4);
        let got = IslandsExecutor::new(&pool, TeamSpec::even(4, 2), Axis::I)
            .cache_bytes(64 * 1024)
            .fuse_steps(3)
            .step(&f)
            .unwrap();
        assert_eq!(got.max_abs_diff(&expect), 0.0);
    }

    #[test]
    fn fused_self_schedule_matches_reference() {
        // Fusion × self-scheduling: chunk claim order stays irrelevant
        // inside every fused step.
        let d = Region3::of_extent(20, 10, 4);
        let mut expect = rotating_cone(d, 0.25);
        ReferenceExecutor::new().run(&mut expect, 6);
        let mut f = rotating_cone(d, 0.25);
        let pool = WorkerPool::new(4);
        IslandsExecutor::new(&pool, TeamSpec::even(4, 2), Axis::I)
            .cache_bytes(48 * 1024)
            .schedule(dynamic(3))
            .fuse_steps(2)
            .run(&mut f, 6)
            .unwrap();
        assert_eq!(f.x.max_abs_diff(&expect.x), 0.0);
    }

    #[test]
    fn fused_explicit_partition_matches_reference() {
        // Fusion over a 2×2 island grid: the backward halo enlargement
        // is per-part, not per-axis.
        let d = Region3::of_extent(16, 16, 4);
        let mut expect = gaussian_pulse(d, (0.2, 0.2, 0.0));
        ReferenceExecutor::new().run(&mut expect, 5);
        let mut f = gaussian_pulse(d, (0.2, 0.2, 0.0));
        let pool = WorkerPool::new(4);
        let mut parts = Vec::new();
        for half_i in d.split(Axis::I, 2) {
            parts.extend(half_i.split(Axis::J, 2));
        }
        IslandsExecutor::new(&pool, TeamSpec::even(4, 4), Axis::I)
            .with_partition(parts)
            .cache_bytes(64 * 1024)
            .fuse_steps(2)
            .run(&mut f, 5)
            .unwrap();
        assert_eq!(f.x.max_abs_diff(&expect.x), 0.0);
    }

    #[test]
    fn fused_interleaves_with_unfused_runs() {
        // Changing the fuse depth mid-flight must replan (PlanKey keys
        // on k) and stay exact.
        let d = Region3::of_extent(16, 8, 4);
        let mut expect = rotating_cone(d, 0.2);
        ReferenceExecutor::new().run(&mut expect, 6);
        let mut f = rotating_cone(d, 0.2);
        let pool = WorkerPool::new(4);
        let exec = IslandsExecutor::new(&pool, TeamSpec::even(4, 2), Axis::I)
            .cache_bytes(48 * 1024)
            .fuse_steps(3);
        exec.run(&mut f, 3).unwrap();
        exec.run(&mut f, 3).unwrap();
        assert_eq!(f.x.max_abs_diff(&expect.x), 0.0);
    }

    #[test]
    fn tiled_matches_reference_bitwise_across_tile_sizes() {
        // Tile fusion must not change a single bit: per-stage tile
        // regions come from the same backward requirement analysis as
        // blocks, and region shape never enters a cell's arithmetic.
        // Sweep 1-wide slivers, prime extents, tiles larger than the
        // whole part, and the cache-driven auto sizer — on two islands
        // and on one island tiling the whole domain. Unlike the
        // wavefront planner, the tile sizer degrades to 1×1 tiles on a
        // tiny cache instead of erroring: halo recompute explodes but
        // the result stays exact.
        let d = Region3::of_extent(23, 11, 5);
        let mut rng = Xoshiro256pp::seed_from_u64(23);
        let f = random_fields(&mut rng, d, 0.7);
        let expect = ReferenceExecutor::new().step(&f);
        let pool = WorkerPool::new(4);
        let cases = [
            (2, 64 * 1024, TileMode::Fixed { ti: 1, tj: 1 }),
            (2, 64 * 1024, TileMode::Fixed { ti: 1, tj: 64 }),
            (2, 64 * 1024, TileMode::Fixed { ti: 64, tj: 1 }),
            (2, 64 * 1024, TileMode::Fixed { ti: 3, tj: 5 }),
            (2, 64 * 1024, TileMode::Fixed { ti: 64, tj: 64 }),
            (2, 64 * 1024, TileMode::Auto),
            (1, 64 * 1024, TileMode::Fixed { ti: 4, tj: 4 }),
            (1, 64 * 1024, TileMode::Fixed { ti: 1, tj: 7 }),
            (1, 64 * 1024, TileMode::Auto),
            (1, 1024, TileMode::Auto),
        ];
        for (teams, cache, mode) in cases {
            let got = IslandsExecutor::new(&pool, TeamSpec::even(4, teams), Axis::I)
                .cache_bytes(cache)
                .tile(mode)
                .step(&f)
                .unwrap();
            assert_eq!(
                got.max_abs_diff(&expect),
                0.0,
                "{teams} islands, cache {cache}, {mode:?} diverged"
            );
        }
    }

    #[test]
    fn tiled_fused_epochs_match_reference_bitwise() {
        // Tiling × temporal blocking: tiles partition each enlarged
        // fused-step target and the x slots ping-pong exactly as in the
        // untiled replay.
        let d = Region3::of_extent(20, 10, 4);
        let mut expect = rotating_cone(d, 0.25);
        ReferenceExecutor::new().run(&mut expect, 7);
        for (teams, k) in [(2, 2), (2, 3), (1, 2)] {
            for mode in [TileMode::Fixed { ti: 4, tj: 3 }, TileMode::Auto] {
                let mut f = rotating_cone(d, 0.25);
                let pool = WorkerPool::new(4);
                IslandsExecutor::new(&pool, TeamSpec::even(4, teams), Axis::I)
                    .cache_bytes(48 * 1024)
                    .fuse_steps(k)
                    .tile(mode)
                    .run(&mut f, 7)
                    .unwrap();
                assert_eq!(
                    f.x.max_abs_diff(&expect.x),
                    0.0,
                    "{teams} islands, fuse_steps({k}) × {mode:?} diverged"
                );
            }
        }
    }

    #[test]
    fn tiled_self_schedule_matches_reference_bitwise() {
        // Dynamic tile claiming: the claim order is irrelevant — tiles
        // own disjoint output regions and all scratch is rank-private.
        let d = Region3::of_extent(24, 9, 5);
        let mut rng = Xoshiro256pp::seed_from_u64(31);
        let f = random_fields(&mut rng, d, 0.7);
        let expect = ReferenceExecutor::new().step(&f);
        for chunks in [1, 3] {
            let pool = WorkerPool::new(4);
            let got = IslandsExecutor::new(&pool, TeamSpec::even(4, 2), Axis::I)
                .cache_bytes(64 * 1024)
                .schedule(dynamic(chunks))
                .tile(TileMode::Fixed { ti: 5, tj: 4 })
                .step(&f)
                .unwrap();
            assert_eq!(
                got.max_abs_diff(&expect),
                0.0,
                "dynamic({chunks}) tiled diverged"
            );
        }
    }

    #[test]
    fn tiled_dynamic_fused_multi_step_matches_reference() {
        // The full composition: tiling × self-scheduling × temporal
        // blocking × a step count that leaves a partial tail epoch.
        let d = Region3::of_extent(20, 10, 4);
        let mut expect = rotating_cone(d, 0.25);
        ReferenceExecutor::new().run(&mut expect, 7);
        let mut f = rotating_cone(d, 0.25);
        let pool = WorkerPool::new(4);
        IslandsExecutor::new(&pool, TeamSpec::even(4, 2), Axis::I)
            .cache_bytes(48 * 1024)
            .schedule(dynamic(2))
            .fuse_steps(3)
            .tile(TileMode::Fixed { ti: 3, tj: 4 })
            .run(&mut f, 7)
            .unwrap();
        assert_eq!(f.x.max_abs_diff(&expect.x), 0.0);
    }

    #[test]
    fn tiled_more_islands_than_slabs_still_correct() {
        // Empty parts get empty tile tables and still synchronize
        // consistently.
        let d = Region3::of_extent(5, 6, 4);
        let f = gaussian_pulse(d, (0.2, 0.1, 0.0));
        let pool = WorkerPool::new(8);
        let got = IslandsExecutor::new(&pool, TeamSpec::even(8, 8), Axis::I)
            .cache_bytes(64 * 1024)
            .tile(TileMode::Fixed { ti: 2, tj: 2 })
            .step(&f)
            .unwrap();
        let expect = ReferenceExecutor::new().step(&f);
        assert_eq!(got.max_abs_diff(&expect), 0.0);
    }

    #[test]
    #[should_panic(expected = "open boundaries")]
    fn tiled_periodic_boundaries_still_rejected() {
        // Tiling keeps the box-shaped requirement analysis, so the
        // periodic rejection contract is unchanged.
        let d = Region3::of_extent(12, 8, 4);
        let f = gaussian_pulse(d, (0.2, 0.0, 0.0));
        let pool = WorkerPool::new(2);
        let problem = MpdataProblem::standard().with_boundary(crate::kernels::Boundary::Periodic);
        let _ = IslandsExecutor::with_problem(&pool, TeamSpec::even(2, 2), Axis::I, problem)
            .tile(TileMode::Auto)
            .step(&f);
    }

    #[test]
    fn more_islands_than_slabs_still_correct() {
        // Surplus islands own empty parts. Under exchange they must
        // still pass every per-stage global barrier, or the run hangs.
        for (islands, width, exchange) in [(8, 5, false), (6, 3, true)] {
            let d = Region3::of_extent(width, 8, 4);
            let f = gaussian_pulse(d, (0.2, 0.1, 0.0));
            let pool = WorkerPool::new(islands);
            let exec = IslandsExecutor::new(&pool, TeamSpec::even(islands, islands), Axis::I)
                .cache_bytes(64 * 1024);
            let got = if exchange {
                exchange_step(&exchanging(exec), &f)
            } else {
                exec.step(&f).unwrap()
            };
            let expect = ReferenceExecutor::new().step(&f);
            assert!(
                got.bits_eq(&expect),
                "{islands} islands, exchange={exchange}"
            );
        }
    }

    #[test]
    fn sliding_windows_match_reference_bitwise() {
        // Multi-block islands slide every scratch window from block to
        // block: fused epochs (7 steps leave a remainder tail for both
        // depths), 2-rank teams under both schedules, variant B and the
        // explicit 2×2 grid must all stay bit-identical.
        let d = Region3::of_extent(30, 8, 4);
        let pool = WorkerPool::new(4);
        // Budgets that cut every island into at least three blocks.
        let islands = |teams: usize, axis: Axis| {
            let cache = if teams == 4 { 6 << 10 } else { 12 << 10 };
            IslandsExecutor::new(&pool, TeamSpec::even(4, teams), axis).cache_bytes(cache)
        };
        let grid: Vec<Region3> = d
            .split(Axis::I, 2)
            .into_iter()
            .flat_map(|half| half.split(Axis::J, 2))
            .collect();
        for (label, exec, steps) in [
            ("fuse 2", islands(2, Axis::I).fuse_steps(2), 7),
            ("fuse 3", islands(2, Axis::I).fuse_steps(3), 7),
            ("2-rank static", islands(2, Axis::I), 3),
            (
                "2-rank dynamic",
                islands(2, Axis::I).schedule(dynamic(2)),
                3,
            ),
            ("variant B", islands(2, Axis::J), 3),
            ("2x2 grid", islands(4, Axis::I).with_partition(grid), 3),
        ] {
            let mut expect = rotating_cone(d, 0.25);
            ReferenceExecutor::new().run(&mut expect, steps);
            let mut f = rotating_cone(d, 0.25);
            exec.run(&mut f, steps).unwrap();
            assert!(f.x.bits_eq(&expect.x), "{label} diverged");
            for part in exec.partition(d) {
                let blocks = BlockPlanner::new(exec.config.cache_bytes)
                    .plan_wavefront(exec.graph(), part, d)
                    .unwrap();
                assert!(blocks.len() >= 3, "{label}: {part:?} has {}", blocks.len());
            }
            let slot = exec.plan.lock().unwrap();
            let moves = slot.as_ref().unwrap().window_moves();
            assert!(moves.iter().all(|&m| m > 0), "{label}: moves {moves:?}");
        }
    }

    /// Scratch cells of each island's hull-sized store: every scratch
    /// field over the hull of the island's wavefront blocks.
    fn hull_cells(exec: &IslandsExecutor<'_>, cache: usize, domain: Region3) -> Vec<usize> {
        let graph = exec.graph();
        let scratch = (0..graph.fields().len())
            .filter(|&f| {
                graph.fields().role(stencil_engine::FieldId(f as u32))
                    == stencil_engine::FieldRole::Intermediate
            })
            .count();
        exec.partition(domain)
            .into_iter()
            .map(|part| {
                let blocking = BlockPlanner::new(cache)
                    .plan_wavefront(graph, part, domain)
                    .unwrap();
                scratch * blocking.hull().cells()
            })
            .collect()
    }

    #[test]
    fn sliding_windows_shrink_island_scratch() {
        // The paper domain under the library defaults: each island's
        // windows hold at most a quarter of the hull-sized scratch,
        // while Original's single whole-domain block keeps it all.
        let d = Region3::of_extent(256, 256, 64);
        let pool = WorkerPool::new(2);
        let islands = IslandsExecutor::new(&pool, TeamSpec::even(2, 2), Axis::I);
        let windows = islands.scratch_cells(d);
        let hulls = hull_cells(&islands, crate::DEFAULT_CACHE_BYTES, d);
        assert_eq!(windows.len(), 2);
        for (w, h) in windows.iter().zip(&hulls) {
            assert!(4 * w <= *h, "island scratch {w} cells vs hull-sized {h}");
        }
        let original = IslandsExecutor::new(&pool, TeamSpec::even(2, 1), Axis::I)
            .cache_bytes(usize::MAX)
            .split_axis(Axis::I);
        assert_eq!(
            original.scratch_cells(d),
            hull_cells(&original, usize::MAX, d)
        );
    }

    #[test]
    #[should_panic(expected = "exchange halo policy")]
    fn exchange_rejects_step_fusion() {
        let d = Region3::of_extent(12, 8, 4);
        let f = gaussian_pulse(d, (0.2, 0.0, 0.0));
        let pool = WorkerPool::new(2);
        let exec = IslandsExecutor::new(&pool, TeamSpec::even(2, 2), Axis::I).fuse_steps(2);
        let _ = exchanging(exec).step(&f);
    }
}
