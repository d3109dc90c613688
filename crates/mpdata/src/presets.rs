//! The paper's other threaded strategies as presets of the one
//! plan-replay engine ([`IslandsExecutor`]).
//!
//! * [`OriginalExecutor`] — the parallel "original version": every
//!   stage swept over the whole domain with full-size intermediates,
//!   the work of each stage split among *all* workers of the pool. This
//!   is the baseline the paper's Table 1/3 calls *Original*: simple,
//!   memory-traffic-heavy (every intermediate round-trips through main
//!   memory) but, with parallel first-touch initialization, reasonably
//!   scalable on NUMA machines. One team spanning the pool and one
//!   whole-domain block (an unbounded cache budget), each stage split
//!   along `I`; the team barrier between stages is the inter-stage
//!   synchronization.
//! * [`ExchangeExecutor`] — Fig. 1's **scenario 1**: islands own
//!   disjoint parts and *communicate*. Every stage is computed on
//!   exactly the island's own cells, and after each stage the freshly
//!   written halo margins are copied from the neighbouring islands'
//!   stores, between a global barrier and a team barrier
//!   ([`HaloPolicy::Exchange`]). This is the strategy the
//!   islands-of-cores approach replaces with redundant computation;
//!   having both on one engine lets the tests pin them against each
//!   other bitwise and the benches weigh their synchronization costs.
//!
//! Both keep their scratch arrays across steps, like every plan replay.

use crate::fields::MpdataFields;
use crate::graph::MpdataProblem;
use crate::islands::IslandsExecutor;
use crate::plan::HaloPolicy;
use stencil_engine::{Array3, Axis, StageGraph};
use work_scheduler::{TeamSpec, WorkerPool};

/// Parallel per-stage MPDATA executor. Unlike the cache-blocked
/// configurations it also supports periodic boundaries.
///
/// # Examples
///
/// ```
/// use mpdata::{gaussian_pulse, OriginalExecutor, ReferenceExecutor};
/// use stencil_engine::Region3;
/// use work_scheduler::WorkerPool;
///
/// let pool = WorkerPool::new(4);
/// let domain = Region3::of_extent(16, 8, 8);
/// let fields = gaussian_pulse(domain, (0.2, 0.1, 0.0));
/// let par = OriginalExecutor::new(&pool).step(&fields);
/// let ser = ReferenceExecutor::new().step(&fields);
/// assert_eq!(par.max_abs_diff(&ser), 0.0); // bitwise identical
/// ```
#[derive(Debug)]
pub struct OriginalExecutor<'p> {
    engine: IslandsExecutor<'p>,
}

/// A whole-domain block has no cache budget to exceed, and an exchange
/// plan has no blocks.
const UNBOUNDED: &str = "the preset's plan has no cache-sized blocks";

impl<'p> OriginalExecutor<'p> {
    /// Creates the executor on `pool`, splitting each stage along the
    /// first dimension.
    pub fn new(pool: &'p WorkerPool) -> Self {
        Self::with_problem(pool, MpdataProblem::standard())
    }

    /// Creates the executor for an arbitrary MPDATA problem.
    pub fn with_problem(pool: &'p WorkerPool, problem: MpdataProblem) -> Self {
        let team = TeamSpec::even(pool.len(), 1);
        OriginalExecutor {
            engine: IslandsExecutor::with_problem(pool, team, Axis::I, problem)
                .cache_bytes(usize::MAX)
                .split_axis(Axis::I),
        }
    }

    /// Performs one time step and returns the advected scalar.
    pub fn step(&self, fields: &MpdataFields) -> Array3 {
        self.engine.step(fields).expect(UNBOUNDED)
    }

    /// Advances `fields.x` by `steps` time steps.
    pub fn run(&self, fields: &mut MpdataFields, steps: usize) {
        self.engine.run(fields, steps).expect(UNBOUNDED);
    }
}

/// Parallel halo-exchange (scenario 1) MPDATA executor.
///
/// # Examples
///
/// ```
/// use mpdata::{gaussian_pulse, ExchangeExecutor, ReferenceExecutor};
/// use stencil_engine::{Axis, Region3};
/// use work_scheduler::{TeamSpec, WorkerPool};
///
/// let pool = WorkerPool::new(4);
/// let domain = Region3::of_extent(24, 8, 4);
/// let fields = gaussian_pulse(domain, (0.3, 0.0, 0.0));
/// let got = ExchangeExecutor::new(&pool, TeamSpec::even(4, 2), Axis::I).step(&fields);
/// let expect = ReferenceExecutor::new().step(&fields);
/// assert!(got.bits_eq(&expect));
/// ```
#[derive(Debug)]
pub struct ExchangeExecutor<'p> {
    engine: IslandsExecutor<'p>,
}

impl<'p> ExchangeExecutor<'p> {
    /// Creates the executor: one island per team, parts cut along
    /// `partition_axis`.
    pub fn new(pool: &'p WorkerPool, teams: TeamSpec, partition_axis: Axis) -> Self {
        Self::with_problem(pool, teams, partition_axis, MpdataProblem::standard())
    }

    /// Creates the executor for an arbitrary MPDATA problem (periodic
    /// boundaries need a single island — see [`crate::Boundary`]).
    pub fn with_problem(
        pool: &'p WorkerPool,
        teams: TeamSpec,
        partition_axis: Axis,
        problem: MpdataProblem,
    ) -> Self {
        let mut engine = IslandsExecutor::with_problem(pool, teams, partition_axis, problem);
        engine.config.halo = HaloPolicy::Exchange;
        ExchangeExecutor { engine }
    }

    /// The stage graph.
    pub fn graph(&self) -> &StageGraph {
        self.engine.graph()
    }

    /// Performs one time step.
    ///
    /// # Panics
    ///
    /// Panics on a periodic problem with more than one island (wrap-around
    /// halo exchange is not expressible by box-shaped parts) and
    /// propagates worker panics.
    pub fn step(&self, fields: &MpdataFields) -> Array3 {
        self.engine.step(fields).expect(UNBOUNDED)
    }

    /// Advances `fields.x` by `steps` time steps.
    pub fn run(&self, fields: &mut MpdataFields, steps: usize) {
        self.engine.run(fields, steps).expect(UNBOUNDED);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields::{gaussian_pulse, random_fields, rotating_cone};
    use crate::reference::ReferenceExecutor;
    use stencil_engine::rng::Xoshiro256pp;
    use stencil_engine::Region3;

    #[test]
    fn matches_reference_bitwise_various_pools() {
        let d = Region3::of_extent(12, 9, 5);
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let f = random_fields(&mut rng, d, 0.7);
        let expect = ReferenceExecutor::new().step(&f);
        for workers in [1, 2, 3, 5, 8] {
            let pool = WorkerPool::new(workers);
            let got = OriginalExecutor::new(&pool).step(&f);
            assert_eq!(got.max_abs_diff(&expect), 0.0, "{workers} workers diverged");
        }
    }

    #[test]
    fn matches_reference_when_split_along_j() {
        let d = Region3::of_extent(8, 16, 4);
        let f = gaussian_pulse(d, (0.1, 0.2, 0.05));
        let expect = ReferenceExecutor::new().step(&f);
        let pool = WorkerPool::new(4);
        let exec = OriginalExecutor {
            engine: OriginalExecutor::new(&pool).engine.split_axis(Axis::J),
        };
        let got = exec.step(&f);
        assert_eq!(got.max_abs_diff(&expect), 0.0);
    }

    #[test]
    fn multi_step_run_matches_reference() {
        let d = Region3::of_extent(10, 8, 6);
        let mut f1 = rotating_cone(d, 0.3);
        let mut f2 = f1.clone();
        let pool = WorkerPool::new(3);
        OriginalExecutor::new(&pool).run(&mut f1, 4);
        ReferenceExecutor::new().run(&mut f2, 4);
        assert_eq!(f1.x.max_abs_diff(&f2.x), 0.0);
    }

    #[test]
    fn more_workers_than_slabs_is_fine() {
        let d = Region3::of_extent(3, 4, 4);
        let f = gaussian_pulse(d, (0.2, 0.0, 0.0));
        let pool = WorkerPool::new(8);
        let got = OriginalExecutor::new(&pool).step(&f);
        let expect = ReferenceExecutor::new().step(&f);
        assert_eq!(got.max_abs_diff(&expect), 0.0);
    }
}
