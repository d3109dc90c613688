//! # mpdata
//!
//! A full 3-D implementation of the Multidimensional Positive Definite
//! Advection Transport Algorithm (MPDATA) — donor-cell first pass plus
//! one antidiffusive corrective iteration with the non-oscillatory
//! option — decomposed into the 17 heterogeneous stencil stages studied
//! by the islands-of-cores paper (Szustak, Wyrzykowski & Jakl,
//! PaCT 2017).
//!
//! Every executor shares the same kernels and the same declared stage
//! graph, so their results are **bitwise identical** (asserted by the
//! test suite). The threaded strategies of the paper are not separate
//! executors but presets of one plan-replay engine, which builds each
//! step's block/stage/rank tables once and replays them:
//!
//! * [`ReferenceExecutor`] — serial, full-size intermediates.
//! * [`IslandsExecutor`] — the engine, and the paper's contribution:
//!   one island (work team) per processor, each running (3+1)D on its
//!   part and *recomputing* halo elements instead of communicating
//!   within a time step. Its settings are one [`PlanConfig`] (cache
//!   budget, split axis, schedule, step fusion, tiling, halo policy).
//! * the pure (3+1)D decomposition — `IslandsExecutor` with a single
//!   island spanning the pool (`TeamSpec::even(n, 1)`): cache-sized
//!   blocks, all 17 stages fused per block, all cores share each block.
//! * [`OriginalExecutor`] — the paper's "Original": a preset with one
//!   team and one whole-domain block, so every stage is a parallel
//!   sweep with intermediates in main memory.
//! * [`ExchangeExecutor`] — Fig. 1's scenario 1: a preset whose islands
//!   compute exactly their own parts and copy halos from their
//!   neighbours after every stage instead of recomputing them
//!   ([`HaloPolicy::Exchange`]).
//!
//! ## Quickstart
//!
//! ```
//! use mpdata::{gaussian_pulse, ReferenceExecutor};
//! use stencil_engine::Region3;
//!
//! let domain = Region3::of_extent(32, 16, 8);
//! let mut fields = gaussian_pulse(domain, (0.3, 0.0, 0.0));
//! fields.close_boundaries();
//! ReferenceExecutor::new().run(&mut fields, 10);
//! assert!(fields.x.min() >= 0.0); // positive definite
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod diagnostics;
mod exec;
mod fields;
mod graph;
mod islands;
mod kernels;
mod kernels_fast;
mod plan;
mod presets;
mod reference;

pub use diagnostics::{error_norms, CflViolation, ErrorNorms};
pub use exec::rank_slice;
pub use fields::{gaussian_pulse, random_fields, rotating_cone, MpdataFields, EPS};
pub use graph::{
    flops_per_cell, mpdata_graph, ExternalIds, MpdataFieldIds, MpdataProblem, StageKind,
    STAGE_COUNT, STAGE_FLOPS, STANDARD_KINDS,
};
pub use islands::IslandsExecutor;
pub use kernels::{apply_kind, apply_kind_scalar, apply_stage, Boundary};
pub use plan::{HaloPolicy, PlanConfig, SchedulePolicy, TileMode, DEFAULT_CACHE_BYTES};
pub use presets::{ExchangeExecutor, OriginalExecutor};
pub use reference::ReferenceExecutor;
