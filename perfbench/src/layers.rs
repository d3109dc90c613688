//! Per-layer measurements for the traced run that are taken outside the
//! workload's interval loop: the 17 stage kernels in isolation, the
//! scheduler's dispatch and barrier costs, and the plan's computed-cell
//! and traffic models.

use crate::host::{on_workers, WORKERS};
use crate::workload::{Strategy, Workload};
use islands_core::{Partition, Variant};
use mpdata::{apply_stage, rank_slice, MpdataFields, MpdataProblem, STAGE_FLOPS};
use std::time::Instant;
use stencil_engine::{
    staged_traffic_bytes, tile_grid, tiled_traffic_bytes, Array3, Axis, Region3, StageGraph,
};
use work_scheduler::{TeamSpec, WorkerPool};

/// Stage kernels timed in isolation over a workload's domain.
pub struct KernelTimes {
    /// `(stage name, ns per computed cell)` in stage order.
    pub per_stage: Vec<(String, f64)>,
    /// Seconds for all stages over the domain, one pass.
    pub total_s: f64,
    pub total_ns_per_cell: f64,
    pub gflops: f64,
}

/// Least time one timing trial of a stage should take.
const TRIAL_S: f64 = 0.02;
const TRIALS: usize = 3;

/// Times every stage's `apply_stage` over its region of `domain` on
/// [`WORKERS`] threads, each sweeping its own `I` slice into private
/// outputs. The inputs of each stage are the real values the previous
/// stages produce from `fields` (computed once, untimed); a field is
/// dropped after its last reader.
pub fn kernels(fields: &MpdataFields) -> KernelTimes {
    let domain = fields.domain();
    let problem = MpdataProblem::standard();
    let graph = problem.graph();
    let ext = problem.ext();
    let regions = graph.required_regions(domain, domain);
    let mut store: Vec<Option<Array3>> = vec![None; graph.fields().len()];
    for (id, a) in [
        (ext.x, &fields.x),
        (ext.u1, &fields.u1),
        (ext.u2, &fields.u2),
        (ext.u3, &fields.u3),
        (ext.h, &fields.h),
    ] {
        store[id.index()] = Some(a.clone());
    }
    let mut last_reader = vec![usize::MAX; store.len()];
    for (n, st) in graph.stages().iter().enumerate() {
        for (f, _) in &st.inputs {
            last_reader[f.index()] = n;
        }
    }
    let (mut per_stage, mut total_s, mut flops) = (Vec::new(), 0.0, 0.0);
    for (n, st) in graph.stages().iter().enumerate() {
        let region = regions[n];
        let produced = {
            let inputs: Vec<&Array3> = st
                .inputs
                .iter()
                .map(|(f, _)| {
                    store[f.index()]
                        .as_ref()
                        .expect("stage input produced earlier")
                })
                .collect();
            let mut outs: Vec<Array3> = st.outputs.iter().map(|_| Array3::zeros(region)).collect();
            let t0 = Instant::now();
            apply_stage(
                n,
                domain,
                &inputs,
                &mut outs.iter_mut().collect::<Vec<_>>(),
                region,
            );
            let serial_s = t0.elapsed().as_secs_f64();
            let reps =
                ((TRIAL_S * WORKERS as f64 / serial_s.max(1e-9)).ceil() as usize).clamp(1, 10_000);
            let mut slices: Vec<(Region3, Vec<Array3>)> = (0..WORKERS)
                .map(|t| {
                    let s = rank_slice(region, Axis::I, t, WORKERS);
                    (s, st.outputs.iter().map(|_| Array3::zeros(s)).collect())
                })
                .collect();
            let mut trials: Vec<f64> = (0..TRIALS)
                .map(|_| {
                    on_workers(&mut slices, |_, (s, outs)| {
                        for _ in 0..reps {
                            let mut refs: Vec<&mut Array3> = outs.iter_mut().collect();
                            apply_stage(n, domain, &inputs, &mut refs, *s);
                        }
                    }) / reps as f64
                })
                .collect();
            trials.sort_by(f64::total_cmp);
            let secs = trials[TRIALS / 2];
            per_stage.push((st.name.clone(), secs * 1e9 / region.cells().max(1) as f64));
            total_s += secs;
            flops += STAGE_FLOPS[n] * region.cells() as f64;
            outs
        };
        for (&f, a) in st.outputs.iter().zip(produced) {
            store[f.index()] = Some(a);
        }
        for (f, slot) in store.iter_mut().enumerate() {
            if last_reader[f] == n {
                *slot = None;
            }
        }
    }
    KernelTimes {
        per_stage,
        total_s,
        total_ns_per_cell: total_s * 1e9 / domain.cells() as f64,
        gflops: flops / total_s / 1e9,
    }
}

/// Median cost of one no-op `broadcast` to every worker, µs.
pub fn dispatch_us(pool: &WorkerPool) -> f64 {
    const CALLS: usize = 200;
    let mut batches: Vec<f64> = (0..15)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..CALLS {
                pool.broadcast(|_| {});
            }
            t0.elapsed().as_secs_f64() * 1e6 / CALLS as f64
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[batches.len() / 2]
}

/// Median cost of one global-barrier crossing inside one `run_teams`
/// dispatch under `spec`, µs (the dispatch itself is amortized over the
/// crossings).
pub fn barrier_us(pool: &WorkerPool, spec: &TeamSpec) -> f64 {
    const CROSSINGS: usize = 20_000;
    let mut trials: Vec<f64> = (0..7)
        .map(|_| {
            let t0 = Instant::now();
            pool.run_teams(spec, |ctx| {
                for _ in 0..CROSSINGS {
                    ctx.global_barrier();
                }
            });
            t0.elapsed().as_secs_f64() * 1e6 / CROSSINGS as f64
        })
        .collect();
    trials.sort_by(f64::total_cmp);
    trials[trials.len() / 2]
}

/// The plan's work and traffic, computed from the public region algebra
/// (never measured).
pub struct PlanModel {
    /// Cells the reference computes per step over cells the workload's
    /// plan computes per step, island and tile halo recompute included.
    pub useful_cell_frac: f64,
    /// Modeled main-memory bytes per step: `staged_traffic_bytes` for
    /// per-stage sweeps, `tiled_traffic_bytes` for tile-fused chains.
    pub bytes_per_step: f64,
}

/// Each fused step's target for one island: the last step computes the
/// island's part, each earlier step the advected-field reads the next
/// step needs.
fn fused_targets(
    graph: &StageGraph,
    x: stencil_engine::FieldId,
    part: Region3,
    domain: Region3,
    k: usize,
) -> Vec<Region3> {
    let mut targets = vec![part; k];
    for t in (0..k.saturating_sub(1)).rev() {
        targets[t] = graph
            .external_read_regions(targets[t + 1], domain)
            .get(&x)
            .copied()
            .unwrap_or_else(Region3::empty);
    }
    targets
}

pub fn plan_model(w: &Workload) -> PlanModel {
    let problem = MpdataProblem::standard();
    let graph = problem.graph();
    let domain = w.domain();
    let cells = |target: Region3| -> usize {
        graph
            .required_regions(target, domain)
            .iter()
            .map(|r| r.cells())
            .sum()
    };
    let parts = match w.strategy {
        Strategy::Original => vec![domain],
        Strategy::Islands => Partition::one_d(domain, Variant::A, w.teams().team_count())
            .expect("at least one island")
            .parts()
            .to_vec(),
    };
    let (mut computed, mut bytes) = (0usize, 0usize);
    for part in parts {
        for target in fused_targets(graph, problem.ext().x, part, domain, w.steps) {
            match w.tile {
                Some(extents) => {
                    let tiles = tile_grid(target, extents);
                    computed += tiles.iter().map(|&t| cells(t)).sum::<usize>();
                    bytes += tiled_traffic_bytes(graph, &tiles, domain);
                }
                None => {
                    computed += cells(target);
                    bytes += staged_traffic_bytes(graph, &graph.required_regions(target, domain));
                }
            }
        }
    }
    PlanModel {
        useful_cell_frac: (cells(domain) * w.steps) as f64 / computed as f64,
        bytes_per_step: bytes as f64 / w.steps as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;
    use islands_core::per_island_extra;

    #[test]
    fn useful_cells_match_the_static_overlap_analysis() {
        let w = Workload {
            extent: (40, 12, 6),
            ..WORKLOADS[0].clone()
        };
        let domain = w.domain();
        let problem = MpdataProblem::standard();
        let graph = problem.graph();
        let partition = Partition::one_d(domain, Variant::A, 2).unwrap();
        let useful: usize = graph
            .required_regions(domain, domain)
            .iter()
            .map(|r| r.cells())
            .sum();
        let extra: usize = per_island_extra(graph, &partition).iter().sum();
        let got = plan_model(&w).useful_cell_frac;
        assert!(got < 1.0, "two islands recompute halo");
        assert!((got - useful as f64 / (useful + extra) as f64).abs() < 1e-12);
        let original = Workload {
            extent: (40, 12, 6),
            ..WORKLOADS[1].clone()
        };
        assert_eq!(plan_model(&original).useful_cell_frac, 1.0);
    }

    #[test]
    fn tiles_and_fusion_recompute_more_and_move_fewer_modeled_bytes() {
        let untiled = Workload {
            tile: None,
            steps: 1,
            ..WORKLOADS[2].clone()
        };
        let tiled = plan_model(&WORKLOADS[2]);
        let plain = plan_model(&untiled);
        assert!(tiled.useful_cell_frac < plain.useful_cell_frac);
        assert!(tiled.bytes_per_step < plain.bytes_per_step);
    }

    #[test]
    fn kernel_times_cover_all_seventeen_stages() {
        let w = Workload {
            extent: (10, 8, 4),
            ..WORKLOADS[0].clone()
        };
        let k = kernels(&w.fields(1));
        assert_eq!(k.per_stage.len(), 17);
        assert!(k.per_stage.iter().all(|(_, ns)| *ns > 0.0));
        assert!(k.gflops > 0.0 && k.total_ns_per_cell > 0.0);
    }
}
