//! Microbenches of the *real-thread* MPDATA executors on the build host
//! (correctness-scale grids; the paper-scale performance numbers come
//! from the simulator binaries, not from here).

use islands_bench::microbench::Harness;
use mpdata::{
    gaussian_pulse, ExchangeExecutor, IslandsExecutor, OriginalExecutor, ReferenceExecutor,
};
use stencil_engine::{Axis, Region3};
use work_scheduler::{TeamSpec, WorkerPool};

fn bench_step(h: &mut Harness) {
    let domain = Region3::of_extent(48, 24, 12);
    let fields = gaussian_pulse(domain, (0.2, 0.1, 0.0));
    let mut group = h.group("mpdata_step");
    group.sample_size(20);

    let reference = ReferenceExecutor::new();
    group.bench("reference_serial", || {
        std::hint::black_box(reference.step(&fields));
    });

    for workers in [2usize, 4] {
        let pool = WorkerPool::new(workers);
        let original = OriginalExecutor::new(&pool);
        group.bench_param("original_parallel", workers, || {
            std::hint::black_box(original.step(&fields));
        });
        let fused = IslandsExecutor::new(&pool, TeamSpec::even(workers, 1), Axis::I)
            .cache_bytes(256 * 1024);
        group.bench_param("fused_3p1d", workers, || {
            std::hint::black_box(fused.step(&fields).unwrap());
        });
        let islands = IslandsExecutor::new(&pool, TeamSpec::even(workers, workers.min(2)), Axis::I)
            .cache_bytes(256 * 1024);
        group.bench_param("islands", workers, || {
            std::hint::black_box(islands.step(&fields).unwrap());
        });
        let exchange =
            ExchangeExecutor::new(&pool, TeamSpec::even(workers, workers.min(2)), Axis::I);
        group.bench_param("exchange", workers, || {
            std::hint::black_box(exchange.step(&fields));
        });
    }
    group.finish();
}

fn bench_single_stage(h: &mut Harness) {
    use mpdata::{apply_stage, mpdata_graph};
    use stencil_engine::Array3;
    let domain = Region3::of_extent(64, 64, 32);
    let (graph, _) = mpdata_graph();
    let x = Array3::filled(domain, 2.0);
    let u = Array3::filled(domain, 0.3);
    let h_field = Array3::filled(domain, 1.0);
    let mut group = h.group("single_stage");
    group.sample_size(30);
    {
        let mut f = Array3::zeros(domain);
        group.bench("flux_i", || {
            apply_stage(0, domain, &[&x, &u], &mut [&mut f], domain)
        });
    }
    {
        let mut v = Array3::zeros(domain);
        group.bench("antidiff_i", || {
            apply_stage(
                4,
                domain,
                &[&x, &u, &u, &u, &h_field],
                &mut [&mut v],
                domain,
            )
        });
    }
    {
        let mut mx = Array3::zeros(domain);
        let mut mn = Array3::zeros(domain);
        group.bench("minmax", || {
            apply_stage(7, domain, &[&x, &u], &mut [&mut mx, &mut mn], domain)
        });
    }
    group.finish();
    let _ = graph;
}

/// The row kernels (`apply_kind` → `dispatch`) against the scalar
/// kernels (`apply_kind_scalar`) over a whole domain, boundary cells
/// included: one group per kind, `FluxI` on constant fields, and the two
/// kinds with the most operands — `MinMax` and `AntidiffI` — on
/// non-constant fields.
fn bench_fast_vs_scalar(h: &mut Harness) {
    use mpdata::{apply_kind, apply_kind_scalar, Boundary, StageKind};
    use stencil_engine::Array3;
    let domain = Region3::of_extent(64, 64, 64);
    let wavy = |n: usize| {
        Array3::from_fn(domain, |i, j, k| {
            0.5 + 0.1 * n as f64 + 0.01 * ((i * 7 + j * 13 + k * 3 + n as i64) % 17) as f64
        })
    };
    let cases: [(&str, StageKind, Vec<Array3>); 3] = [
        (
            "flux_i_paths",
            StageKind::FluxI,
            vec![Array3::filled(domain, 2.0), Array3::filled(domain, 0.3)],
        ),
        (
            "minmax_paths",
            StageKind::MinMax,
            (0..2).map(wavy).collect(),
        ),
        (
            "antidiff_i_paths",
            StageKind::AntidiffI,
            (0..5).map(wavy).collect(),
        ),
    ];
    for (name, kind, inputs) in &cases {
        let ins: Vec<&Array3> = inputs.iter().collect();
        let n_out = if *kind == StageKind::MinMax { 2 } else { 1 };
        let mut outs: Vec<Array3> = (0..n_out).map(|_| Array3::zeros(domain)).collect();
        let mut group = h.group(name);
        group.sample_size(40);
        group.bench("dispatch", || {
            let mut o: Vec<&mut Array3> = outs.iter_mut().collect();
            apply_kind(*kind, domain, Boundary::Open, &ins, &mut o, domain)
        });
        group.bench("scalar", || {
            let mut o: Vec<&mut Array3> = outs.iter_mut().collect();
            apply_kind_scalar(*kind, domain, Boundary::Open, &ins, &mut o, domain)
        });
        group.finish();
    }
}

fn main() {
    let mut h = Harness::from_env();
    bench_step(&mut h);
    bench_single_stage(&mut h);
    bench_fast_vs_scalar(&mut h);
    h.finish();
}
