//! Live and post-mortem telemetry agree on a real run.
//!
//! A traced `IslandsExecutor` run is observed twice: by the background
//! collector folding spans into a [`MetricsRegistry`] while workers
//! push, and by the quiescent drain aggregated into `RunMetrics`
//! afterwards. Both go through the same per-island fold, so once the
//! collector is detached (its final pass folds every remaining span)
//! the registry's per-island counters must equal the run totals
//! exactly, counter for counter.
//!
//! One test per binary: tracing state is process-global.

use islands_trace::metrics::{RunMetrics, COUNTERS};
use islands_trace::registry::MetricsRegistry;
use islands_trace::NO_ISLAND;
use mpdata::{gaussian_pulse, IslandsExecutor};
use std::sync::Arc;
use std::time::Duration;
use stencil_engine::{Axis, Region3};
use work_scheduler::{TeamSpec, WorkerPool};

#[test]
fn live_registry_equals_drained_run_totals() {
    // Room for every span of the run, so neither side loses events.
    islands_trace::set_ring_capacity(1 << 16);
    let mut pool = WorkerPool::new(4);
    let mut fields = gaussian_pulse(Region3::of_extent(32, 16, 8), (0.3, 0.0, 0.0));

    let registry = Arc::new(MetricsRegistry::new(2));
    let session = islands_trace::Session::start();
    pool.attach_telemetry(Arc::clone(&registry), Duration::from_millis(1));
    IslandsExecutor::new(&pool, TeamSpec::even(4, 2), Axis::I)
        .cache_bytes(64 * 1024)
        .run(&mut fields, 4)
        .unwrap();
    pool.detach_telemetry();
    let live = registry.snapshot();
    let drained = session.finish();

    assert_eq!(drained.dropped, 0, "trace rings wrapped");
    assert_eq!(live.dropped_events, 0, "collector saw ring wrap");
    assert_eq!(live.unpublished, 0);
    assert_eq!(live.events_folded, drained.events.len() as u64);

    let totals: Vec<_> = RunMetrics::aggregate(&drained)
        .totals()
        .into_iter()
        .filter(|m| m.island != NO_ISLAND)
        .collect();
    assert_eq!(
        totals.iter().map(|m| m.island).collect::<Vec<_>>(),
        [0, 1],
        "both islands recorded spans"
    );
    assert_eq!(live.islands.len(), totals.len());
    for (post, live) in totals.iter().zip(&live.islands) {
        for c in COUNTERS {
            assert_eq!(
                c.get(post),
                c.get(live),
                "island {} counter {}",
                post.island,
                c.name
            );
        }
        assert_eq!(post, live);
        assert!(post.kernel_ns > 0 && post.computed_cells > 0, "{post:?}");
        assert_eq!(post.workers, 2, "{post:?}");
    }
}
