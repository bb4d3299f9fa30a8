//! Property tests of the determinism contract: the Prometheus text
//! exposition of a [`StackMetrics`] bundle is byte-identical for every
//! worker-thread count, as long as the *multiset* of observations is the
//! same. This is what lets `--metrics-out` commit to a golden snapshot
//! while the CLI runs with any `--jobs` value.

use std::sync::Arc;

use proptest::prelude::*;

use pm_metrics::{encode_text, MetricsSink, StackMetrics};

/// One recorded observation, pre-quantized so every interleaving feeds
/// bit-identical floats into the sink.
#[derive(Debug, Clone)]
struct Obs {
    disk: usize,
    tenant: usize,
    bytes: u64,
    /// Wait and service in whole microseconds (converted to seconds at
    /// the call site), keeping the fixed-point sums exactly commutative.
    wait_us: u32,
    service_us: u32,
}

fn obs_strategy() -> impl Strategy<Value = Obs> {
    (
        0usize..3,
        0usize..2,
        0u64..1 << 20,
        0u32..2_000_000,
        0u32..2_000_000,
    )
        .prop_map(|(disk, tenant, bytes, wait_us, service_us)| Obs {
            disk,
            tenant,
            bytes,
            wait_us,
            service_us,
        })
}

fn record_all(metrics: &StackMetrics, observations: &[Obs], jobs: usize) {
    if jobs <= 1 {
        for o in observations {
            apply(metrics, o);
        }
        return;
    }
    std::thread::scope(|scope| {
        for chunk in observations.chunks(observations.len().div_ceil(jobs)) {
            scope.spawn(move || {
                for o in chunk {
                    apply(metrics, o);
                }
            });
        }
    });
}

fn apply(metrics: &StackMetrics, o: &Obs) {
    metrics.disk_io(
        o.disk,
        o.bytes,
        f64::from(o.wait_us) * 1e-6,
        f64::from(o.service_us) * 1e-6,
    );
    metrics.tenant_blocks(o.tenant, 1);
    metrics.tenant_wait(o.tenant, f64::from(o.wait_us) * 1e-6);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn exposition_is_byte_identical_across_worker_counts(
        observations in prop::collection::vec(obs_strategy(), 1..400),
        jobs in 2usize..6,
    ) {
        let names = ["alpha".to_string(), "beta".to_string()];
        let serial = Arc::new(StackMetrics::new(3, &names));
        record_all(&serial, &observations, 1);
        let threaded = Arc::new(StackMetrics::new(3, &names));
        record_all(&threaded, &observations, jobs);
        prop_assert_eq!(
            encode_text(&serial.snapshot()),
            encode_text(&threaded.snapshot())
        );
    }
}
