//! Property-based tests of the disk model.

use proptest::prelude::*;

use pm_disk::{
    BlockAddr, Disk, DiskArray, DiskId, DiskRequest, DiskSpec, QueueDiscipline, SeekModel,
};
use pm_sim::{SimDuration, SimTime};
use pm_trace::NullSink;

fn spec() -> DiskSpec {
    DiskSpec::paper()
}

proptest! {
    /// Service times always decompose into seek + latency + transfer, with
    /// latency below one revolution and transfer exactly `len·T`.
    #[test]
    fn service_breakdown_is_bounded(
        starts in prop::collection::vec(0u64..50_000, 1..60),
        seed in any::<u64>(),
    ) {
        let mut disk = Disk::new(DiskId(0), spec(), QueueDiscipline::Fifo, seed);
        let mut now = SimTime::ZERO;
        for (i, &start) in starts.iter().enumerate() {
            let (_, s) = disk.submit(now, DiskRequest {
                disk: DiskId(0),
                start: BlockAddr(start),
                len: 1,
                sequential_hint: false,
                tag: i as u64,
            }, &mut NullSink);
            let s = s.expect("idle disk starts immediately");
            prop_assert!(s.breakdown.latency < spec().params.rotation_period);
            prop_assert_eq!(s.breakdown.transfer, spec().params.transfer_per_block);
            prop_assert_eq!(
                s.breakdown.total(),
                s.breakdown.seek + s.breakdown.latency + s.breakdown.transfer
            );
            prop_assert_eq!(s.completion_at, now + s.breakdown.total());
            now = s.completion_at;
            disk.complete(now, &mut NullSink);
        }
        prop_assert_eq!(disk.stats().requests(), starts.len() as u64);
    }

    /// FIFO services requests in arrival order regardless of position.
    #[test]
    fn fifo_preserves_arrival_order(
        starts in prop::collection::vec(0u64..50_000, 2..40),
        seed in any::<u64>(),
    ) {
        let mut disk = Disk::new(DiskId(0), spec(), QueueDiscipline::Fifo, seed);
        let mut expected = Vec::new();
        let mut first = None;
        for (i, &start) in starts.iter().enumerate() {
            let (id, s) = disk.submit(SimTime::ZERO, DiskRequest {
                disk: DiskId(0),
                start: BlockAddr(start),
                len: 1,
                sequential_hint: false,
                tag: i as u64,
            }, &mut NullSink);
            expected.push(id);
            if let Some(s) = s {
                first = Some(s);
            }
        }
        let mut order = Vec::new();
        let mut next = first;
        let mut now;
        while let Some(s) = next {
            now = s.completion_at;
            let (done, n) = disk.complete(now, &mut NullSink);
            order.push(done.id);
            next = n;
        }
        prop_assert_eq!(order, expected);
    }

    /// Seek models: zero distance free, monotone in distance.
    #[test]
    fn seek_models_are_monotone(
        per_cyl_us in 1u64..1_000,
        settle_us in 0u64..10_000,
        per_sqrt_us in 1u64..2_000,
    ) {
        let linear = SeekModel::Linear {
            per_cylinder: SimDuration::from_micros(per_cyl_us),
        };
        let sqrt = SeekModel::SettleSqrt {
            settle: SimDuration::from_micros(settle_us),
            per_sqrt_cylinder: SimDuration::from_micros(per_sqrt_us),
        };
        for model in [linear, sqrt] {
            prop_assert_eq!(model.seek_time(0), SimDuration::ZERO);
            let mut last = SimDuration::ZERO;
            for d in [1u32, 2, 5, 20, 100, 500] {
                let t = model.seek_time(d);
                prop_assert!(t >= last, "{model:?} not monotone at {d}");
                last = t;
            }
        }
    }

    /// An array's disks never interfere: total stats equal the sum of
    /// per-disk stats, and request ids never collide.
    #[test]
    fn array_disks_are_independent(
        ops in prop::collection::vec((0u16..4, 0u64..10_000), 1..60),
        seed in any::<u64>(),
    ) {
        let mut array = DiskArray::new(4, spec(), QueueDiscipline::Fifo, seed);
        let mut ids = std::collections::HashSet::new();
        let mut completions: Vec<(pm_sim::SimTime, DiskId)> = Vec::new();
        for (i, &(d, start)) in ops.iter().enumerate() {
            let (id, s) = array.submit(SimTime::ZERO, DiskRequest {
                disk: DiskId(d),
                start: BlockAddr(start),
                len: 1,
                sequential_hint: false,
                tag: i as u64,
            }, &mut NullSink);
            prop_assert!(ids.insert(id), "duplicate request id");
            if let Some(s) = s {
                completions.push((s.completion_at, DiskId(d)));
            }
        }
        // Drain all queues disk by disk.
        while let Some((t, d)) = completions.pop() {
            let (_, next) = array.complete(t, d, &mut NullSink);
            if let Some(s) = next {
                completions.push((s.completion_at, d));
            }
        }
        let agg = array.aggregate_stats();
        prop_assert_eq!(agg.requests(), ops.len() as u64);
        let sum: u64 = array.iter().map(|disk| disk.stats().requests()).sum();
        prop_assert_eq!(sum, ops.len() as u64);
        prop_assert_eq!(array.busy_count(), 0);
        prop_assert_eq!(array.queued_count(), 0);
    }
}
