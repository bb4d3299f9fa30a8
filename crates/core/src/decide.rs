//! The paper's decision procedure, with no clock.
//!
//! [`DecisionCore`] holds everything the merge decides with: the block
//! cache, the run layout, per-run fetch and depletion progress, the
//! per-disk lists of runs with unfetched blocks, the adaptive depth and
//! the decision RNG. It decides when to demand-fetch, which run to
//! prefetch on every other disk, and how much of an inter-run operation
//! the admission policy accepts. It never submits I/O or waits: each
//! call appends the block reads it decided on to a `Vec` the caller owns
//! and says what the merge must wait for.
//!
//! Two drivers run it. [`crate::MergeSim`] submits the reads to its
//! simulated disks and turns the waits into event-loop gates; the
//! real-I/O engine in `pm-engine` submits them to an I/O queue and blocks
//! on completions. Because both drive this one type, they make the same
//! decisions for the same depletion sequence.
//!
//! Every decision input (held counts, free frames, fetch pointers,
//! fetchable lists, depth) changes only when blocks are issued or
//! depleted, never when they arrive, so the decisions are a function of
//! the depletion sequence alone. The one input from outside is the head
//! position that [`PrefetchChoice::HeadProximity`] scores against, which
//! each driver supplies to [`DecisionCore::decide`]: the simulator passes
//! each disk's serviced head, the engine the cylinder of the last block
//! it submitted. The two can differ, so head-proximity parity between
//! them is not guaranteed.

use pm_cache::{BlockCache, PrefetchGroup, RunId};
use pm_disk::{Cylinder, DiskId, DiskRequest};
use pm_sim::{SimRng, SimTime};
use pm_trace::{EventKind, TraceEvent, TraceSink};

use crate::{ConfigError, DataLayout, MergeConfig, PrefetchChoice, RunLayout, SyncMode};

/// What the merge waits for after a depletion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wait {
    /// The depleted run still has a resident block: merge on.
    Ready,
    /// Synchronized operation: wait until all of the blocks just issued
    /// have arrived.
    Blocks(u32),
    /// Wait for the depleted run's next arrival: its demand block, or a
    /// block already in flight. Under FIFO disks that arrival is the
    /// needed block; under reordering disciplines (SSTF/LOOK) any arrival
    /// gives the run a resident block, which is what the counting-cache
    /// merge model requires.
    NextBlock,
    /// The run's last block was consumed; the run leaves the merge.
    Exhausted,
}

/// Merge and operation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecisionCounts {
    /// Blocks consumed by the merge.
    pub blocks_merged: u64,
    /// Demand-fetch operations (a depletion left a run with nothing
    /// cached or in flight).
    pub demand_ops: u64,
    /// Inter-run operations the cache rejected, degraded to a
    /// single-block demand fetch.
    pub fallback_ops: u64,
    /// Inter-run operations admitted in full.
    pub full_prefetch_ops: u64,
}

impl DecisionCounts {
    /// The paper's success ratio, `full_prefetch_ops / demand_ops`;
    /// `None` when no demand operation was issued.
    #[must_use]
    pub fn success_ratio(&self) -> Option<f64> {
        if self.demand_ops == 0 {
            None
        } else {
            Some(self.full_prefetch_ops as f64 / self.demand_ops as f64)
        }
    }
}

/// Per-run fetch/depletion progress.
#[derive(Debug, Clone, Copy)]
struct RunProgress {
    /// Blocks in the run.
    total: u32,
    /// Next block index to issue to disk.
    next_fetch: u32,
    /// Blocks consumed by the merge.
    depleted: u32,
}

const DEAD: usize = usize::MAX;

/// Configuration answers the steady state re-asks per operation,
/// resolved once at build time. Everything here is a pure function of
/// [`MergeConfig`], so precomputing it cannot change a decision — it
/// only removes matches from the hot path.
#[derive(Debug, Clone, Copy)]
struct HotDispatch {
    /// `cfg.strategy.is_inter_run()`.
    inter_run: bool,
    /// `cfg.admission == Greedy` — whether the non-demand groups of an
    /// inter-run operation are shuffled before prefix admission.
    greedy_shuffle: bool,
    /// `cfg.strategy.adaptive_bounds()` — AIMD bounds of the adaptive
    /// strategy, applied after every inter-run admission.
    adaptive_bounds: Option<(u32, u32)>,
    /// `cfg.prefetch_choice`, matched once per candidate group instead of
    /// once per candidate.
    choice: PrefetchChoice,
}

/// The decision state of one merge (see the module docs).
#[derive(Debug, Clone)]
pub struct DecisionCore {
    cfg: MergeConfig,
    hot: HotDispatch,
    cache: BlockCache,
    layout: RunLayout,
    /// The master stream after the two device-seed draws: the depletion
    /// model (lent through [`DecisionCore::rng_mut`]) and the decisions
    /// share it.
    rng: SimRng,
    runs: Vec<RunProgress>,
    /// Runs with unfetched blocks, per disk (prefetch candidates).
    fetchable: Vec<Vec<RunId>>,
    fetchable_pos: Vec<usize>,
    /// Current per-operation depth (fixed strategies keep it constant;
    /// the adaptive strategy moves it by AIMD on admission outcomes).
    current_depth: u32,
    /// Scratch buffers reused across demand operations so the steady-state
    /// hot path performs zero heap allocations: desired prefetch groups,
    /// the groups the admission policy accepted, and (under `per_run_cap`)
    /// the filtered candidate list. Cleared before each use; capacity
    /// settles at ≤ D+1 groups / ≤ runs-per-disk candidates.
    scratch_groups: Vec<PrefetchGroup>,
    scratch_admitted: Vec<PrefetchGroup>,
    scratch_candidates: Vec<RunId>,
    counts: DecisionCounts,
}

/// Seeds the master stream from `seed` and draws the disk-array and
/// writer seeds from it, in that order, before any decision draw.
fn master_stream(seed: u64) -> (SimRng, (u64, u64)) {
    let mut rng = SimRng::seed_from_u64(seed);
    let disk_seed = rng.next_u64();
    let writer_seed = rng.next_u64();
    (rng, (disk_seed, writer_seed))
}

impl DecisionCore {
    /// Validates `cfg` for runs of the given (possibly different) block
    /// counts and builds the decision state. `cfg.runs` and
    /// `cfg.run_blocks` are replaced by `lengths.len()` and the longest
    /// length.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if a length is zero, the adjusted
    /// configuration is inconsistent, or the cache cannot hold the
    /// initial load of `Σ min(N, length_r)` blocks.
    pub fn new(mut cfg: MergeConfig, lengths: &[u32]) -> Result<Self, ConfigError> {
        if lengths.is_empty() || lengths.contains(&0) {
            return Err(ConfigError::ZeroParameter("run lengths"));
        }
        cfg.runs = lengths.len() as u32;
        // Validate against the longest run; per-disk capacity is checked
        // precisely by the layout below.
        cfg.run_blocks = *lengths.iter().max().expect("non-empty");
        cfg.validate()?;
        let depth = cfg.strategy.depth();
        let need: u64 = lengths.iter().map(|&l| u64::from(depth.min(l))).sum();
        if u64::from(cfg.cache_blocks) < need {
            return Err(ConfigError::CacheTooSmall {
                have: cfg.cache_blocks,
                need: need as u32,
            });
        }
        let layout = match cfg.layout {
            DataLayout::Concatenated => {
                RunLayout::contiguous_lengths(lengths, cfg.disks, &cfg.disk_spec.geometry)
            }
            DataLayout::Striped => RunLayout::striped(lengths, cfg.disks, &cfg.disk_spec.geometry),
        };
        // Inter-run prefetch candidates only exist when runs have home
        // disks (validate() rejects striped + inter-run).
        let fetchable: Vec<Vec<RunId>> = if layout.is_striped() {
            vec![Vec::new(); cfg.disks as usize]
        } else {
            (0..cfg.disks)
                .map(|d| layout.runs_on_disk(DiskId(d as u16)).to_vec())
                .collect()
        };
        let mut fetchable_pos = vec![DEAD; cfg.runs as usize];
        for list in &fetchable {
            for (i, r) in list.iter().enumerate() {
                fetchable_pos[r.0 as usize] = i;
            }
        }
        let (rng, _) = master_stream(cfg.seed);
        let group_capacity = cfg.disks as usize + 1;
        Ok(DecisionCore {
            hot: HotDispatch {
                inter_run: cfg.strategy.is_inter_run(),
                greedy_shuffle: cfg.admission == pm_cache::AdmissionPolicy::Greedy,
                adaptive_bounds: cfg.strategy.adaptive_bounds(),
                choice: cfg.prefetch_choice,
            },
            cache: BlockCache::new(cfg.cache_blocks, cfg.runs),
            layout,
            rng,
            runs: lengths
                .iter()
                .map(|&total| RunProgress {
                    total,
                    next_fetch: 0,
                    depleted: 0,
                })
                .collect(),
            fetchable,
            fetchable_pos,
            current_depth: cfg.strategy.depth(),
            scratch_groups: Vec::with_capacity(group_capacity),
            scratch_admitted: Vec::with_capacity(group_capacity),
            scratch_candidates: Vec::with_capacity(cfg.runs as usize),
            counts: DecisionCounts::default(),
            cfg,
        })
    }

    /// The `(disk array, write disks)` seeds a merge seeded with `seed`
    /// derives: the first two draws of its master stream, taken before
    /// any decision draw.
    #[must_use]
    pub fn device_seeds(seed: u64) -> (u64, u64) {
        master_stream(seed).1
    }

    /// The adjusted configuration (run count and longest run set from the
    /// lengths).
    #[must_use]
    pub fn config(&self) -> &MergeConfig {
        &self.cfg
    }

    /// Where every block of every run lives.
    #[must_use]
    pub fn layout(&self) -> &RunLayout {
        &self.layout
    }

    /// The decision RNG, lent to a depletion model so that its draws and
    /// the decisions' interleave in one stream.
    pub fn rng_mut(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Blocks of `run` resident in the cache.
    #[must_use]
    pub fn resident(&self, run: RunId) -> u32 {
        self.cache.resident(run)
    }

    /// Blocks of `run` the merge has consumed (the index of its leading
    /// block).
    #[must_use]
    pub fn depleted(&self, run: RunId) -> u32 {
        self.runs[run.0 as usize].depleted
    }

    /// The most reads one call can append: the initial load (at most
    /// `k·N`) or one operation (one group per disk, each from a different
    /// run, of at most `N_max` blocks). Drivers size their read buffer
    /// with it so the steady state never grows it.
    #[must_use]
    pub fn max_reads(&self) -> usize {
        let max_depth = self
            .hot
            .adaptive_bounds
            .map_or(self.cfg.strategy.depth(), |(_, n_max)| n_max);
        let operation = self.cfg.disks.min(self.cfg.runs) * max_depth;
        self.cfg.min_cache_blocks().max(operation) as usize
    }

    /// Issues the initial load: the first `min(N, B)` blocks of every run.
    /// Appends the reads to `reads` and returns how many were issued.
    pub fn initial_load(&mut self, reads: &mut Vec<DiskRequest>) -> u64 {
        let depth = self.cfg.strategy.depth();
        let mut issued: u64 = 0;
        for r in 0..self.cfg.runs {
            let run = RunId(r);
            let batch = depth.min(self.runs[r as usize].total);
            self.cache.reserve(run, batch);
            self.emit_reads(run, 0, batch, reads);
            issued += u64::from(batch);
        }
        issued
    }

    /// Records the arrival of a block of `run`.
    pub fn block_arrived(&mut self, run: RunId) {
        self.cache.block_arrived(run);
    }

    /// Consumes the leading block of `j` at `now`. Follow with
    /// [`DecisionCore::decide`]; a driver with output-side work of its
    /// own (the simulator's writer) does it between the two calls.
    ///
    /// # Panics
    ///
    /// Panics if `j` has no resident block.
    pub fn consume<S: TraceSink>(&mut self, j: RunId, now: SimTime, sink: &mut S) {
        assert!(
            self.cache.resident(j) > 0,
            "depletion invariant violated: run {j:?} has no resident block"
        );
        let progress = &mut self.runs[j.0 as usize];
        if S::ENABLED {
            sink.emit(TraceEvent {
                at: now,
                kind: EventKind::CpuConsume {
                    run: j.0,
                    block: progress.depleted,
                },
            });
        }
        progress.depleted += 1;
        self.counts.blocks_merged += 1;
        self.cache.deplete_traced(j, now, sink);
    }

    /// Decides, after [`DecisionCore::consume`] of `j`, what I/O to issue
    /// and what the merge must wait for, as the paper's pseudocode
    /// prescribes. The reads are appended to `reads`; the caller submits
    /// them in order before its next call. `head` gives a disk's current
    /// head cylinder and is only asked under
    /// [`PrefetchChoice::HeadProximity`].
    pub fn decide<S, H>(
        &mut self,
        j: RunId,
        now: SimTime,
        head: H,
        reads: &mut Vec<DiskRequest>,
        sink: &mut S,
    ) -> Wait
    where
        S: TraceSink,
        H: Fn(DiskId) -> Cylinder,
    {
        let progress = self.runs[j.0 as usize];
        if progress.depleted == progress.total {
            if S::ENABLED {
                sink.emit(TraceEvent {
                    at: now,
                    kind: EventKind::RunExhausted { run: j.0 },
                });
            }
            return Wait::Exhausted;
        }
        if self.cache.held(j) == 0 {
            // The run has no cached or in-flight blocks left, but more on
            // disk: demand fetch, merge stalls.
            debug_assert!(progress.next_fetch < progress.total);
            self.issue_demand(j, now, head, reads, sink)
        } else if self.cache.resident(j) == 0 {
            // Blocks of `j` are in flight (unsynchronized prefetching):
            // wait for the next one.
            debug_assert_eq!(self.cfg.sync, SyncMode::Unsynchronized);
            Wait::NextBlock
        } else {
            Wait::Ready
        }
    }

    /// Checks that every block was merged and none is cached or in
    /// flight, and returns the final counters.
    ///
    /// # Panics
    ///
    /// Panics if the merge ended early or left blocks behind.
    pub fn finish(&self) -> DecisionCounts {
        assert_eq!(
            self.counts.blocks_merged,
            self.layout.total_blocks(),
            "merge ended early"
        );
        assert_eq!(self.cache.total_reserved(), 0, "blocks left in flight");
        assert_eq!(self.cache.total_resident(), 0, "blocks left undepleted");
        self.counts
    }

    /// Issues a demand-fetch operation for run `j` per the configured
    /// strategy.
    fn issue_demand<S: TraceSink, H: Fn(DiskId) -> Cylinder>(
        &mut self,
        j: RunId,
        now: SimTime,
        head: H,
        reads: &mut Vec<DiskRequest>,
        sink: &mut S,
    ) -> Wait {
        self.counts.demand_ops += 1;
        let depth = self.current_depth;
        let progress = self.runs[j.0 as usize];
        let demand_blocks = depth.min(progress.total - progress.next_fetch);
        debug_assert!(demand_blocks >= 1);
        let demand_index = progress.next_fetch;
        debug_assert_eq!(demand_index, progress.depleted);
        if S::ENABLED {
            sink.emit(TraceEvent {
                at: now,
                kind: EventKind::DemandMiss {
                    run: j.0,
                    block: demand_index,
                    free: self.cache.free(),
                },
            });
        }

        let issued = if self.hot.inter_run {
            self.issue_inter_run(j, demand_blocks, now, head, reads, sink)
        } else {
            // No-prefetch / intra-run: the cache-sizing invariant
            // (C ≥ k·N) guarantees space; `reserve` asserts it.
            self.cache.reserve(j, demand_blocks);
            self.emit_reads(j, demand_index, demand_blocks, reads);
            demand_blocks
        };
        match self.cfg.sync {
            SyncMode::Synchronized => Wait::Blocks(issued),
            SyncMode::Unsynchronized => Wait::NextBlock,
        }
    }

    /// Issues the combined inter-run operation: `demand_blocks` from `j`
    /// plus up to `N` blocks of one chosen fetchable run on every other
    /// disk, admitted against the cache. Returns the number of blocks
    /// issued.
    fn issue_inter_run<S: TraceSink, H: Fn(DiskId) -> Cylinder>(
        &mut self,
        j: RunId,
        demand_blocks: u32,
        now: SimTime,
        head: H,
        reads: &mut Vec<DiskRequest>,
        sink: &mut S,
    ) -> u32 {
        let depth = self.current_depth;
        let demand_disk = self.layout.placement(j).disk;
        // The scratch buffers are moved out of `self` for the duration of
        // the operation (a pointer swap, no allocation) so the borrow
        // checker sees them as locals while the loop also reads
        // `self.fetchable`, `self.cache`, etc.
        let mut groups = std::mem::take(&mut self.scratch_groups);
        let mut candidate_buf = std::mem::take(&mut self.scratch_candidates);
        let mut admitted = std::mem::take(&mut self.scratch_admitted);
        groups.clear();
        // Desired groups, demand run first (so greedy admission always
        // covers the demand block).
        groups.push(PrefetchGroup {
            run: j,
            blocks: demand_blocks,
        });
        for d in 0..self.cfg.disks as u16 {
            let disk = DiskId(d);
            if disk == demand_disk {
                continue;
            }
            let candidates: &[RunId] = match self.cfg.per_run_cap {
                // Uncapped: every fetchable run on the disk is a candidate,
                // so borrow the list directly instead of copying it.
                None => &self.fetchable[d as usize],
                Some(cap) => {
                    candidate_buf.clear();
                    candidate_buf.extend(
                        self.fetchable[d as usize]
                            .iter()
                            .copied()
                            .filter(|&r| self.cache.held(r) < cap),
                    );
                    &candidate_buf
                }
            };
            if candidates.is_empty() {
                continue;
            }
            // One policy match per candidate group, not per candidate.
            let run = match self.hot.choice {
                PrefetchChoice::Random => *self.rng.choose(candidates),
                PrefetchChoice::LeastHeld => {
                    let cache = &self.cache;
                    PrefetchChoice::pick_min(candidates, |r| u64::from(cache.held(r)))
                }
                PrefetchChoice::HeadProximity => {
                    let head = head(disk);
                    let layout = &self.layout;
                    let runs = &self.runs;
                    let geometry = &self.cfg.disk_spec.geometry;
                    PrefetchChoice::pick_min(candidates, |r| {
                        let next = runs[r.0 as usize].next_fetch;
                        let cyl = geometry.cylinder_of(layout.block_addr(r, next));
                        u64::from(cyl.distance(head))
                    })
                }
            };
            let p = self.runs[run.0 as usize];
            let blocks = depth.min(p.total - p.next_fetch);
            debug_assert!(blocks >= 1);
            groups.push(PrefetchGroup { run, blocks });
        }
        if S::ENABLED {
            sink.emit(TraceEvent {
                at: now,
                kind: EventKind::PrefetchBatch {
                    groups: groups.len() as u32,
                    blocks: groups.iter().map(|g| g.blocks).sum(),
                    depth,
                },
            });
        }

        if self.hot.greedy_shuffle && groups.len() > 2 {
            // The greedy alternative admits a prefix of the group list;
            // the paper specifies the choice of which blocks to keep is
            // random, so shuffle the non-demand groups.
            self.rng.shuffle(&mut groups[1..]);
        }
        let full = self.cfg.admission.admit_into_traced(
            &mut self.cache,
            &groups,
            &mut admitted,
            now,
            sink,
        );
        if full {
            self.counts.full_prefetch_ops += 1;
        }
        if let Some((n_min, n_max)) = self.hot.adaptive_bounds {
            // AIMD: a fully admitted operation earns one more block of
            // depth; a rejection halves it.
            self.current_depth = if full {
                (self.current_depth + 1).min(n_max)
            } else {
                (self.current_depth / 2).max(n_min)
            };
        }
        let issued = if admitted.is_empty() {
            // All-or-nothing rejection: fetch only the demand block. The
            // depletion that triggered this demand just freed a frame.
            self.counts.fallback_ops += 1;
            self.cache.reserve(j, 1);
            self.emit_reads(j, self.runs[j.0 as usize].next_fetch, 1, reads);
            1
        } else {
            let mut issued = 0;
            for g in &admitted {
                let start = self.runs[g.run.0 as usize].next_fetch;
                self.emit_reads(g.run, start, g.blocks, reads);
                issued += g.blocks;
            }
            issued
        };
        self.scratch_groups = groups;
        self.scratch_candidates = candidate_buf;
        self.scratch_admitted = admitted;
        issued
    }

    /// Appends `count` single-block reads of `run` starting at block
    /// `start_index` and advances the run's fetch pointer. Cache frames
    /// must already be reserved.
    fn emit_reads(
        &mut self,
        run: RunId,
        start_index: u32,
        count: u32,
        reads: &mut Vec<DiskRequest>,
    ) {
        debug_assert!(count >= 1);
        // Consecutive blocks of a run sit `stride` indices apart on the
        // same disk (1 when concatenated, D when striped); only those
        // continuations stream for free.
        let stride = self.layout.same_disk_stride();
        for i in 0..count {
            let index = start_index + i;
            let (disk, start) = self.layout.location(run, index);
            reads.push(DiskRequest {
                disk,
                start,
                len: 1,
                sequential_hint: i >= stride,
                tag: pm_trace::pack_tag(run.0, index),
            });
        }
        let progress = &mut self.runs[run.0 as usize];
        progress.next_fetch += count;
        debug_assert!(progress.next_fetch <= progress.total);
        if progress.next_fetch == progress.total {
            if let Some(home) = self.layout.home_disk(run) {
                self.remove_fetchable(run, home);
            }
        }
    }

    fn remove_fetchable(&mut self, run: RunId, disk: DiskId) {
        let list = &mut self.fetchable[disk.0 as usize];
        let pos = self.fetchable_pos[run.0 as usize];
        debug_assert_ne!(pos, DEAD);
        list.swap_remove(pos);
        if let Some(&moved) = list.get(pos) {
            self.fetchable_pos[moved.0 as usize] = pos;
        }
        self.fetchable_pos[run.0 as usize] = DEAD;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PrefetchStrategy, ScenarioBuilder};
    use pm_trace::NullSink;

    fn core(choice: PrefetchChoice) -> DecisionCore {
        let cfg = ScenarioBuilder::new(6, 3)
            .run_blocks(12)
            .inter(3)
            .prefetch_choice(choice)
            .seed(5)
            .build()
            .unwrap();
        DecisionCore::new(cfg, &[12; 6]).unwrap()
    }

    /// Runs the initial load and marks every read arrived.
    fn load(core: &mut DecisionCore) -> Vec<DiskRequest> {
        let mut reads = Vec::new();
        let issued = core.initial_load(&mut reads);
        assert_eq!(issued, reads.len() as u64);
        for r in &reads {
            core.block_arrived(RunId(pm_trace::unpack_tag(r.tag).0));
        }
        reads
    }

    /// Consumes run 0 until its demand fetch, returning those reads.
    fn demand_of_run0(core: &mut DecisionCore) -> Vec<DiskRequest> {
        let mut reads = Vec::new();
        let now = SimTime::ZERO;
        loop {
            core.consume(RunId(0), now, &mut NullSink);
            match core.decide(RunId(0), now, |_| Cylinder(0), &mut reads, &mut NullSink) {
                Wait::Ready => {}
                Wait::NextBlock => return reads,
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn initial_load_reads_min_n_b_of_every_run_in_order() {
        let mut core = core(PrefetchChoice::Random);
        let reads = load(&mut core);
        let got: Vec<(u32, u32)> = reads.iter().map(|r| pm_trace::unpack_tag(r.tag)).collect();
        let want: Vec<(u32, u32)> = (0..6).flat_map(|r| (0..3).map(move |b| (r, b))).collect();
        assert_eq!(got, want);
        // Only continuations of an operation stream.
        assert!(reads
            .iter()
            .all(|r| r.sequential_hint == (pm_trace::unpack_tag(r.tag).1 > 0)));
    }

    #[test]
    fn random_choice_prefetches_a_fetchable_run_on_every_other_disk() {
        for seed in 0..20 {
            let mut core = core(PrefetchChoice::Random);
            core.rng = SimRng::seed_from_u64(seed);
            load(&mut core);
            let reads = demand_of_run0(&mut core);
            let demand_disk = core.layout().placement(RunId(0)).disk;
            let mut disks: Vec<DiskId> = reads.iter().map(|r| r.disk).collect();
            disks.dedup();
            assert_eq!(disks.len(), 3, "one group per disk: {reads:?}");
            assert_eq!(disks[0], demand_disk);
            for r in &reads[3..] {
                let run = RunId(pm_trace::unpack_tag(r.tag).0);
                assert!(core.layout().runs_on_disk(r.disk).contains(&run));
                assert_ne!(r.disk, demand_disk);
            }
            assert_eq!(core.counts.full_prefetch_ops, 1);
        }
    }

    #[test]
    fn no_call_appends_more_than_max_reads() {
        for (runs, disks) in [(3u32, 5u32), (9, 4)] {
            let cfg = ScenarioBuilder::new(runs, disks)
                .run_blocks(30)
                .adaptive(1, 6)
                .cache_blocks(runs * 24)
                .seed(11)
                .build()
                .unwrap();
            let mut core = DecisionCore::new(cfg, &vec![30; runs as usize]).unwrap();
            let max = core.max_reads();
            let mut reads = Vec::new();
            core.initial_load(&mut reads);
            let mut live: Vec<RunId> = (0..runs).map(RunId).collect();
            let now = SimTime::ZERO;
            while !live.is_empty() {
                assert!(
                    reads.len() <= max,
                    "{} reads > max_reads {max}",
                    reads.len()
                );
                // Every read arrives at once, so the merge never waits.
                for r in reads.drain(..) {
                    core.block_arrived(RunId(pm_trace::unpack_tag(r.tag).0));
                }
                let j = *core.rng_mut().choose(&live);
                core.consume(j, now, &mut NullSink);
                let wait = core.decide(j, now, |_| Cylinder(0), &mut reads, &mut NullSink);
                if wait == Wait::Exhausted {
                    live.retain(|&r| r != j);
                }
            }
            assert_eq!(core.finish().blocks_merged, u64::from(runs) * 30);
        }
    }

    #[test]
    fn head_proximity_asks_the_driver_for_the_head() {
        let mut core = core(PrefetchChoice::HeadProximity);
        load(&mut core);
        let asked = std::cell::RefCell::new(Vec::new());
        let mut reads = Vec::new();
        let now = SimTime::ZERO;
        for _ in 0..3 {
            core.consume(RunId(0), now, &mut NullSink);
            core.decide(
                RunId(0),
                now,
                |d| {
                    asked.borrow_mut().push(d);
                    Cylinder(0)
                },
                &mut reads,
                &mut NullSink,
            );
        }
        let demand_disk = core.layout().placement(RunId(0)).disk;
        let asked = asked.into_inner();
        assert_eq!(asked.len(), 2);
        assert!(!asked.contains(&demand_disk));
    }

    #[test]
    fn exhausted_runs_report_exhausted_and_finish_checks_the_drain() {
        let cfg = ScenarioBuilder::new(1, 1)
            .run_blocks(2)
            .strategy(PrefetchStrategy::IntraRun { n: 2 })
            .build()
            .unwrap();
        let mut core = DecisionCore::new(cfg, &[2]).unwrap();
        load(&mut core);
        let mut reads = Vec::new();
        let now = SimTime::ZERO;
        core.consume(RunId(0), now, &mut NullSink);
        assert_eq!(
            core.decide(RunId(0), now, |_| Cylinder(0), &mut reads, &mut NullSink),
            Wait::Ready
        );
        core.consume(RunId(0), now, &mut NullSink);
        assert_eq!(
            core.decide(RunId(0), now, |_| Cylinder(0), &mut reads, &mut NullSink),
            Wait::Exhausted
        );
        assert!(reads.is_empty());
        let counts = core.finish();
        assert_eq!(counts.blocks_merged, 2);
        assert_eq!(counts.success_ratio(), None);
    }

    #[test]
    fn device_seeds_are_the_first_draws_of_the_master_stream() {
        let mut master = SimRng::seed_from_u64(5);
        let (disk, writer) = DecisionCore::device_seeds(5);
        assert_eq!(disk, master.next_u64());
        assert_eq!(writer, master.next_u64());
        // Decisions draw from the stream after the two seeds.
        let mut core = core(PrefetchChoice::Random);
        assert_eq!(core.rng_mut().next_u64(), master.next_u64());
    }

    #[test]
    fn validation_rejects_empty_and_zero_lengths_and_small_caches() {
        let cfg = ScenarioBuilder::new(3, 2)
            .intra(10)
            .cache_blocks(30)
            .build()
            .unwrap();
        assert!(DecisionCore::new(cfg, &[]).is_err());
        assert!(DecisionCore::new(cfg, &[5, 0, 3]).is_err());
        assert!(DecisionCore::new(cfg, &[40, 40, 5]).is_ok());
        assert!(matches!(
            DecisionCore::new(cfg, &[40, 40, 40, 40]),
            Err(ConfigError::CacheTooSmall { have: 30, need: 40 })
        ));
    }
}
