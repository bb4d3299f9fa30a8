//! The full external-mergesort pipeline with depletion-trace extraction.

use pm_core::{PmError, RunId, TraceDepletion};

use crate::{run_formation, Record};
use pm_core::LoserTree;

/// How sorted runs are formed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RunFormation {
    /// Fill memory, sort, emit — equal-length runs (the paper's setup).
    #[default]
    LoadSort,
    /// Replacement selection — variable-length runs, ≈ `2M` on random
    /// input.
    ReplacementSelection,
}

impl RunFormation {
    /// Parses a CLI spelling.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::Usage`] for anything other than `load-sort` and
    /// `replacement`.
    pub fn parse(s: &str) -> Result<Self, PmError> {
        match s {
            "load-sort" => Ok(RunFormation::LoadSort),
            "replacement" => Ok(RunFormation::ReplacementSelection),
            other => Err(PmError::Usage(format!(
                "unknown formation '{other}' (load-sort | replacement)"
            ))),
        }
    }

    /// Forms sorted runs from `input`, holding `memory` records at a time.
    ///
    /// # Panics
    ///
    /// Panics if `memory` is zero.
    #[must_use]
    pub fn form(self, input: &[Record], memory: usize) -> Vec<Vec<Record>> {
        match self {
            RunFormation::LoadSort => run_formation::load_sort(input, memory),
            RunFormation::ReplacementSelection => {
                run_formation::replacement_selection(input, memory)
            }
        }
    }
}

/// External-sort parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtSortConfig {
    /// Records held in memory during run formation.
    pub memory_records: usize,
    /// Records per disk block (the paper's blocks hold 40).
    pub records_per_block: usize,
    /// Run-formation policy.
    pub run_formation: RunFormation,
}

impl Default for ExtSortConfig {
    fn default() -> Self {
        ExtSortConfig {
            memory_records: 40 * 1000, // one paper run: 1000 blocks
            records_per_block: 40,
            run_formation: RunFormation::LoadSort,
        }
    }
}

/// Result of an external sort.
#[derive(Debug, Clone)]
pub struct SortOutcome {
    /// The fully merged output.
    pub output: Vec<Record>,
    /// Length (records) of each sorted run.
    pub run_lengths: Vec<usize>,
    /// Number of blocks in each run (last block may be partial).
    pub run_blocks: Vec<u32>,
    /// Depletion trace: the order in which the merge *finished* blocks —
    /// the data-driven counterpart of the paper's random depletion model.
    pub trace: Vec<RunId>,
}

impl SortOutcome {
    /// Wraps the trace in a [`TraceDepletion`] model for the simulator.
    #[must_use]
    pub fn depletion_model(&self) -> TraceDepletion {
        TraceDepletion::new(self.trace.clone())
    }

    /// `true` if every run has the same block count — required to replay
    /// the trace through a [`MergeConfig`](pm_core::MergeConfig), which
    /// models equal-length runs.
    #[must_use]
    pub fn uniform_run_blocks(&self) -> Option<u32> {
        let first = *self.run_blocks.first()?;
        self.run_blocks
            .iter()
            .all(|&b| b == first)
            .then_some(first)
    }
}

/// Sorts `input` by run formation + one `k`-way merge pass, recording the
/// block-depletion order of the merge.
///
/// # Examples
///
/// ```
/// use pm_extsort::{external_sort, generate, ExtSortConfig};
///
/// let input = generate::uniform(1000, 7);
/// let cfg = ExtSortConfig {
///     memory_records: 250,
///     records_per_block: 10,
///     ..ExtSortConfig::default()
/// };
/// let out = external_sort(&input, &cfg);
/// assert!(out.output.windows(2).all(|w| w[0] <= w[1]));
/// assert_eq!(out.run_lengths, vec![250; 4]);
/// // 4 runs x 25 blocks were consumed in some interleaved order:
/// assert_eq!(out.trace.len(), 100);
/// ```
///
/// # Panics
///
/// Panics if the configuration has zero memory or block size.
#[must_use]
pub fn external_sort(input: &[Record], cfg: &ExtSortConfig) -> SortOutcome {
    assert!(cfg.memory_records > 0, "memory must hold at least one record");
    assert!(cfg.records_per_block > 0, "blocks must hold at least one record");
    let runs = cfg.run_formation.form(input, cfg.memory_records);
    let run_lengths: Vec<usize> = runs.iter().map(Vec::len).collect();
    let run_blocks: Vec<u32> = run_lengths
        .iter()
        .map(|&len| len.div_ceil(cfg.records_per_block) as u32)
        .collect();

    if runs.is_empty() {
        return SortOutcome {
            output: Vec::new(),
            run_lengths,
            run_blocks,
            trace: Vec::new(),
        };
    }

    // k-way merge through the loser tree, counting per-run consumption to
    // detect block boundaries.
    let mut iters: Vec<std::vec::IntoIter<Record>> = runs.into_iter().map(Vec::into_iter).collect();
    let heads: Vec<Option<Record>> = iters.iter_mut().map(Iterator::next).collect();
    let mut tree = LoserTree::new(heads);
    let mut output = Vec::with_capacity(input.len());
    let mut consumed = vec![0usize; run_lengths.len()];
    let mut trace = Vec::new();
    while let Some((src, _)) = tree.winner() {
        let next = iters[src].next();
        let (_, record) = tree.pop_and_replace(next).expect("non-empty tree");
        output.push(record);
        consumed[src] += 1;
        // A block of `src` is depleted when its last record is consumed.
        if consumed[src] % cfg.records_per_block == 0 || consumed[src] == run_lengths[src] {
            trace.push(RunId(src as u32));
        }
    }
    SortOutcome {
        output,
        run_lengths,
        run_blocks,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    fn cfg(memory: usize, rpb: usize) -> ExtSortConfig {
        ExtSortConfig {
            memory_records: memory,
            records_per_block: rpb,
            run_formation: RunFormation::LoadSort,
        }
    }

    #[test]
    fn sorts_correctly() {
        let input = generate::uniform(5000, 1);
        let out = external_sort(&input, &cfg(500, 10));
        assert_eq!(out.output.len(), 5000);
        assert!(out.output.windows(2).all(|w| w[0] <= w[1]));
        // Output is a permutation of the input.
        let mut rids: Vec<u64> = out.output.iter().map(|r| r.rid).collect();
        rids.sort_unstable();
        assert_eq!(rids, (0..5000).collect::<Vec<_>>());
    }

    #[test]
    fn equal_runs_with_load_sort() {
        let input = generate::uniform(4000, 2);
        let out = external_sort(&input, &cfg(400, 10));
        assert_eq!(out.run_lengths, vec![400; 10]);
        assert_eq!(out.run_blocks, vec![40; 10]);
        assert_eq!(out.uniform_run_blocks(), Some(40));
    }

    #[test]
    fn trace_depletes_each_run_once_per_block() {
        let input = generate::uniform(1200, 3);
        let out = external_sort(&input, &cfg(300, 10));
        // 4 runs × 30 blocks.
        assert_eq!(out.trace.len(), 120);
        for run in 0..4u32 {
            let count = out.trace.iter().filter(|r| r.0 == run).count();
            assert_eq!(count, 30, "run {run}");
        }
    }

    #[test]
    fn trace_drives_the_simulator() {
        use pm_core::{MergeSim, PrefetchStrategy, ScenarioBuilder};
        let input = generate::uniform(2400, 4);
        let out = external_sort(&input, &cfg(400, 10));
        let blocks = out.uniform_run_blocks().expect("equal runs");
        let mut sim_cfg = ScenarioBuilder::new(out.run_lengths.len() as u32, 2).build().unwrap();
        sim_cfg.run_blocks = blocks;
        sim_cfg.strategy = PrefetchStrategy::IntraRun { n: 4 };
        sim_cfg.cache_blocks = sim_cfg.runs * 4;
        let mut model = out.depletion_model();
        let report = MergeSim::new(sim_cfg).unwrap().run(&mut model);
        assert_eq!(report.blocks_merged, u64::from(blocks) * 6);
    }

    #[test]
    fn partial_final_blocks_are_counted() {
        // 3 runs of 105 records at 10 records/block: 11 blocks each (last
        // block holds 5 records).
        let input = generate::uniform(315, 5);
        let out = external_sort(&input, &cfg(105, 10));
        assert_eq!(out.run_blocks, vec![11; 3]);
        assert_eq!(out.trace.len(), 33);
    }

    #[test]
    fn replacement_selection_pipeline() {
        let input = generate::uniform(3000, 6);
        let out = external_sort(
            &input,
            &ExtSortConfig {
                memory_records: 200,
                records_per_block: 10,
                run_formation: RunFormation::ReplacementSelection,
            },
        );
        assert!(out.output.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(out.output.len(), 3000);
        // Variable run lengths: trace still consistent with block counts.
        let total_blocks: u32 = out.run_blocks.iter().sum();
        assert_eq!(out.trace.len(), total_blocks as usize);
    }

    #[test]
    fn empty_input() {
        let out = external_sort(&[], &cfg(100, 10));
        assert!(out.output.is_empty());
        assert!(out.trace.is_empty());
        assert_eq!(out.uniform_run_blocks(), None);
    }

    #[test]
    fn duplicate_heavy_input_is_stable_per_key() {
        let input = generate::few_distinct(1000, 4, 7);
        let out = external_sort(&input, &cfg(100, 10));
        assert!(out.output.windows(2).all(|w| w[0] <= w[1]));
    }
}
