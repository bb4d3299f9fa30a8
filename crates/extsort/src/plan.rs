//! Merge-tree planning: identity-preserving multi-pass schedules.
//!
//! When the number of runs `k` exceeds the fan-in `F` a merge can
//! sustain (bounded by the cache, since each input run needs buffers),
//! the merge proceeds in passes, each combining up to `F` runs into one
//! longer run. Every group names *which* runs it consumes, outputs feed
//! the next pass in a deterministic order, and each group of a tree of
//! two or more merges gets a concrete scenario (depth, cap, seed) derived
//! from the shared cache budget (a single merge keeps its base), so
//! one plan serves the simulator's prediction ([`predict_plan`]), the
//! engine's executor and the `ext_multipass` fan-in sweep alike.
//!
//! Two fan-in policies are provided, selectable via [`PlanPolicy`]:
//!
//! * [`PlanPolicy::GreedyMax`] — every pass uses the full fan-in cap
//!   `F`. Minimizes passes, but the last pass of an uneven tree can
//!   degenerate (k=9, F=8 gives an 8-way pass followed by a lopsided
//!   2-way pass over almost all the data).
//! * [`PlanPolicy::Balanced`] — in the spirit of Arge–Thorup's
//!   RAM-efficient sorting, first compute the minimum pass count `P`
//!   achievable at the cap, then use the *smallest* fan-in that still
//!   finishes in `P` passes. Same pass count, smaller groups, so each
//!   group gets a deeper prefetch out of the same cache (fewer seeks).
//!   For k=9, F=8 this plans three 3-way merges and then one 3-way
//!   merge instead of 8+1 followed by a near-total 2-way pass.
//!
//! Groups are contiguous index ranges over the current level, and each
//! pass's outputs are appended in group order, so the tree fully
//! determines the data flow — the engine's multi-pass executor and
//! [`predict_plan`] walk the same structure.

use pm_core::{
    ConfigError, MergeConfig, MergeSim, PmError, ScenarioBuilder, SimDuration, UniformDepletion,
};

/// How the planner chooses the per-pass fan-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanPolicy {
    /// Use the full fan-in cap on every pass (fewest, widest merges).
    GreedyMax,
    /// Use the smallest fan-in that preserves the minimum pass count,
    /// trading merge width for prefetch depth.
    Balanced,
}

impl PlanPolicy {
    /// Stable label used by the CLI and manifests.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PlanPolicy::GreedyMax => "greedy-max",
            PlanPolicy::Balanced => "balanced",
        }
    }

    /// Parses a CLI spelling.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::Usage`] for anything other than `greedy-max`
    /// (or `greedy`) and `balanced`.
    pub fn parse(s: &str) -> Result<Self, PmError> {
        match s {
            "greedy-max" | "greedy" => Ok(PlanPolicy::GreedyMax),
            "balanced" => Ok(PlanPolicy::Balanced),
            other => Err(PmError::Usage(format!(
                "unknown plan policy '{other}' (expected greedy-max or balanced)"
            ))),
        }
    }
}

/// One merge group: a contiguous range of the pass's input level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanGroup {
    /// Index of the group's first input run within the level.
    pub start: usize,
    /// Number of input runs (1 = passthrough, no I/O).
    pub len: usize,
    /// Blocks in the run this group produces.
    pub output_blocks: u32,
}

/// One pass of the merge tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanPass {
    /// Fan-in bound this pass was chunked by.
    pub fan_in: u32,
    /// The pass's input-run lengths, in level order (blocks).
    pub run_blocks: Vec<u32>,
    /// Contiguous merge groups covering `run_blocks` exactly.
    pub groups: Vec<PlanGroup>,
    /// Blocks read (= written) by the pass; passthrough groups move no
    /// data and are excluded.
    pub blocks_read: u64,
}

impl PlanPass {
    /// The input-run lengths of group `g`.
    #[must_use]
    pub fn group_lengths(&self, g: usize) -> &[u32] {
        let group = &self.groups[g];
        &self.run_blocks[group.start..group.start + group.len]
    }

    /// Groups that actually merge (≥ 2 inputs).
    #[must_use]
    pub fn merged_groups(&self) -> usize {
        self.groups.iter().filter(|g| g.len > 1).count()
    }
}

/// A complete merge tree: every pass, in execution order, ending with a
/// single output run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeTreePlan {
    /// Policy the tree was planned under.
    pub policy: PlanPolicy,
    /// The fan-in cap the caller supplied.
    pub fan_in_cap: u32,
    /// The fan-in the policy actually chunked by.
    pub fan_in: u32,
    /// Passes in execution order; empty when the input is a single run.
    pub passes: Vec<PlanPass>,
}

impl MergeTreePlan {
    /// Number of merge passes.
    #[must_use]
    pub fn num_passes(&self) -> usize {
        self.passes.len()
    }

    /// Total blocks read (= written) across all passes.
    #[must_use]
    pub fn total_blocks_read(&self) -> u64 {
        self.passes.iter().map(|p| p.blocks_read).sum()
    }

    /// The scenario group `group` of pass `pass` merges under, for
    /// [`predict_plan`] and the engine's executor alike: `base` as given
    /// in a tree of one merge, else [`ScenarioBuilder::pass_scenario`].
    ///
    /// # Errors
    ///
    /// Returns [`PmError::Config`] if the derived scenario is invalid.
    pub fn group_scenario(
        &self,
        base: &MergeConfig,
        pass: usize,
        group: usize,
    ) -> Result<MergeConfig, PmError> {
        let merges: usize = self.passes.iter().map(PlanPass::merged_groups).sum();
        if merges == 1 {
            return Ok(*base);
        }
        let runs = self.passes[pass].groups[group].len as u32;
        ScenarioBuilder::pass_scenario(base, runs, pass as u32, group as u32)
    }
}

/// Minimum number of `fan_in`-way passes needed to reduce `k` runs to
/// one: the analytic `ceil(log_F k)`.
#[must_use]
pub fn min_passes(k: u32, fan_in: u32) -> u32 {
    let fan_in = fan_in.max(2);
    let mut level = k.max(1);
    let mut passes = 0;
    while level > 1 {
        level = level.div_ceil(fan_in);
        passes += 1;
    }
    passes
}

/// The smallest fan-in `F ≥ 2` that reduces `k` runs to one in at most
/// `passes` passes.
///
/// The result never exceeds `max(k, 2)`, the fan-in of a single pass, so
/// `passes = 0` (unreachable for `k ≥ 2`) yields that too.
#[must_use]
pub fn fan_in_for_passes(k: u32, passes: u32) -> u32 {
    let widest = k.max(2);
    let mut f = 2;
    while f < widest && min_passes(k, f) > passes {
        f += 1;
    }
    f
}

/// Plans a merge tree over `run_blocks` (per-run lengths in blocks, in
/// storage order) with group sizes bounded by `fan_in_cap`.
///
/// # Errors
///
/// Returns [`PmError::Usage`] for an empty input or a zero-length run,
/// and [`ConfigError::FanInExceeded`] (as [`PmError::Config`]) when the
/// cap is below 2 but more than one run must be merged.
pub fn plan_merge_tree(
    run_blocks: &[u32],
    fan_in_cap: u32,
    policy: PlanPolicy,
) -> Result<MergeTreePlan, PmError> {
    if run_blocks.is_empty() {
        return Err(PmError::Usage("cannot plan a merge of zero runs".into()));
    }
    if run_blocks.contains(&0) {
        return Err(PmError::Usage(
            "cannot plan a merge with an empty run".into(),
        ));
    }
    let k = u32::try_from(run_blocks.len())
        .map_err(|_| PmError::Usage("too many runs to plan".into()))?;
    if k > 1 && fan_in_cap < 2 {
        return Err(ConfigError::FanInExceeded {
            runs: k,
            fan_in: fan_in_cap,
        }
        .into());
    }
    let fan_in = match policy {
        PlanPolicy::GreedyMax => fan_in_cap.max(2),
        PlanPolicy::Balanced => fan_in_for_passes(k, min_passes(k, fan_in_cap)),
    };
    let mut passes = Vec::new();
    let mut level: Vec<u32> = run_blocks.to_vec();
    while level.len() > 1 {
        let f = fan_in as usize;
        let mut groups = Vec::new();
        let mut next = Vec::with_capacity(level.len().div_ceil(f));
        let mut start = 0;
        while start < level.len() {
            let len = f.min(level.len() - start);
            let sum: u64 = level[start..start + len]
                .iter()
                .map(|&b| u64::from(b))
                .sum();
            let output_blocks = u32::try_from(sum)
                .map_err(|_| PmError::Usage("merged run exceeds u32 blocks".into()))?;
            groups.push(PlanGroup {
                start,
                len,
                output_blocks,
            });
            next.push(output_blocks);
            start += len;
        }
        let blocks_read = groups
            .iter()
            .filter(|g| g.len > 1)
            .map(|g| u64::from(g.output_blocks))
            .sum();
        passes.push(PlanPass {
            fan_in,
            run_blocks: level,
            groups,
            blocks_read,
        });
        level = next;
    }
    Ok(MergeTreePlan {
        policy,
        fan_in_cap,
        fan_in,
        passes,
    })
}

/// Predicted cost of one pass, from the merge-phase simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassPrediction {
    /// Summed simulated read time of the pass's merged groups.
    pub read_time: SimDuration,
    /// Blocks the pass reads (passthrough groups excluded).
    pub blocks: u64,
    /// Groups that actually merge.
    pub merged_groups: u32,
}

/// Predicts every pass of `plan` by running the merge-phase simulator
/// on each merged group under its scenario
/// ([`MergeTreePlan::group_scenario`]) with uniform depletion, summing
/// group read times per pass.
///
/// # Errors
///
/// Returns [`PmError::Config`] if a derived scenario is invalid — e.g.
/// the cap admits groups the cache cannot actually hold.
pub fn predict_plan(
    plan: &MergeTreePlan,
    base: &MergeConfig,
) -> Result<Vec<PassPrediction>, PmError> {
    plan.passes
        .iter()
        .enumerate()
        .map(|(p, pass)| {
            let mut read_time = SimDuration::ZERO;
            let mut merged_groups = 0;
            for (g, group) in pass.groups.iter().enumerate() {
                if group.len < 2 {
                    continue;
                }
                let lens = pass.group_lengths(g);
                let cfg = plan.group_scenario(base, p, g)?;
                let report = MergeSim::with_run_lengths(cfg, lens)
                    .map_err(PmError::Config)?
                    .run(&mut UniformDepletion);
                read_time += report.total;
                merged_groups += 1;
            }
            Ok(PassPrediction {
                read_time,
                blocks: pass.blocks_read,
                merged_groups,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_passes_is_ceil_log() {
        assert_eq!(min_passes(1, 8), 0);
        assert_eq!(min_passes(2, 8), 1);
        assert_eq!(min_passes(8, 8), 1);
        assert_eq!(min_passes(9, 8), 2);
        assert_eq!(min_passes(64, 8), 2);
        assert_eq!(min_passes(65, 8), 3);
        assert_eq!(min_passes(27, 3), 3);
    }

    #[test]
    fn fan_in_for_passes_shrinks_without_adding_passes() {
        // k=9 at cap 8 takes 2 passes; F=3 is the smallest that still
        // does (F=2 would need 4).
        assert_eq!(fan_in_for_passes(9, min_passes(9, 8)), 3);
        // A perfect power keeps the cap.
        assert_eq!(fan_in_for_passes(64, min_passes(64, 8)), 8);
        // Single pass requires the full width.
        assert_eq!(fan_in_for_passes(5, min_passes(5, 8)), 5);
        // A single run needs no merging at any fan-in.
        assert_eq!(fan_in_for_passes(1, 0), 2);
    }

    #[test]
    fn greedy_and_balanced_diverge_on_k9_f8() {
        let lens = vec![10u32; 9];
        let greedy = plan_merge_tree(&lens, 8, PlanPolicy::GreedyMax).unwrap();
        let balanced = plan_merge_tree(&lens, 8, PlanPolicy::Balanced).unwrap();
        assert_eq!(greedy.num_passes(), 2);
        assert_eq!(balanced.num_passes(), 2);
        // Greedy: [8, 1] then [2]; the singleton moves no data but the
        // final pass re-reads everything.
        assert_eq!(
            greedy.passes[0]
                .groups
                .iter()
                .map(|g| g.len)
                .collect::<Vec<_>>(),
            vec![8, 1]
        );
        assert_eq!(greedy.passes[0].blocks_read, 80);
        assert_eq!(greedy.passes[1].blocks_read, 90);
        // Balanced: three 3-way groups then one 3-way group.
        assert_eq!(balanced.fan_in, 3);
        assert_eq!(
            balanced.passes[0]
                .groups
                .iter()
                .map(|g| g.len)
                .collect::<Vec<_>>(),
            vec![3, 3, 3]
        );
        assert_eq!(balanced.passes[1].groups.len(), 1);
        assert_eq!(balanced.total_blocks_read(), 180);
    }

    #[test]
    fn trivial_and_degenerate_inputs() {
        // k <= F: one pass, one group.
        let plan = plan_merge_tree(&[5, 6, 7], 8, PlanPolicy::GreedyMax).unwrap();
        assert_eq!(plan.num_passes(), 1);
        assert_eq!(plan.passes[0].groups.len(), 1);
        assert_eq!(plan.passes[0].groups[0].output_blocks, 18);
        // k = 1: nothing to do.
        let plan = plan_merge_tree(&[42], 8, PlanPolicy::Balanced).unwrap();
        assert_eq!(plan.num_passes(), 0);
        // Errors.
        assert!(plan_merge_tree(&[], 8, PlanPolicy::GreedyMax).is_err());
        assert!(plan_merge_tree(&[1, 0], 8, PlanPolicy::GreedyMax).is_err());
        let err = plan_merge_tree(&[1, 2, 3], 1, PlanPolicy::GreedyMax).unwrap_err();
        assert!(err.to_string().contains("pmerge plan"), "{err}");
    }

    #[test]
    fn pass_count_matches_analytic_form() {
        for k in [2u32, 3, 7, 8, 9, 16, 27, 31, 64] {
            for f in [2u32, 3, 4, 8] {
                let lens = vec![10u32; k as usize];
                for policy in [PlanPolicy::GreedyMax, PlanPolicy::Balanced] {
                    let plan = plan_merge_tree(&lens, f, policy).unwrap();
                    assert_eq!(
                        plan.num_passes() as u32,
                        min_passes(k, f),
                        "k={k} F={f} {:?}",
                        policy
                    );
                }
            }
        }
    }

    #[test]
    fn a_one_merge_plan_predicts_its_base_scenario() {
        let base = ScenarioBuilder::new(8, 2)
            .run_blocks(10)
            .inter(2)
            .seed(7)
            .build()
            .unwrap();
        let plan = plan_merge_tree(&[10u32; 8], 8, PlanPolicy::GreedyMax).unwrap();
        assert_eq!(plan.group_scenario(&base, 0, 0).unwrap(), base);
        let pred = predict_plan(&plan, &base).unwrap();
        let alone = MergeSim::with_run_lengths(base, &[10u32; 8])
            .unwrap()
            .run(&mut UniformDepletion);
        assert_eq!(pred[0].read_time, alone.total);
        // Two merges or more derive each group's scenario.
        let plan = plan_merge_tree(&[10u32; 9], 8, PlanPolicy::GreedyMax).unwrap();
        assert_eq!(
            plan.group_scenario(&base, 0, 0).unwrap(),
            ScenarioBuilder::pass_scenario(&base, 8, 0, 0).unwrap()
        );
    }

    #[test]
    fn predict_sums_only_merged_groups() {
        let base = ScenarioBuilder::new(8, 2)
            .run_blocks(10)
            .inter(2)
            .build()
            .unwrap();
        let plan = plan_merge_tree(&[10u32; 9], 8, PlanPolicy::GreedyMax).unwrap();
        let pred = predict_plan(&plan, &base).unwrap();
        assert_eq!(pred.len(), 2);
        // Pass 1 merges one 8-way group; the singleton costs nothing.
        assert_eq!(pred[0].merged_groups, 1);
        assert_eq!(pred[0].blocks, 80);
        assert!(pred[0].read_time > SimDuration::ZERO);
        assert_eq!(pred[1].merged_groups, 1);
        assert_eq!(pred[1].blocks, 90);
    }
}
