//! Property-based tests of the merge-tree planner invariants.
//!
//! For arbitrary run populations, fan-in caps, and policies:
//!
//! * every pass partitions its input level exactly — each run is
//!   consumed by exactly one group per level, in order;
//! * no group exceeds the policy's fan-in (which never exceeds the cap);
//! * every level strictly shrinks and the final pass merges at least
//!   two runs whenever there are at least two to merge;
//! * blocks are conserved: the tree's single output run carries exactly
//!   the input block total;
//! * the pass count matches the analytic `ceil(log_F k)` for the fan-in
//!   the policy chose;
//! * every derived per-pass scenario validates within the base cache
//!   budget;
//! * `fan_in_for_passes` is the smallest fan-in that meets its pass
//!   budget.

use proptest::prelude::*;

use pm_core::ScenarioBuilder;
use pm_extsort::plan::{fan_in_for_passes, min_passes, plan_merge_tree, MergeTreePlan, PlanPolicy};

fn policies() -> impl Strategy<Value = PlanPolicy> {
    prop_oneof![Just(PlanPolicy::GreedyMax), Just(PlanPolicy::Balanced)]
}

fn run_populations() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(1u32..200, 1..80)
}

fn check_tree(plan: &MergeTreePlan, run_blocks: &[u32], cap: u32) -> Result<(), TestCaseError> {
    prop_assert!(plan.fan_in >= 2);
    prop_assert!(plan.fan_in <= cap.max(2));
    let total: u64 = run_blocks.iter().map(|&b| u64::from(b)).sum();
    let mut level: Vec<u32> = run_blocks.to_vec();
    for (i, pass) in plan.passes.iter().enumerate() {
        // The pass records the level it consumes.
        prop_assert_eq!(&pass.run_blocks, &level);
        // Groups partition the level contiguously and in order.
        let mut expect_start = 0usize;
        let mut next: Vec<u32> = Vec::new();
        for group in &pass.groups {
            prop_assert_eq!(group.start, expect_start, "pass {} gap/overlap", i);
            prop_assert!(group.len >= 1);
            prop_assert!(
                group.len as u32 <= plan.fan_in,
                "pass {} group wider than fan-in",
                i
            );
            let sum: u64 = level[group.start..group.start + group.len]
                .iter()
                .map(|&b| u64::from(b))
                .sum();
            prop_assert_eq!(u64::from(group.output_blocks), sum);
            expect_start += group.len;
            next.push(group.output_blocks);
        }
        prop_assert_eq!(expect_start, level.len(), "pass {} left runs behind", i);
        // Levels strictly shrink until one run remains.
        prop_assert!(next.len() < level.len(), "pass {} did not shrink", i);
        level = next;
    }
    prop_assert_eq!(level.len(), 1, "tree must end in a single run");
    prop_assert_eq!(u64::from(level[0]), total, "blocks not conserved");
    // The last pass is a real merge whenever there was anything to merge.
    if run_blocks.len() >= 2 {
        let last = plan.passes.last().expect("at least one pass");
        prop_assert!(
            last.groups.last().expect("one group").len >= 2,
            "last pass must merge at least two runs"
        );
        prop_assert_eq!(last.groups.len(), 1, "last pass ends in one group");
    }
    Ok(())
}

proptest! {
    /// Structural invariants hold for any population, cap, and policy.
    #[test]
    fn planner_invariants(
        run_blocks in run_populations(),
        cap in 2u32..20,
        policy in policies(),
    ) {
        let plan = plan_merge_tree(&run_blocks, cap, policy).unwrap();
        check_tree(&plan, &run_blocks, cap)?;
        // Pass count is the analytic minimum for the chosen fan-in —
        // and, for both policies, also the minimum for the cap itself.
        let k = run_blocks.len() as u32;
        prop_assert_eq!(plan.num_passes() as u32, min_passes(k, plan.fan_in));
        prop_assert_eq!(plan.num_passes() as u32, min_passes(k, cap));
    }

    /// Every derived per-pass scenario is valid and never grows the
    /// cache beyond the base budget.
    #[test]
    fn derived_pass_scenarios_respect_cache_budget(
        k in 2u32..40,
        cap in 2u32..10,
        depth in 1u32..6,
        policy in policies(),
    ) {
        let run_blocks = vec![8u32; k as usize];
        let plan = plan_merge_tree(&run_blocks, cap, policy).unwrap();
        let base = ScenarioBuilder::new(cap.min(k), 2)
            .run_blocks(8)
            .inter(depth)
            .build()
            .unwrap();
        for (p, pass) in plan.passes.iter().enumerate() {
            for (g, group) in pass.groups.iter().enumerate() {
                if group.len < 2 {
                    continue;
                }
                let cfg = ScenarioBuilder::pass_scenario(
                    &base,
                    group.len as u32,
                    p as u32,
                    g as u32,
                )
                .unwrap();
                prop_assert_eq!(cfg.cache_blocks, base.cache_blocks);
                prop_assert_eq!(cfg.runs, group.len as u32);
                // The initial load (runs × depth) fits the cache.
                prop_assert!(
                    cfg.runs * cfg.strategy.depth() <= cfg.cache_blocks,
                    "pass {} group {} overflows the cache",
                    p,
                    g
                );
            }
        }
    }

    /// `fan_in_for_passes(k, p)` is the smallest `F ≥ 2` that merges `k`
    /// runs in at most `p` passes.
    #[test]
    fn fan_in_for_passes_is_the_smallest_that_fits(k in 1u32..200, p in 1u32..8) {
        let f = fan_in_for_passes(k, p);
        prop_assert!(f >= 2);
        prop_assert!(min_passes(k, f) <= p, "F={} needs {} passes", f, min_passes(k, f));
        if f > 2 {
            prop_assert!(min_passes(k, f - 1) > p, "F={} also fits {} passes", f - 1, p);
        }
    }
}
