//! Property tests of the request-tag packing conventions.

use proptest::prelude::*;

use pm_trace::{pack_tag, pack_tenant_tag, unpack_tag, unpack_tenant_tag, TENANT_TAG_MAX_RUN};

proptest! {
    #[test]
    fn tenant_tag_round_trips(
        tenant in any::<u16>(),
        run in 0u32..=TENANT_TAG_MAX_RUN,
        block in any::<u32>(),
    ) {
        prop_assert_eq!(
            unpack_tenant_tag(pack_tenant_tag(tenant, run, block)),
            (tenant, run, block)
        );
    }

    /// Run ids past the 16-bit cap are masked, never smeared into the
    /// tenant or block fields.
    #[test]
    fn oversized_runs_mask_without_corrupting_neighbors(
        tenant in any::<u16>(),
        run in any::<u32>(),
        block in any::<u32>(),
    ) {
        let (t, r, b) = unpack_tenant_tag(pack_tenant_tag(tenant, run, block));
        prop_assert_eq!(t, tenant);
        prop_assert_eq!(r, run & TENANT_TAG_MAX_RUN);
        prop_assert_eq!(b, block);
    }

    /// Tenant 0 tags are bit-identical to the single-job [`pack_tag`]
    /// convention, and the tenant-blind unpacker still reads run/block
    /// out of any tenant-tagged request.
    #[test]
    fn tenant_tags_nest_in_the_plain_convention(
        tenant in any::<u16>(),
        run in 0u32..=TENANT_TAG_MAX_RUN,
        block in any::<u32>(),
    ) {
        prop_assert_eq!(pack_tenant_tag(0, run, block), pack_tag(run, block));
        let (plain_run, plain_block) = unpack_tag(pack_tenant_tag(tenant, run, block));
        prop_assert_eq!(plain_run & TENANT_TAG_MAX_RUN, run);
        prop_assert_eq!(plain_block, block);
    }
}
