//! The differential matrix: each column of `tests/common/matrix.rs` on
//! its table (`run_table`; that module says which cells run here and
//! which in the tests named after the loops it absorbed). A failure names
//! its (row, column); each column prints its cell counts (`cargo test
//! --test matrix -- --nocapture`). To add a property: write its check
//! there as a `Column` and add one line here.

mod common;

use common::matrix::*;

/// One test per column, over the table; each column holds some row.
macro_rules! columns {
    ($($(#[$doc:meta])* $name:ident: $column:ident;)+) => {$(
        $(#[$doc])*
        #[test]
        fn $name() {
            assert!(run_table(&$column) > 0);
        }
    )+};
}

columns! {
    /// The sequential oracle against its reference walker.
    seq_walk_against_its_reference: SEQ;
    oracle_store_on_every_rung: ORACLE;
    count_law: COUNT_LAW;
    channel_law_and_lean_ops: CHANNEL_LAW;
    kernels_against_the_scalar_sweep: KERNELS;
    /// Where the kernels reach: every compute chunk but E.2's cycle
    /// under split propagation.
    kernel_plan_reaches_every_compute_chunk: KERNEL_PLAN;
    /// One module per protocol variant, whatever data set ran on it.
    one_module_per_store_shape: BINDING;
    /// `agree_with_procir` and the plan's piecewise forms.
    elaboration_agrees_with_the_scan: SCAN;
    reports_describe_the_module_that_ran: REPORTS;
    wavefront_plan_invariants: WAVEFRONT_PLAN;
    determinism_goldens: GOLDENS;
    fast_plan_digests: DIGESTS;
}

/// Which engine each rung takes; somewhere on the table the optimizer
/// rewrites a module, so the fused rung is exercised too.
#[test]
fn rung_engagement() {
    run_table(&ENGAGEMENT);
    let fused = |c: &Case| c.module().fast_plan().optimized.is_some();
    assert!(table().iter().any(fused), "no row engaged the optimizer");
}
