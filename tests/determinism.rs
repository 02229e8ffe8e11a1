//! Scheduler determinism regression: the cooperative scheduler produces
//! bit-identical statistics run over run (its worklist order is sorted,
//! never arrival-dependent), and those statistics are pinned to goldens
//! so a scheduler change that silently alters round structure — extra
//! rounds, dropped messages, reordered completion — fails here rather
//! than only shifting benchmark numbers.
//!
//! The goldens `(processes, rounds, messages, steps)`, captured from the
//! seed scheduler, and what each run is held to are the `goldens` column
//! of `tests/matrix.rs` (`common::matrix::GOLDEN_STATS`); each test below
//! runs it on the rows its loop reached: the appendix designs at n = 4,
//! the gallery at n = 3.

mod common;

matrix_rows!(
    paper_designs_are_deterministic_and_match_goldens,
    executors_agree_bit_for_bit_on_paper_designs,
    coop_under_explicit_fifo_policy_matches_pre_hook_goldens,
    recorder_and_non_fifo_runs_stay_on_the_unbatched_goldens,
    gallery_programs_are_deterministic_and_match_goldens,
);
