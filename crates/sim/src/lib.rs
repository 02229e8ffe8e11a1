//! # systolic-sim
//!
//! Deterministic-simulation testing for systolized programs: adversarial
//! schedule exploration, fault injection, and shrunk, replayable
//! counterexamples.
//!
//! The property under test is the paper's Sec. 4 schedule-independence
//! theorem: a correctly compiled network computes the same outputs under
//! *every* interleaving that honours channel rendezvous. This crate
//! supplies the machinery to hunt for violations deterministically:
//!
//! - [`policy`] — the adversary policies ([`RandomPolicy`],
//!   [`LifoPolicy`], [`PriorityInversionPolicy`]) plugged into the
//!   cooperative engine's `SchedulePolicy` hook, plus the
//!   [`RecordingPolicy`]/[`ReplayPolicy`] pair that makes any run's
//!   schedule decisions serializable and re-executable;
//! - [`fault`] — bounded rendezvous delays and process aborts, each with
//!   a precise pass/fail contract;
//! - [`explore`] — the seed-matrix explorer: sweep, detect divergence
//!   via outputs/stats/the recorder's transfer stream, shrink the
//!   decision log to a minimal prefix, and emit a
//!   `systolic-schedule-v1` JSON file that `systolic replay` reproduces.
//!
//! Schedule files are built and read through the workspace's one JSON
//! model, `systolic_runtime::json`, re-exported here as [`json`]/[`Json`]
//! for the callers that reach it through this crate.
//!
//! The `dst_explore` binary runs the CI matrix (64 seeds × 3 policies ×
//! 5 gallery designs) and writes counterexample artifacts on failure.
//! See `docs/testing.md` for the walkthrough.

pub mod explore;
pub mod fault;
pub mod policy;

pub use explore::{
    compare_outcomes, compile_design, compile_source, explore, registry, replay, shrink_log,
    subject_for, subject_of, Counterexample, DesignError, DesignSpec, DstSubject, ExploreConfig,
    ExploreReport, Outcome, PlanSubject, RaceSubject, ReplayReport, ScheduleFile, RACE_SINK,
    SCHEDULE_SCHEMA,
};
pub use fault::{DelayPolicy, Fault, FaultPlan};
pub use policy::{
    policy_by_name, LifoPolicy, PriorityInversionPolicy, RandomPolicy, RecordingPolicy,
    ReplayPolicy, ScheduleLog, ScheduleRound, POLICY_NAMES,
};
pub use systolic_runtime::json::{self, Json};
