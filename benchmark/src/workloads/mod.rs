//! The five workloads. Each builds its state in a repeatable `setup`,
//! then runs operations that time themselves and check their own
//! results against the sequential oracle.

pub mod cli;
pub mod fresh;
pub mod service;
pub mod warm;
