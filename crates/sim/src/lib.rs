//! # legion-sim — whole-system simulation, workloads, and experiments
//!
//! Assembles every other crate into a deterministic Legion-in-a-box
//! ([`system::LegionSystem`]), generates the paper's assumed workloads
//! ([`workload`]: locality + Zipf popularity), and drives one experiment
//! per paper figure/claim ([`experiments`], E1-E18 in DESIGN.md §6; E14
//! is retired).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod experiments;
pub mod obs_run;
pub mod report;
pub mod run_report;
pub mod system;
pub mod workload;

pub use report::Table;
pub use system::{LegionSystem, SystemConfig};
pub use workload::{ClientReport, LookupClient, WorkloadConfig};
