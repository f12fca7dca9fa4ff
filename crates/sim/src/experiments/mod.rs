//! Experiment drivers, one per paper figure/claim (DESIGN.md §6).
//!
//! Each `run` function builds the system(s) it needs, drives the
//! workload, and returns rows plus a [`crate::report::Table`] whose
//! rendering is recorded in EXPERIMENTS.md. The Criterion benches in
//! `legion-bench` wrap the same functions.

pub mod common;
pub mod e01_binding_path;
pub mod e02_agent_load;
pub mod e03_cache_tiers;
pub mod e04_combining_tree;
pub mod e05_find_class;
pub mod e06_class_cloning;
pub mod e07_lifecycle;
pub mod e08_stale_bindings;
pub mod e09_loid;
pub mod e10_replication;
pub mod e11_object_model;
pub mod e12_scalability;
pub mod e13_security;
pub mod e15_crash_recovery;
pub mod e16_chaos;
pub mod e17_scale;
pub mod e18_overload;
