//! # legion-security — the §2.4 security hooks
//!
//! Legion "does not attempt to guarantee security to its users"; it
//! provides *mechanism* — `MayI()`/`Iam()`, the ⟨Responsible Agent,
//! Security Agent, Calling Agent⟩ environment, and user-replaceable
//! policies — and leaves *policy* to the objects themselves ("do no harm;
//! caveat emptor; small is beautiful").
//!
//! * [`mayi`] — pluggable `MayI()` policies, from the empty default
//!   (`AllowAll`) through ACLs and delegated-authority checks to
//!   conjunctions;
//! * [`trust`] — labelled certification sets (the paper's DOE story);
//! * [`keys`] — LOID public-key well-formedness and `Iam()` verification.
//!
//! The invocation-environment triple itself lives in
//! [`legion_core::env::InvocationEnv`] since every message carries it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod keys;
pub mod mayi;
pub mod trust;

pub use keys::{key_is_well_formed, verify_env, verify_iam};
pub use mayi::{AllOf, AllowAll, Decision, MayIPolicy, MethodAcl, ResponsibleAgentSet};
pub use trust::TrustRegistry;
