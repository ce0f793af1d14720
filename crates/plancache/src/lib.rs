//! # adapcc-plancache
//!
//! The content-addressing and persistence layer under the AdapCC plan
//! service.
//!
//! The paper's control plane re-synthesizes strategies on every profile
//! drift past `resynth_threshold` and on every worker exclusion
//! (Sec. IV-B/IV-D, Figs. 18(a)/19(c)); each solve anneals from
//! scratch even when the fleet returns to a previously-seen state.
//! `adapcc-planserve` removes that redundant work, and every session
//! and runner resolves its plans through it. This crate supplies the
//! pieces the service stores:
//!
//! - **[`fingerprint`](mod@fingerprint)** — a canonical two-part [`Fingerprint`] of a
//!   synthesis problem. A matching fingerprint is an *exact hit* (the
//!   stored strategy is served verbatim); a matching structural half
//!   with a drifted α–β profile is a *warm start* (the stored
//!   [`PlanSeed`] seeds `Synthesizer::synthesize_warm`).
//! - **[`CachedPlan`]** — the stored product: the strategy plus the
//!   seed it was realized from.
//! - **[`disk`]** — the optional persistent tier: one
//!   byte-deterministic hand-rolled JSON file per entry
//!   (`<fingerprint>.json`, codec in [`json`]), so a later process — or
//!   the second `adapcc_sim --plan-cache <dir>` run in CI — starts warm.
//!
//! [`PlanSeed`]: adapcc_synth::solver::PlanSeed

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod disk;
pub mod fingerprint;
pub mod json;

pub use disk::DiskTier;
pub use fingerprint::{fingerprint, Fingerprint, FingerprintInputs};

use adapcc_synth::solver::PlanSeed;
use adapcc_synth::strategy::Strategy;

/// A stored synthesis product: the strategy served on exact hits and
/// the plan blueprint that seeds warm starts.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedPlan {
    /// The synthesized strategy.
    pub strategy: Strategy,
    /// The solver blueprint it was realized from.
    pub seed: PlanSeed,
}
