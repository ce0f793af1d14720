//! # adapcc-planserve
//!
//! The plan service every AdapCC synthesis request resolves through.
//! A session or runner given no shared service builds a one-shard one
//! of its own; one shared `Arc<PlanService>` serves synthesized
//! strategies to many training jobs at once.
//!
//! Real clusters run many overlapping jobs whose synthesis requests
//! repeat heavily across tenants (TACCL, PCCL): job N+1 usually asks
//! for a plan some job N already paid to solve. The service exploits
//! that with three layers:
//!
//! - **[`store`]** — a fingerprint-sharded strategy store.
//!   Lookups take only a per-shard `RwLock` read guard (LRU stamps are
//!   atomics bumped under the read lock, so concurrent hits never
//!   serialize); inserts take the one shard's write lock. Each shard
//!   enforces its slice of a global byte budget with LRU eviction, so
//!   the whole store never exceeds
//!   [`ServiceConfig::byte_budget`](service::ServiceConfig).
//! - **[`admission`]** — single-flight coalescing. The first requester
//!   of a cold fingerprint becomes the *leader* and solves; every
//!   concurrent requester of the same fingerprint blocks on the
//!   leader's flight and receives the published result. A thundering
//!   herd of N identical cold requests costs exactly one solve.
//! - **cross-job warm starts** — a cold request whose *structural*
//!   fingerprint half matches a stored entry (same fleet shape,
//!   drifted measurements) receives that entry's
//!   [`PlanSeed`](adapcc_synth::solver::PlanSeed) and re-synthesizes
//!   through `Synthesizer::synthesize_warm` at ~1/8 of the cold cost,
//!   even when the measurements came from a different job.
//!
//! The facade is [`PlanService`]: sessions share
//! one `Arc<PlanService>` through `InitOptions::plan_service`, the
//! baselines `Runner` through `Runner::with_plan_service`, and the
//! `adapcc_sim serve` subcommand drives a synthetic many-job workload
//! against it. [`PlanService::with_disk_tier`] adds the persistent
//! tier of `adapcc-plancache`, read through on a miss and written
//! through on insert. Each requester resolves with [`synthesize`] as
//! its solve, checks plans it did not solve with
//! [`PlanService::revalidate`] and bills the outcome once in its own
//! [`PlanStats`] (exported as `plancache.*`); the store's counters
//! export as `planserve.*`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod admission;
pub mod service;
pub mod store;

pub use service::{
    synthesize, PlanService, PlanStats, Resolved, Served, ServiceConfig, ServiceStats,
};
pub use store::approx_plan_bytes;
