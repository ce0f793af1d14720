//! The collective descriptor and its staged pipeline.
//!
//! Every public collective entry point on [`crate::session::AdapCC`]
//! is a thin wrapper: build (or reuse) a [`CollectiveSpec`], hand it
//! to the pipeline. The spec is pure data — primitive stages, a
//! per-stage root/shard rule, a relay policy and an output-assembly
//! rule — and the pipeline is the single code path that plans,
//! consults the relay coordinator, executes, assembles and reports.
//! Adding a collective means writing a spec (see
//! [`CollectiveSpec::gather`] / [`CollectiveSpec::scatter`]), not a
//! new orchestration body.
//!
//! Module layout:
//!
//! - [`spec`] — the descriptor grammar and the built-in specs
//! - [`plan`] — pure lowering of a spec onto a worker set
//! - [`assemble`] — per-sub outputs → the collective's result buffers
//! - [`report`] — the [`IterationReport`] every entry point returns
//! - `pipeline` — the staged plan → relay → execute → assemble →
//!   report orchestration and the wait-all executor (private; reached
//!   via the session entry points)
//! - `partial` — the phase-1 / phase-2 executor behind a `Partial`
//!   relay decision (private)

pub mod assemble;
mod partial;
mod pipeline;
pub mod plan;
pub mod report;
pub mod spec;

pub use report::IterationReport;
pub use spec::{AssembleRule, CollectiveSpec, Fanout, RelayPolicy, ShardRule, StageSpec};
