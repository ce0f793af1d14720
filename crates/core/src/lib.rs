//! # adapcc
//!
//! A from-scratch Rust reproduction of **AdapCC** (Zhao, Zhang, Wu —
//! *AdapCC: Making Collective Communication in Distributed Machine
//! Learning Adaptive*, ICDCS 2024): an adaptive collective
//! communication library that profiles its links at runtime,
//! synthesizes communication strategies for the observed topology,
//! relays around computation stragglers with an online ski-rental
//! policy, and reconstructs its communication graph without ever
//! restarting the training job.
//!
//! The hardware substrate is the deterministic cluster simulator in
//! [`adapcc_simnet`] (this environment has no GPUs); every control-path
//! component — detection, profiling, synthesis, relay control — runs
//! against timing observations exactly as it would on metal, and the
//! data path moves real `f32` tensors with exact reduction semantics.
//!
//! ## Layout
//!
//! * [`session`] — the user-facing [`AdapCC`] object
//!   (`init` / `setup` / `allreduce` / `allreduce_adaptive` /
//!   `reprofile`, mirroring the paper's Python API).
//! * [`collective`] — the declarative [`CollectiveSpec`] grammar and
//!   the staged pipeline (plan → relay → execute → assemble) every
//!   entry point flows through (Sec. IV-D).
//! * [`executor`] — chunk-pipelined strategy execution (Sec. V),
//!   with per-hop deadline stall detection when faults are injected.
//! * [`error`] — typed fault classification ([`AdapCCError`],
//!   [`FaultReport`]) returned by every public collective.
//! * [`relay`] — the straggler coordinator: ski-rental decisions,
//!   relay assignment, fault detection (Sec. IV-C).
//! * [`behavior`] — the `<isActive, hasRecv, hasKernel, hasSend>`
//!   GPU behaviour abstraction (Sec. IV-C-3).
//! * [`communicator`] — transmission contexts and set-up cost
//!   accounting (Sec. V-A).
//! * [`reconstruct`] — in-place graph reconstruction versus
//!   NCCL-style restart costs (Fig. 19(c)).
//!
//! ## Example
//!
//! ```
//! use adapcc::{AdapCC, InitOptions};
//! use adapcc_simnet::cluster::Cluster;
//! use adapcc_simnet::units::ByteSize;
//!
//! // Two 4-GPU A100 servers on 100 Gbps RDMA.
//! let cluster = Cluster::homogeneous_a100(2);
//! let mut cc = AdapCC::init(&cluster, InitOptions::default());
//! cc.setup();
//! let report = cc
//!     .allreduce(ByteSize::from_mib(64), &Default::default(), None)
//!     .expect("healthy fabric");
//! println!("allreduce finished in {}", report.comm_time);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod behavior;
pub mod collective;
pub mod communicator;
pub mod ddp;
pub mod error;
pub mod executor;
pub mod reconstruct;
pub mod relay;
pub mod session;

pub use adapcc_synth::group::{GroupAxis, GroupError, ProcessGroup};
pub use behavior::{derive_behaviors, BehaviorTuple};
pub use collective::CollectiveSpec;
pub use communicator::{Communicator, SetupReport};
pub use ddp::{BucketLayout, DdpHook, DdpRoundReport};
pub use error::{AdapCCError, FaultKind, FaultReport, RecoverySummary};
pub use executor::{BatchReport, ExecutionRequest, Executor, RequestReport};
pub use reconstruct::{modeled_solve_cost, nccl_restart_cost, ReconstructReport, RestartCost};
pub use relay::{BuyEstimate, Coordinator, Decision, RelayConfig, RelayStats};
pub use session::{
    AdapCC, GroupHandle, HealthMonitor, HealthPolicy, InitOptions, InitReport, IterationReport,
    RankHealth, RecoveryEvent, RecoveryPolicy, ScaleReport, QUARANTINE_FACTOR,
};
