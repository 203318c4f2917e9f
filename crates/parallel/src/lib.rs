//! Parallel game-tree search: the ER algorithm (Steinberg & Solomon,
//! ICPP 1990) and the prior algorithms it is evaluated against.
//!
//! * [`er`] — parallel ER (§5–6): problem-heap engine with primary and
//!   speculative queues, in both a deterministic-simulation back-end and a
//!   real-thread back-end;
//! * [`control`] — deadlines, cancellation and panic containment for the
//!   threaded back-end, plus the abort error it reports;
//! * [`tree`] — the shared search tree with dynamic alpha-beta windows;
//! * [`baselines`] — parallel aspiration (§4.1), mandatory-work-first
//!   (§4.2), tree-splitting (§4.3) and pv-splitting (§4.4);
//! * [`mandatory`] — mandatory vs speculative work classification (§3);
//! * [`schedule`] — textual Gantt/utilization views of simulated runs.

#![warn(missing_docs)]

pub mod baselines;
pub mod control;
pub mod er;
pub mod mandatory;
pub mod schedule;
pub mod tree;

pub use control::{AbortReason, SearchAborted, SearchControl};
pub use er::threads::{
    pin_current_thread, run_er_threads_tt, ErThreadsResult, PinPolicy, ThreadsConfig,
};
pub use er::{
    run_er_sim, run_er_sim_ord, run_er_sim_tt, run_er_sim_window_ord, run_er_threads,
    run_er_threads_ctl, run_er_threads_ctl_tt, run_er_threads_exec, run_er_threads_exec_tt,
    run_er_threads_id, run_er_threads_id_asp, run_er_threads_id_asp_trace_tt,
    run_er_threads_id_asp_tt, run_er_threads_id_trace, run_er_threads_id_trace_tt,
    run_er_threads_id_tt, run_er_threads_trace, run_er_threads_trace_tt, run_er_threads_window_ord,
    run_er_threads_window_ord_metrics, AspirationConfig, DepthResult, ErIdResult, ErParallelConfig,
    ErRunResult, IdStepper, Speculation,
};
