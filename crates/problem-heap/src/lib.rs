//! Problem-heap execution substrate (paper §3 and §6).
//!
//! A *problem-heap algorithm* keeps a set of unfinished subproblems; idle
//! processors take work from the heap, solve it, and put any generated
//! subproblems back. This crate supplies the pieces shared by every
//! parallel algorithm in the reproduction:
//!
//! * [`StableQueue`] — deterministic priority queues (the paper's primary
//!   and speculative queues are built on it);
//! * [`simulate`]/[`HeapWorker`] — a deterministic discrete-event
//!   simulation of a k-processor shared-memory machine, the substitution
//!   for the paper's Sequent Symmetry (see DESIGN.md);
//! * [`CostModel`]/[`SimReport`] — virtual time, speedup, efficiency,
//!   starvation and interference accounting (§3.1).

#![warn(missing_docs)]

pub mod metrics;
pub mod pad;
pub mod queue;
pub mod sim;

pub use metrics::{CostModel, SimReport, ThreadCounters};
pub use pad::CachePadded;
pub use queue::StableQueue;
pub use sim::{simulate, HeapWorker, TakenWork};
