//! # wlp — Parallelizing WHILE Loops for Multiprocessor Systems
//!
//! A full Rust reproduction of Rauchwerger & Padua's framework for
//! automatically transforming WHILE loops (and DO loops with conditional
//! exits) for parallel execution: dispatcher parallelization
//! (Induction-1/2, parallel prefix, General-1/2/3), undo of overshot
//! iterations, speculative execution with the run-time PD dependence test,
//! multi-recurrence loop distribution/fusion, the cost model, and the
//! memory-control strategies — together with every substrate the paper's
//! evaluation needs (linked lists, a threaded DOALL runtime, a deterministic
//! multiprocessor simulator, a sparse-matrix package, and the five
//! benchmark loops).
//!
//! This facade crate re-exports the workspace members under stable paths:
//!
//! * [`list`] — arena linked lists (the general-recurrence dispatcher).
//! * [`runtime`] — threaded DOALL/QUIT/prefix/DOACROSS substrate.
//! * [`sim`] — deterministic discrete-event multiprocessor simulator.
//! * [`pd`] — the Privatizing DOALL run-time dependence test.
//! * [`sparse`] — sparse-matrix formats, generators, pivot search.
//! * [`core`] — the paper's parallelization strategies and machinery.
//! * [`ir`] — loop IR, dependence analysis, distribution/fusion.
//! * [`workloads`] — the five loops of the paper's evaluation.
//! * [`obs`] — structured tracing/profiling: one event schema shared by
//!   the runtime and the simulator, profile aggregation, Chrome traces.
//! * [`fault`] — deterministic fault injection exercising the recovery
//!   paths: seeded panic plans and linked-list corruption.
//! * [`serve`] — the `wlp-serve` daemon: multi-tenant NDJSON service
//!   with a certificate cache and per-tenant admission control.
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for
//! paper-vs-measured results.
//!
//! ## Quickstart
//!
//! ```
//! use wlp::core::{general::{self, GeneralConfig}};
//! use wlp::list::ListArena;
//! use wlp::runtime::Pool;
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! // A WHILE loop traversing a linked list (Figure 1(b) of the paper):
//! // the dispatcher is a general recurrence (pointer chase), the
//! // terminator is remainder-invariant (null pointer), and the body is
//! // independent across iterations — so it parallelizes with General-3.
//! let list = ListArena::from_values_shuffled(0u64..1000, 42);
//! let out: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
//! let pool = Pool::new(4);
//! let result = general::general3(&pool, &list, GeneralConfig::default(), |i, node| {
//!     out[i].store(list[node] * 2, Ordering::Relaxed);
//! });
//! assert_eq!(result.iterations, 1000);
//! assert_eq!(out[7].load(Ordering::Relaxed), 14);
//! ```

// Compile and run the README's code blocks as doctests so the quickstart
// can never drift from the actual API.
#[doc = include_str!("../README.md")]
#[cfg(doctest)]
pub struct ReadmeDoctests;

pub use wlp_core as core;
pub use wlp_fault as fault;
pub use wlp_ir as ir;
pub use wlp_list as list;
pub use wlp_obs as obs;
pub use wlp_pd as pd;
pub use wlp_runtime as runtime;
pub use wlp_serve as serve;
pub use wlp_sim as sim;
pub use wlp_sparse as sparse;
pub use wlp_workloads as workloads;
