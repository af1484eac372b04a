//! Threaded parallel substrate for WHILE-loop parallelization.
//!
//! The paper targets an Alliant FX/80: an 8-processor machine whose compiler
//! and hardware provide DOALL loops with *virtual processor numbers* (vpn),
//! in-order iteration issue, and a `QUIT` operation that prevents iterations
//! with larger loop counters from starting once some iteration requests
//! termination. None of those primitives exist in off-the-shelf Rust task
//! libraries (rayon has no vpn, no QUIT, no ordered issue, no sliding-window
//! scheduling), so this crate builds them from scratch on `std::thread`,
//! `crossbeam` utilities and `parking_lot` locks:
//!
//! * [`Pool`] — a fixed-width worker group exposing vpn to each worker.
//!   Its `p − 1` resident workers claim each region's lanes from one
//!   atomic word: the region number above the next unclaimed lane.
//! * [`doall`] — the DOALL loop with a software `QUIT` protocol: one driver
//!   issuing iterations dynamically (ordered issue, one at a time or in
//!   chunks) or static-cyclic.
//! * [`scan`] — the parallel prefix of the Section 3.2 method for
//!   associative dispatchers.
//! * [`reduce`] — parallel folds/reductions (used by the post-execution
//!   minimum of Induction-1 and by the PD test's analysis phase).
//! * [`doacross`](mod@doacross) — pipelined execution of loops with cross-iteration
//!   dependences (the Section 6 schedule for sequential distributed
//!   loops, and the Wu & Lewis pipelining baseline).
//! * [`scheduler`] — the multi-region layer: fixed-width resident worker
//!   lanes multiplexing many concurrent loop regions onto one shared
//!   worker budget, with FIFO queuing and queue-pressure reporting for
//!   admission control (the substrate of the `wlp-serve` daemon).
//!
//! Fault containment (the paper's Section 5 exception rule): every
//! construct catches body panics at iteration boundaries, broadcasts a
//! [`CancelFlag`] so in-flight peers drain, and reports the first panic
//! through its outcome (`DoallOutcome::panic`, `DoacrossOutcome::panic`)
//! instead of aborting the process — the strategies above restore their
//! checkpoint and re-execute sequentially.
//!
//! Deadlines: [`pool::Deadline`] arms each region's [`CancelFlag`] with an
//! expiry that the region's own polling reads — no thread keeps the time
//! — and a lane finishing past it surfaces as [`pool::WorkerTimeout`]
//! instead of a hang.

pub mod chunk;
pub mod doacross;
pub mod doall;
pub mod pool;
pub mod reduce;
pub mod scan;
pub mod scheduler;

pub use chunk::ChunkPolicy;
pub use doacross::{doacross, doacross_with, DoacrossOptions, DoacrossOutcome};
pub use doall::{
    doall_dynamic, doall_with, DoallOptions, DoallOutcome, FaultCell, IssueOrder, Step,
};
pub use pool::{
    payload_message, CancelFlag, Deadline, Pool, PoolOutcome, WorkerPanic, WorkerTimeout,
};
pub use reduce::{parallel_fold, parallel_min};
pub use scan::parallel_scan_inclusive;
pub use scheduler::{Lane, RegionScheduler, SchedulerConfig};
