//! Unified observability for the WHILE-loop parallelization stack.
//!
//! The paper's argument is a cost accounting: speculative
//! parallelization wins exactly when the measured overheads — backup and
//! time-stamping (`Tb`), dispatcher serialization and shadow marking
//! (`Td`), post-execution analysis and undo (`Ta`) — stay below the
//! parallelism they buy. This crate is the measuring instrument:
//!
//! * [`Event`] — one schema for everything the cost model charges for,
//!   emitted identically by the threaded runtime (`wlp-runtime`,
//!   `wlp-core`) and the discrete-event simulator (`wlp-sim`), so real
//!   and simulated traces of the same loop are directly comparable.
//! * [`Recorder`] — the sink trait instrumented code is generic over.
//!   [`NoopRecorder`] monomorphizes probes away entirely;
//!   [`BufferRecorder`] collects time-stamped samples into per-worker
//!   buffers.
//! * [`ProfileReport`] — per-processor busy/idle/lock-wait accounting,
//!   speculation success rate, and undo volume, aggregated from a
//!   [`Trace`] and serializable to JSON.
//! * [`chrome_trace`] — Chrome trace-event JSON for visual inspection in
//!   `chrome://tracing` or Perfetto.

#![warn(missing_docs)]

pub mod chrome;
pub mod event;
pub mod pad;
pub mod recorder;
pub mod report;

pub use chrome::chrome_trace;
pub use event::{AbortReason, Event, Sample, Trace};
pub use pad::CachePadded;
pub use recorder::{BufferRecorder, NoopRecorder, Recorder};
pub use report::{ProcProfile, ProfileReport};
