//! Deterministic discrete-event multiprocessor simulator.
//!
//! The paper's measurements were taken on an 8-processor Alliant FX/80.
//! This reproduction runs on commodity hardware (possibly a single core),
//! so wall-clock speedup curves cannot be measured directly. Instead, this
//! crate simulates a `p`-processor shared-memory machine at the granularity
//! the paper's cost model works at: per-iteration work, dispatcher
//! increments (`next()` hops), critical sections, dispatch overhead,
//! time-stamping, shadow-array marking, checkpoint/restore phases and
//! barriers.
//!
//! The simulator does **not** fabricate speedups from a closed-form
//! formula. Every strategy simulation in [`strategies`] replays the actual
//! schedule the strategy would produce — which processor claims which
//! iteration at what (virtual) time, which lock queues form for General-1,
//! how many catch-up hops General-3 performs, when a `QUIT` becomes visible
//! to whom — using an event-ordered engine ([`engine::Engine`]) with FIFO
//! lock resources. Makespans, per-processor busy times and overshoot counts
//! fall out of the replay; speedups are ratios of makespans.
//!
//! Determinism: the engine always dispatches the processor with the lowest
//! clock (ties broken by processor id), so a given `(LoopSpec, Overheads,
//! ExecConfig, p)` produces bit-identical reports on every run and host.

pub mod engine;
pub mod spec;
pub mod strategies;

pub use engine::{Engine, Report, Resource};
pub use spec::{ChunkPolicy, ExecConfig, LoopSpec, Overheads};
pub use strategies::{
    sim_doacross, sim_doany, sim_doany_sequential, sim_general1, sim_general2, sim_general3,
    sim_induction_doall, sim_sequential, sim_strip_mined, sim_windowed, simulate, Schedule,
    Strategy,
};
