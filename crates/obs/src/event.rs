//! The shared event schema.
//!
//! One vocabulary for everything the paper's cost model charges for:
//! iteration claim/execute/undo, dispatcher hops, lock traffic, PD
//! analysis, checkpoint/undo volume, speculation verdicts, deadline
//! expiries, QUIT broadcasts, window resizes, and barriers. Both the threaded
//! runtime and the discrete-event simulator emit **exactly this type**,
//! so a real trace and a simulated trace of the same loop diff directly.
//!
//! Time units differ by domain and are carried by [`Sample::t`]: the
//! threaded runtime stamps nanoseconds since the recorder's epoch, the
//! simulator stamps virtual cycles. Events that represent time spent
//! carry their own duration in the same unit (`cost` for busy work,
//! `dur` for waiting), which is what the profile aggregation sums.

use serde::Serialize;

/// Why a speculative parallel execution was abandoned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum AbortReason {
    /// The PD test found a cross-iteration dependence.
    Dependence,
    /// An iteration body signalled an exception under speculation.
    Exception,
    /// A region deadline expired before the region finished.
    Timeout,
    /// The speculation's undo-log budget was exhausted.
    Budget,
}

/// One observable action, shared between the threaded runtime and the
/// simulator. See the module docs for the unit conventions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Event {
    /// An iteration was claimed from the dispatcher; `cost` is the claim
    /// overhead charged (0 where the claim is a single atomic increment).
    IterClaimed {
        /// Iteration index.
        iter: u64,
        /// Busy time spent claiming.
        cost: u64,
    },
    /// A chunk of consecutive iterations was granted by the dispatcher in
    /// one claim (chunked/guided self-scheduling); grants of one iteration
    /// are reported as plain [`Event::IterClaimed`].
    ChunkClaimed {
        /// First iteration of the grant.
        lo: u64,
        /// Number of consecutive iterations granted (≥ 2).
        len: u64,
        /// Busy time spent claiming the chunk.
        cost: u64,
    },
    /// An iteration body finished; `cost` is the body's busy time.
    IterExecuted {
        /// Iteration index.
        iter: u64,
        /// Busy time of the body (including per-iteration bookkeeping).
        cost: u64,
    },
    /// A terminator-only evaluation (RI early exit): the iteration tested
    /// the WHILE condition and stopped without running a body.
    TermTest {
        /// Iteration index.
        iter: u64,
        /// Busy time of the test.
        cost: u64,
    },
    /// An executed iteration was discarded (overshoot or failed
    /// speculation).
    IterUndone {
        /// Iteration index.
        iter: u64,
    },
    /// `next()` dispatcher hops performed (batched per claim or per
    /// worker).
    NextHop {
        /// Number of pointer-chase hops.
        hops: u64,
        /// Busy time spent hopping.
        cost: u64,
    },
    /// Time spent blocked on a scheduling resource — a dispatcher lock or
    /// window admission (the paper's dispatcher-serialization component
    /// of `Td`).
    LockWait {
        /// Wait duration (idle, not busy).
        dur: u64,
    },
    /// A lock was acquired and held; `hold` is busy time inside the
    /// critical section.
    LockAcquire {
        /// Busy time holding the lock.
        hold: u64,
    },
    /// Post-execution PD analysis (`Ta`).
    PdAnalyze {
        /// Accesses analyzed.
        accesses: u64,
        /// Busy time of the analysis.
        cost: u64,
    },
    /// Checkpoint copy before a speculative run (`Tb`).
    Backup {
        /// Elements backed up.
        elems: u64,
        /// Busy time of the copy.
        cost: u64,
    },
    /// Undo of overshot/aborted writes (`Tb`'s restore side — undo
    /// volume).
    UndoRestore {
        /// Elements restored.
        elems: u64,
        /// Busy time of the restore.
        cost: u64,
    },
    /// A speculative parallel execution committed.
    SpecCommit {
        /// Iterations whose effects were kept.
        committed: u64,
        /// Executed iterations discarded as overshoot.
        undone: u64,
    },
    /// A speculative parallel execution aborted.
    SpecAbort {
        /// Why the speculation failed.
        reason: AbortReason,
        /// Executed iterations whose effects were discarded.
        discarded: u64,
    },
    /// A region deadline expired: the lane on `vpn` was the last to
    /// finish, past the expiry, and the region ran `elapsed` time units.
    TimeoutAbort {
        /// Virtual processor of the overdue lane.
        vpn: u64,
        /// How long the region ran, in the trace's unit.
        elapsed: u64,
    },
    /// A QUIT was broadcast: iteration `iter` requested termination.
    Quit {
        /// The quitting iteration.
        iter: u64,
    },
    /// The sliding window (Section 8.2) was resized.
    WindowResize {
        /// New window span in iterations.
        window: u64,
    },
    /// A synchronization barrier episode; `cost` is the per-processor
    /// barrier charge.
    Barrier {
        /// Busy time charged for the barrier.
        cost: u64,
    },
}

impl Event {
    /// Short stable name of the event kind (used for trace labels and
    /// cross-domain diffing).
    pub fn kind(&self) -> &'static str {
        match self {
            Event::IterClaimed { .. } => "iter_claimed",
            Event::ChunkClaimed { .. } => "chunk_claimed",
            Event::IterExecuted { .. } => "iter_executed",
            Event::TermTest { .. } => "term_test",
            Event::IterUndone { .. } => "iter_undone",
            Event::NextHop { .. } => "next_hop",
            Event::LockWait { .. } => "lock_wait",
            Event::LockAcquire { .. } => "lock_acquire",
            Event::PdAnalyze { .. } => "pd_analyze",
            Event::Backup { .. } => "backup",
            Event::UndoRestore { .. } => "undo_restore",
            Event::SpecCommit { .. } => "spec_commit",
            Event::SpecAbort { .. } => "spec_abort",
            Event::TimeoutAbort { .. } => "timeout_abort",
            Event::Quit { .. } => "quit",
            Event::WindowResize { .. } => "window_resize",
            Event::Barrier { .. } => "barrier",
        }
    }

    /// Busy time this event accounts for (0 for instantaneous events and
    /// waits).
    pub fn busy_cost(&self) -> u64 {
        match *self {
            Event::IterClaimed { cost, .. }
            | Event::ChunkClaimed { cost, .. }
            | Event::IterExecuted { cost, .. }
            | Event::TermTest { cost, .. }
            | Event::NextHop { cost, .. }
            | Event::PdAnalyze { cost, .. }
            | Event::Backup { cost, .. }
            | Event::UndoRestore { cost, .. }
            | Event::Barrier { cost } => cost,
            Event::LockAcquire { hold } => hold,
            _ => 0,
        }
    }

    /// Wait (idle-while-blocked) time this event accounts for.
    pub fn wait_time(&self) -> u64 {
        match *self {
            Event::LockWait { dur } => dur,
            _ => 0,
        }
    }
}

/// A time-stamped, processor-attributed [`Event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Sample {
    /// Timestamp at which the event *completed*, in the trace's unit
    /// (nanoseconds for the threaded runtime, cycles for the simulator).
    pub t: u64,
    /// Worker / virtual processor the event occurred on.
    pub proc: u32,
    /// The event itself.
    pub event: Event,
}

/// A complete recorded execution: processor count, end-to-end makespan,
/// and every sample, in one unit domain.
#[derive(Debug, Clone, Serialize)]
pub struct Trace {
    /// Number of processors/workers.
    pub p: usize,
    /// End-to-end duration of the recorded region, same unit as sample
    /// timestamps.
    pub makespan: u64,
    /// All recorded samples (per-worker order preserved; cross-worker
    /// order is merged by timestamp only on export).
    pub samples: Vec<Sample>,
}

impl Trace {
    /// Counts samples of each event kind, sorted by kind name — the
    /// domain-independent shape of an execution, used by
    /// `examples/trace.rs` to diff a threaded trace against a simulated
    /// one.
    pub fn kind_histogram(&self) -> Vec<(&'static str, u64)> {
        let mut counts: Vec<(&'static str, u64)> = Vec::new();
        for s in &self.samples {
            let k = s.event.kind();
            match counts.iter_mut().find(|(n, _)| *n == k) {
                Some((_, c)) => *c += 1,
                None => counts.push((k, 1)),
            }
        }
        counts.sort_by_key(|&(n, _)| n);
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_and_wait_partition_event_kinds() {
        let busy = Event::IterExecuted { iter: 3, cost: 40 };
        let wait = Event::LockWait { dur: 9 };
        let instant = Event::Quit { iter: 3 };
        assert_eq!(busy.busy_cost(), 40);
        assert_eq!(busy.wait_time(), 0);
        assert_eq!(wait.busy_cost(), 0);
        assert_eq!(wait.wait_time(), 9);
        assert_eq!(instant.busy_cost(), 0);
        assert_eq!(instant.wait_time(), 0);
    }

    #[test]
    fn histogram_counts_kinds() {
        let t = Trace {
            p: 1,
            makespan: 10,
            samples: vec![
                Sample {
                    t: 1,
                    proc: 0,
                    event: Event::Quit { iter: 0 },
                },
                Sample {
                    t: 2,
                    proc: 0,
                    event: Event::Quit { iter: 1 },
                },
                Sample {
                    t: 3,
                    proc: 0,
                    event: Event::Barrier { cost: 0 },
                },
            ],
        };
        assert_eq!(t.kind_histogram(), vec![("barrier", 1), ("quit", 2)]);
    }
}
