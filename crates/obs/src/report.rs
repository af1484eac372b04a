//! Trace aggregation into a [`ProfileReport`].

use crate::event::{Event, Trace};
use serde::Serialize;

/// Per-processor time accounting, in the trace's unit.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ProcProfile {
    /// Processor id.
    pub proc: usize,
    /// Busy time: sum of the `cost`/`hold` fields of this processor's
    /// events.
    pub busy: u64,
    /// Time blocked on locks or window admission.
    pub lock_wait: u64,
    /// Remainder of the makespan: `makespan − busy − lock_wait`
    /// (saturating; [`ProfileReport::check_conservation`] flags the
    /// overflow case where busy + wait exceeds the makespan).
    pub idle: u64,
}

/// Aggregated profile of one recorded execution, computed from a
/// [`Trace`] by [`ProfileReport::from_trace`]. Serializes to JSON via
/// [`ProfileReport::to_json`].
#[derive(Debug, Clone, Serialize)]
pub struct ProfileReport {
    /// Processor count.
    pub p: usize,
    /// End-to-end duration of the recorded region.
    pub makespan: u64,
    /// Per-processor busy/wait/idle breakdown.
    pub procs: Vec<ProcProfile>,
    /// Iterations claimed from the dispatcher.
    pub claimed: u64,
    /// Multi-iteration chunk grants issued by a chunked/guided
    /// self-scheduler (each grant covers ≥ 2 of the `claimed`
    /// iterations; 0 for one-at-a-time scheduling).
    pub chunk_grants: u64,
    /// Iteration bodies executed (valid + overshoot).
    pub executed: u64,
    /// Executed iterations whose effects were kept.
    pub committed: u64,
    /// Executed iterations whose effects were discarded.
    pub undone: u64,
    /// Elements restored by undo phases (the paper's undo volume, `Tb`'s
    /// restore side).
    pub undo_elems: u64,
    /// Elements checkpointed before speculation (`Tb`'s backup side).
    pub backup_elems: u64,
    /// Dispatcher `next()` hops.
    pub hops: u64,
    /// Total busy time across processors.
    pub busy_total: u64,
    /// Total lock/window wait across processors (the serialization
    /// component of `Td`).
    pub lock_wait_total: u64,
    /// Accesses examined by post-execution PD analysis (`Ta`).
    pub pd_analyzed: u64,
    /// Speculative executions that committed.
    pub spec_commits: u64,
    /// Speculative executions that aborted.
    pub spec_aborts: u64,
    /// Aborts caused by a detected cross-iteration dependence.
    pub aborts_dependence: u64,
    /// Aborts caused by an exception / contained worker fault (the paper's
    /// Section 5 rule: restore the checkpoint, re-execute sequentially).
    pub aborts_exception: u64,
    /// Aborts caused by a region deadline expiry.
    pub aborts_timeout: u64,
    /// Aborts caused by an exhausted speculation (undo-log) budget.
    pub aborts_budget: u64,
    /// Deadline expiries observed (`TimeoutAbort` events). Every expiry
    /// that interrupts a speculation also produces one
    /// `SpecAbort{Timeout}`, so usually `timeouts == aborts_timeout`; a
    /// bare deadline-armed DOALL can time out without a speculative abort.
    pub timeouts: u64,
    /// QUIT broadcasts observed.
    pub quits: u64,
    /// Barrier episodes observed (summed over processors).
    pub barriers: u64,
    /// Window resize decisions observed.
    pub window_resizes: u64,
    /// Total samples aggregated.
    pub samples: u64,
}

impl ProfileReport {
    /// Aggregates a trace.
    ///
    /// Accounting rules: busy and wait are summed from each event's own
    /// duration fields; `committed`/`undone` come from `SpecCommit`/
    /// `SpecAbort` events when present, otherwise from explicit
    /// `IterUndone` events (so a plain non-speculative run reports
    /// `committed == executed`).
    pub fn from_trace(trace: &Trace) -> Self {
        let mut busy = vec![0u64; trace.p];
        let mut wait = vec![0u64; trace.p];
        let mut r = ProfileReport {
            p: trace.p,
            makespan: trace.makespan,
            procs: Vec::new(),
            claimed: 0,
            chunk_grants: 0,
            executed: 0,
            committed: 0,
            undone: 0,
            undo_elems: 0,
            backup_elems: 0,
            hops: 0,
            busy_total: 0,
            lock_wait_total: 0,
            pd_analyzed: 0,
            spec_commits: 0,
            spec_aborts: 0,
            aborts_dependence: 0,
            aborts_exception: 0,
            aborts_timeout: 0,
            aborts_budget: 0,
            timeouts: 0,
            quits: 0,
            barriers: 0,
            window_resizes: 0,
            samples: trace.samples.len() as u64,
        };
        let mut iter_undone = 0u64;
        let mut spec_committed = 0u64;
        let mut spec_undone = 0u64;
        for s in &trace.samples {
            let p = (s.proc as usize).min(trace.p - 1);
            busy[p] += s.event.busy_cost();
            wait[p] += s.event.wait_time();
            match s.event {
                Event::IterClaimed { .. } => r.claimed += 1,
                Event::ChunkClaimed { .. } => r.chunk_grants += 1,
                Event::IterExecuted { .. } => r.executed += 1,
                Event::IterUndone { .. } => iter_undone += 1,
                Event::NextHop { hops, .. } => r.hops += hops,
                Event::PdAnalyze { accesses, .. } => r.pd_analyzed += accesses,
                Event::Backup { elems, .. } => r.backup_elems += elems,
                Event::UndoRestore { elems, .. } => r.undo_elems += elems,
                Event::SpecCommit { committed, undone } => {
                    r.spec_commits += 1;
                    spec_committed += committed;
                    spec_undone += undone;
                }
                Event::SpecAbort { reason, discarded } => {
                    r.spec_aborts += 1;
                    match reason {
                        crate::event::AbortReason::Dependence => r.aborts_dependence += 1,
                        crate::event::AbortReason::Exception => r.aborts_exception += 1,
                        crate::event::AbortReason::Timeout => r.aborts_timeout += 1,
                        crate::event::AbortReason::Budget => r.aborts_budget += 1,
                    }
                    spec_undone += discarded;
                }
                Event::TimeoutAbort { .. } => r.timeouts += 1,
                Event::Quit { .. } => r.quits += 1,
                Event::Barrier { .. } => r.barriers += 1,
                Event::WindowResize { .. } => r.window_resizes += 1,
                Event::TermTest { .. } | Event::LockWait { .. } | Event::LockAcquire { .. } => {}
            }
        }
        if r.spec_commits + r.spec_aborts > 0 {
            r.committed = spec_committed;
            r.undone = spec_undone;
        } else {
            r.undone = iter_undone;
            r.committed = r.executed.saturating_sub(iter_undone);
        }
        r.busy_total = busy.iter().sum();
        r.lock_wait_total = wait.iter().sum();
        r.procs = (0..trace.p)
            .map(|i| ProcProfile {
                proc: i,
                busy: busy[i],
                lock_wait: wait[i],
                idle: trace.makespan.saturating_sub(busy[i] + wait[i]),
            })
            .collect();
        r
    }

    /// Fraction of speculative executions that committed, `None` when no
    /// speculation ran.
    pub fn spec_success_rate(&self) -> Option<f64> {
        let total = self.spec_commits + self.spec_aborts;
        (total > 0).then(|| self.spec_commits as f64 / total as f64)
    }

    /// Machine utilization in `[0, 1]`: busy time over `p × makespan`.
    pub fn utilization(&self) -> f64 {
        let denom = (self.p as u64).saturating_mul(self.makespan).max(1);
        self.busy_total as f64 / denom as f64
    }

    /// Verifies the report's conservation laws:
    ///
    /// * per processor, `busy + lock_wait + idle == makespan`;
    /// * `committed + undone == executed`;
    /// * the per-reason abort counters partition `spec_aborts`;
    /// * every timeout-driven speculative abort has its deadline expiry
    ///   (`aborts_timeout ≤ timeouts`).
    ///
    /// Returns a description of the first violated law.
    pub fn check_conservation(&self) -> Result<(), String> {
        for pp in &self.procs {
            let total = pp.busy + pp.lock_wait + pp.idle;
            if total != self.makespan {
                return Err(format!(
                    "proc {}: busy {} + wait {} + idle {} = {} != makespan {}",
                    pp.proc, pp.busy, pp.lock_wait, pp.idle, total, self.makespan
                ));
            }
        }
        if self.committed + self.undone != self.executed {
            return Err(format!(
                "committed {} + undone {} != executed {}",
                self.committed, self.undone, self.executed
            ));
        }
        let by_reason = self.aborts_dependence
            + self.aborts_exception
            + self.aborts_timeout
            + self.aborts_budget;
        if by_reason != self.spec_aborts {
            return Err(format!(
                "abort reasons {} (dep {} + exc {} + timeout {} + budget {}) != spec_aborts {}",
                by_reason,
                self.aborts_dependence,
                self.aborts_exception,
                self.aborts_timeout,
                self.aborts_budget,
                self.spec_aborts
            ));
        }
        if self.aborts_timeout > self.timeouts {
            return Err(format!(
                "aborts_timeout {} exceeds deadline expiries {}",
                self.aborts_timeout, self.timeouts
            ));
        }
        Ok(())
    }

    /// Renders the report as a JSON object (via the workspace serde).
    pub fn to_json(&self) -> String {
        serde::json::to_string(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Sample;

    fn sample(t: u64, proc: u32, event: Event) -> Sample {
        Sample { t, proc, event }
    }

    #[test]
    fn aggregates_and_conserves() {
        let trace = Trace {
            p: 2,
            makespan: 100,
            samples: vec![
                sample(5, 0, Event::IterClaimed { iter: 0, cost: 2 }),
                sample(45, 0, Event::IterExecuted { iter: 0, cost: 40 }),
                sample(20, 1, Event::LockWait { dur: 20 }),
                sample(60, 1, Event::IterExecuted { iter: 1, cost: 40 }),
                sample(61, 1, Event::Quit { iter: 1 }),
            ],
        };
        let r = ProfileReport::from_trace(&trace);
        assert_eq!(r.executed, 2);
        assert_eq!(r.committed, 2);
        assert_eq!(r.undone, 0);
        assert_eq!(r.procs[0].busy, 42);
        assert_eq!(r.procs[1].lock_wait, 20);
        assert_eq!(r.procs[1].idle, 100 - 40 - 20);
        assert_eq!(r.quits, 1);
        r.check_conservation().expect("laws hold");
        assert!(r.spec_success_rate().is_none());
        let json = r.to_json();
        assert!(json.contains("\"makespan\":100"), "{json}");
    }

    #[test]
    fn speculation_accounting_uses_commit_events() {
        let trace = Trace {
            p: 1,
            makespan: 50,
            samples: vec![
                sample(10, 0, Event::IterExecuted { iter: 0, cost: 10 }),
                sample(20, 0, Event::IterExecuted { iter: 1, cost: 10 }),
                sample(30, 0, Event::IterExecuted { iter: 2, cost: 10 }),
                sample(40, 0, Event::UndoRestore { elems: 4, cost: 5 }),
                sample(
                    41,
                    0,
                    Event::SpecCommit {
                        committed: 2,
                        undone: 1,
                    },
                ),
            ],
        };
        let r = ProfileReport::from_trace(&trace);
        assert_eq!((r.committed, r.undone, r.executed), (2, 1, 3));
        assert_eq!(r.undo_elems, 4);
        assert_eq!(r.spec_success_rate(), Some(1.0));
        r.check_conservation().expect("laws hold");
    }

    #[test]
    fn abort_reasons_are_split_out() {
        use crate::event::AbortReason;
        let trace = Trace {
            p: 1,
            makespan: 30,
            samples: vec![
                sample(
                    10,
                    0,
                    Event::SpecAbort {
                        reason: AbortReason::Dependence,
                        discarded: 3,
                    },
                ),
                sample(
                    20,
                    0,
                    Event::SpecAbort {
                        reason: AbortReason::Exception,
                        discarded: 2,
                    },
                ),
                sample(
                    25,
                    0,
                    Event::SpecAbort {
                        reason: AbortReason::Exception,
                        discarded: 0,
                    },
                ),
            ],
        };
        let r = ProfileReport::from_trace(&trace);
        assert_eq!(r.spec_aborts, 3);
        assert_eq!(r.aborts_dependence, 1);
        assert_eq!(r.aborts_exception, 2);
        assert_eq!(r.spec_success_rate(), Some(0.0));
    }

    #[test]
    fn timeout_and_budget_counters_aggregate_and_conserve() {
        use crate::event::AbortReason;
        let trace = Trace {
            p: 1,
            makespan: 40,
            samples: vec![
                sample(5, 0, Event::TimeoutAbort { vpn: 2, elapsed: 5 }),
                sample(
                    6,
                    0,
                    Event::SpecAbort {
                        reason: AbortReason::Timeout,
                        discarded: 0,
                    },
                ),
                sample(10, 0, Event::IterExecuted { iter: 0, cost: 3 }),
                sample(13, 0, Event::IterExecuted { iter: 1, cost: 3 }),
                sample(16, 0, Event::IterExecuted { iter: 2, cost: 3 }),
                sample(19, 0, Event::IterExecuted { iter: 3, cost: 3 }),
                sample(
                    20,
                    0,
                    Event::SpecAbort {
                        reason: AbortReason::Budget,
                        discarded: 4,
                    },
                ),
            ],
        };
        let r = ProfileReport::from_trace(&trace);
        assert_eq!(r.timeouts, 1);
        assert_eq!(r.aborts_timeout, 1);
        assert_eq!(r.aborts_budget, 1);
        assert_eq!(r.spec_aborts, 2);
        r.check_conservation().expect("laws hold");
        let json = r.to_json();
        assert!(json.contains("\"timeouts\":1"), "{json}");
    }

    #[test]
    fn conservation_rejects_unattributed_aborts() {
        use crate::event::AbortReason;
        let mut r = ProfileReport::from_trace(&Trace {
            p: 1,
            makespan: 10,
            samples: vec![sample(
                5,
                0,
                Event::SpecAbort {
                    reason: AbortReason::Timeout,
                    discarded: 0,
                },
            )],
        });
        // a timeout abort with no deadline expiry violates the law
        assert!(r.check_conservation().is_err());
        r.timeouts = 1;
        r.check_conservation().expect("now consistent");
        // an abort not attributed to any reason violates the partition
        r.spec_aborts += 1;
        assert!(r.check_conservation().is_err());
    }

    #[test]
    fn conservation_flags_overcommitted_processor() {
        let trace = Trace {
            p: 1,
            makespan: 10,
            samples: vec![sample(9, 0, Event::IterExecuted { iter: 0, cost: 30 })],
        };
        let r = ProfileReport::from_trace(&trace);
        assert!(r.check_conservation().is_err());
    }
}
