//! A per-tenant circuit breaker.
//!
//! *Strategy* failures are each program's own: its run history prices a
//! thrown-away speculation and sends the program down the sequential
//! path once speculating stops paying, but its requests still run and
//! still occupy lanes. A tenant whose requests keep **timing out** is a
//! different animal: each one holds a lane for its full deadline and
//! returns nothing, so a burst of them converts the whole service's
//! capacity into dead time. The breaker cuts that off at admission:
//! after [`CircuitPolicy::trip_threshold`] *consecutive* hard failures
//! (deadline expiries, client abandons, worker panics) the tenant's
//! circuit opens and its `run` requests are rejected immediately with
//! `tenant_circuit_open` + `retry_after_ms` — no lane, no credits, no
//! queue slot — for [`CircuitPolicy::open_ms`]. The breaker then goes
//! **half-open**: a bounded number of probe requests are admitted, and
//! the first success closes the circuit while another failure re-opens
//! it (with the same interval — the backoff lives in the client's
//! retry loop and the admission valves; stacking another exponential
//! here would double-penalize).
//!
//! The state machine is deliberately tiny and lock-cheap: one enum
//! behind the tenant's existing mutex, advanced only on request
//! completion and admission.

use std::time::{Duration, Instant};

/// Tuning for a tenant's [`CircuitBreaker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CircuitPolicy {
    /// Consecutive hard failures (timeouts, abandons, panics) that trip
    /// the breaker. 0 disables the breaker entirely.
    pub trip_threshold: u32,
    /// How long the circuit stays open before probing, in milliseconds.
    pub open_ms: u64,
    /// Probe requests admitted while half-open; a success among them
    /// closes the circuit, a failure re-opens it.
    pub half_open_probes: u32,
}

impl Default for CircuitPolicy {
    fn default() -> Self {
        CircuitPolicy {
            trip_threshold: 4,
            open_ms: 1_000,
            half_open_probes: 1,
        }
    }
}

/// The breaker's current position, as reported in `stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CircuitState {
    /// Requests flow normally.
    Closed,
    /// Requests are rejected until the open interval elapses.
    Open,
    /// A bounded number of probes are being admitted.
    HalfOpen,
}

impl CircuitState {
    /// Short stable name (`stats` output).
    pub fn name(&self) -> &'static str {
        match self {
            CircuitState::Closed => "closed",
            CircuitState::Open => "open",
            CircuitState::HalfOpen => "half_open",
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum State {
    Closed { consecutive_failures: u32 },
    Open { until: Instant },
    HalfOpen { probes_left: u32 },
}

/// What [`CircuitBreaker::admit`] decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The request may proceed.
    Allow,
    /// The circuit is open; retry after the carried hint.
    Reject {
        /// Remaining open interval, the response's `retry_after_ms`.
        retry_after_ms: u64,
    },
}

/// Per-tenant consecutive-failure circuit breaker. See the module docs
/// for the state machine.
#[derive(Debug)]
pub struct CircuitBreaker {
    policy: CircuitPolicy,
    state: State,
    trips: u64,
}

impl CircuitBreaker {
    /// A closed breaker under `policy`.
    pub fn new(policy: CircuitPolicy) -> Self {
        CircuitBreaker {
            policy,
            state: State::Closed {
                consecutive_failures: 0,
            },
            trips: 0,
        }
    }

    /// The breaker's position right now (an expired open interval
    /// reports half-open, since the next admission would probe).
    pub fn state(&self) -> CircuitState {
        match self.state {
            State::Closed { .. } => CircuitState::Closed,
            State::Open { until } => {
                if Instant::now() >= until {
                    CircuitState::HalfOpen
                } else {
                    CircuitState::Open
                }
            }
            State::HalfOpen { .. } => CircuitState::HalfOpen,
        }
    }

    /// Times the breaker has opened since the tenant appeared.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Admission check for one `run` request. Open circuits reject with
    /// the remaining interval; an elapsed interval transitions to
    /// half-open and admits a probe.
    pub fn admit(&mut self) -> Admission {
        if self.policy.trip_threshold == 0 {
            return Admission::Allow;
        }
        match self.state {
            State::Closed { .. } => Admission::Allow,
            State::Open { until } => {
                let now = Instant::now();
                if now < until {
                    let remaining = until.saturating_duration_since(now);
                    Admission::Reject {
                        retry_after_ms: remaining.as_millis().max(1) as u64,
                    }
                } else {
                    // interval elapsed: this request is the first probe
                    let probes = self.policy.half_open_probes.max(1);
                    self.state = State::HalfOpen {
                        probes_left: probes - 1,
                    };
                    Admission::Allow
                }
            }
            State::HalfOpen { probes_left } => {
                if probes_left > 0 {
                    self.state = State::HalfOpen {
                        probes_left: probes_left - 1,
                    };
                    Admission::Allow
                } else {
                    // probes outstanding; wait for one to complete
                    Admission::Reject {
                        retry_after_ms: self.policy.open_ms.max(1),
                    }
                }
            }
        }
    }

    /// Records a completed request that succeeded (or failed for a
    /// reason the breaker does not count — parse errors, admission
    /// rejections). Closes a half-open circuit, resets the failure
    /// streak. Returns `true` when this success closed the circuit.
    pub fn record_success(&mut self) -> bool {
        let was_half_open = matches!(self.state, State::HalfOpen { .. });
        self.state = State::Closed {
            consecutive_failures: 0,
        };
        was_half_open
    }

    /// Records a hard failure (timeout, client abandon, worker panic).
    /// Returns `true` when this failure tripped the circuit open.
    pub fn record_failure(&mut self) -> bool {
        if self.policy.trip_threshold == 0 {
            return false;
        }
        let open_after = Instant::now() + Duration::from_millis(self.policy.open_ms);
        match self.state {
            State::Closed {
                consecutive_failures,
            } => {
                let streak = consecutive_failures + 1;
                if streak >= self.policy.trip_threshold {
                    self.state = State::Open { until: open_after };
                    self.trips += 1;
                    true
                } else {
                    self.state = State::Closed {
                        consecutive_failures: streak,
                    };
                    false
                }
            }
            // a failed probe re-opens immediately
            State::HalfOpen { .. } => {
                self.state = State::Open { until: open_after };
                self.trips += 1;
                true
            }
            State::Open { .. } => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_policy() -> CircuitPolicy {
        CircuitPolicy {
            trip_threshold: 3,
            open_ms: 40,
            half_open_probes: 1,
        }
    }

    #[test]
    fn trips_after_consecutive_failures_only() {
        let mut cb = CircuitBreaker::new(fast_policy());
        assert!(!cb.record_failure());
        assert!(!cb.record_failure());
        // a success resets the streak
        cb.record_success();
        assert!(!cb.record_failure());
        assert!(!cb.record_failure());
        assert!(cb.record_failure(), "third consecutive failure trips");
        assert_eq!(cb.state(), CircuitState::Open);
        assert_eq!(cb.trips(), 1);
    }

    #[test]
    fn open_circuit_rejects_with_remaining_interval() {
        let mut cb = CircuitBreaker::new(fast_policy());
        for _ in 0..3 {
            cb.record_failure();
        }
        match cb.admit() {
            Admission::Reject { retry_after_ms } => {
                assert!((1..=40).contains(&retry_after_ms), "{retry_after_ms}");
            }
            Admission::Allow => panic!("open circuit must reject"),
        }
    }

    #[test]
    fn half_open_probe_success_closes() {
        let mut cb = CircuitBreaker::new(fast_policy());
        for _ in 0..3 {
            cb.record_failure();
        }
        std::thread::sleep(Duration::from_millis(45));
        assert_eq!(cb.admit(), Admission::Allow, "probe admitted");
        assert_eq!(cb.state(), CircuitState::HalfOpen);
        // a second request while the probe is outstanding is rejected
        assert!(matches!(cb.admit(), Admission::Reject { .. }));
        assert!(cb.record_success(), "probe success closes the circuit");
        assert_eq!(cb.state(), CircuitState::Closed);
        assert_eq!(cb.admit(), Admission::Allow);
    }

    #[test]
    fn half_open_probe_failure_reopens() {
        let mut cb = CircuitBreaker::new(fast_policy());
        for _ in 0..3 {
            cb.record_failure();
        }
        std::thread::sleep(Duration::from_millis(45));
        assert_eq!(cb.admit(), Admission::Allow);
        assert!(cb.record_failure(), "failed probe re-trips");
        assert_eq!(cb.state(), CircuitState::Open);
        assert_eq!(cb.trips(), 2);
        assert!(matches!(cb.admit(), Admission::Reject { .. }));
    }

    #[test]
    fn zero_threshold_disables_the_breaker() {
        let mut cb = CircuitBreaker::new(CircuitPolicy {
            trip_threshold: 0,
            ..fast_policy()
        });
        for _ in 0..100 {
            assert!(!cb.record_failure());
        }
        assert_eq!(cb.admit(), Admission::Allow);
        assert_eq!(cb.state(), CircuitState::Closed);
    }
}
