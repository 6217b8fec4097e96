//! Deterministic robustness primitives: exponential backoff with seeded
//! jitter, bounded retry budgets, and a circuit breaker — all in **modeled
//! time**, never wall-clock.
//!
//! The serving layer sheds load when its modeled queue saturates
//! (`orchestrator::admission`), which makes *callers* responsible for when to
//! come back. Both halves of that contract live here:
//!
//! * [`BackoffSchedule`] — the classic capped exponential backoff with
//!   "decorrelated"-style jitter, except the jitter is a pure SplitMix64
//!   function of `(seed, key, attempt)` rather than a shared RNG stream.
//!   Two callers retrying the same key compute the same delay on any thread,
//!   in any interleaving — which is what lets retry timelines ride the
//!   workspace's seed-stable / thread-count-invariant test net.
//! * [`CircuitBreaker`] — the closed / open / half-open state machine that
//!   guards a flaky dependency. All transitions are driven by explicit
//!   modeled timestamps ([`CircuitBreaker::on_success`] /
//!   [`on_failure`](CircuitBreaker::on_failure) /
//!   [`allow`](CircuitBreaker::allow)), and every transition is recorded in a
//!   monotone log so tests can machine-check re-probe behaviour instead of
//!   eyeballing it.

use crate::par::stream_seed;
use crate::units::Seconds;

/// A capped exponential backoff schedule with deterministic seeded jitter.
///
/// `delay(attempt, key)` is `min(cap, base * factor^attempt)` scaled down by
/// up to `jitter` of itself, where the scale factor is a pure hash of
/// `(seed, key, attempt)`. With `jitter == 0.0` the schedule is the plain
/// deterministic exponential; with `jitter > 0.0` distinct keys de-correlate
/// (no retry thundering herd) while staying bit-reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackoffSchedule {
    /// Delay of attempt 0, before jitter.
    pub base: Seconds,
    /// Multiplier applied per attempt (>= 1.0 for a growing schedule).
    pub factor: f64,
    /// Upper bound on the un-jittered delay.
    pub cap: Seconds,
    /// Jitter fraction in `[0, 1)`: the delay is scaled by a deterministic
    /// factor drawn from `[1 - jitter, 1]`.
    pub jitter: f64,
    /// Master seed of the jitter hash; two schedules differing only in seed
    /// produce different (but each fully deterministic) jitter streams.
    pub seed: u64,
}

impl BackoffSchedule {
    /// A conservative default: 1 s base, doubling, 60 s cap, 25 % jitter.
    pub fn standard(seed: u64) -> Self {
        BackoffSchedule {
            base: Seconds(1.0),
            factor: 2.0,
            cap: Seconds(60.0),
            jitter: 0.25,
            seed,
        }
    }

    /// The delay before retry number `attempt` (0-based) of the stream
    /// identified by `key`. Pure in `(self, attempt, key)`: independent of
    /// call order, thread, or any shared RNG state.
    pub fn delay(&self, attempt: u32, key: u64) -> Seconds {
        let raw = (self.base.value() * self.factor.powi(attempt as i32)).min(self.cap.value());
        // One SplitMix64 draw per (seed, key, attempt), mapped to [0, 1).
        let bits = stream_seed(self.seed ^ key, u64::from(attempt));
        let unit = (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        Seconds(raw * (1.0 - self.jitter * unit))
    }
}

/// The observable state of a [`CircuitBreaker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Requests flow; consecutive failures are counted.
    Closed,
    /// Requests are refused until the cooldown elapses.
    Open,
    /// Exactly one probe request is allowed through; its outcome decides
    /// whether the breaker closes again or re-opens.
    HalfOpen,
}

/// Configuration of a [`CircuitBreaker`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Consecutive failures (while closed) that trip the breaker open.
    pub failure_threshold: u32,
    /// How long the breaker stays open before allowing a half-open probe.
    pub cooldown: Seconds,
}

impl BreakerConfig {
    /// A small default: trip after 3 consecutive failures, 30 s cooldown.
    pub fn standard() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown: Seconds(30.0),
        }
    }
}

/// A deterministic, modeled-time circuit breaker.
///
/// The caller reports outcomes with explicit timestamps; the breaker never
/// reads a clock. State machine:
///
/// * **Closed** — [`allow`](Self::allow) always grants. `failure_threshold`
///   *consecutive* failures trip it to **Open** (a success resets the count).
/// * **Open** — requests are refused until `cooldown` has elapsed since the
///   trip; the first `allow` at or after that instant transitions to
///   **HalfOpen** and grants the probe.
/// * **HalfOpen** — exactly one in-flight probe: further `allow` calls are
///   refused until the probe resolves. A success closes the breaker; a
///   failure re-opens it (restarting the cooldown from the failure time).
///
/// Every transition is appended to a log whose timestamps are clamped
/// monotone, so "the breaker never moved backwards in time" is checkable as
/// `transitions()` being sorted — the invariant the proptest suite pins.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: Seconds,
    probe_in_flight: bool,
    last_event: Seconds,
    transitions: Vec<(Seconds, BreakerState)>,
}

impl CircuitBreaker {
    /// A closed breaker with the given config.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at: Seconds(0.0),
            probe_in_flight: false,
            last_event: Seconds(0.0),
            transitions: Vec::new(),
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// The transition log: `(time, state entered)`, times nondecreasing.
    /// The initial `Closed` state is implicit and not logged.
    pub fn transitions(&self) -> &[(Seconds, BreakerState)] {
        &self.transitions
    }

    /// Number of times the breaker has tripped open.
    pub fn opens(&self) -> usize {
        self.transitions
            .iter()
            .filter(|(_, s)| *s == BreakerState::Open)
            .count()
    }

    fn clamp(&mut self, now: Seconds) -> Seconds {
        let t = Seconds(now.value().max(self.last_event.value()));
        self.last_event = t;
        t
    }

    fn transition(&mut self, at: Seconds, state: BreakerState) {
        self.state = state;
        self.transitions.push((at, state));
    }

    /// Asks whether a request may proceed at modeled time `now`. In the open
    /// state this is also the re-probe gate: the first call at or past the
    /// cooldown deadline flips to half-open and grants the probe.
    pub fn allow(&mut self, now: Seconds) -> bool {
        let now = self.clamp(now);
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                if now.value() >= self.opened_at.value() + self.config.cooldown.value() {
                    self.transition(now, BreakerState::HalfOpen);
                    self.probe_in_flight = true;
                    true
                } else {
                    false
                }
            }
            BreakerState::HalfOpen => {
                if self.probe_in_flight {
                    false
                } else {
                    self.probe_in_flight = true;
                    true
                }
            }
        }
    }

    /// Earliest modeled time at which [`allow`](Self::allow) could next grant
    /// a request (now, if it already would).
    pub fn retry_at(&self, now: Seconds) -> Seconds {
        match self.state {
            BreakerState::Open => Seconds(
                now.value()
                    .max(self.opened_at.value() + self.config.cooldown.value()),
            ),
            _ => now,
        }
    }

    /// Reports a successful request that completed at `now`.
    pub fn on_success(&mut self, now: Seconds) {
        let now = self.clamp(now);
        self.consecutive_failures = 0;
        if self.state == BreakerState::HalfOpen {
            self.probe_in_flight = false;
            self.transition(now, BreakerState::Closed);
        }
    }

    /// Reports a failed (shed / refused / errored) request at `now`.
    pub fn on_failure(&mut self, now: Seconds) {
        let now = self.clamp(now);
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.config.failure_threshold {
                    self.opened_at = now;
                    self.transition(now, BreakerState::Open);
                }
            }
            BreakerState::HalfOpen => {
                self.probe_in_flight = false;
                self.consecutive_failures = self.config.failure_threshold;
                self.opened_at = now;
                self.transition(now, BreakerState::Open);
            }
            BreakerState::Open => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_capped_and_is_deterministic() {
        let sched = BackoffSchedule {
            base: Seconds(1.0),
            factor: 2.0,
            cap: Seconds(10.0),
            jitter: 0.0,
            seed: 7,
        };
        assert_eq!(sched.delay(0, 1).value(), 1.0);
        assert_eq!(sched.delay(1, 1).value(), 2.0);
        assert_eq!(sched.delay(2, 1).value(), 4.0);
        // Capped.
        assert_eq!(sched.delay(9, 1).value(), 10.0);
        // Pure: same inputs, same output.
        assert_eq!(sched.delay(3, 42), sched.delay(3, 42));
    }

    #[test]
    fn jitter_scales_within_bounds_and_decorrelates_keys() {
        let sched = BackoffSchedule {
            jitter: 0.5,
            ..BackoffSchedule::standard(11)
        };
        let mut distinct = std::collections::BTreeSet::new();
        for key in 0..32u64 {
            let d = sched.delay(0, key).value();
            assert!(d <= sched.base.value() && d >= sched.base.value() * 0.5);
            distinct.insert(d.to_bits());
        }
        // Practically all keys draw different jitter.
        assert!(distinct.len() > 16);
    }

    #[test]
    fn breaker_trips_after_threshold_and_reprobes_after_cooldown() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 2,
            cooldown: Seconds(10.0),
        });
        assert!(b.allow(Seconds(0.0)));
        b.on_failure(Seconds(1.0));
        assert_eq!(b.state(), BreakerState::Closed);
        b.on_failure(Seconds(2.0));
        assert_eq!(b.state(), BreakerState::Open);
        // Refused during cooldown; retry_at names the re-probe instant.
        assert!(!b.allow(Seconds(5.0)));
        assert_eq!(b.retry_at(Seconds(5.0)).value(), 12.0);
        // First allow at the deadline is the half-open probe...
        assert!(b.allow(Seconds(12.0)));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // ...and exactly one: a second concurrent request is refused.
        assert!(!b.allow(Seconds(12.5)));
        b.on_success(Seconds(13.0));
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(
            b.transitions(),
            &[
                (Seconds(2.0), BreakerState::Open),
                (Seconds(12.0), BreakerState::HalfOpen),
                (Seconds(13.0), BreakerState::Closed),
            ]
        );
    }

    #[test]
    fn failed_probe_reopens_with_a_fresh_cooldown() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            cooldown: Seconds(4.0),
        });
        b.on_failure(Seconds(0.0));
        assert!(b.allow(Seconds(4.0)));
        b.on_failure(Seconds(5.0));
        assert_eq!(b.state(), BreakerState::Open);
        // Cooldown restarts at the probe failure, not the original trip.
        assert!(!b.allow(Seconds(8.0)));
        assert!(b.allow(Seconds(9.0)));
        b.on_success(Seconds(9.5));
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.opens(), 2);
    }

    #[test]
    fn a_success_resets_the_consecutive_failure_count() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 2,
            cooldown: Seconds(1.0),
        });
        b.on_failure(Seconds(1.0));
        b.on_success(Seconds(2.0));
        b.on_failure(Seconds(3.0));
        assert_eq!(b.state(), BreakerState::Closed);
        b.on_failure(Seconds(4.0));
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn transition_times_are_clamped_monotone() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            cooldown: Seconds(0.0),
        });
        b.on_failure(Seconds(10.0));
        // An out-of-order report cannot move the log backwards.
        assert!(b.allow(Seconds(3.0)));
        b.on_success(Seconds(4.0));
        let times: Vec<f64> = b.transitions().iter().map(|(t, _)| t.value()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "{times:?}");
    }
}
