//! Reconnection policy: exponential backoff with deterministic jitter.
//!
//! Interactive displays hold display locks for minutes or hours, so the
//! client stack must survive transient channel death without operator
//! intervention. [`ReconnectPolicy`] describes *how hard to try*: how many
//! attempts, how the delay grows, where it caps, and an optional overall
//! deadline after which the supervisor gives up and the session is declared
//! failed.
//!
//! Jitter is derived from a caller-supplied seed via a splitmix-style hash
//! rather than a random number generator, so tests that pin the seed are
//! fully deterministic while distinct connections still decorrelate their
//! retry storms.

use std::time::Duration;

/// How a supervised connection retries after channel death.
#[derive(Clone, Debug, PartialEq)]
pub struct ReconnectPolicy {
    /// Maximum reconnect attempts before the supervisor gives up.
    /// `0` disables reconnection entirely (fail fast on first death).
    pub max_attempts: u32,
    /// Delay before the first retry.
    pub initial_backoff: Duration,
    /// Upper bound on any single delay, jitter included.
    pub max_backoff: Duration,
    /// Growth factor applied per attempt (values `< 1.0` are clamped to 1).
    pub multiplier: f64,
    /// Fraction of the computed delay added/subtracted as jitter, in
    /// `[0.0, 1.0]`. `0.25` means the actual delay is uniform in
    /// `[0.75 d, 1.25 d]`.
    pub jitter: f64,
    /// Optional wall-clock budget for the whole reconnect effort, measured
    /// from the moment the channel died. `None` means attempts alone bound
    /// the effort.
    pub deadline: Option<Duration>,
    /// Use *full* jitter: the delay is uniform in `[0, d]` instead of the
    /// symmetric `[(1-j) d, (1+j) d]`. Symmetric jitter keeps a mass
    /// disconnect synchronized — 10k clients all sleep ≈ d and retry in
    /// the same window, attempt after attempt. Full jitter spreads the
    /// herd across the whole interval, which is what a reconnect storm
    /// needs (the admission gate sheds whatever still clumps). Off by
    /// default so single-client latency stays predictable.
    pub full_jitter: bool,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 8,
            initial_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(5),
            multiplier: 2.0,
            jitter: 0.25,
            deadline: None,
            full_jitter: false,
        }
    }
}

impl ReconnectPolicy {
    /// A policy that never reconnects — first disconnect is final. This is
    /// the behaviour of an unsupervised connection, made explicit.
    pub fn none() -> Self {
        Self {
            max_attempts: 0,
            ..Self::default()
        }
    }

    /// An aggressive policy suitable for in-process tests: many fast
    /// attempts, tiny delays, no deadline.
    pub fn fast_test() -> Self {
        Self {
            max_attempts: 50,
            initial_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(50),
            multiplier: 1.5,
            jitter: 0.2,
            deadline: Some(Duration::from_secs(10)),
            ..Self::default()
        }
    }

    /// A policy tuned for mass-reconnect storms: full jitter spreads the
    /// herd uniformly, `max_backoff` bounds any single wait, and a deadline
    /// bounds the whole effort. Used by the R4 experiment and recommended
    /// for fleets of supervised viewers.
    pub fn storm() -> Self {
        Self {
            max_attempts: 32,
            initial_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(2),
            multiplier: 2.0,
            jitter: 1.0,
            deadline: Some(Duration::from_secs(30)),
            full_jitter: true,
        }
    }

    /// The delay to sleep before reconnect attempt `attempt` (1-based).
    /// `seed` perturbs the jitter deterministically; pass something unique
    /// per connection (e.g. a client id) so concurrent clients decorrelate.
    pub fn delay_for(&self, attempt: u32, seed: u64) -> Duration {
        if attempt <= 1 {
            return self.jittered(self.initial_backoff, attempt, seed);
        }
        let mult = self.multiplier.max(1.0);
        let exp = mult.powi((attempt - 1).min(63) as i32);
        let raw = self.initial_backoff.as_secs_f64() * exp;
        let capped = raw.min(self.max_backoff.as_secs_f64());
        self.jittered(Duration::from_secs_f64(capped), attempt, seed)
    }

    fn jittered(&self, base: Duration, attempt: u32, seed: u64) -> Duration {
        let j = self.jitter.clamp(0.0, 1.0);
        if j == 0.0 && !self.full_jitter {
            return base.min(self.max_backoff);
        }
        // splitmix64-style hash of (seed, attempt) -> uniform in [0, 1).
        let mut z = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(u64::from(attempt));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
        let factor = if self.full_jitter {
            // Full (AWS-style) jitter: uniform in [0, 1].
            unit
        } else {
            // Symmetric jitter: uniform in [1 - j, 1 + j].
            1.0 - j + 2.0 * j * unit
        };
        let secs = (base.as_secs_f64() * factor).max(0.0);
        Duration::from_secs_f64(secs).min(self.max_backoff)
    }

    /// Whether attempt `attempt` (1-based) is still within policy given
    /// `elapsed` time since the disconnect.
    pub fn allows(&self, attempt: u32, elapsed: Duration) -> bool {
        if attempt > self.max_attempts {
            return false;
        }
        match self.deadline {
            Some(d) => elapsed <= d,
            None => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_grow_and_cap() {
        let p = ReconnectPolicy {
            jitter: 0.0,
            ..ReconnectPolicy::default()
        };
        let d1 = p.delay_for(1, 7);
        let d2 = p.delay_for(2, 7);
        let d3 = p.delay_for(3, 7);
        assert_eq!(d1, Duration::from_millis(50));
        assert_eq!(d2, Duration::from_millis(100));
        assert_eq!(d3, Duration::from_millis(200));
        // Far-out attempts hit the cap.
        assert_eq!(p.delay_for(30, 7), p.max_backoff);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = ReconnectPolicy::default();
        let a = p.delay_for(4, 42);
        let b = p.delay_for(4, 42);
        assert_eq!(a, b, "same seed + attempt must give same delay");
        let c = p.delay_for(4, 43);
        assert_ne!(a, c, "different seeds should decorrelate");
        let base = Duration::from_millis(400); // 50ms * 2^3
        let lo = base.mul_f64(1.0 - p.jitter);
        let hi = base.mul_f64(1.0 + p.jitter);
        assert!(a >= lo && a <= hi, "{a:?} outside [{lo:?}, {hi:?}]");
    }

    #[test]
    fn allows_respects_attempts_and_deadline() {
        let p = ReconnectPolicy {
            max_attempts: 3,
            deadline: Some(Duration::from_secs(1)),
            ..ReconnectPolicy::default()
        };
        assert!(p.allows(1, Duration::ZERO));
        assert!(p.allows(3, Duration::from_millis(900)));
        assert!(!p.allows(4, Duration::ZERO));
        assert!(!p.allows(2, Duration::from_secs(2)));
    }

    #[test]
    fn none_policy_disables_reconnect() {
        let p = ReconnectPolicy::none();
        assert!(!p.allows(1, Duration::ZERO));
    }

    #[test]
    fn full_jitter_spreads_from_zero() {
        let p = ReconnectPolicy {
            full_jitter: true,
            ..ReconnectPolicy::default()
        };
        let base = Duration::from_millis(400); // 50ms * 2^3 at attempt 4
        for seed in 0..64u64 {
            let d = p.delay_for(4, seed);
            assert!(d <= base, "full jitter exceeded base: {d:?}");
        }
        // Spread: with 64 seeds, some land in the lower half of [0, d].
        let low = (0..64u64).filter(|&s| p.delay_for(4, s) < base / 2).count();
        assert!(low > 8, "full jitter barely spreads ({low} of 64 low)");
        // Deterministic per seed.
        assert_eq!(p.delay_for(4, 9), p.delay_for(4, 9));
    }

    #[test]
    fn every_storm_delay_is_within_max_backoff() {
        let storm = ReconnectPolicy::storm();
        assert!(storm.full_jitter);
        for attempt in 1..storm.max_attempts {
            for seed in 0..16u64 {
                assert!(storm.delay_for(attempt, seed) <= storm.max_backoff);
            }
        }
    }

    #[test]
    fn zero_jitter_never_exceeds_cap() {
        let p = ReconnectPolicy {
            initial_backoff: Duration::from_secs(10),
            max_backoff: Duration::from_secs(2),
            jitter: 0.0,
            ..ReconnectPolicy::default()
        };
        assert_eq!(p.delay_for(1, 0), Duration::from_secs(2));
    }
}
