//! Cooperative wall-clock deadlines (the campaign watchdog).
//!
//! The virtual clock bounds how much *simulated* work a campaign performs,
//! but an adversarial wild contract can still make one unit of simulated
//! work arbitrarily expensive in wall-clock terms (pathological SAT
//! instances, gigantic traces). A [`Deadline`] is the second line of
//! defence: a shared point in wall-clock time that every long-running stage
//! — the fuzzing loop, symbolic replay, the SAT search — polls cooperatively
//! and degrades gracefully at, instead of spinning.
//!
//! `Deadline` lives in `wasai-smt` (the lowest crate with a long-running
//! loop) so the solver, the replayer and the engine can all share one type
//! without a dependency cycle.
//!
//! A `Deadline` is `Copy`: threading it through configs and budgets costs
//! nothing, and [`Deadline::NONE`] (the default) compiles the checks down to
//! an `Option` test, preserving the fully deterministic no-watchdog mode.

use std::time::{Duration, Instant};

/// A point in wall-clock time after which cooperative stages should stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Deadline {
    at: Option<Instant>,
}

impl Deadline {
    /// No deadline: checks always pass, behavior is fully deterministic.
    pub const NONE: Deadline = Deadline { at: None };

    /// A deadline `d` from now.
    pub fn after(d: Duration) -> Self {
        Deadline {
            at: Instant::now().checked_add(d),
        }
    }

    /// A deadline a fractional number of seconds from now.
    pub fn after_secs(secs: f64) -> Self {
        Deadline::after(Duration::from_secs_f64(secs.max(0.0)))
    }

    /// True if a deadline is set (even if already expired).
    pub fn is_set(&self) -> bool {
        self.at.is_some()
    }

    /// True once the deadline has passed. Never true for [`Deadline::NONE`].
    pub fn expired(&self) -> bool {
        match self.at {
            Some(at) => Instant::now() >= at,
            None => false,
        }
    }

    /// Time left, `None` when no deadline is set, zero when expired.
    pub fn remaining(&self) -> Option<Duration> {
        self.at
            .map(|at| at.saturating_duration_since(Instant::now()))
    }

    /// The earlier of two deadlines (`NONE` is treated as "never").
    pub fn earliest(self, other: Deadline) -> Deadline {
        match (self.at, other.at) {
            (Some(a), Some(b)) => Deadline { at: Some(a.min(b)) },
            (Some(a), None) => Deadline { at: Some(a) },
            (None, b) => Deadline { at: b },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_expires() {
        assert!(!Deadline::NONE.expired());
        assert!(!Deadline::NONE.is_set());
        assert_eq!(Deadline::NONE.remaining(), None);
    }

    #[test]
    fn past_deadline_is_expired() {
        let d = Deadline::after(Duration::ZERO);
        assert!(d.is_set());
        assert!(d.expired());
        assert_eq!(d.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn future_deadline_is_live() {
        let d = Deadline::after(Duration::from_secs(3600));
        assert!(!d.expired());
        assert!(
            d.remaining().expect("a set deadline has a remaining time") > Duration::from_secs(3500)
        );
    }

    #[test]
    fn earliest_picks_the_sooner_deadline() {
        let soon = Deadline::after(Duration::from_secs(1));
        let later = Deadline::after(Duration::from_secs(3600));
        assert_eq!(soon.earliest(later), soon);
        assert_eq!(later.earliest(soon), soon);
        assert_eq!(Deadline::NONE.earliest(soon), soon);
        assert_eq!(soon.earliest(Deadline::NONE), soon);
        assert_eq!(Deadline::NONE.earliest(Deadline::NONE), Deadline::NONE);
    }
}
