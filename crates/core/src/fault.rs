//! Deterministic fault injection for robustness testing.
//!
//! A [`FaultPlan`] tells the driver to sabotage the analysis of selected
//! functions: panic inside summarization, stall the solver (by draining
//! its fuel), or sleep so a deadline trips. Selection is *deterministic* —
//! a function is faulted iff a seeded hash of its name falls under the
//! configured rate, or it is listed explicitly — so the same plan faults
//! the same functions in sequential and parallel runs, which is what lets
//! the test suite assert `parallel == sequential under faults`.
//!
//! The plan exists purely to exercise the fault-tolerance machinery
//! (panic isolation, retry, degradation records); production entry points
//! use [`FaultPlan::none`], which injects nothing.

use serde::{Deserialize, Serialize};

/// A deterministic fault-injection plan.
///
/// Serializable for `rid analyze --fault-plan plan.json` — selection
/// hashes only the seed and the function name, so the same plan faults
/// the same functions at every thread count.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for the per-function selection hash.
    pub seed: u64,
    /// Fraction (0.0–1.0) of functions whose first summarization attempt
    /// panics.
    pub panic_rate: f64,
    /// Fraction (0.0–1.0) of functions that sleep [`FaultPlan::slow_ms`]
    /// milliseconds before summarization (to trip deadlines).
    pub slow_rate: f64,
    /// Sleep duration for slow-faulted functions, in milliseconds.
    pub slow_ms: u64,
    /// Fraction (0.0–1.0) of functions whose solver fuel is drained on
    /// entry, simulating a stalled solver.
    pub stall_rate: f64,
    /// Functions that always panic on the first attempt, regardless of
    /// rate.
    pub panic_functions: Vec<String>,
    /// Functions that always sleep, regardless of rate.
    pub slow_functions: Vec<String>,
    /// When set, panic-faulted functions panic on the retry too, so they
    /// degrade all the way to [`crate::budget::DegradeReason::Panic`].
    pub panic_twice: bool,
}

/// FNV-1a over the seed and the function name: stable across runs,
/// platforms, and thread schedules. Public so other fault planes (e.g.
/// `rid-serve`'s `ServeFaultPlan`) select their victims with the exact
/// same deterministic recipe.
#[must_use]
pub fn selection_hash(seed: u64, name: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64 ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for byte in name.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Whether the deterministic selector picks `name` at the given `rate`
/// under `(seed, salt)`. Rates ≤ 0 select nothing; rates ≥ 1 select
/// everything; in between, the seeded hash of the name is mapped to
/// [0, 1) and compared against the rate.
#[must_use]
pub fn rate_selects(seed: u64, salt: u64, name: &str, rate: f64) -> bool {
    if rate <= 0.0 {
        return false;
    }
    if rate >= 1.0 {
        return true;
    }
    // FNV's high bits avalanche poorly for short names; finalize with the
    // murmur3 mixer before taking the top bits.
    let mut h = selection_hash(seed ^ salt, name);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    // Map the hash to [0, 1) with 53-bit precision.
    let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
    unit < rate
}

impl FaultPlan {
    /// The empty plan: injects nothing anywhere.
    #[must_use]
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Whether this plan can inject anything at all.
    #[must_use]
    pub fn is_none(&self) -> bool {
        self.panic_rate <= 0.0
            && self.slow_rate <= 0.0
            && self.stall_rate <= 0.0
            && self.panic_functions.is_empty()
            && self.slow_functions.is_empty()
    }

    /// Whether summarization attempt `attempt` (0 = first) of `name`
    /// should panic.
    #[must_use]
    pub fn should_panic(&self, name: &str, attempt: u32) -> bool {
        if attempt > 0 && !self.panic_twice {
            return false;
        }
        if attempt > 1 {
            return false; // never sabotage beyond the one retry
        }
        self.panic_functions.iter().any(|f| f == name)
            || rate_selects(self.seed, 0x70616e69, name, self.panic_rate)
    }

    /// Whether `name` should sleep before summarization (first attempt
    /// only — the retry runs unslowed so `Retried` stays reachable).
    #[must_use]
    pub fn should_slow(&self, name: &str, attempt: u32) -> bool {
        if attempt > 0 {
            return false;
        }
        self.slow_functions.iter().any(|f| f == name)
            || rate_selects(self.seed, 0x736c6f77, name, self.slow_rate)
    }

    /// Whether `name`'s solver fuel should be drained on entry.
    #[must_use]
    pub fn should_stall(&self, name: &str) -> bool {
        rate_selects(self.seed, 0x7374616c, name, self.stall_rate)
    }

    /// Every function from `names` the plan would fault in any way.
    pub fn faulted<'a>(
        &'a self,
        names: impl IntoIterator<Item = &'a str> + 'a,
    ) -> impl Iterator<Item = &'a str> + 'a {
        names.into_iter().filter(move |name| {
            self.should_panic(name, 0) || self.should_slow(name, 0) || self.should_stall(name)
        })
    }

    /// Executes the injection point for `(name, attempt)`: sleeps if
    /// slow-faulted, panics if panic-faulted. Called by the driver inside
    /// its `catch_unwind` envelope.
    ///
    /// # Panics
    ///
    /// Panics exactly when [`FaultPlan::should_panic`] says so — that is
    /// the injected fault.
    pub fn inject(&self, name: &str, attempt: u32) {
        if self.should_slow(name, attempt) && self.slow_ms > 0 {
            if rid_obs::enabled() {
                rid_obs::event(
                    rid_obs::SpanKind::Fault,
                    &format!("slow:{name}"),
                    u64::from(attempt),
                );
            }
            std::thread::sleep(std::time::Duration::from_millis(self.slow_ms));
        }
        if self.should_panic(name, attempt) {
            if rid_obs::enabled() {
                rid_obs::event(
                    rid_obs::SpanKind::Fault,
                    &format!("panic:{name}"),
                    u64::from(attempt),
                );
            }
            panic!("injected fault: panic in `{name}` (attempt {attempt})");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_selects_nothing() {
        let plan = FaultPlan::none();
        assert!(plan.is_none());
        assert!(!plan.should_panic("anything", 0));
        assert!(!plan.should_slow("anything", 0));
        assert!(!plan.should_stall("anything"));
    }

    #[test]
    fn selection_is_deterministic_and_seed_sensitive() {
        let plan = FaultPlan { seed: 7, panic_rate: 0.3, ..FaultPlan::none() };
        let names: Vec<String> = (0..200).map(|i| format!("fn_{i}")).collect();
        let picks: Vec<bool> = names.iter().map(|n| plan.should_panic(n, 0)).collect();
        let again: Vec<bool> = names.iter().map(|n| plan.should_panic(n, 0)).collect();
        assert_eq!(picks, again);
        let hit = picks.iter().filter(|&&p| p).count();
        assert!((20..=90).contains(&hit), "~30% of 200 expected, got {hit}");
        let other = FaultPlan { seed: 8, ..plan };
        let other_picks: Vec<bool> = names.iter().map(|n| other.should_panic(n, 0)).collect();
        assert_ne!(picks, other_picks);
    }

    #[test]
    fn explicit_lists_override_rates() {
        let plan = FaultPlan {
            panic_functions: vec!["boom".into()],
            slow_functions: vec!["slug".into()],
            ..FaultPlan::none()
        };
        assert!(plan.should_panic("boom", 0));
        assert!(!plan.should_panic("boom", 1), "retry is clean by default");
        assert!(plan.should_slow("slug", 0));
        let twice = FaultPlan { panic_twice: true, ..plan };
        assert!(twice.should_panic("boom", 1));
        assert!(!twice.should_panic("boom", 2), "never beyond the retry");
    }

    #[test]
    fn inject_panics_on_selected_function() {
        let plan = FaultPlan { panic_functions: vec!["boom".into()], ..FaultPlan::none() };
        plan.inject("fine", 0); // no-op
        let err = std::panic::catch_unwind(|| plan.inject("boom", 0));
        assert!(err.is_err());
    }
}
