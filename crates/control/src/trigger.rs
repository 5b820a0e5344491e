//! When to replan: pluggable trigger policies plus hysteresis.
//!
//! A trigger answers one question per tick — *has reality diverged from
//! the running plan's assumptions enough to justify disruption?* —
//! without prescribing what the replan should do. Policies are cheap
//! (O(services)) so the controller can tick at observation frequency.

use adept_workload::RateForecaster;

/// A condition under which the controller replans. Any firing policy
/// fires the (hysteresis-gated) round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TriggerPolicy {
    /// Fires when any service's demand forecast drifts more than
    /// `threshold` (relative) from the rate the running deployment was
    /// planned for — the forecast-drift statistic of
    /// [`RateForecaster::drift`]. Also fires on execution-time
    /// (`Wapp`) drift past the same threshold when execution samples
    /// are observed.
    ForecastDrift {
        /// Relative drift (e.g. `0.2` = 20%) above which to act.
        threshold: f64,
    },
    /// Fires every `every` ticks regardless of drift (a safety net for
    /// slow model/reality divergence no statistic catches).
    Periodic {
        /// Tick interval between forced replans.
        every: u64,
    },
}

impl TriggerPolicy {
    /// Evaluates the policy. `wapp_drift` is the largest relative
    /// execution-time drift across services (0 when none observed).
    /// Returns a human-readable firing reason, or `None` to hold.
    pub fn fire_reason(
        &self,
        tick: u64,
        forecasters: &[RateForecaster],
        wapp_drift: f64,
    ) -> Option<String> {
        match *self {
            TriggerPolicy::ForecastDrift { threshold } => {
                for (j, f) in forecasters.iter().enumerate() {
                    let drift = f.drift();
                    if drift > threshold {
                        return Some(format!(
                            "service {j} demand forecast drifted {:.0}% (> {:.0}%)",
                            drift * 100.0,
                            threshold * 100.0
                        ));
                    }
                }
                if wapp_drift > threshold {
                    return Some(format!(
                        "execution-time estimate drifted {:.0}% (> {:.0}%)",
                        wapp_drift * 100.0,
                        threshold * 100.0
                    ));
                }
                None
            }
            TriggerPolicy::Periodic { every } => {
                if every > 0 && tick.is_multiple_of(every) {
                    Some(format!("periodic replan (every {every} ticks)"))
                } else {
                    None
                }
            }
        }
    }
}

/// Flap damping: a trigger must hold for several consecutive ticks, and
/// migrations are separated by a cooldown, so observation noise around a
/// threshold cannot thrash the deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hysteresis {
    /// Consecutive firing ticks required before a replan runs
    /// (debounce; 1 = act immediately).
    pub min_sustained: u64,
    /// Ticks after a migration (or a no-op replan) during which no new
    /// round starts; `u64::MAX` means no round ever starts again.
    pub cooldown_ticks: u64,
}

impl Default for Hysteresis {
    fn default() -> Self {
        Self {
            min_sustained: 2,
            cooldown_ticks: 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn forecaster(planned: f64, observed: f64) -> RateForecaster {
        let mut f = RateForecaster::new(1.0);
        f.mark_planned(planned);
        f.observe(observed);
        f
    }

    #[test]
    fn drift_trigger_fires_past_threshold_only() {
        let policy = TriggerPolicy::ForecastDrift { threshold: 0.25 };
        let calm = vec![forecaster(2.0, 2.2)]; // 10% drift
        assert!(policy.fire_reason(1, &calm, 0.0).is_none());
        let shifted = vec![forecaster(2.0, 3.0)]; // 50% drift
        let reason = policy.fire_reason(1, &shifted, 0.0).unwrap();
        assert!(reason.contains("drifted 50%"), "{reason}");
        // Wapp drift fires through the same threshold.
        assert!(policy.fire_reason(1, &calm, 0.3).is_some());
    }

    #[test]
    fn periodic_trigger_fires_on_schedule() {
        let policy = TriggerPolicy::Periodic { every: 3 };
        let f: Vec<RateForecaster> = Vec::new();
        assert!(policy.fire_reason(1, &f, 0.0).is_none());
        assert!(policy.fire_reason(3, &f, 0.0).is_some());
        assert!(policy.fire_reason(6, &f, 0.0).is_some());
        assert!(TriggerPolicy::Periodic { every: 0 }
            .fire_reason(0, &f, 0.0)
            .is_none());
    }
}
