//! What a run accumulates: operations attempted and failed, latency samples,
//! per-round figures and the digest of simulated outputs.

use std::collections::BTreeMap;
use std::time::Instant;

/// Per-layer metrics in report order, with units. Every round fills in
/// the ones its workload touches; the rest read 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("topology.synthesize_ms", "ms"),
    ("topology.plan_ms", "ms"),
    ("analyze.preflight_ms", "ms"),
    ("framework.build_ms", "ms"),
    ("framework.bringup_s", "s"),
    ("netsim.bringup_events", "count"),
    ("netsim.events", "count"),
    ("netsim.events_per_s", "1/s"),
    ("netsim.dispatch_s", "s"),
    ("netsim.dispatch_max_ms", "ms"),
    ("netsim.allocs_hot", "count"),
    ("bgp.decision_s", "s"),
    ("controller.recompute_s", "s"),
    ("controller.prefixes_recomputed", "count"),
    ("sdn.flowtable_mutate_s", "s"),
    ("sdn.flow_mods", "count"),
    ("collector.log_entries", "count"),
    ("framework.audit_ms", "ms"),
    ("verify.snapshot_ms", "ms"),
    ("verify.check_ms", "ms"),
    ("obs.causal_ms", "ms"),
    ("obs.artifact_ms", "ms"),
    ("mem.bringup_rss_mb", "MB"),
    ("mem.event_rss_growth_mb", "MB"),
    ("mem.minor_faults", "count"),
];

/// Figures of one round of a workload.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Build and bring-up wall time (summed over the round's set-ups).
    pub setup_s: f64,
    /// Wall time of the measured routing-event phases.
    pub event_s: f64,
    /// Wall time of the whole round.
    pub run_s: f64,
    /// Wall time of each event phase, in the order the round runs them.
    pub phases: Vec<f64>,
    /// Wall times of consecutive stretches that together make up the round
    /// (set-up, each event or job with its checks, the end), in order.
    pub laps: Vec<f64>,
    /// Per-layer figures, keyed by [`LAYER_METRICS`] names.
    pub layers: BTreeMap<&'static str, f64>,
}

impl Round {
    /// Add to a per-layer figure.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.layers.entry(name).or_default() += v;
    }

    /// Close the stretch that began at `mark` as one lap, and begin the next.
    pub fn lap(&mut self, mark: &mut Instant) {
        let now = Instant::now();
        self.laps.push((now - *mark).as_secs_f64());
        *mark = now;
    }

    /// Raise a per-layer figure to at least `v`.
    pub fn raise(&mut self, name: &'static str, v: f64) {
        let e = self.layers.entry(name).or_default();
        *e = e.max(v);
    }
}

/// Everything a run accumulates across its rounds.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations (jobs or routing events) attempted.
    pub attempted: u64,
    /// Operations that failed a check, panicked or did not converge.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Latency samples by kind (`job_ms`, `withdraw_ms`, ...).
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Finished rounds.
    pub rounds: Vec<Round>,
    /// Digest lines of the first round's simulated outputs.
    pub digest: Vec<String>,
}

impl Outcome {
    /// Record a check result; false when it failed.
    pub fn check(&mut self, r: Result<(), String>) -> bool {
        match r {
            Ok(()) => true,
            Err(msg) => {
                if self.failures.len() < 20 {
                    self.failures.push(msg);
                }
                false
            }
        }
    }

    /// Count one finished operation.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Record a failure that belongs to an operation already counted as
    /// attempted (a round-level check); never lets `failed` pass `attempted`.
    pub fn fail_late(&mut self, msg: String) {
        if self.failures.len() < 20 {
            self.failures.push(msg);
        }
        self.failed = (self.failed + 1).min(self.attempted);
    }

    /// Add one digest line, in the first round only.
    pub fn digest_line(&mut self, line: String) {
        if self.rounds.is_empty() {
            self.digest.push(line);
        }
    }
}

/// The time of one round with every stretch at the host's full speed: the
/// sum, over positions, of the minimum across rounds of the value at that
/// position. Every round of a run does the same simulated work in the same
/// order, so position `i` is the same event (or lap) in each, and host noise
/// can only add time to it; the host's speed switches between states about
/// 1.4x apart for tens of seconds at a time (README.md), so each stretch's
/// best reading is the one a slow spell did not reach. A row cut short
/// leaves its missing positions to the other rows.
pub fn positional_min_sum(rows: &[&[f64]]) -> f64 {
    let width = rows.iter().map(|r| r.len()).max().unwrap_or(0);
    (0..width)
        .map(|i| {
            rows.iter()
                .filter_map(|r| r.get(i).copied())
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// Median of a sample (0 for an empty one).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolation quantile (type 7) of a sample (0 for an empty one).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let h = (v.len() - 1) as f64 * q;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (h - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((quantile(&(1..=11).map(f64::from).collect::<Vec<_>>(), 0.9) - 10.0).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn positional_min_sum_takes_each_position_apart() {
        // One slow stretch per row: every row sums to 12, the best reading
        // of each position is 1.
        let rows: [&[f64]; 3] = [&[10.0, 1.0, 1.0], &[1.0, 10.0, 1.0], &[1.0, 1.0, 10.0]];
        assert_eq!(positional_min_sum(&rows), 3.0);
        let ragged: [&[f64]; 2] = [&[2.0, 4.0], &[3.0]];
        assert_eq!(positional_min_sum(&ragged), 6.0);
        assert_eq!(positional_min_sum(&[]), 0.0);
    }

    #[test]
    fn late_failures_never_exceed_attempts() {
        let mut o = Outcome::default();
        o.op(true);
        o.fail_late("x".into());
        o.fail_late("y".into());
        assert_eq!((o.attempted, o.failed), (1, 1));
    }
}
