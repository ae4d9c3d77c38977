//! Declarative SLO monitor and flight recorder.
//!
//! A [`HealthMonitor`] holds a set of [`Rule`]s and is fed one
//! [`SamplePoint`] per epoch (by the fleet scheduler's post-barrier loop,
//! or any other deterministic driver). Rules read only counter *deltas*
//! and gauges from the point, so evaluation is jobs-invariant: the same
//! workload raises byte-identical alerts at `--jobs 1` and `--jobs 4`.
//!
//! When a rule fires, the monitor records a typed [`Alert`] with its
//! epoch. The caller (see `xtask chaos health`) then captures a **flight
//! recorder** dump via [`flight_record`]: the monitor's alert log, the
//! last N epochs of time-series, and the currently active span tree — the
//! "what was happening around the anomaly" bundle, written as a
//! `memcon-flightrec/v1` artifact.
//!
//! The default rule set ([`default_rules`]) watches the failure modes the
//! MEMCON paper's mitigation machinery can actually exhibit: escape burn,
//! HI-REF pinning pressure, recovery-backoff ceiling hits, tRRD/tFAW
//! stall ratio, and PRIL buffer occupancy.

use memutil::json::Json;

use crate::timeseries::SamplePoint;
use crate::Registry;

/// Schema identifier of flight-recorder dumps.
pub const FLIGHTREC_SCHEMA: &str = "memcon-flightrec/v1";

/// Alerts retained per monitor; later firings are counted but not stored.
const MAX_ALERTS: usize = 256;

/// Alert severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Degraded but operating; worth a look.
    Warning,
    /// SLO broken; capture a flight record.
    Critical,
}

impl Severity {
    /// Lowercase wire name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }
}

/// What a rule tests on each sample point.
#[derive(Debug, Clone)]
pub enum Condition {
    /// The point's delta (or gauge) for `metric` is strictly above
    /// `threshold`.
    DeltaAbove {
        /// Counter-delta or gauge name read from the point.
        metric: String,
        /// Fire when the value is strictly above this.
        threshold: u64,
    },
    /// The sum of the `num` values divided by the `den` value is strictly
    /// above `ratio`. Quiet while `den` is zero.
    RatioAbove {
        /// Numerator names, summed (deltas or gauges).
        num: Vec<String>,
        /// Denominator name (delta or gauge).
        den: String,
        /// Fire when num/den is strictly above this.
        ratio: f64,
    },
}

/// One declarative SLO rule.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Rule name, shown in alerts and the `HEALTH` scrape view.
    pub name: String,
    /// Severity of alerts this rule raises.
    pub severity: Severity,
    /// Fire condition, evaluated per sample point.
    pub condition: Condition,
}

impl Rule {
    /// A `DeltaAbove` rule.
    #[must_use]
    pub fn delta_above(name: &str, severity: Severity, metric: &str, threshold: u64) -> Rule {
        Rule {
            name: name.to_string(),
            severity,
            condition: Condition::DeltaAbove {
                metric: metric.to_string(),
                threshold,
            },
        }
    }

    /// A `RatioAbove` rule.
    #[must_use]
    pub fn ratio_above(
        name: &str,
        severity: Severity,
        num: &[&str],
        den: &str,
        ratio: f64,
    ) -> Rule {
        Rule {
            name: name.to_string(),
            severity,
            condition: Condition::RatioAbove {
                num: num.iter().map(|n| (*n).to_string()).collect(),
                den: den.to_string(),
                ratio,
            },
        }
    }
}

/// One rule firing at one epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// Epoch (sample tick) the rule fired at.
    pub epoch: u64,
    /// Name of the firing rule.
    pub rule: String,
    /// Severity copied from the rule.
    pub severity: Severity,
    /// Observed value (delta, gauge, or ratio).
    pub observed: f64,
    /// The rule's threshold.
    pub threshold: f64,
}

impl Alert {
    /// The alert as report JSON.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("epoch", self.epoch)
            .field("rule", self.rule.as_str())
            .field("severity", self.severity.as_str())
            .field("observed", self.observed)
            .field("threshold", self.threshold)
    }

    /// One-line rendering for the `HEALTH` scrape command.
    #[must_use]
    pub fn line(&self) -> String {
        format!(
            "alert {} {} {} observed={} threshold={}",
            self.epoch,
            self.severity.as_str(),
            self.rule,
            self.observed,
            self.threshold
        )
    }
}

/// The default MEMCON rule set (see module docs).
#[must_use]
pub fn default_rules() -> Vec<Rule> {
    vec![
        Rule::delta_above("escape-burn", Severity::Critical, "fleet.obs.escapes", 0),
        Rule::ratio_above(
            "hi-pin-pressure",
            Severity::Warning,
            &["fleet.gauge.pinned_pages"],
            "fleet.gauge.pages",
            0.25,
        ),
        Rule::delta_above(
            "backoff-ceiling",
            Severity::Warning,
            "fleet.obs.backoff_ceiling_hits",
            0,
        ),
        Rule::ratio_above(
            "stall-pressure",
            Severity::Warning,
            &["memsim.ctrl.trrd_stalls", "memsim.ctrl.tfaw_stalls"],
            "memsim.ctrl.acts",
            5.0,
        ),
        Rule::ratio_above(
            "pril-occupancy",
            Severity::Warning,
            &["fleet.gauge.pril_buffered"],
            "fleet.gauge.pril_capacity",
            0.9,
        ),
    ]
}

/// Evaluates a rule set against per-epoch sample points, accumulating
/// typed alerts (bounded; overflow is counted).
#[derive(Debug)]
pub struct HealthMonitor {
    rules: Vec<Rule>,
    alerts: Vec<Alert>,
    dropped_alerts: u64,
    epochs_evaluated: u64,
}

impl HealthMonitor {
    /// A monitor over `rules`.
    #[must_use]
    pub fn new(rules: Vec<Rule>) -> HealthMonitor {
        HealthMonitor {
            rules,
            alerts: Vec::new(),
            dropped_alerts: 0,
            epochs_evaluated: 0,
        }
    }

    /// A monitor armed with [`default_rules`].
    #[must_use]
    pub fn with_default_rules() -> HealthMonitor {
        HealthMonitor::new(default_rules())
    }

    /// Appends `rule` to the set.
    pub fn add_rule(&mut self, rule: Rule) {
        self.rules.push(rule);
    }

    /// Evaluates every rule against `point`; returns how many fired.
    pub fn evaluate(&mut self, point: &SamplePoint) -> usize {
        self.epochs_evaluated += 1;
        let mut fired = 0;
        for rule in &self.rules {
            let hit = match &rule.condition {
                Condition::DeltaAbove { metric, threshold } => {
                    let observed = point.value(metric);
                    (observed > *threshold).then_some((observed as f64, *threshold as f64))
                }
                Condition::RatioAbove { num, den, ratio } => {
                    let d = point.value(den);
                    if d == 0 {
                        None
                    } else {
                        let n: u64 = num.iter().map(|m| point.value(m)).sum();
                        let observed = n as f64 / d as f64;
                        (observed > *ratio).then_some((observed, *ratio))
                    }
                }
            };
            if let Some((observed, threshold)) = hit {
                fired += 1;
                if self.alerts.len() < MAX_ALERTS {
                    self.alerts.push(Alert {
                        epoch: point.tick,
                        rule: rule.name.clone(),
                        severity: rule.severity,
                        observed,
                        threshold,
                    });
                } else {
                    self.dropped_alerts += 1;
                }
            }
        }
        fired
    }

    /// Recorded alerts, in firing order.
    #[must_use]
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// The armed rules.
    #[must_use]
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Alerts discarded after the retention cap filled.
    #[must_use]
    pub fn dropped_alerts(&self) -> u64 {
        self.dropped_alerts
    }

    /// How many sample points have been evaluated.
    #[must_use]
    pub fn epochs_evaluated(&self) -> u64 {
        self.epochs_evaluated
    }

    /// Epoch of the first recorded alert, if any fired yet.
    #[must_use]
    pub fn first_alert_epoch(&self) -> Option<u64> {
        self.alerts.first().map(|a| a.epoch)
    }

    /// Monitor state as JSON (used by the flight recorder and scrapes).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut alerts = Json::arr();
        for a in &self.alerts {
            alerts = alerts.push(a.to_json());
        }
        Json::obj()
            .field("rules_armed", self.rules.len() as u64)
            .field("epochs_evaluated", self.epochs_evaluated)
            .field("alerts", alerts)
            .field("dropped_alerts", self.dropped_alerts)
    }
}

/// Builds a flight-recorder dump: monitor state (alerts included) plus the
/// last `last_n_epochs` time-series points and the currently active spans
/// of `registry`. The caller writes it to disk; telemetry stays I/O-free.
#[must_use]
pub fn flight_record(registry: &Registry, monitor: &HealthMonitor, last_n_epochs: usize) -> Json {
    let mut points = Json::arr();
    for p in registry.timeseries_tail(last_n_epochs) {
        points = points.push(p.to_json());
    }

    let tree = registry.tree();
    let mut active = Json::arr();
    for n in tree.active() {
        active = active.push(n.to_json());
    }

    Json::obj()
        .field("schema", FLIGHTREC_SCHEMA)
        .field("health", monitor.to_json())
        .field(
            "timeseries",
            Json::obj()
                .field("last_n_epochs", last_n_epochs as u64)
                .field("points", points),
        )
        .field("active_spans", active)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(tick: u64, counters: &[(&str, u64)], gauges: &[(&str, u64)]) -> SamplePoint {
        SamplePoint {
            tick,
            counters: counters
                .iter()
                .map(|(n, v)| ((*n).to_string(), *v))
                .collect(),
            gauges: gauges.iter().map(|(n, v)| ((*n).to_string(), *v)).collect(),
        }
    }

    #[test]
    fn delta_rule_fires_strictly_above_threshold() {
        let mut m =
            HealthMonitor::new(vec![Rule::delta_above("r", Severity::Critical, "a.b.c", 2)]);
        assert_eq!(m.evaluate(&point(1, &[("a.b.c", 2)], &[])), 0);
        assert_eq!(m.evaluate(&point(2, &[("a.b.c", 3)], &[])), 1);
        assert_eq!(m.alerts().len(), 1);
        assert_eq!(m.alerts()[0].epoch, 2);
        assert_eq!(m.first_alert_epoch(), Some(2));
    }

    #[test]
    fn ratio_rule_is_quiet_on_zero_denominator() {
        let mut m = HealthMonitor::new(vec![Rule::ratio_above(
            "r",
            Severity::Warning,
            &["g.num"],
            "g.den",
            0.5,
        )]);
        assert_eq!(m.evaluate(&point(1, &[], &[("g.num", 9), ("g.den", 0)])), 0);
        assert_eq!(
            m.evaluate(&point(2, &[], &[("g.num", 9), ("g.den", 10)])),
            1
        );
        let a = &m.alerts()[0];
        assert!((a.observed - 0.9).abs() < 1e-12);
    }

    #[test]
    fn ratio_numerators_sum() {
        let mut m = HealthMonitor::new(vec![Rule::ratio_above(
            "r",
            Severity::Warning,
            &["x.stall.a", "x.stall.b"],
            "x.stall.den",
            1.0,
        )]);
        let fired = m.evaluate(&point(
            1,
            &[("x.stall.a", 3), ("x.stall.b", 4), ("x.stall.den", 5)],
            &[],
        ));
        assert_eq!(fired, 1);
    }

    #[test]
    fn alert_cap_counts_overflow() {
        let mut m = HealthMonitor::new(vec![Rule::delta_above("r", Severity::Warning, "a.b.c", 0)]);
        for tick in 0..(MAX_ALERTS as u64 + 5) {
            m.evaluate(&point(tick, &[("a.b.c", 1)], &[]));
        }
        assert_eq!(m.alerts().len(), MAX_ALERTS);
        assert_eq!(m.dropped_alerts(), 5);
    }

    #[test]
    fn default_rules_cover_the_documented_failure_modes() {
        let names: Vec<String> = default_rules().into_iter().map(|r| r.name).collect();
        for expected in [
            "escape-burn",
            "hi-pin-pressure",
            "backoff-ceiling",
            "stall-pressure",
            "pril-occupancy",
        ] {
            assert!(names.iter().any(|n| n == expected), "missing {expected}");
        }
    }

    #[test]
    fn flight_record_bundles_health_series_and_spans() {
        let r = Registry::new();
        r.set_enabled(true);
        r.counter("a.b.c", crate::Class::Deterministic).add(3);
        r.sample_point(1, &[("g.x", 7)]);
        let _open = r.tree().open("t.active");
        let mut m =
            HealthMonitor::new(vec![Rule::delta_above("r", Severity::Critical, "a.b.c", 0)]);
        let p = r.timeseries_points().pop().expect("point");
        m.evaluate(&p);
        let dump = flight_record(&r, &m, 8);
        assert_eq!(
            dump.get("schema").and_then(Json::as_str),
            Some(FLIGHTREC_SCHEMA)
        );
        let alerts = dump
            .get("health")
            .and_then(|h| h.get("alerts"))
            .expect("alerts");
        let Json::Arr(alerts) = alerts else {
            panic!("alerts not an array");
        };
        assert_eq!(alerts.len(), 1);
        let Some(Json::Arr(points)) = dump.get("timeseries").and_then(|t| t.get("points")) else {
            panic!("points missing");
        };
        assert_eq!(points.len(), 1);
        let Some(Json::Arr(active)) = dump.get("active_spans") else {
            panic!("active_spans missing");
        };
        assert_eq!(active.len(), 1);
    }
}
