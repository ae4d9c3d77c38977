//! Live-observability contract tests for the fleet layer.
//!
//! Covers the per-epoch sampling hook (`fleet.obs.*` deltas plus
//! `fleet.gauge.*` gauges at tick = epoch) and the armed SLO monitor:
//! alerts must fire promptly once a seeded fault plan starts injecting,
//! and both the series and the alert log must be jobs-invariant.

use std::sync::{Arc, Mutex};

use faultinject::FaultPlan;
use fleet::engine::Fleet;
use fleet::{FleetConfig, FleetPlan};
use telemetry::health::{HealthMonitor, Rule, Severity};

/// Everything one observed fleet run produces that the contract covers.
struct Observed {
    /// Final epoch count.
    epochs: u64,
    /// Serialized deterministic `timeseries` section.
    series_emit: String,
    /// `fleet.obs.faults_injected` per-epoch deltas as (tick, value).
    fault_series: Vec<(u64, u64)>,
    /// Rendered alert lines, in firing order.
    alert_lines: Vec<String>,
    /// Epoch of the first alert, if any fired.
    first_alert_epoch: Option<u64>,
}

fn chaos_config() -> FleetConfig {
    let mut config = FleetConfig::small(4, 0x0B5E_C061);
    config.fault_plan = Some(Arc::new(FaultPlan::uniform(0x0B5E_7FA0, 0.2)));
    config
}

fn run_observed(config: &FleetConfig, jobs: usize) -> Observed {
    let mut monitor = HealthMonitor::with_default_rules();
    monitor.add_rule(Rule::delta_above(
        "fault-activity",
        Severity::Warning,
        "fleet.obs.faults_injected",
        0,
    ));
    let monitor = Arc::new(Mutex::new(monitor));
    let (epochs, registry) = telemetry::collect(|| {
        telemetry::current().set_timeseries_capacity(1024);
        let plan = FleetPlan::expand(config, jobs);
        let mut fleet = Fleet::new(&plan);
        fleet.set_health_monitor(Arc::clone(&monitor));
        let _report = fleet.run_to_completion(jobs);
        fleet.epoch()
    });

    let series_emit = registry
        .deterministic()
        .get("timeseries")
        .expect("deterministic section carries the timeseries")
        .emit();
    let fault_series = registry.series("fleet.obs.faults_injected");
    let monitor = monitor.lock().unwrap();
    Observed {
        epochs,
        series_emit,
        fault_series,
        alert_lines: monitor
            .alerts()
            .iter()
            .map(telemetry::health::Alert::line)
            .collect(),
        first_alert_epoch: monitor.first_alert_epoch(),
    }
}

#[test]
fn every_epoch_is_sampled_exactly_once() {
    let config = FleetConfig::small(3, 0x5A3D);
    let obs = run_observed(&config, 1);
    assert!(obs.epochs > 0);
    let ticks: Vec<u64> = obs.fault_series.iter().map(|(t, _)| *t).collect();
    let expected: Vec<u64> = (1..=obs.epochs).collect();
    assert_eq!(ticks, expected, "one sample point per epoch, tick = epoch");
}

#[test]
fn armed_monitor_alerts_within_two_epochs_of_first_fault() {
    let obs = run_observed(&chaos_config(), 1);
    let first_fault = obs
        .fault_series
        .iter()
        .find(|(_, v)| *v > 0)
        .map(|(t, _)| *t)
        .expect("a 0.2-rate all-site plan must inject within the run");
    let first_alert = obs
        .first_alert_epoch
        .expect("fault-activity rule must fire once faults inject");
    assert!(
        first_alert <= first_fault + 2,
        "alert lag too high: first fault at epoch {first_fault}, \
         first alert at epoch {first_alert}"
    );
    assert!(!obs.alert_lines.is_empty());
}

#[test]
fn series_and_alerts_are_jobs_invariant() {
    let config = chaos_config();
    let base = run_observed(&config, 1);
    for jobs in [2, 4] {
        let other = run_observed(&config, jobs);
        assert_eq!(
            base.series_emit, other.series_emit,
            "timeseries diverged at jobs={jobs}"
        );
        assert_eq!(
            base.alert_lines, other.alert_lines,
            "alert log diverged at jobs={jobs}"
        );
        assert_eq!(base.first_alert_epoch, other.first_alert_epoch);
    }
}
