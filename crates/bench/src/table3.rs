//! **Table 3** — "Accuracy with which EDB saves and restores energy
//! level."
//!
//! The paper's procedure, verbatim: "we set an energy-breakpoint at
//! 2.3 V, charged the target capacitor to 2.4 V, waited for the target
//! execution to be interrupted by the breakpoint, and then resumed the
//! target", 50 trials, measuring `ΔV = V_restored − V_saved` with both
//! an oscilloscope (here: simulation ground truth) and EDB's internal
//! ADC, and reporting `ΔE` and `ΔE` as a percentage of the 47 µF store.

use crate::harness;
use crate::runner::{ExperimentSpec, Runner};
use crate::Report;
use edb_core::{libedb, DebugEvent, Edb, EdbConfig, EdbError, System};
use edb_device::DeviceConfig;
use edb_energy::{SimTime, Summary};
use edb_mcu::asm::assemble;

/// The suite entry for this experiment (control-period sweep included).
pub const SPEC: ExperimentSpec = ExperimentSpec {
    name: "table3",
    title: "Table 3: save/restore accuracy (energy breakpoint at 2.3 V)",
    run: run_with_sweep,
};

/// The bin's default entry: the 50-trial table without the sweep.
pub const PLAIN_SPEC: ExperimentSpec = ExperimentSpec {
    name: "table3",
    title: "Table 3: save/restore accuracy (energy breakpoint at 2.3 V)",
    run: run_plain,
};

fn run_with_sweep(runner: &Runner) -> Report {
    run(runner, true)
}

fn run_plain(runner: &Runner) -> Report {
    run(runner, false)
}

/// A spin loop with interrupts enabled, so EDB's energy breakpoint can
/// pull the IRQ line and land the target in the `libEDB` service loop.
fn spin_app() -> edb_mcu::Image {
    assemble(&libedb::wrap_program(
        r#"
        .org 0x4400
        main:
            movi sp, 0x2400
            ei
        loop:
            add  r0, 1
            jmp  loop
        .org 0xFFFC
        .word __edb_isr
        .org 0xFFFE
        .word main
        "#,
    ))
    .expect("spin app assembles")
}

/// One save/restore trial's measurements.
#[derive(Debug, Clone, Copy)]
struct Trial {
    saved_truth: f64,
    restored_truth: f64,
    saved_adc: f64,
    restored_adc: f64,
}

/// One independent save/restore trial: fresh bench, fresh harvested
/// trace from the trial's derived seed.
fn one_trial(config: EdbConfig, image: &edb_mcu::Image, seed: u64) -> Trial {
    let mut sys = System::builder(DeviceConfig::wisp5())
        .harvester(harness::harvested(seed))
        .build();
    sys.attach_edb(Edb::new(config));
    sys.flash(image);
    sys.edb_mut().arm_energy_breakpoint(2.3);

    sys.charge_to(2.4).expect("charges");
    let opened = sys.wait_for_session(SimTime::from_secs(2));
    assert!(opened, "energy breakpoint must fire (seed {seed})");
    let saved_truth = sys.device().v_cap();
    // Linger in the session briefly (the paper's operator latency).
    sys.run_for(SimTime::from_ms(5));
    match sys.resume() {
        Ok(()) | Err(EdbError::NoSession { .. }) => {}
        Err(e) => panic!("resume (seed {seed}): {e}"),
    }
    let restored_truth = sys.device().v_cap();

    // EDB's own view from its event log.
    let log = sys.edb().expect("attached").log();
    let saved_adc = log
        .events()
        .iter()
        .rev()
        .find_map(|e| match e.event {
            DebugEvent::EnergyBreakpoint { v_cap, .. } => Some(v_cap),
            _ => None,
        })
        .expect("breakpoint event logged");
    let restored_adc = log
        .events()
        .iter()
        .rev()
        .find_map(|e| match e.event {
            DebugEvent::SessionClosed { restored_v } => Some(restored_v),
            _ => None,
        })
        .expect("session close logged");
    Trial {
        saved_truth,
        restored_truth,
        saved_adc,
        restored_adc,
    }
}

fn summarize(label: &str, saved_restored: &[(f64, f64)], report: &mut Report) -> (f64, f64) {
    let dv_mv: Vec<f64> = saved_restored.iter().map(|(s, r)| (r - s) * 1e3).collect();
    let de_uj: Vec<f64> = saved_restored
        .iter()
        .map(|(s, r)| edb_energy::budget::delta_energy(edb_energy::WISP5_CAPACITANCE, *r, *s) * 1e6)
        .collect();
    let de_pct: Vec<f64> = saved_restored
        .iter()
        .map(|(s, r)| harness::delta_e_percent(*r, *s))
        .collect();
    let sv = Summary::of(&dv_mv);
    let se = Summary::of(&de_uj);
    let sp = Summary::of(&de_pct);
    report.line(format!(
        "{label:<8} ΔV = {:6.1} ± {:4.1} mV   ΔE = {:5.2} ± {:4.2} µJ   ΔE% = {:5.2} ± {:4.2} %",
        sv.mean, sv.std_dev, se.mean, se.std_dev, sp.mean, sp.std_dev
    ));
    (sv.mean, sp.mean)
}

/// Runs the Table 3 experiment (50 independent trials through the
/// runner), plus the control-period ablation from DESIGN.md when
/// `sweep` is set.
pub fn run(runner: &Runner, sweep: bool) -> Report {
    let mut report = Report::new(SPEC.title);
    let image = spin_app();
    let trials = runner.map_trials("table3", 50, |ctx| {
        one_trial(EdbConfig::prototype(), &image, ctx.seed)
    });

    report.line(
        "paper:   ΔV =   54 ±   16 mV   ΔE =  1.25 ± 0.37 µJ   ΔE% =  4.34 ± 1.30 %  (o-scope)"
            .to_string(),
    );
    report.line(
        "paper:   ΔV =   55 ±  7.8 mV   ΔE =  1.25 ± 0.18 µJ   ΔE% =  4.34 ± 0.62 %  (ADC)"
            .to_string(),
    );

    let truth: Vec<(f64, f64)> = trials
        .iter()
        .map(|t| (t.saved_truth, t.restored_truth))
        .collect();
    let adc: Vec<(f64, f64)> = trials
        .iter()
        .map(|t| (t.saved_adc, t.restored_adc))
        .collect();
    let (dv_truth, de_truth) = summarize("o-scope", &truth, &mut report);
    let (dv_adc, de_adc) = summarize("ADC", &adc, &mut report);
    report.metric("dv_truth_mv", dv_truth);
    report.metric("dv_adc_mv", dv_adc);
    report.metric("de_truth_pct", de_truth);
    report.metric("de_adc_pct", de_adc);

    if sweep {
        report.line(String::new());
        report.line("ablation: restore accuracy vs control period".to_string());
        for period_us in [20u64, 50, 150, 400] {
            let config = EdbConfig {
                control_period: SimTime::from_us(period_us),
                ..EdbConfig::prototype()
            };
            let trials = runner.map_trials(&format!("table3/sweep-{period_us}us"), 12, |ctx| {
                one_trial(config, &image, ctx.seed)
            });
            let dv: Vec<f64> = trials
                .iter()
                .map(|t| (t.restored_truth - t.saved_truth) * 1e3)
                .collect();
            let s = Summary::of(&dv);
            report.line(format!(
                "  control period {period_us:>4} µs: ΔV = {:6.1} ± {:4.1} mV",
                s.mean, s.std_dev
            ));
            report.metric(format!("sweep_dv_{period_us}us_mv"), s.mean);
        }
        report.line(
            "  (ADC quantization floor: 12-bit / ~0.8 mV => ΔE ≈ 0.08 % lower bound, as §5.2.2)"
                .to_string(),
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn save_restore_discrepancy_matches_paper_shape() {
        let r = run(&Runner::quiet(2, 42), false);
        // Positive mean (conservative restore), tens of millivolts.
        let dv = r.get("dv_truth_mv");
        assert!((10.0..120.0).contains(&dv), "ΔV {dv} mV out of band");
        // ADC and ground truth agree on the mean to a few mV.
        assert!((r.get("dv_adc_mv") - dv).abs() < 10.0);
        // ΔE% in low single digits, like the paper's 4.34 %.
        let de = r.get("de_truth_pct");
        assert!((0.5..10.0).contains(&de), "ΔE% {de} out of band");
    }
}
