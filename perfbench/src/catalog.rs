//! The metric catalogue: every metric the benchmark reports, with its
//! unit, direction, layer, and the end-to-end metric and workload it
//! should move. `BENCHMARK.json` at the repository root lists the same
//! names, units and directions (a test holds the two together) and adds
//! the regression bounds.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One catalogued metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]`, starting with a letter or digit.
    pub name: &'static str,
    /// Unit, e.g. `ms`, `count`, `1/s`.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// The layer measured, named after the crate or type whose public
    /// functions the benchmark times or reads.
    pub layer: &'static str,
    /// The workload the value comes from.
    pub workload: &'static str,
    /// The end-to-end metric (on `workload`) this one should move, or
    /// `pin` for a simulated count that no host-side optimisation may
    /// change.
    pub moves: &'static str,
}

/// At most this many end-to-end metrics.
pub const MAX_END_TO_END: usize = 16;
/// At most this many per-layer metrics.
pub const MAX_PER_LAYER: usize = 128;

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    workload: &'static str,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        layer,
        workload,
        moves,
    }
}

use Better::{Higher, Lower};

/// Reported by every workload in an untraced run (`--trace 0`).
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", Lower, "end-to-end", "all", "-"),
    m("episode_p50_ms", "ms", Lower, "end-to-end", "all", "-"),
    m("peak_rss_mb", "MB", Lower, "end-to-end", "all", "-"),
];

/// Reported by a traced run (`--trace 1`), which runs every workload.
pub const PER_LAYER: &[Metric] = &[
    // harvest-span
    m(
        "harvest-span.sim_mips",
        "MIPS",
        Higher,
        "workload",
        "harvest-span",
        "episode_p50_ms",
    ),
    m(
        "harvest-span.sim_speed",
        "s/s",
        Higher,
        "workload",
        "harvest-span",
        "episode_p50_ms",
    ),
    m(
        "mcu.instructions",
        "count",
        Higher,
        "edb_mcu",
        "harvest-span",
        "pin",
    ),
    m(
        "mcu.decode_hit_rate",
        "share",
        Higher,
        "edb_mcu",
        "harvest-span",
        "episode_p50_ms",
    ),
    m(
        "mcu.decode_misses",
        "count",
        Lower,
        "edb_mcu",
        "harvest-span",
        "episode_p50_ms",
    ),
    m(
        "system.run_for.ns_per_instr",
        "ns",
        Lower,
        "edb_core::System",
        "harvest-span",
        "episode_p50_ms",
    ),
    m(
        "device.power_cycles",
        "count",
        Lower,
        "edb_device",
        "harvest-span",
        "pin",
    ),
    m(
        "edb.guard_episodes",
        "count",
        Higher,
        "edb_core::Edb",
        "harvest-span",
        "pin",
    ),
    // stepped
    m(
        "stepped.sim_mips",
        "MIPS",
        Higher,
        "workload",
        "stepped",
        "episode_p50_ms",
    ),
    m(
        "stepped.sim_speed",
        "s/s",
        Higher,
        "workload",
        "stepped",
        "episode_p50_ms",
    ),
    m(
        "system.run_until.ns_per_instr",
        "ns",
        Lower,
        "edb_core::System",
        "stepped",
        "episode_p50_ms",
    ),
    m(
        "system.run_until.overhead_ratio",
        "x",
        Lower,
        "edb_core::System",
        "stepped",
        "episode_p50_ms",
    ),
    m(
        "system.rfid.ns_per_sim_ms",
        "ns",
        Lower,
        "edb_core::System",
        "stepped",
        "episode_p50_ms",
    ),
    m(
        "system.ckpt.ns_per_sim_ms",
        "ns",
        Lower,
        "edb_core::System",
        "stepped",
        "episode_p50_ms",
    ),
    m(
        "ckpt.commits",
        "count",
        Lower,
        "edb_runtime::ckpt",
        "stepped",
        "pin",
    ),
    m(
        "ckpt.bytes_written",
        "bytes",
        Lower,
        "edb_runtime::ckpt",
        "stepped",
        "pin",
    ),
    m(
        "ckpt.restores",
        "count",
        Lower,
        "edb_runtime::ckpt",
        "stepped",
        "pin",
    ),
    m(
        "rfid.commands",
        "count",
        Higher,
        "edb_rfid::Reader",
        "stepped",
        "pin",
    ),
    m(
        "rfid.replies_ok",
        "count",
        Higher,
        "edb_rfid::Reader",
        "stepped",
        "pin",
    ),
    m(
        "rfid.replies_corrupt",
        "count",
        Lower,
        "edb_rfid::Reader",
        "stepped",
        "pin",
    ),
    // timetravel-serve
    m(
        "timetravel-serve.rpc_p50_us",
        "us",
        Lower,
        "workload",
        "timetravel-serve",
        "episode_p50_ms",
    ),
    m(
        "timetravel-serve.timetravel_p50_ms",
        "ms",
        Lower,
        "workload",
        "timetravel-serve",
        "episode_p50_ms",
    ),
    m(
        "timetravel-serve.recording_bytes",
        "bytes",
        Lower,
        "workload",
        "timetravel-serve",
        "peak_rss_mb",
    ),
    m(
        "timetravel-serve.verify_s",
        "s",
        Lower,
        "workload",
        "timetravel-serve",
        "-",
    ),
    m(
        "codec.snapshot_bytes",
        "bytes",
        Lower,
        "edb_core::System",
        "timetravel-serve",
        "peak_rss_mb",
    ),
    m(
        "codec.encode_us",
        "us",
        Lower,
        "edb_core::System",
        "timetravel-serve",
        "episode_p50_ms",
    ),
    m(
        "codec.decode_us",
        "us",
        Lower,
        "edb_core::System",
        "timetravel-serve",
        "episode_p50_ms",
    ),
    m(
        "replay.goto_time_ms",
        "ms",
        Lower,
        "edb_core::replay",
        "timetravel-serve",
        "episode_p50_ms",
    ),
    m(
        "replay.step_back_ms",
        "ms",
        Lower,
        "edb_core::replay",
        "timetravel-serve",
        "episode_p50_ms",
    ),
    m(
        "replay.export_ms",
        "ms",
        Lower,
        "edb_replay",
        "timetravel-serve",
        "episode_p50_ms",
    ),
    m(
        "replay.load_ms",
        "ms",
        Lower,
        "edb_replay",
        "timetravel-serve",
        "-",
    ),
    m(
        "replay.snapshots",
        "count",
        Lower,
        "edb_replay",
        "timetravel-serve",
        "pin",
    ),
    m(
        "replay.ops",
        "count",
        Lower,
        "edb_replay",
        "timetravel-serve",
        "pin",
    ),
    m(
        "serve.create.p50_us",
        "us",
        Lower,
        "edb_serve::Client",
        "timetravel-serve",
        "episode_p50_ms",
    ),
    m(
        "serve.run_until.p50_us",
        "us",
        Lower,
        "edb_serve::Client",
        "timetravel-serve",
        "episode_p50_ms",
    ),
    m(
        "serve.step.p50_us",
        "us",
        Lower,
        "edb_serve::Client",
        "timetravel-serve",
        "episode_p50_ms",
    ),
    m(
        "serve.step_back.p50_us",
        "us",
        Lower,
        "edb_serve::Client",
        "timetravel-serve",
        "episode_p50_ms",
    ),
    m(
        "serve.goto_time.p50_us",
        "us",
        Lower,
        "edb_serve::Client",
        "timetravel-serve",
        "episode_p50_ms",
    ),
    m(
        "serve.record_export.p50_us",
        "us",
        Lower,
        "edb_serve::Client",
        "timetravel-serve",
        "episode_p50_ms",
    ),
    m(
        "serve.read.p50_us",
        "us",
        Lower,
        "edb_serve::Client",
        "timetravel-serve",
        "episode_p50_ms",
    ),
    m(
        "serve.status.p50_us",
        "us",
        Lower,
        "edb_serve::Client",
        "timetravel-serve",
        "episode_p50_ms",
    ),
    m(
        "serve.dispatch.p50_us",
        "us",
        Lower,
        "edb_serve::SessionHub",
        "timetravel-serve",
        "episode_p50_ms",
    ),
    m(
        "serve.transport.p50_us",
        "us",
        Lower,
        "edb_serve::Server",
        "timetravel-serve",
        "episode_p50_ms",
    ),
    // fleet-10k
    m(
        "fleet-10k.tag_cycles_per_s",
        "tag_cycles/s",
        Higher,
        "workload",
        "fleet-10k",
        "episode_p50_ms",
    ),
    m(
        "fleet.cell_ms",
        "ms",
        Lower,
        "edb_core::fleet",
        "fleet-10k",
        "episode_p50_ms",
    ),
    m(
        "fleet.slots",
        "count",
        Higher,
        "edb_rfid::gen2",
        "fleet-10k",
        "pin",
    ),
    m(
        "fleet.epcs",
        "count",
        Higher,
        "edb_rfid::gen2",
        "fleet-10k",
        "pin",
    ),
    m(
        "fleet.collided_share",
        "share",
        Lower,
        "edb_rfid::gen2",
        "fleet-10k",
        "pin",
    ),
    m(
        "fleet.power_cycles",
        "count",
        Lower,
        "edb_device::fleet",
        "fleet-10k",
        "pin",
    ),
    // the tracer itself
    m(
        "trace.overhead_share",
        "share",
        Lower,
        "perfbench",
        "named",
        "-",
    ),
];

/// Whether `name` is a valid metric or workload name: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Checks the catalogue's size caps, name and unit validity, and that
/// every name is used once.
pub fn check(end_to_end: &[Metric], per_layer: &[Metric]) -> Result<(), String> {
    if end_to_end.is_empty() || end_to_end.len() > MAX_END_TO_END {
        return Err(format!(
            "{} end-to-end metrics (1..={MAX_END_TO_END} allowed)",
            end_to_end.len()
        ));
    }
    if per_layer.is_empty() || per_layer.len() > MAX_PER_LAYER {
        return Err(format!(
            "{} per-layer metrics (1..={MAX_PER_LAYER} allowed)",
            per_layer.len()
        ));
    }
    let mut seen = std::collections::BTreeSet::new();
    for metric in end_to_end.iter().chain(per_layer) {
        if !valid_name(metric.name) {
            return Err(format!("invalid metric name `{}`", metric.name));
        }
        if !valid_unit(metric.unit) {
            return Err(format!(
                "invalid unit `{}` on `{}`",
                metric.unit, metric.name
            ));
        }
        if !seen.insert(metric.name) {
            return Err(format!("metric `{}` listed twice", metric.name));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    #[test]
    fn the_catalogue_is_valid() {
        check(END_TO_END, PER_LAYER).expect("catalogue");
        assert!(END_TO_END
            .iter()
            .any(|x| x.name == "setup_s" && x.unit == "s" && x.better == Better::Lower));
    }

    #[test]
    fn names_and_units_follow_the_character_rules() {
        for ok in ["setup_s", "a", "9lives", "serve.read.p50_us", "fleet-10k.x"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "-lead",
            "has space",
            "slash/no",
            "é",
            &long,
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        for ok in ["ms", "1/s", "%", "tag_cycles/s", "s/s", "MB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "µs", "a b", "seventeen-chars-x"] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    fn caps_and_duplicates_are_enforced() {
        let one = m("a", "s", Lower, "l", "w", "-");
        let e2e_17 = vec![one; MAX_END_TO_END + 1];
        assert!(check(&e2e_17, &[one]).is_err());
        let layers_129: Vec<Metric> = (0..=MAX_PER_LAYER).map(|_| one).collect();
        assert!(check(&[one], &layers_129).is_err());
        assert!(check(&[], &[one]).is_err());
        assert!(check(&[one], &[]).is_err());
        // Exactly at the caps passes when names are distinct.
        let names: Vec<&'static str> = (0..MAX_END_TO_END + MAX_PER_LAYER)
            .map(|i| &*Box::leak(format!("m{i}").into_boxed_str()))
            .collect();
        let e2e: Vec<Metric> = names[..MAX_END_TO_END]
            .iter()
            .map(|&n| m(n, "s", Lower, "l", "w", "-"))
            .collect();
        let layers: Vec<Metric> = names[MAX_END_TO_END..]
            .iter()
            .map(|&n| m(n, "s", Lower, "l", "w", "-"))
            .collect();
        check(&e2e, &layers).expect("at the caps");
        // A name used twice fails.
        assert!(check(&[one], &[one]).is_err());
        let bad = m("bad name", "s", Lower, "l", "w", "-");
        assert!(check(&[bad], &[one]).is_err());
    }

    /// `BENCHMARK.json` lists exactly the catalogue, in order, with the
    /// same units and directions, and bounds within the allowed range.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<Value> {
            doc.get_field(key)
                .and_then(Value::as_seq)
                .unwrap_or_else(|| panic!("`{key}` is a list"))
                .to_vec()
        };
        let field = |v: &Value, k: &str| -> String {
            v.get_field(k)
                .and_then(Value::as_str)
                .unwrap_or_else(|| panic!("`{k}` is a string"))
                .to_string()
        };
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = list(key);
            assert_eq!(listed.len(), catalogue.len(), "{key} length");
            for (entry, metric) in listed.iter().zip(catalogue) {
                assert_eq!(field(entry, "name"), metric.name, "{key}");
                assert_eq!(field(entry, "unit"), metric.unit, "{}", metric.name);
                assert_eq!(
                    field(entry, "better"),
                    metric.better.as_str(),
                    "{}",
                    metric.name
                );
                if key == "end_to_end" {
                    let bound = match entry.get_field("bound") {
                        Some(Value::F64(b)) => *b,
                        other => panic!("{} bound {other:?}", metric.name),
                    };
                    assert!(
                        bound > 0.0 && bound <= 0.25,
                        "{} bound {bound}",
                        metric.name
                    );
                }
            }
        }
        let workloads = list("workloads");
        let names: Vec<String> = workloads.iter().map(|w| field(w, "name")).collect();
        assert_eq!(names, crate::WORKLOADS);
    }
}
