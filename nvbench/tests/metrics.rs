//! The metrics a run prints, checked against `BENCHMARK.json`, and
//! the traced run's per-layer report. Kept in its own test binary: the
//! `nvfs_obs` counter registry is process-wide, and a test running beside
//! these would leak its counts into the traced pass's snapshot.

use nvbench::layers::{per_layer, TracedRun};
use nvbench::spans::Tracer;
use nvbench::workload::{setup, CellOut, Workload};
use nvbench::{end_to_end, run_pass, set_seed, PassKind};

/// `(name, unit)` of every metric listed under `section` in the
/// repository's `BENCHMARK.json` (one key per line, as it is written).
fn listed(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside this package");
    let value = |line: &str, key: &str| {
        let rest = line.trim().strip_prefix(&format!("\"{key}\": \""))?;
        Some(rest.split('"').next()?.to_string())
    };
    let mut out = Vec::new();
    let mut in_section = false;
    let mut name = None;
    for line in text.lines() {
        if line.starts_with("  \"") {
            in_section = line.trim_start().starts_with(&format!("\"{section}\""));
        }
        if !in_section {
            continue;
        }
        if let Some(n) = value(line, "name") {
            name = Some(n);
        } else if let Some(u) = value(line, "unit") {
            out.push((name.take().expect("name precedes unit"), u));
        }
    }
    out
}

fn named(metrics: &[(&str, &str, f64)]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|(n, u, _)| (n.to_string(), u.to_string()))
        .collect()
}

fn digests(cells: &[CellOut]) -> Vec<u64> {
    cells.iter().map(|c| c.digest).collect()
}

#[test]
fn a_plain_run_reports_the_listed_end_to_end_metrics() {
    let s = setup(Workload::ClientServer, set_seed(7, 0), None).unwrap();
    let pass = run_pass(&s, 2, PassKind::Plain, None);
    let metrics = end_to_end(&[&pass], &[0.01], 12.0);
    assert_eq!(named(&metrics), listed("end_to_end"));
    assert!(metrics.iter().all(|m| m.2 > 0.0), "{metrics:?}");
}

#[test]
fn a_traced_run_reports_every_listed_per_layer_metric() {
    let tracer = Tracer::new();
    let s = setup(Workload::ClientServer, set_seed(7, 0), Some(&tracer)).unwrap();
    let passes: Vec<_> = [PassKind::Plain, PassKind::Traced, PassKind::Attribution]
        .into_iter()
        .map(|kind| run_pass(&s, 2, kind, Some(&tracer)))
        .collect();
    // Tracing must not change what the simulator computes.
    assert_eq!(digests(&passes[0].cells), digests(&passes[1].cells));
    assert_eq!(digests(&passes[0].cells), digests(&passes[2].cells));

    let spans = tracer.spans();
    let metrics = per_layer(&TracedRun {
        spans: &spans,
        passes: &passes,
        jobs: 2,
        attempted: 96,
        failed: 0,
    });
    assert_eq!(named(&metrics), listed("per_layer"));
    let value = |name: &str| metrics.iter().find(|m| m.0 == name).unwrap().2;
    assert!(metrics.iter().all(|m| m.2.is_finite()));
    for layer in [
        "core.run_ms",
        "server.convert_ms",
        "lfs.run_ms",
        "wal.run_ms",
    ] {
        assert!(value(layer) > 0.0, "{layer}");
    }
    assert!(value("lfs.segments_written") > 0.0);
    assert_eq!(value("core.run_samples"), 24.0);
    assert_eq!(
        value("net.requests"),
        0.0,
        "client-server runs no network layer"
    );
    assert_eq!(value("fail_frac"), 0.0);
}
