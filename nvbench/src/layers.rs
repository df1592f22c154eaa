//! Per-layer metrics of a traced run, derived from its spans and from the
//! `nvfs_obs` counters each pass recorded.
//!
//! `*_ms` values are the summed duration of the benchmark's timed calls into
//! a layer over one pass (median over the run's input sets); counts are
//! those of input set 0, which repeat exactly for a given seed. Where a layer's work sits
//! inside a composed call, an attribution pass runs the same cell without
//! that layer and the metric is the difference — an estimate, since the
//! two runs are timed separately. A layer a workload never calls reads 0.

use std::collections::BTreeMap;

use crate::spans::Span;
use crate::workload::CellOut;
use crate::{median, quantile, PassKind, PassOut};

/// One fan-out of a traced pass: its root span and, per cell, the cell
/// span with its layer-call children.
struct FanOut<'s> {
    root: &'s Span,
    cells: Vec<(&'s Span, Vec<&'s Span>)>,
}

impl FanOut<'_> {
    fn sum(&self, name: &str) -> f64 {
        self.cells
            .iter()
            .flat_map(|(_, calls)| calls.iter())
            .filter(|s| s.name == name)
            .map(|s| s.ms())
            .sum()
    }

    /// Σ over cells of kind `kind` of (time in `with` − time in each of
    /// `without`).
    fn excess(&self, kind: &str, with: &str, without: &[&str]) -> f64 {
        let in_cell = |calls: &[&Span], name: &str| -> f64 {
            calls
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.ms())
                .sum()
        };
        self.cells
            .iter()
            .filter(|(cell, _)| cell.name == kind)
            .map(|(_, calls)| {
                in_cell(calls, with) - without.iter().map(|n| in_cell(calls, n)).sum::<f64>()
            })
            .sum()
    }

    /// Σ cell time ÷ (jobs × fan-out wall).
    fn utilization(&self, jobs: usize) -> f64 {
        let busy: f64 = self.cells.iter().map(|(c, _)| c.ms()).sum();
        busy / (jobs as f64 * self.root.ms())
    }

    /// Time from the first worker running out of cells to the end of the
    /// fan-out.
    fn tail_idle_ms(&self) -> f64 {
        let mut last_end: BTreeMap<u32, u64> = BTreeMap::new();
        for (c, _) in &self.cells {
            let end = last_end.entry(c.worker).or_insert(0);
            *end = (*end).max(c.end_ns);
        }
        let first_idle = last_end.values().copied().min().unwrap_or(self.root.end_ns);
        (self.root.end_ns - first_idle) as f64 / 1e6
    }
}

fn fan_outs(spans: &[Span]) -> Vec<FanOut<'_>> {
    let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    let kids = |id: u64| children.get(&id).cloned().unwrap_or_default();
    spans
        .iter()
        .filter(|s| s.name == "par.fanout")
        .map(|root| FanOut {
            root,
            cells: kids(root.id).into_iter().map(|c| (c, kids(c.id))).collect(),
        })
        .collect()
}

/// Inputs to the per-layer report.
pub struct TracedRun<'a> {
    /// Every span of the run, set-ups included.
    pub spans: &'a [Span],
    /// Every measured pass, in run order.
    pub passes: &'a [PassOut],
    /// Fan-out width.
    pub jobs: usize,
    /// Cells attempted and failed over the whole run.
    pub attempted: u64,
    /// Cells that failed the correctness gate.
    pub failed: u64,
}

/// Computes every per-layer metric: `(name, unit, value)` in report order.
///
/// # Panics
///
/// Panics unless the run holds at least one plain, one traced and one
/// attribution pass.
pub fn per_layer(run: &TracedRun<'_>) -> Vec<(&'static str, &'static str, f64)> {
    let fans = fan_outs(run.spans);
    let traced_kinds = run.passes.iter().filter(|p| p.kind != PassKind::Plain);
    let (mut traced, mut attributed) = (Vec::new(), Vec::new());
    for (fan, pass) in fans.iter().zip(traced_kinds) {
        match pass.kind {
            PassKind::Traced => traced.push((fan, pass)),
            _ => attributed.push(fan),
        }
    }
    assert!(
        !traced.is_empty() && !attributed.is_empty(),
        "run holds traced and attribution passes"
    );
    // Tracing overhead per input set: its traced pass against its plain one.
    let overheads: Vec<f64> = traced
        .iter()
        .filter_map(|(_, t)| {
            let plain = run
                .passes
                .iter()
                .find(|p| p.kind == PassKind::Plain && p.seed == t.seed)?;
            Some(100.0 * (t.wall_s / plain.wall_s - 1.0))
        })
        .collect();

    let setup = |name: &str| -> f64 {
        let ms: Vec<f64> = run
            .spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == name)
            .map(Span::ms)
            .collect();
        if ms.is_empty() {
            0.0
        } else {
            median(&ms)
        }
    };
    let per_traced = |f: &dyn Fn(&FanOut<'_>) -> f64| -> f64 {
        median(&traced.iter().map(|(fan, _)| f(fan)).collect::<Vec<_>>())
    };
    let per_attr = |f: &dyn Fn(&FanOut<'_>) -> f64| -> f64 {
        median(&attributed.iter().map(|fan| f(fan)).collect::<Vec<_>>())
    };
    let runs: Vec<f64> = traced
        .iter()
        .flat_map(|(fan, _)| fan.cells.iter().flat_map(|(_, calls)| calls.iter()))
        .filter(|s| s.name == "core.run")
        .map(|s| s.ms())
        .collect();
    let run_q = |q: f64| {
        if runs.is_empty() {
            0.0
        } else {
            quantile(&runs, q)
        }
    };

    // Counters repeat exactly for the same inputs; read input set 0's.
    let (_, pass) = traced[0];
    let counter = |name: &str| pass.snapshot.counters.get(name).copied().unwrap_or(0) as f64;
    let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
    let cells_sum = |f: fn(&CellOut) -> u64| pass.cells.iter().map(f).sum::<u64>() as f64;

    vec![
        ("trace.generate_ms", "ms", setup("trace.generate")),
        (
            "trace.server_workloads_ms",
            "ms",
            setup("trace.server_workloads"),
        ),
        ("core.run_ms", "ms", per_traced(&|f| f.sum("core.run"))),
        ("core.run_ms_p50", "ms", run_q(0.5)),
        ("core.run_ms_p90", "ms", run_q(0.9)),
        ("core.run_samples", "count", runs.len() as f64),
        (
            "core.omniscient_build_ms",
            "ms",
            per_attr(&|f| f.sum("core.omniscient_build")),
        ),
        (
            "core.policy_excess_ms",
            "ms",
            per_attr(&|f| {
                f.excess(
                    "cell:omniscient",
                    "core.run",
                    &["attr.lru_run", "core.omniscient_build"],
                )
            }),
        ),
        ("core.ops_replayed", "count", counter("core.ops_replayed")),
        (
            "core.replacement_bytes",
            "bytes",
            counter("core.replacement_bytes"),
        ),
        (
            "core.writeback_bytes",
            "bytes",
            counter("core.writeback_bytes"),
        ),
        (
            "core.server_write_bytes",
            "bytes",
            counter("core.server_write_bytes"),
        ),
        (
            "core.read_hit_ratio",
            "ratio",
            ratio(
                counter("core.read_hit_blocks"),
                counter("core.read_hit_blocks") + counter("core.read_miss_blocks"),
            ),
        ),
        (
            "server.convert_ms",
            "ms",
            per_traced(&|f| f.sum("server.convert")),
        ),
        ("lfs.run_ms", "ms", per_traced(&|f| f.sum("lfs.run"))),
        ("wal.run_ms", "ms", per_traced(&|f| f.sum("wal.run"))),
        ("disk.time_ms", "ms", per_traced(&|f| f.sum("disk.time"))),
        (
            "lfs.segments_written",
            "count",
            counter("lfs.segments_written"),
        ),
        (
            "lfs.segments_partial",
            "count",
            counter("lfs.segments_partial"),
        ),
        (
            "lfs.partial_ratio",
            "ratio",
            ratio(
                counter("lfs.segments_partial"),
                counter("lfs.segments_written"),
            ),
        ),
        ("wal.appended", "count", counter("wal.appended")),
        (
            "wal.truncated_records",
            "count",
            counter("wal.truncated_records"),
        ),
        ("disk.requests", "count", cells_sum(|c| c.disk_requests)),
        ("faults.compile_ms", "ms", setup("faults.compile")),
        (
            "net.overhead_ms",
            "ms",
            per_attr(&|f| f.excess("cell:net", "attr.net_run", &["attr.plain_run"])),
        ),
        ("net.requests", "count", counter("net.requests")),
        ("net.retries", "count", counter("net.retries")),
        ("net.timeouts", "count", counter("net.timeouts")),
        ("net.gave_up", "count", counter("net.gave_up")),
        (
            "net.useful_ratio",
            "ratio",
            ratio(
                counter("net.requests"),
                counter("net.requests") + counter("net.retries"),
            ),
        ),
        (
            "oracle.crash_judge_ms",
            "ms",
            per_attr(&|f| f.excess("cell:crash", "core.run", &["attr.unverified_run"])),
        ),
        (
            "oracle.wal_judge_ms",
            "ms",
            per_traced(&|f| f.sum("oracle.wal_judge")),
        ),
        (
            "oracle.crashes_judged",
            "count",
            counter("oracle.crashes_judged"),
        ),
        ("oracle.violations", "count", cells_sum(|c| c.violations)),
        (
            "scrub.run_ms",
            "ms",
            per_attr(&|f| f.excess("cell:corruption", "core.run", &["attr.faults_verified_run"])),
        ),
        (
            "scrub.blocks_scanned",
            "count",
            counter("scrub.blocks_scanned"),
        ),
        ("scrub.bytes_silent", "bytes", counter("scrub.bytes_silent")),
        (
            "fail_frac",
            "ratio",
            ratio(run.failed as f64, run.attempted as f64),
        ),
        (
            "par.utilization",
            "ratio",
            per_traced(&|f| f.utilization(run.jobs)),
        ),
        ("par.tail_idle_ms", "ms", per_traced(&|f| f.tail_idle_ms())),
        ("obs.trace_overhead_pct", "%", median(&overheads)),
    ]
}

/// The per-layer table: one `name value unit` row per metric.
pub fn render_table(metrics: &[(&str, &str, f64)]) -> String {
    let mut out = String::new();
    for (name, unit, v) in metrics {
        out.push_str(&format!("{name:<28} {v:>16.4} {unit}\n"));
    }
    out
}
