//! The nvfs benchmark: end-to-end and per-layer timing of the simulator.
//!
//! A run replays one workload's fixed grid of simulation cells over
//! `nvfs_par::par_map` at a fixed job count, once per input set, for a set
//! number of seconds. Input set `k` of a run is generated from
//! [`set_seed`]`(seed, k)`, so a run averages over many independent inputs
//! and the same seed always yields the same sequence of sets. Every cell's
//! outputs are digested and checked: against the judges, against the
//! jobs-1 pass of set 0, and — for the reference seed — against the set
//! digests stored in `reference/`. See `README.md` for the workloads and
//! metrics.

#![warn(missing_docs)]

pub mod digest;
pub mod host;
pub mod layers;
pub mod spans;
pub mod workload;

use std::time::Instant;

use nvfs_obs::Snapshot;

use crate::spans::Tracer;
use crate::workload::{run_cell, CellOut, Probe, Setup, Workload};

/// Widest fan-out the benchmark uses; capped by the host's parallelism.
pub const MAX_JOBS: usize = 2;

/// The seed whose set digests are stored in `reference/`.
pub const REFERENCE_SEED: u64 = 1;

/// The generator seed of input set `k` of a run with seed `seed`.
pub fn set_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(k)
}

/// How one pass over the grid is run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassKind {
    /// No spans: the pass end-to-end metrics come from.
    Plain,
    /// Spans around every layer call.
    Traced,
    /// Spans plus the comparison runs that split composed calls by layer.
    Attribution,
}

/// One pass's timings and per-cell outputs.
#[derive(Debug, Clone)]
pub struct PassOut {
    /// Generator seed of the input set the pass ran.
    pub seed: u64,
    /// How the pass ran.
    pub kind: PassKind,
    /// Host seconds for the whole fan-out.
    pub wall_s: f64,
    /// Host CPU seconds, user plus system, over the fan-out.
    pub cpu_s: f64,
    /// Per-cell outputs in grid order.
    pub cells: Vec<CellOut>,
    /// The `nvfs_obs` counters the pass recorded.
    pub snapshot: Snapshot,
}

/// Runs every cell of `setup` once on `jobs` workers. A worker takes its
/// next cell only when its previous one has finished (a closed loop).
/// `tracer` must be present for traced and attribution passes.
pub fn run_pass(setup: &Setup, jobs: usize, kind: PassKind, tracer: Option<&Tracer>) -> PassOut {
    nvfs_par::set_jobs(jobs);
    nvfs_obs::reset();
    let items: Vec<(u32, &workload::Cell)> = (0u32..).zip(&setup.cells).collect();
    let env = &setup.env;
    let cpu0 = host::cpu_seconds();
    let t0 = Instant::now();
    let cells = match (kind, tracer) {
        (PassKind::Plain, _) => nvfs_par::par_map(items, jobs, |(_, cell)| {
            run_cell(env, cell, &Probe::plain())
        }),
        (_, Some(t)) => t.span("par.fanout", None, None, |fan| {
            nvfs_par::par_map(items, jobs, |(i, cell)| {
                t.span(cell.kind(), Some(fan), Some(i), |id| {
                    let probe = Probe::traced(t, id, i, kind == PassKind::Attribution);
                    run_cell(env, cell, &probe)
                })
            })
        }),
        (_, None) => panic!("a {kind:?} pass needs a tracer"),
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds() - cpu0;
    let snapshot = Snapshot::take();
    nvfs_obs::reset();
    PassOut {
        seed: setup.seed,
        kind,
        wall_s,
        cpu_s,
        cells,
        snapshot,
    }
}

/// The end-to-end metrics, `(name, unit, value)`, from a run's plain
/// passes (one per input set), its per-set set-up times and its memory
/// high-water mark.
///
/// # Panics
///
/// Panics when `plain` or `setup_s` is empty.
pub fn end_to_end(
    plain: &[&PassOut],
    setup_s: &[f64],
    peak_rss_mb: f64,
) -> Vec<(&'static str, &'static str, f64)> {
    assert!(!plain.is_empty(), "a run holds at least one plain pass");
    let sets = plain.len() as f64;
    let wall: f64 = plain.iter().map(|p| p.wall_s).sum();
    let cpu: f64 = plain.iter().map(|p| p.cpu_s).sum();
    let sim_ops: u64 = plain.iter().flat_map(|p| &p.cells).map(|c| c.sim_ops).sum();
    vec![
        ("wall_s", "s", wall / sets),
        ("cpu_s", "s", cpu / sets),
        ("sim_ops_per_s", "1/s", sim_ops as f64 / wall),
        ("peak_rss_mb", "MB", peak_rss_mb),
        ("setup_s", "s", median(setup_s)),
    ]
}

/// Counts the cells of a pass that fail the correctness gate: a judge
/// violation or broken identity, or a digest that differs from `baseline`
/// (the same cells' digests from an earlier pass of the same inputs). When
/// the set has a stored reference digest and the pass's [`set_digest`]
/// differs from it, every cell counts as failed.
pub fn count_failures(cells: &[CellOut], baseline: &[u64], reference: Option<u64>) -> u64 {
    if reference.is_some_and(|r| r != set_digest(cells)) {
        return cells.len() as u64;
    }
    cells
        .iter()
        .enumerate()
        .filter(|&(i, c)| c.violations > 0 || baseline.get(i) != Some(&c.digest))
        .count() as u64
}

/// Folds a pass's cell digests, in grid order, into one digest.
pub fn set_digest(cells: &[CellOut]) -> u64 {
    let mut fold = digest::Fold::new();
    fold.u64s(&cells.iter().map(|c| c.digest).collect::<Vec<_>>());
    fold.value()
}

/// Renders set digests in the format of the files under `reference/`: a
/// `seed N` line, then `k digest` per input set.
pub fn render_digests(seed: u64, digests: &[u64]) -> String {
    let mut out = format!("seed {seed}\n");
    for (k, d) in digests.iter().enumerate() {
        out.push_str(&format!("{k} {d:016x}\n"));
    }
    out
}

/// Parses a digest file written by [`render_digests`] into its seed and
/// set digests.
pub fn parse_digests(text: &str) -> Result<(u64, Vec<u64>), String> {
    let mut lines = text.lines();
    let seed = lines
        .next()
        .and_then(|l| l.strip_prefix("seed "))
        .ok_or("digest file must start with `seed N`")?;
    let seed = seed
        .parse()
        .map_err(|e| format!("bad seed {seed:?}: {e}"))?;
    let mut digests = Vec::new();
    for (n, line) in lines.enumerate() {
        let parsed = line.split_once(' ').and_then(|(k, hex)| {
            Some((k.parse::<usize>().ok()?, u64::from_str_radix(hex, 16).ok()?))
        });
        match parsed {
            Some((k, d)) if k == n => digests.push(d),
            _ => return Err(format!("digest file line {}: {line:?}", n + 2)),
        }
    }
    Ok((seed, digests))
}

/// The stored set digests of `workload`, if `seed` is the seed they were
/// recorded for.
pub fn reference(workload: Workload, seed: u64) -> Result<Option<Vec<u64>>, String> {
    let text = match workload {
        Workload::OmniscientSweep => include_str!("../reference/omniscient-sweep.txt"),
        Workload::ClientServer => include_str!("../reference/client-server.txt"),
        Workload::FaultSweep => include_str!("../reference/fault-sweep.txt"),
    };
    let (ref_seed, digests) = parse_digests(text)?;
    Ok((ref_seed == seed).then_some(digests))
}

/// Median of `values` (the mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q` quantile of `values` by linear interpolation between closest
/// ranks.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
    }

    #[test]
    fn digest_files_round_trip() {
        let text = render_digests(7, &[255, 256]);
        assert_eq!(text, "seed 7\n0 00000000000000ff\n1 0000000000000100\n");
        assert_eq!(parse_digests(&text).unwrap(), (7, vec![255, 256]));
        assert!(parse_digests("seed 7\n1 ff\n").is_err());
        assert!(parse_digests("0 ff\n").is_err());
    }

    #[test]
    fn stored_references_parse() {
        for w in Workload::ALL {
            assert!(
                reference(w, REFERENCE_SEED).unwrap().is_some(),
                "{}",
                w.name()
            );
        }
    }
}
