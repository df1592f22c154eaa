//! `nvbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for `--seconds` and prints, as its last line, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Digests, spans and the per-layer table are written under
//! `.bench_out/` in the working directory. Exits 1 when any cell fails
//! the correctness gate, 2 on bad arguments or a host error.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use nvbench::host;
use nvbench::layers::{self, TracedRun};
use nvbench::spans::{self, Tracer};
use nvbench::workload::{self, Setup, Workload};
use nvbench::{count_failures, render_digests, run_pass, set_digest, PassKind, PassOut};

/// Where a run writes its digests, spans and per-layer table.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v:?}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => seed = number(&value)?,
            "--seconds" => seconds = number(&value)?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

/// Runs the benchmark; `Ok(false)` when a cell failed the gate.
fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let w = args.workload;
    let jobs = nvbench::MAX_JOBS.min(host::available_parallelism());
    let provenance = host::provenance_json(jobs, args.seed, &w.scale_label());
    println!("provenance {provenance}");

    let tracer = args.trace.then(Tracer::new);
    let reference = nvbench::reference(w, args.seed)?.unwrap_or_default();
    let set_up = |k: u64| -> Result<(Setup, f64), String> {
        let t0 = Instant::now();
        let setup = workload::setup(w, nvbench::set_seed(args.seed, k), tracer.as_ref())?;
        Ok((setup, t0.elapsed().as_secs_f64()))
    };

    // A jobs-1 pass over input set 0 warms caches and is the baseline the
    // set's jobs-N passes must reproduce digest for digest.
    let (first, first_setup_s) = set_up(0)?;
    let warm = run_pass(&first, 1, PassKind::Plain, None);
    // Read here, where a single worker's allocations repeat exactly for a
    // given seed. Later, the high-water mark rises with each larger set a
    // run happens to reach and with how two workers' allocations interleave.
    let peak_rss_mb = host::peak_rss_mb()?;
    let mut attempted = warm.cells.len() as u64;
    let mut failed = count_failures(&warm.cells, &digests(&warm), reference.first().copied());

    let kinds: &[PassKind] = if args.trace {
        &[PassKind::Plain, PassKind::Traced, PassKind::Attribution]
    } else {
        &[PassKind::Plain]
    };
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut setup_s = vec![first_setup_s];
    let mut set_digests = Vec::new();
    let mut passes: Vec<PassOut> = Vec::new();
    let mut next = Some(first);
    for k in 0u64.. {
        let setup = match next.take() {
            Some(setup) => setup,
            None => {
                let (setup, secs) = set_up(k)?;
                setup_s.push(secs);
                setup
            }
        };
        let mut baseline = (k == 0).then(|| digests(&warm));
        for &kind in kinds {
            let pass = run_pass(&setup, jobs, kind, tracer.as_ref());
            let base = baseline.get_or_insert_with(|| digests(&pass));
            let reference = reference.get(k as usize).copied();
            attempted += pass.cells.len() as u64;
            failed += count_failures(&pass.cells, base, reference);
            if kind == PassKind::Plain {
                set_digests.push(set_digest(&pass.cells));
            }
            passes.push(pass);
        }
        if start.elapsed() >= budget {
            break;
        }
    }

    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let stem = Path::new(OUT_DIR).join(format!("{}-seed{}", w.name(), args.seed));
    let write = |ext: &str, text: &str| {
        let path = stem.with_extension(ext);
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
    };
    write("digests", &render_digests(args.seed, &set_digests))?;

    let plain: Vec<&PassOut> = passes
        .iter()
        .filter(|p| p.kind == PassKind::Plain)
        .collect();
    let sim_ops: u64 = plain
        .iter()
        .flat_map(|p| p.cells.iter())
        .map(|c| c.sim_ops)
        .sum();
    println!(
        "workload {} cells_per_set {} input_sets {} sim_ops {} reference_sets_checked {}",
        w.name(),
        plain[0].cells.len(),
        plain.len(),
        sim_ops,
        reference.len().min(plain.len())
    );
    let metrics: Vec<(&str, &str, f64)> = match &tracer {
        None => nvbench::end_to_end(&plain, &setup_s, peak_rss_mb),
        Some(t) => {
            let spans = t.spans();
            let metrics = layers::per_layer(&TracedRun {
                spans: &spans,
                passes: &passes,
                jobs,
                attempted,
                failed,
            });
            let table = layers::render_table(&metrics);
            write("spans.jsonl", &spans::to_jsonl(&spans))?;
            write("layers.txt", &format!("provenance {provenance}\n{table}"))?;
            print!("{table}");
            metrics
        }
    };

    let mut json = String::new();
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json}}}}}",
        failed == 0
    );
    Ok(failed == 0)
}

fn digests(pass: &PassOut) -> Vec<u64> {
    pass.cells.iter().map(|c| c.digest).collect()
}
