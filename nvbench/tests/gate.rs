//! End-to-end checks of the benchmark's cells against the simulator's own
//! entry points, and of its correctness gate.

use nvbench::workload::{
    buffer_config, omniscient_cell, pipeline_cell, pipeline_config, setup, wal_config, Cell, Probe,
    Workload,
};
use nvbench::{
    count_failures, reference, run_pass, set_digest, set_seed, PassKind, REFERENCE_SEED,
};
use nvfs_experiments::fig3;
use nvfs_server::e2e::{client_server_pipeline, client_server_pipeline_wal};

fn digests(cells: &[nvbench::workload::CellOut]) -> Vec<u64> {
    cells.iter().map(|c| c.digest).collect()
}

#[test]
fn omniscient_cells_match_figure_3() {
    let s = setup(Workload::OmniscientSweep, set_seed(7, 0), None).unwrap();
    let figure = fig3::run(&s.env);
    assert_eq!(s.cells.len(), 8 * fig3::NVRAM_MB.len());
    for cell in &s.cells {
        let Cell::Omniscient { trace, nvram_mb } = *cell else {
            panic!("unexpected cell {}", cell.kind());
        };
        let pct = omniscient_cell(&s.env, trace, nvram_mb, &Probe::plain()).net_write_traffic_pct();
        let number = s.env.traces.trace(trace).number();
        let at = format!("trace {number}, {nvram_mb} MB");
        assert_eq!(Some(pct), figure.traffic(number, nvram_mb), "{at}");
    }
}

#[test]
fn pipeline_cells_match_the_server_pipelines() {
    let s = setup(Workload::ClientServer, set_seed(7, 0), None).unwrap();
    for cell in &s.cells {
        let Cell::Pipeline { trace, model } = *cell else {
            continue;
        };
        let ops = s.env.traces.trace(trace).ops();
        let paging = client_server_pipeline(ops, &pipeline_config(model), &buffer_config());
        let logging = client_server_pipeline_wal(ops, &pipeline_config(model), &wal_config());
        let out = pipeline_cell(&s.env, trace, model, &Probe::plain());
        let at = format!("trace index {trace}, {model:?}");
        assert_eq!(out.client, paging.client, "{at}");
        assert_eq!(out.client, logging.client, "{at}");
        assert_eq!(out.buffered, paging.server, "{at}");
        assert_eq!(out.logged, logging.server, "{at}");
    }
}

#[test]
fn a_corrupted_cell_result_counts_as_failed() {
    let s = setup(Workload::ClientServer, set_seed(7, 0), None).unwrap();
    let pass = run_pass(&s, 2, PassKind::Plain, None);
    let baseline = digests(&pass.cells);
    let good = set_digest(&pass.cells);
    assert_eq!(count_failures(&pass.cells, &baseline, Some(good)), 0);

    let mut corrupted = pass.cells.clone();
    corrupted[3].digest ^= 1;
    assert_eq!(count_failures(&corrupted, &baseline, None), 1);
    // Against a stored set digest the failing cell cannot be singled out.
    assert_eq!(
        count_failures(&corrupted, &baseline, Some(good)),
        corrupted.len() as u64
    );

    let mut judged = pass.cells.clone();
    judged[0].violations = 1;
    assert_eq!(count_failures(&judged, &baseline, None), 1);
}

#[test]
fn fault_sweep_is_clean_and_identical_at_jobs_1_and_2() {
    let s = setup(Workload::FaultSweep, set_seed(7, 0), None).unwrap();
    let one = run_pass(&s, 1, PassKind::Plain, None);
    let two = run_pass(&s, 2, PassKind::Plain, None);
    assert_eq!(digests(&one.cells), digests(&two.cells));
    assert!(one.cells.iter().all(|c| c.violations == 0));
}

#[test]
fn stored_references_match_input_set_0() {
    for w in Workload::ALL {
        let expected = reference(w, REFERENCE_SEED).unwrap().unwrap();
        let s = setup(w, set_seed(REFERENCE_SEED, 0), None).unwrap();
        let pass = run_pass(&s, 2, PassKind::Plain, None);
        assert_eq!(
            Some(&set_digest(&pass.cells)),
            expected.first(),
            "{}",
            w.name()
        );
    }
}
