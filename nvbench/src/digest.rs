//! Folds a cell's deterministic outputs into one `nvfs_obs::digest` value.
//!
//! Fields are listed by name rather than hashed through `Debug`, so adding
//! a field to a report type does not move a digest: only a change in what
//! the simulator computes does.

use nvfs_core::{NetReport, ScrubReport, TrafficStats};
use nvfs_faults::ReliabilityStats;
use nvfs_lfs::wal_fs::WalFsReport;
use nvfs_lfs::FsReport;
use nvfs_obs::digest::Digest;
use nvfs_oracle::OracleSummary;

/// A running digest over a cell's outputs.
#[derive(Debug, Clone, Default)]
pub struct Fold(Digest);

impl Fold {
    /// An empty fold.
    pub fn new() -> Self {
        Fold(Digest::new())
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0.value()
    }

    /// Folds integers in order.
    pub fn u64s(&mut self, values: &[u64]) {
        for v in values {
            self.0.update(&v.to_string());
            self.0.update(",");
        }
        self.0.update(";");
    }

    /// Folds floats by their exact bit patterns.
    pub fn f64s(&mut self, values: &[f64]) {
        let bits: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
        self.u64s(&bits);
    }

    /// Client traffic counters.
    pub fn traffic(&mut self, s: &TrafficStats) {
        self.u64s(&[
            s.app_read_bytes,
            s.app_write_bytes,
            s.server_read_bytes,
            s.server_write_bytes,
            s.writeback_bytes,
            s.replacement_bytes,
            s.callback_bytes,
            s.migration_bytes,
            s.fsync_bytes,
            s.recovery_bytes,
            s.concurrent_write_bytes,
            s.concurrent_read_bytes,
            s.remaining_dirty_bytes,
            s.overwritten_dead_bytes,
            s.deleted_dead_bytes,
            s.bus_bytes,
            s.nvram_reads,
            s.nvram_writes,
            s.nvram_bytes,
            s.aged_into_nvram_bytes,
            s.read_hit_blocks,
            s.read_miss_blocks,
        ]);
    }

    /// An LFS report, segment by segment.
    pub fn fs(&mut self, r: &FsReport) {
        self.0.update(&r.name);
        self.u64s(&[
            r.fsync_ops,
            r.fsyncs_absorbed,
            r.fsync_absorbed_page_bytes,
            r.app_write_bytes,
            r.cleaner.runs,
            r.cleaner.segments_cleaned,
            r.cleaner.bytes_copied,
        ]);
        for s in &r.records {
            self.0.update(s.cause.label());
            self.u64s(&[
                s.id,
                s.time.as_micros(),
                s.data_bytes,
                s.file_count as u64,
                s.stored_checksum,
                s.content_checksum,
            ]);
        }
    }

    /// A WAL-mode report: its LFS half, log counters and fsync samples.
    pub fn wal(&mut self, r: &WalFsReport) {
        self.fs(&r.fs);
        let w = &r.wal;
        self.u64s(&[
            w.appends,
            w.append_bytes,
            w.drains,
            w.drained_bytes,
            w.overflow_drains,
            w.truncated_records,
            w.torn_log_bytes,
            w.replayed_bytes,
        ]);
        for s in &r.fsync_samples {
            self.u64s(&[s.payload_bytes, s.forced_segments, s.forced_on_disk_bytes]);
        }
    }

    /// Crash and loss accounting.
    pub fn reliability(&mut self, r: &ReliabilityStats) {
        self.u64s(&[
            r.client_crashes,
            r.server_crashes,
            r.bytes_at_risk,
            r.bytes_in_nvram,
            r.bytes_recovered,
            r.bytes_lost_window,
            r.bytes_lost_battery,
            r.bytes_lost_torn,
            r.bytes_lost_buffer,
            r.bytes_replayed,
            r.bytes_rewritten_torn,
            r.boards_recovered,
            r.boards_dead,
            r.bytes_lost_partition,
        ]);
    }

    /// Wire counters and the wire judge's summary.
    pub fn net(&mut self, r: &NetReport) {
        let (s, j) = (&r.stats, &r.summary);
        self.u64s(&[
            s.requests,
            s.retries,
            s.timeouts,
            s.degraded_ops,
            s.dup_suppressed,
            s.gave_up,
            s.shed_bytes,
            s.shed_writes,
            j.acked,
            j.applied,
            j.deliveries,
            j.duplicates,
            j.dropped,
            j.gave_up,
            j.acked_lost,
            j.double_apply,
            j.partition_leak,
        ]);
    }

    /// A durability or WAL judge's verdict summary.
    pub fn oracle(&mut self, s: &OracleSummary) {
        self.u64s(&[
            s.crash_points,
            s.clean,
            s.lost_durable,
            s.resurrected,
            s.double_replay,
            s.corrupted,
            s.silent_corruption,
            s.repaired,
            s.bytes_expected,
            s.bytes_observed,
        ]);
    }

    /// The scrub's five-fate accounting.
    pub fn scrub(&mut self, r: &ScrubReport) {
        self.u64s(&[
            r.events,
            r.bytes_corrupted_dirty,
            r.bytes_corrupted_clean,
            r.bytes_bounced,
            r.bytes_detected,
            r.bytes_silent,
            r.bytes_repaired,
            r.bytes_vacated,
            r.scrub_ticks,
            r.blocks_scanned,
            r.verdicts.len() as u64,
        ]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_and_boundaries_matter() {
        let fold = |parts: &[&[u64]]| {
            let mut f = Fold::new();
            for p in parts {
                f.u64s(p);
            }
            f.value()
        };
        assert_ne!(fold(&[&[1, 2]]), fold(&[&[2, 1]]));
        assert_ne!(fold(&[&[1], &[2]]), fold(&[&[1, 2]]));
        assert_ne!(fold(&[&[12]]), fold(&[&[1, 2]]));
    }
}
