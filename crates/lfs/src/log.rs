//! The append-only segment writer and the segment usage table.
//!
//! [`SegmentWriter`] packs dirty byte ranges into on-disk segments: whole
//! 4 KB data blocks, one 4 KB metadata block per file per segment, and a
//! 512-byte summary block (Figure 7). It can either write everything it is
//! given (an fsync or timeout flush) or emit only the naturally full
//! segments and hand the remainder back (normal log operation).
//!
//! [`SegmentUsage`] tracks which segment currently holds each live block,
//! so overwrites and deletes leave dead space behind for the
//! [cleaner](crate::cleaner) to reclaim.

use std::collections::{BTreeMap, BTreeSet};

use nvfs_types::{blocks_of_range, BlockId, FileId, RangeSet, SimTime};

use crate::layout::{SegmentCause, SegmentRecord, METADATA_BLOCK_BYTES, SUMMARY_BYTES};

/// Chunks of dirty data handed to the writer: per-file byte ranges.
pub type Chunks = Vec<(FileId, RangeSet)>;

/// Where every live block lives, and how much live data each segment holds.
#[derive(Debug, Clone, Default)]
pub struct SegmentUsage {
    locs: BTreeMap<BlockId, u64>,
    segs: BTreeMap<u64, BTreeSet<BlockId>>,
}

impl SegmentUsage {
    /// Creates an empty table.
    pub fn new() -> Self {
        SegmentUsage::default()
    }

    /// Records that `block` now lives in segment `seg`, killing any older
    /// copy.
    pub fn place(&mut self, block: BlockId, seg: u64) {
        if let Some(old) = self.locs.insert(block, seg) {
            if let Some(set) = self.segs.get_mut(&old) {
                set.remove(&block);
            }
        }
        self.segs.entry(seg).or_default().insert(block);
    }

    /// Kills every live block of `file` (the file was deleted).
    pub fn kill_file(&mut self, file: FileId) {
        let blocks: Vec<BlockId> = self
            .locs
            .range(BlockId::new(file, 0)..BlockId::new(FileId(file.0 + 1), 0))
            .map(|(&b, _)| b)
            .collect();
        for b in blocks {
            if let Some(seg) = self.locs.remove(&b) {
                if let Some(set) = self.segs.get_mut(&seg) {
                    set.remove(&b);
                }
            }
        }
    }

    /// Live bytes in segment `seg`.
    pub fn live_bytes(&self, seg: u64) -> u64 {
        self.segs.get(&seg).map_or(0, |s| s.len() as u64 * 4096)
    }

    /// Number of segments on disk (live or dead-but-unreclaimed).
    pub fn segment_count(&self) -> usize {
        self.segs.len()
    }

    /// The `n` segments with the least live data (the cleaner's victims).
    pub fn least_utilized(&self, n: usize) -> Vec<u64> {
        let mut segs: Vec<(u64, usize)> = self.segs.iter().map(|(&id, s)| (id, s.len())).collect();
        segs.sort_by_key(|&(id, live)| (live, id));
        segs.into_iter().take(n).map(|(id, _)| id).collect()
    }

    /// Removes segment `seg` from the table, returning its live blocks.
    pub fn evacuate(&mut self, seg: u64) -> Vec<BlockId> {
        let blocks: Vec<BlockId> = self
            .segs
            .remove(&seg)
            .map(|s| s.into_iter().collect())
            .unwrap_or_default();
        for b in &blocks {
            self.locs.remove(b);
        }
        blocks
    }

    /// Total live bytes across all segments.
    pub fn total_live_bytes(&self) -> u64 {
        self.locs.len() as u64 * 4096
    }

    /// Every live byte range on disk, grouped per file — the durability
    /// oracle's view of what a post-crash scan of the log would find.
    pub fn live_ranges(&self) -> Vec<(FileId, RangeSet)> {
        let mut per_file: BTreeMap<FileId, RangeSet> = BTreeMap::new();
        for b in self.locs.keys() {
            per_file.entry(b.file).or_default().insert(b.byte_range());
        }
        per_file.into_iter().collect()
    }
}

/// Packs dirty chunks into segments and appends them to the log.
#[derive(Debug, Clone)]
pub struct SegmentWriter {
    segment_bytes: u64,
    next_id: u64,
    records: Vec<SegmentRecord>,
    usage: SegmentUsage,
}

/// An in-progress segment during packing.
#[derive(Debug, Default)]
struct OpenSegment {
    blocks: Vec<BlockId>,
    files: BTreeSet<FileId>,
}

impl OpenSegment {
    fn data_bytes(&self) -> u64 {
        self.blocks.len() as u64 * 4096
    }

    fn on_disk_with(&self, extra_file: bool) -> u64 {
        let files = self.files.len() as u64 + u64::from(extra_file);
        self.data_bytes() + 4096 + files.max(1) * METADATA_BLOCK_BYTES + SUMMARY_BYTES
    }
}

impl SegmentWriter {
    /// Creates a writer for segments of `segment_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `segment_bytes` cannot hold at least one data block plus
    /// its metadata and summary.
    pub fn new(segment_bytes: u64) -> Self {
        assert!(
            segment_bytes >= 4096 + METADATA_BLOCK_BYTES + SUMMARY_BYTES,
            "segment size too small"
        );
        SegmentWriter {
            segment_bytes,
            next_id: 0,
            records: Vec::new(),
            usage: SegmentUsage::new(),
        }
    }

    /// Segments written so far.
    pub fn records(&self) -> &[SegmentRecord] {
        &self.records
    }

    /// The usage table (for the cleaner).
    pub fn usage(&self) -> &SegmentUsage {
        &self.usage
    }

    /// Mutable usage table (deletes kill blocks).
    pub fn usage_mut(&mut self) -> &mut SegmentUsage {
        &mut self.usage
    }

    /// Writes **all** of `chunks` to the log. Naturally full segments get
    /// [`SegmentCause::Full`] (unless `uniform_cause` is set); the final,
    /// usually partial, segment gets `cause`. Returns the number of
    /// segments written.
    pub fn write_all(
        &mut self,
        t: SimTime,
        chunks: &Chunks,
        cause: SegmentCause,
        uniform_cause: bool,
    ) -> usize {
        let (written, remainder) = self.pack(t, chunks, Some((cause, uniform_cause)));
        debug_assert!(remainder.is_none());
        written
    }

    /// Writes only the naturally full segments that `chunks` can fill,
    /// returning the remainder (less than one segment's worth) to the
    /// caller. Returns `(segments_written, remainder)`.
    pub fn write_full_only(&mut self, t: SimTime, chunks: &Chunks) -> (usize, Chunks) {
        let (written, remainder) = self.pack(t, chunks, None);
        (written, remainder.unwrap_or_default())
    }

    /// Core packing loop. With `final_cause = Some(..)` everything is
    /// flushed; with `None` the tail remainder is returned instead.
    fn pack(
        &mut self,
        t: SimTime,
        chunks: &Chunks,
        final_cause: Option<(SegmentCause, bool)>,
    ) -> (usize, Option<Chunks>) {
        // Deduplicate to whole blocks per file.
        let mut per_file: BTreeMap<FileId, BTreeSet<u64>> = BTreeMap::new();
        for (file, ranges) in chunks {
            let set = per_file.entry(*file).or_default();
            for r in ranges.iter() {
                for b in blocks_of_range(*file, r) {
                    set.insert(b.index);
                }
            }
        }

        let mut open = OpenSegment::default();
        let mut written = 0;
        let uniform = final_cause;
        for (file, blocks) in &per_file {
            for &idx in blocks {
                let adds_file = !open.files.contains(file);
                if !open.blocks.is_empty() && open.on_disk_with(adds_file) > self.segment_bytes {
                    let cause = match uniform {
                        Some((c, true)) => c,
                        _ => SegmentCause::Full,
                    };
                    self.emit(t, std::mem::take(&mut open), cause);
                    written += 1;
                }
                open.blocks.push(BlockId::new(*file, idx));
                open.files.insert(*file);
            }
        }

        if open.blocks.is_empty() {
            return (written, None);
        }
        match final_cause {
            Some((cause, _)) => {
                // A final chunk that leaves no room for another block is
                // Full. `on_disk_with` already budgets one incoming block.
                let cause = if open.on_disk_with(false) > self.segment_bytes {
                    SegmentCause::Full
                } else {
                    cause
                };
                self.emit(t, open, cause);
                (written + 1, None)
            }
            None => {
                // Hand the tail back as chunks.
                let mut rem: BTreeMap<FileId, RangeSet> = BTreeMap::new();
                for b in open.blocks {
                    rem.entry(b.file).or_default().insert(b.byte_range());
                }
                (written, Some(rem.into_iter().collect()))
            }
        }
    }

    fn emit(&mut self, t: SimTime, seg: OpenSegment, cause: SegmentCause) {
        let id = self.next_id;
        self.next_id += 1;
        for b in &seg.blocks {
            self.usage.place(*b, id);
        }
        let checksum = segment_checksum(&seg.blocks);
        let record = SegmentRecord {
            id,
            time: t,
            cause,
            data_bytes: seg.data_bytes(),
            file_count: seg.files.len(),
            stored_checksum: checksum,
            content_checksum: checksum,
        };
        nvfs_obs::counter_add("lfs.segments_written", 1);
        nvfs_obs::counter_add("lfs.data_bytes", record.data_bytes);
        if record.is_partial() {
            nvfs_obs::counter_add("lfs.segments_partial", 1);
        }
        nvfs_obs::histogram_record(
            "lfs.segment_fill_pct",
            record.on_disk_bytes() * 100 / self.segment_bytes.max(1),
        );
        nvfs_obs::event("seg_write", t.as_micros())
            .str("cause", cause.label())
            .u64("seg", id)
            .u64("data_bytes", record.data_bytes)
            .u64("files", record.file_count as u64)
            .u64("partial", record.is_partial() as u64)
            .emit();
        self.records.push(record);
    }

    /// Like [`write_all`](SegmentWriter::write_all), but the **final**
    /// segment write is torn after `fraction` of its blocks: its summary
    /// checksum no longer matches the on-disk content, its blocks are not
    /// placed in the usage table, and the segment's intended chunks are
    /// returned so the caller can rewrite them after
    /// [`roll_forward`](SegmentWriter::roll_forward) truncates the tear.
    ///
    /// Naturally full prefix segments are written (and checksummed) intact.
    /// A fraction of 1.0 or more tears nothing: the write completes
    /// normally and an empty chunk list is returned.
    pub fn write_all_torn(
        &mut self,
        t: SimTime,
        chunks: &Chunks,
        cause: SegmentCause,
        fraction: f64,
    ) -> Chunks {
        let (_, tail) = self.write_full_only(t, chunks);
        if tail.is_empty() {
            return Chunks::new();
        }
        // Rebuild the final segment exactly as `pack` would have.
        let mut per_file: BTreeMap<FileId, BTreeSet<u64>> = BTreeMap::new();
        for (file, ranges) in &tail {
            let set = per_file.entry(*file).or_default();
            for r in ranges.iter() {
                for b in blocks_of_range(*file, r) {
                    set.insert(b.index);
                }
            }
        }
        let mut seg = OpenSegment::default();
        for (file, blocks) in &per_file {
            for &idx in blocks {
                seg.blocks.push(BlockId::new(*file, idx));
                seg.files.insert(*file);
            }
        }
        let intended = seg.blocks.len();
        let written = (intended as f64 * fraction) as usize;
        if written >= intended {
            self.write_all(t, &tail, cause, false);
            return Chunks::new();
        }

        let id = self.next_id;
        self.next_id += 1;
        let record = SegmentRecord {
            id,
            time: t,
            cause,
            data_bytes: seg.data_bytes(),
            file_count: seg.files.len(),
            stored_checksum: segment_checksum(&seg.blocks),
            content_checksum: segment_checksum(&seg.blocks[..written]),
        };
        debug_assert!(!record.is_valid(), "a torn segment must fail its checksum");
        nvfs_obs::counter_add("lfs.segments_torn", 1);
        nvfs_obs::event("seg_write", t.as_micros())
            .str("cause", cause.label())
            .u64("seg", id)
            .u64("data_bytes", record.data_bytes)
            .u64("files", record.file_count as u64)
            .u64("partial", record.is_partial() as u64)
            .u64("torn", 1)
            .emit();
        self.records.push(record);
        tail
    }

    /// Roll-forward recovery over the log tail: scans back from the end,
    /// truncating every segment whose on-disk content fails its summary
    /// checksum, and stops at the first valid segment. Torn tails become
    /// *detected* truncations instead of silently replayed garbage.
    ///
    /// Idempotent: a second call finds a valid tail and truncates nothing,
    /// which is what makes replay-after-recovery safe to repeat.
    pub fn roll_forward(&mut self, t: SimTime) -> RollForward {
        let mut out = RollForward::default();
        while let Some(last) = self.records.last() {
            out.scanned += 1;
            if last.is_valid() {
                break;
            }
            let torn = self.records.pop().expect("just peeked");
            // Torn segments never placed blocks, but evacuate defensively
            // so the usage table cannot reference a truncated segment.
            self.usage.evacuate(torn.id);
            out.truncated_segments += 1;
            out.truncated_data_bytes += torn.data_bytes;
        }
        if out.truncated_segments > 0 {
            nvfs_obs::counter_add("lfs.segments_truncated", out.truncated_segments as u64);
            nvfs_obs::counter_add("lfs.bytes_truncated", out.truncated_data_bytes);
            nvfs_obs::event("roll_forward", t.as_micros())
                .u64("scanned", out.scanned as u64)
                .u64("truncated_segments", out.truncated_segments as u64)
                .u64("truncated_bytes", out.truncated_data_bytes)
                .emit();
        }
        out
    }
}

/// What one [`SegmentWriter::roll_forward`] pass found and truncated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RollForward {
    /// Trailing segments examined (truncated ones plus the first valid).
    pub scanned: usize,
    /// Checksum-invalid segments removed from the log tail.
    pub truncated_segments: usize,
    /// Intended data bytes of the truncated segments — exactly the bytes
    /// that must be written again from NVRAM.
    pub truncated_data_bytes: u64,
}

/// The summary-block checksum: 64-bit FNV-1a over the segment's (file,
/// block-index) content list, in segment order. The simulation carries no
/// payload bytes, so the block list *is* the content identity; any torn
/// prefix of it hashes differently, which is all a checksum must provide.
/// The hasher is the shared [`nvfs_types::framing`] implementation, so the
/// segment summaries and the WAL records use one checksum definition.
/// Each block's `"{file}:{index};"` text is formatted into one reused
/// buffer, so hashing a segment allocates once.
fn segment_checksum(blocks: &[BlockId]) -> u64 {
    use std::fmt::Write;
    let mut d = nvfs_types::framing::Fnv64::new();
    let mut text = String::with_capacity(32);
    for b in blocks {
        text.clear();
        let _ = write!(text, "{}:{};", b.file.0, b.index);
        d.update(&text);
    }
    d.value()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::SEGMENT_BYTES;
    use nvfs_types::ByteRange;

    fn chunk(file: u32, bytes: u64) -> (FileId, RangeSet) {
        (FileId(file), RangeSet::from_range(ByteRange::new(0, bytes)))
    }

    #[test]
    fn summary_checksum_matches_the_obs_digest() {
        // The shared nvfs-types hasher must stay bit-identical to the obs
        // digest the summaries were originally computed with, or every
        // golden checksum in the repo silently changes.
        let blocks = vec![
            BlockId::new(FileId(3), 0),
            BlockId::new(FileId(3), 1),
            BlockId::new(FileId(7), 2),
            BlockId::new(FileId(u32::MAX), u64::MAX),
        ];
        let mut d = nvfs_obs::digest::Digest::new();
        for b in &blocks {
            d.update(&format!("{}:{};", b.file.0, b.index));
        }
        assert_eq!(segment_checksum(&blocks), d.value());
    }

    #[test]
    fn small_flush_is_one_partial_segment() {
        let mut w = SegmentWriter::new(SEGMENT_BYTES);
        let n = w.write_all(
            SimTime::ZERO,
            &vec![chunk(0, 8192)],
            SegmentCause::Fsync,
            false,
        );
        assert_eq!(n, 1);
        let r = w.records()[0];
        assert_eq!(r.cause, SegmentCause::Fsync);
        assert_eq!(r.data_bytes, 8192);
        assert!(r.is_partial());
    }

    #[test]
    fn large_flush_splits_into_full_segments() {
        let mut w = SegmentWriter::new(SEGMENT_BYTES);
        // ~1.2 MB -> 2 full + 1 partial.
        let n = w.write_all(
            SimTime::ZERO,
            &vec![chunk(0, 1_258_291)],
            SegmentCause::Timeout,
            false,
        );
        assert_eq!(n, 3);
        let causes: Vec<SegmentCause> = w.records().iter().map(|r| r.cause).collect();
        assert_eq!(
            causes,
            vec![
                SegmentCause::Full,
                SegmentCause::Full,
                SegmentCause::Timeout
            ]
        );
        for r in &w.records()[..2] {
            assert!(!r.is_partial(), "intermediate segments are full");
        }
    }

    #[test]
    fn write_full_only_returns_remainder() {
        let mut w = SegmentWriter::new(SEGMENT_BYTES);
        let (n, rem) = w.write_full_only(SimTime::ZERO, &vec![chunk(0, 700 * 1024)]);
        assert_eq!(n, 1);
        let rem_bytes: u64 = rem.iter().map(|(_, r)| r.len_bytes()).sum();
        // Every block is either on disk or in the remainder.
        let seg_data = w.records()[0].data_bytes;
        assert!(!w.records()[0].is_partial());
        assert_eq!(rem_bytes + seg_data, 700 * 1024);
    }

    #[test]
    fn partial_blocks_round_to_whole_blocks() {
        let mut w = SegmentWriter::new(SEGMENT_BYTES);
        w.write_all(
            SimTime::ZERO,
            &vec![chunk(0, 100)],
            SegmentCause::Fsync,
            false,
        );
        assert_eq!(w.records()[0].data_bytes, 4096);
    }

    #[test]
    fn metadata_counts_distinct_files() {
        let mut w = SegmentWriter::new(SEGMENT_BYTES);
        w.write_all(
            SimTime::ZERO,
            &vec![chunk(0, 4096), chunk(1, 4096), chunk(2, 4096)],
            SegmentCause::Timeout,
            false,
        );
        let r = w.records()[0];
        assert_eq!(r.file_count, 3);
        assert_eq!(r.metadata_bytes(), 3 * METADATA_BLOCK_BYTES);
    }

    #[test]
    fn usage_tracks_overwrites_and_deletes() {
        let mut w = SegmentWriter::new(SEGMENT_BYTES);
        w.write_all(
            SimTime::ZERO,
            &vec![chunk(0, 16384)],
            SegmentCause::Timeout,
            false,
        );
        let first = w.records()[0].id;
        assert_eq!(w.usage().live_bytes(first), 16384);
        // Rewrite the same blocks: the old segment's data dies.
        w.write_all(
            SimTime::from_secs(1),
            &vec![chunk(0, 16384)],
            SegmentCause::Timeout,
            false,
        );
        assert_eq!(w.usage().live_bytes(first), 0);
        let second = w.records()[1].id;
        assert_eq!(w.usage().live_bytes(second), 16384);
        w.usage_mut().kill_file(FileId(0));
        assert_eq!(w.usage().total_live_bytes(), 0);
    }

    #[test]
    fn least_utilized_orders_by_live_data() {
        let mut w = SegmentWriter::new(SEGMENT_BYTES);
        w.write_all(
            SimTime::ZERO,
            &vec![chunk(0, 16384)],
            SegmentCause::Timeout,
            false,
        );
        w.write_all(
            SimTime::ZERO,
            &vec![chunk(1, 4096)],
            SegmentCause::Timeout,
            false,
        );
        let victims = w.usage().least_utilized(1);
        assert_eq!(victims, vec![w.records()[1].id]);
        let blocks = w.usage_mut().evacuate(victims[0]);
        assert_eq!(blocks.len(), 1);
    }

    #[test]
    fn uniform_cause_marks_cleaner_segments() {
        let mut w = SegmentWriter::new(SEGMENT_BYTES);
        w.write_all(
            SimTime::ZERO,
            &vec![chunk(0, 1 << 20)],
            SegmentCause::Cleaner,
            true,
        );
        assert!(w.records().iter().all(|r| r.cause == SegmentCause::Cleaner));
    }

    #[test]
    fn normal_segments_pass_their_checksum() {
        let mut w = SegmentWriter::new(SEGMENT_BYTES);
        w.write_all(
            SimTime::ZERO,
            &vec![chunk(0, 1 << 20)],
            SegmentCause::Timeout,
            false,
        );
        assert!(w.records().iter().all(|r| r.is_valid()));
        assert_ne!(w.records()[0].stored_checksum, 0);
    }

    #[test]
    fn torn_write_fails_checksum_and_places_no_blocks() {
        let mut w = SegmentWriter::new(SEGMENT_BYTES);
        let tail = w.write_all_torn(
            SimTime::ZERO,
            &vec![chunk(0, 16384)],
            SegmentCause::Recovery,
            0.5,
        );
        assert_eq!(tail, vec![chunk(0, 16384)]);
        let r = w.records()[0];
        assert!(!r.is_valid());
        assert_eq!(r.data_bytes, 16384);
        // Torn segments never enter the usage table.
        assert_eq!(w.usage().total_live_bytes(), 0);
    }

    #[test]
    fn torn_write_keeps_full_prefix_segments_intact() {
        let mut w = SegmentWriter::new(SEGMENT_BYTES);
        // ~1.2 MB -> 2 full (valid) + 1 torn partial.
        let tail = w.write_all_torn(
            SimTime::ZERO,
            &vec![chunk(0, 1_200_000)],
            SegmentCause::Recovery,
            0.3,
        );
        assert!(!tail.is_empty());
        let records = w.records();
        assert_eq!(records.len(), 3);
        assert!(records[0].is_valid());
        assert!(records[1].is_valid());
        assert!(!records[2].is_valid());
        let tail_bytes: u64 = tail.iter().map(|(_, s)| s.len_bytes()).sum();
        assert_eq!(records[2].data_bytes, tail_bytes);
    }

    #[test]
    fn fraction_one_is_not_torn() {
        let mut w = SegmentWriter::new(SEGMENT_BYTES);
        let tail = w.write_all_torn(
            SimTime::ZERO,
            &vec![chunk(0, 8192)],
            SegmentCause::Recovery,
            1.0,
        );
        assert!(tail.is_empty());
        assert!(w.records()[0].is_valid());
        assert_eq!(w.usage().total_live_bytes(), 8192);
    }

    #[test]
    fn roll_forward_truncates_only_the_torn_tail() {
        let mut w = SegmentWriter::new(SEGMENT_BYTES);
        w.write_all(
            SimTime::ZERO,
            &vec![chunk(0, 8192)],
            SegmentCause::Fsync,
            false,
        );
        w.write_all_torn(
            SimTime::from_secs(1),
            &vec![chunk(1, 12288)],
            SegmentCause::Recovery,
            0.5,
        );
        let rolled = w.roll_forward(SimTime::from_secs(2));
        assert_eq!(rolled.truncated_segments, 1);
        assert_eq!(rolled.truncated_data_bytes, 12288);
        assert_eq!(rolled.scanned, 2);
        assert_eq!(w.records().len(), 1);
        assert!(w.records()[0].is_valid());
        // Idempotent: a second pass finds a valid tail and does nothing.
        let again = w.roll_forward(SimTime::from_secs(3));
        assert_eq!(again.truncated_segments, 0);
        assert_eq!(again.truncated_data_bytes, 0);
        assert_eq!(w.records().len(), 1);
    }
}
