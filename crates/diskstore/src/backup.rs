//! The per-leaf disk backup directory and the slow (row-format) recovery
//! path.
//!
//! §4.1: shutdown "finishes any pending synchronization with the data on
//! disk ... only the sections of data that have changed since the last
//! synchronization point need to be updated. (During normal operation,
//! disk writes are asynchronous.)" We model this with buffered appends
//! plus an explicit [`DiskBackup::sync`] that flushes and fsyncs.
//!
//! Recovery reads each table's log, parses every record, and rebuilds the
//! columnar state through the normal builder — the read phase and the
//! translate phase are timed separately because their ratio (minutes vs
//! hours in the paper) is the whole motivation for experiment E8.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use scuba_columnstore::{LeafMap, Row, RowCells, Table};

use crate::error::{DiskError, DiskResult};
use crate::rowformat::{read_cells, record_span, skip_record, write_record, ReadOutcome};
use crate::throttle::Throttle;

/// File extension for row-format table logs.
const ROWS_EXT: &str = "rows";

/// Timing breakdown of a disk recovery (experiment E8).
#[derive(Debug, Clone, Default)]
pub struct RecoveryStats {
    /// Tables recovered.
    pub tables: usize,
    /// Rows parsed and rebuilt.
    pub rows: u64,
    /// Bytes read from disk.
    pub bytes_read: u64,
    /// Time spent reading files.
    pub read_duration: Duration,
    /// Time spent parsing records and rebuilding columnar blocks — the
    /// "translating it to its in-memory format" cost (§1).
    pub translate_duration: Duration,
    /// Rows lost to torn tails (crash-truncated appends), per table.
    pub torn_tails: usize,
}

/// Bytes a disk start reads from a table's log at a time: the log is
/// translated a window at a time, so the start holds one window (grown
/// only for a record longer than it) rather than the whole log.
const READ_WINDOW: usize = 4 << 20;

/// Phase 1 and 2 of a disk start for one table (§4.1), a window at a
/// time: read the log's bytes ("Reading about 120 GB ... takes 20-25
/// minutes") and translate its records to the in-memory format ("takes
/// 2.5-3 hours"), pushing their cells through `table`'s builder. A record
/// is parsed only once the window holds as many bytes as its header
/// names (or the log has ended), so one that straddles two windows reads
/// as whole; the first torn record ends the log, as a crash-torn tail.
/// `throttle` paces the reads; `path` names the log in errors.
fn translate_log(
    mut log: impl Read,
    path: &Path,
    window_bytes: usize,
    table: &mut Table,
    now: i64,
    stats: &mut RecoveryStats,
    throttle: Option<&Throttle>,
) -> DiskResult<()> {
    let mut window = Vec::new();
    let (mut start, mut ended) = (0usize, false);
    loop {
        // Phase 1: top the window up until it holds the next record whole.
        while !ended && window.len() - start < record_span(&window[start..]) {
            window.drain(..start);
            start = 0;
            let read_start = Instant::now();
            let want = window_bytes.max(record_span(&window)) as u64;
            let n = (&mut log)
                .take(want)
                .read_to_end(&mut window)
                .map_err(|e| DiskError::io(path, e))?;
            if let Some(t) = throttle {
                t.consume(n as u64);
            }
            stats.bytes_read += n as u64;
            stats.read_duration += read_start.elapsed();
            ended = n == 0;
        }
        // Phase 2: translate every record the window holds whole.
        let translate_start = Instant::now();
        let mut cells = RowCells::default();
        let mut pos = start;
        let done = loop {
            if !ended && window.len() - pos < record_span(&window[pos..]) {
                break false;
            }
            match read_cells(&window, &mut pos, &mut cells) {
                ReadOutcome::Record(()) => {
                    table.append_cells(&mut cells, now)?;
                    stats.rows += 1;
                }
                ReadOutcome::End => break true,
                ReadOutcome::Torn(_) => {
                    stats.torn_tails += 1;
                    break true;
                }
            }
        };
        stats.translate_duration += translate_start.elapsed();
        if done {
            return Ok(());
        }
        start = pos;
    }
}

/// Result of a [`DiskBackup::coverage`] scan: how much of a table's log
/// is a valid record prefix.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableCoverage {
    /// Valid records in the prefix (including any trusted hint rows).
    pub rows: u64,
    /// Byte offset just past the last valid record.
    pub valid_len: u64,
    /// Total file length (`> valid_len` means a torn tail).
    pub file_len: u64,
    /// Bytes actually read and walked by this scan (observability: with a
    /// fresh sync hint this is ~0 even for a large log).
    pub scanned_bytes: u64,
}

/// A leaf server's on-disk backup: one append-only row log per table
/// under a root directory.
#[derive(Debug)]
pub struct DiskBackup {
    root: PathBuf,
    /// Open buffered writers, one per table.
    writers: BTreeMap<String, BufWriter<File>>,
    /// Bytes appended since the last sync (for sync-cost accounting).
    dirty_bytes: u64,
}

/// Map a table name to a safe file stem (hex-escape anything exotic).
fn file_stem(table: &str) -> DiskResult<String> {
    if table.is_empty() || table.len() > 200 {
        return Err(DiskError::BadTableName(table.to_owned()));
    }
    let mut out = String::with_capacity(table.len());
    for c in table.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
            out.push(c);
        } else {
            out.push('%');
            for b in c.to_string().bytes() {
                out.push_str(&format!("{b:02x}"));
            }
        }
    }
    Ok(out)
}

/// Inverse of [`file_stem`].
fn table_name(stem: &str) -> Option<String> {
    let mut out = Vec::new();
    let bytes = stem.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            if i + 2 >= bytes.len() {
                return None;
            }
            let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).ok()?;
            out.push(u8::from_str_radix(hex, 16).ok()?);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

impl DiskBackup {
    /// Open (creating if needed) the backup directory.
    pub fn open(root: impl Into<PathBuf>) -> DiskResult<DiskBackup> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(|e| DiskError::io(&root, e))?;
        Ok(DiskBackup {
            root,
            writers: BTreeMap::new(),
            dirty_bytes: 0,
        })
    }

    /// The backup directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn table_path(&self, table: &str) -> DiskResult<PathBuf> {
        Ok(self.root.join(format!("{}.{ROWS_EXT}", file_stem(table)?)))
    }

    /// Append rows to a table's log (asynchronous: buffered, not yet
    /// durable — call [`sync`](Self::sync) to make it so).
    pub fn append(&mut self, table: &str, rows: &[Row]) -> DiskResult<()> {
        let path = self.table_path(table)?;
        if !self.writers.contains_key(table) {
            let file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .map_err(|e| DiskError::io(&path, e))?;
            self.writers
                .insert(table.to_owned(), BufWriter::with_capacity(1 << 16, file));
        }
        let w = self.writers.get_mut(table).expect("inserted above");
        let mut buf = Vec::new();
        for row in rows {
            write_record(row, &mut buf);
        }
        match scuba_faults::check("diskstore::append") {
            Some(scuba_faults::Fault::ShortWrite(n)) => {
                // A torn append: part of the batch reaches the log, then
                // the write fails — the §4.1 crash shape the record CRCs
                // exist to detect.
                let n = n.min(buf.len());
                w.write_all(&buf[..n])
                    .map_err(|e| DiskError::io(&path, e))?;
                self.dirty_bytes += n as u64;
                return Err(DiskError::Io {
                    path,
                    source: std::io::Error::other("injected fault at 'diskstore::append'"),
                });
            }
            Some(_) => {
                return Err(DiskError::Io {
                    path,
                    source: std::io::Error::other("injected fault at 'diskstore::append'"),
                });
            }
            None => {}
        }
        w.write_all(&buf).map_err(|e| DiskError::io(&path, e))?;
        self.dirty_bytes += buf.len() as u64;
        Ok(())
    }

    /// Drop every buffered, not-yet-written byte without flushing — what
    /// a SIGKILL does to the userspace buffer. The in-process crash
    /// simulation calls this so its durability contract matches a real
    /// process death instead of quietly flushing on drop.
    pub fn discard_buffered(&mut self) {
        for (_, writer) in std::mem::take(&mut self.writers) {
            // `into_parts` hands the buffer back unwritten; dropping it
            // (and the file) loses exactly the unsynced tail.
            let _ = writer.into_parts();
        }
        self.dirty_bytes = 0;
    }

    /// Flush and fsync every table log — the shutdown step "finishes any
    /// pending synchronization with the data on disk" (§4.1). Returns the
    /// number of dirty bytes made durable.
    pub fn sync(&mut self) -> DiskResult<u64> {
        if scuba_faults::check("diskstore::sync").is_some() {
            return Err(DiskError::Io {
                path: self.root.clone(),
                source: std::io::Error::other("injected fault at 'diskstore::sync'"),
            });
        }
        for (table, w) in &mut self.writers {
            let path = self.root.join(format!(
                "{}.{ROWS_EXT}",
                file_stem(table).expect("validated on append")
            ));
            w.flush().map_err(|e| DiskError::io(&path, e))?;
            w.get_ref()
                .sync_data()
                .map_err(|e| DiskError::io(&path, e))?;
        }
        let synced = std::mem::take(&mut self.dirty_bytes);
        scuba_obs::counter!("diskstore_syncs").inc();
        scuba_obs::counter!("diskstore_synced_bytes").add(synced);
        Ok(synced)
    }

    /// Bytes appended since the last sync.
    pub fn dirty_bytes(&self) -> u64 {
        self.dirty_bytes
    }

    /// True when no writer holds buffered bytes: every append so far has
    /// reached its file (not necessarily the disk), so [`Self::file_len`]
    /// counts it. Never flushes.
    pub fn flushed(&self) -> bool {
        self.writers.values().all(|w| w.buffer().is_empty())
    }

    /// Tables present on disk.
    pub fn tables(&self) -> DiskResult<Vec<String>> {
        let mut names = Vec::new();
        let entries = fs::read_dir(&self.root).map_err(|e| DiskError::io(&self.root, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| DiskError::io(&self.root, e))?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) == Some(ROWS_EXT) {
                if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                    if let Some(name) = table_name(stem) {
                        names.push(name);
                    }
                }
            }
        }
        names.sort();
        Ok(names)
    }

    /// Full disk recovery: read every table log, parse every record, and
    /// rebuild the leaf's in-memory state. `throttle`, if given, paces the
    /// read phase at a simulated device bandwidth. Torn tails are dropped
    /// (§4.1). `now` stamps the rebuilt blocks.
    pub fn recover(
        &self,
        now: i64,
        throttle: Option<&Throttle>,
    ) -> DiskResult<(LeafMap, RecoveryStats)> {
        let tables = self.tables()?;
        self.recover_tables(&tables, now, throttle)
    }

    /// Disk-recover only the named tables (per-table fallback: the rest of
    /// the leaf came back through shared memory and is not re-read). Names
    /// with no on-disk log are skipped silently — a skipped shm unit that
    /// was never synced has nothing to recover.
    pub fn recover_tables(
        &self,
        tables: &[String],
        now: i64,
        throttle: Option<&Throttle>,
    ) -> DiskResult<(LeafMap, RecoveryStats)> {
        let on_disk = self.tables()?;
        let mut map = LeafMap::new();
        let mut stats = RecoveryStats::default();
        for table in tables.iter().filter(|t| on_disk.contains(t)) {
            let path = self.table_path(table)?;
            let file = File::open(&path).map_err(|e| DiskError::io(&path, e))?;
            let mut t = Table::new(table, now);
            translate_log(file, &path, READ_WINDOW, &mut t, now, &mut stats, throttle)?;
            t.seal(now)?;
            map.insert(t);
            stats.tables += 1;
        }
        // Mirror the two §4.1 phases into the registry so disk recoveries
        // show up next to the shared-memory phase counters.
        scuba_obs::counter!("diskstore_recoveries").inc();
        scuba_obs::counter!("diskstore_recovered_rows").add(stats.rows);
        scuba_obs::counter!("diskstore_recovered_bytes").add(stats.bytes_read);
        scuba_obs::counter!("diskstore_torn_tails").add(stats.torn_tails as u64);
        scuba_obs::counter!("diskstore_read_nanos").add(stats.read_duration.as_nanos() as u64);
        scuba_obs::counter!("diskstore_translate_nanos")
            .add(stats.translate_duration.as_nanos() as u64);
        Ok((map, stats))
    }

    /// On-disk length of a table's log (0 when absent). Buffered appends
    /// not yet flushed are invisible — after a [`Self::sync`] this is the
    /// durable length.
    pub fn file_len(&self, table: &str) -> DiskResult<u64> {
        let path = self.table_path(table)?;
        match fs::metadata(&path) {
            Ok(m) => Ok(m.len()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(0),
            Err(e) => Err(DiskError::io(&path, e)),
        }
    }

    /// Count the valid-record prefix of a table's log.
    ///
    /// `synced_hint`, when present, is a `(rows, bytes)` coverage anchor
    /// the caller trusts (e.g. recorded in the WAL after a successful
    /// sync): the first `rows` records are known to occupy exactly the
    /// first `bytes` bytes, so the scan starts there and only walks the
    /// suffix. A hint whose byte offset exceeds the file is ignored and
    /// the whole file is scanned.
    ///
    /// Reads only what is on disk — buffered, unflushed appends are
    /// invisible. Meant for recovery-time reconciliation, where the
    /// writers are empty.
    pub fn coverage(
        &self,
        table: &str,
        synced_hint: Option<(u64, u64)>,
    ) -> DiskResult<TableCoverage> {
        let path = self.table_path(table)?;
        let mut file = match File::open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(TableCoverage::default())
            }
            Err(e) => return Err(DiskError::io(&path, e)),
        };
        let file_len = file.metadata().map_err(|e| DiskError::io(&path, e))?.len();
        let (mut rows, start) = match synced_hint {
            Some((r, b)) if b <= file_len => (r, b),
            _ => (0, 0),
        };
        file.seek(SeekFrom::Start(start))
            .map_err(|e| DiskError::io(&path, e))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| DiskError::io(&path, e))?;
        let mut pos = 0usize;
        let mut valid_len = start;
        while let ReadOutcome::Record(()) = skip_record(&bytes, &mut pos) {
            rows += 1;
            valid_len = start + pos as u64;
        }
        Ok(TableCoverage {
            rows,
            valid_len,
            file_len,
            scanned_bytes: bytes.len() as u64,
        })
    }

    /// Truncate a table's log to `len` bytes — dropping a torn tail so
    /// later appends extend a valid record prefix instead of hiding behind
    /// garbage. Any buffered writer for the table is discarded first.
    pub fn truncate_table(&mut self, table: &str, len: u64) -> DiskResult<()> {
        if let Some(w) = self.writers.remove(table) {
            let _ = w.into_parts();
        }
        let path = self.table_path(table)?;
        let file = match OpenOptions::new().write(true).open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound && len == 0 => return Ok(()),
            Err(e) => return Err(DiskError::io(&path, e)),
        };
        file.set_len(len).map_err(|e| DiskError::io(&path, e))?;
        file.sync_data().map_err(|e| DiskError::io(&path, e))?;
        Ok(())
    }

    /// Atomically replace a table's log with exactly `rows` (expiry: the
    /// oldest blocks were dropped from memory, so the on-disk log must
    /// shrink to the surviving rows to preserve the memory↔disk prefix
    /// correspondence). Durable on return (tmp file + fsync + rename).
    pub fn rewrite_table(&mut self, table: &str, rows: &[Row]) -> DiskResult<()> {
        if let Some(w) = self.writers.remove(table) {
            let _ = w.into_parts();
        }
        let path = self.table_path(table)?;
        let tmp = path.with_extension("rows.tmp");
        let mut buf = Vec::new();
        for row in rows {
            write_record(row, &mut buf);
        }
        let mut file = File::create(&tmp).map_err(|e| DiskError::io(&tmp, e))?;
        file.write_all(&buf).map_err(|e| DiskError::io(&tmp, e))?;
        file.sync_data().map_err(|e| DiskError::io(&tmp, e))?;
        drop(file);
        fs::rename(&tmp, &path).map_err(|e| DiskError::io(&path, e))?;
        Ok(())
    }

    /// Delete a table's log (expiry of an entire table).
    pub fn remove_table(&mut self, table: &str) -> DiskResult<bool> {
        self.writers.remove(table);
        let path = self.table_path(table)?;
        match fs::remove_file(&path) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(DiskError::io(&path, e)),
        }
    }

    /// Total size of the backup on disk.
    pub fn size_bytes(&self) -> DiskResult<u64> {
        let mut total = 0;
        for table in self.tables()? {
            let path = self.table_path(&table)?;
            total += fs::metadata(&path)
                .map_err(|e| DiskError::io(&path, e))?
                .len();
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scuba_columnstore::Value;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "scuba_disk_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn rows(n: i64) -> Vec<Row> {
        (0..n)
            .map(|i| Row::at(i).with("v", i * 2).with("s", format!("r{i}")))
            .collect()
    }

    #[test]
    fn append_sync_recover_round_trip() {
        let dir = tmpdir("rt");
        let mut b = DiskBackup::open(&dir).unwrap();
        b.append("events", &rows(100)).unwrap();
        b.append("metrics", &rows(10)).unwrap();
        assert!(b.dirty_bytes() > 0);
        let synced = b.sync().unwrap();
        assert!(synced > 0);
        assert_eq!(b.dirty_bytes(), 0);

        let (map, stats) = b.recover(999, None).unwrap();
        assert_eq!(stats.tables, 2);
        assert_eq!(stats.rows, 110);
        assert_eq!(stats.torn_tails, 0);
        assert_eq!(map.get("events").unwrap().row_count(), 100);
        assert_eq!(map.get("metrics").unwrap().row_count(), 10);
        // Spot-check data integrity through the columnar rebuild.
        let block = &map.get("events").unwrap().blocks()[0];
        assert_eq!(block.cell(5, "v").unwrap(), Value::Int(10));
        assert_eq!(block.cell(5, "s").unwrap(), Value::from("r5"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn appends_accumulate_across_handles() {
        let dir = tmpdir("acc");
        {
            let mut b = DiskBackup::open(&dir).unwrap();
            b.append("t", &rows(5)).unwrap();
            b.sync().unwrap();
        }
        {
            let mut b = DiskBackup::open(&dir).unwrap();
            b.append("t", &rows(5)).unwrap();
            b.sync().unwrap();
        }
        let b = DiskBackup::open(&dir).unwrap();
        let (map, stats) = b.recover(0, None).unwrap();
        assert_eq!(stats.rows, 10);
        assert_eq!(map.get("t").unwrap().row_count(), 10);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_recovers_prefix() {
        let dir = tmpdir("torn");
        let mut b = DiskBackup::open(&dir).unwrap();
        b.append("t", &rows(50)).unwrap();
        b.sync().unwrap();
        // Simulate a crash mid-append: chop bytes off the end.
        let path = dir.join("t.rows");
        let len = fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 7).unwrap();

        let (map, stats) = b.recover(0, None).unwrap();
        assert_eq!(stats.torn_tails, 1);
        assert_eq!(map.get("t").unwrap().row_count(), 49); // lost exactly the torn row
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn exotic_table_names_round_trip() {
        let dir = tmpdir("names");
        let mut b = DiskBackup::open(&dir).unwrap();
        let weird = "ads.revenue/us-east (v2)";
        b.append(weird, &rows(3)).unwrap();
        b.sync().unwrap();
        assert_eq!(b.tables().unwrap(), vec![weird.to_owned()]);
        let (map, _) = b.recover(0, None).unwrap();
        assert_eq!(map.get(weird).unwrap().row_count(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_table_names_rejected() {
        let dir = tmpdir("bad");
        let mut b = DiskBackup::open(&dir).unwrap();
        assert!(b.append("", &rows(1)).is_err());
        assert!(b.append(&"x".repeat(500), &rows(1)).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn remove_table_deletes_log() {
        let dir = tmpdir("rm");
        let mut b = DiskBackup::open(&dir).unwrap();
        b.append("gone", &rows(2)).unwrap();
        b.sync().unwrap();
        assert!(b.remove_table("gone").unwrap());
        assert!(!b.remove_table("gone").unwrap());
        assert!(b.tables().unwrap().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_of_empty_backup() {
        let dir = tmpdir("empty");
        let b = DiskBackup::open(&dir).unwrap();
        let (map, stats) = b.recover(0, None).unwrap();
        assert!(map.is_empty());
        assert_eq!(stats.rows, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A log translated a window at a time — windows shorter than a
    /// header, than a record, and longer than the log — builds the table
    /// the whole log in one buffer builds, with or without a torn tail, and
    /// reads every byte once.
    #[test]
    fn a_log_read_a_window_at_a_time_translates_as_read_whole() {
        let mut log = Vec::new();
        for i in 0..300i64 {
            let mut row = Row::at(i).with("seq", i);
            if i % 3 != 0 {
                row.set("s", format!("v{}", "x".repeat((i % 40) as usize)));
            }
            write_record(&row, &mut log);
        }
        let rows_of = |t: &Table| {
            let mut t = t.clone();
            t.seal(0).unwrap();
            t.blocks()[0].decode_rows().unwrap()
        };
        for cut in [log.len(), log.len() - 1, log.len() - 30] {
            let bytes = &log[..cut];
            let (mut whole, mut want) = (Table::new("t", 0), RecoveryStats::default());
            translate_log(
                bytes,
                Path::new("t"),
                usize::MAX,
                &mut whole,
                0,
                &mut want,
                None,
            )
            .unwrap();
            assert_eq!(want.rows, if cut == log.len() { 300 } else { 299 });
            assert_eq!(want.torn_tails, usize::from(cut < log.len()));
            for window in [1, 7, 8, 9, 64, 1000, log.len() + 1] {
                let (mut t, mut stats) = (Table::new("t", 0), RecoveryStats::default());
                translate_log(bytes, Path::new("t"), window, &mut t, 0, &mut stats, None).unwrap();
                assert_eq!(
                    (stats.rows, stats.torn_tails),
                    (want.rows, want.torn_tails),
                    "{window}"
                );
                assert_eq!(stats.bytes_read, cut as u64, "{window}");
                assert!(rows_of(&t) == rows_of(&whole), "window {window}, cut {cut}");
            }
        }
    }

    #[test]
    fn coverage_counts_valid_prefix_and_flags_torn_tail() {
        let dir = tmpdir("cov");
        let mut b = DiskBackup::open(&dir).unwrap();
        // Missing file: zero coverage, no error.
        assert_eq!(b.coverage("t", None).unwrap(), TableCoverage::default());
        b.append("t", &rows(50)).unwrap();
        b.sync().unwrap();
        let clean = b.coverage("t", None).unwrap();
        assert_eq!(clean.rows, 50);
        assert_eq!(clean.valid_len, clean.file_len);
        assert_eq!(clean.scanned_bytes, clean.file_len);

        // A trusted hint at the synced boundary skips the whole scan.
        let hinted = b.coverage("t", Some((50, clean.valid_len))).unwrap();
        assert_eq!(hinted.rows, 50);
        assert_eq!(hinted.valid_len, clean.valid_len);
        assert_eq!(hinted.scanned_bytes, 0);
        // A hint past EOF is ignored: full scan, same answer.
        let bogus = b.coverage("t", Some((99, clean.file_len + 1000))).unwrap();
        assert_eq!(bogus.rows, 50);
        assert_eq!(bogus.scanned_bytes, clean.file_len);

        // Tear the tail: coverage reports the valid prefix and the gap.
        let path = dir.join("t.rows");
        let len = fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 7).unwrap();
        drop(f);
        let torn = b.coverage("t", None).unwrap();
        assert_eq!(torn.rows, 49);
        assert!(torn.valid_len < torn.file_len);
        // Hint at a mid-file record boundary: suffix scan agrees.
        let mid = b.coverage("t", Some((49, torn.valid_len))).unwrap();
        assert_eq!(mid.rows, 49);
        assert_eq!(mid.valid_len, torn.valid_len);
        assert!(mid.scanned_bytes < torn.file_len);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncate_table_repairs_torn_tail_for_later_appends() {
        let dir = tmpdir("trunc");
        let mut b = DiskBackup::open(&dir).unwrap();
        b.append("t", &rows(20)).unwrap();
        b.sync().unwrap();
        // Garbage after the valid records: appends would hide behind it.
        let path = dir.join("t.rows");
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0xAB; 13]).unwrap();
        drop(f);
        let cov = b.coverage("t", None).unwrap();
        assert_eq!(cov.rows, 20);
        assert!(cov.valid_len < cov.file_len);
        b.truncate_table("t", cov.valid_len).unwrap();
        b.append("t", &rows(5)).unwrap();
        b.sync().unwrap();
        let (map, stats) = b.recover(0, None).unwrap();
        assert_eq!(stats.torn_tails, 0);
        assert_eq!(map.get("t").unwrap().row_count(), 25);
        // Truncating a missing table to zero is a no-op, not an error.
        b.truncate_table("absent", 0).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rewrite_table_replaces_log_atomically() {
        let dir = tmpdir("rw");
        let mut b = DiskBackup::open(&dir).unwrap();
        b.append("t", &rows(100)).unwrap();
        b.sync().unwrap();
        // Expiry dropped the first 60 rows: the log must shrink to match.
        let keep = rows(100).split_off(60);
        b.rewrite_table("t", &keep).unwrap();
        let cov = b.coverage("t", None).unwrap();
        assert_eq!(cov.rows, 40);
        let (map, _) = b.recover(0, None).unwrap();
        assert_eq!(map.get("t").unwrap().row_count(), 40);
        // Appends after a rewrite extend the new log.
        b.append("t", &rows(3)).unwrap();
        b.sync().unwrap();
        assert_eq!(b.coverage("t", None).unwrap().rows, 43);
        // Rewriting to empty leaves a valid empty log.
        b.rewrite_table("t", &[]).unwrap();
        assert_eq!(b.coverage("t", None).unwrap().rows, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// An append the writer buffers leaves the backup unflushed; a sync,
    /// or an append past the buffer, reaches the file.
    #[test]
    fn flushed_tracks_buffered_bytes_without_flushing() {
        let dir = tmpdir("flushed");
        let mut b = DiskBackup::open(&dir).unwrap();
        assert!(b.flushed());
        b.append("t", &rows(10)).unwrap();
        assert!(!b.flushed());
        assert_eq!(b.file_len("t").unwrap(), 0, "asking flushed flushed");
        b.sync().unwrap();
        assert!(b.flushed());
        let big = rows(5000);
        b.append("t", &big).unwrap();
        assert!(b.flushed(), "an append past the buffer is written through");
        assert_eq!(b.coverage("t", None).unwrap().rows, 5010);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn size_accounting() {
        let dir = tmpdir("size");
        let mut b = DiskBackup::open(&dir).unwrap();
        b.append("t", &rows(100)).unwrap();
        b.sync().unwrap();
        assert!(b.size_bytes().unwrap() > 1000);
        fs::remove_dir_all(&dir).unwrap();
    }
}
