//! The row-oriented on-disk record format.
//!
//! Deliberately row-major: Scuba's disk backup logs incoming row batches,
//! and recovery has to parse every record and push it back through the
//! columnar builder — that *translation* is what makes disk recovery take
//! "2.5-3 hours" against "20-25 minutes" of raw reading (§1). The crash
//! path's WAL batches carry the same records.
//!
//! # Reading
//!
//! One walk checks a record: its frame (length cap, bounds, CRC), then
//! its payload field by field, handing each cell to a sink as a slice of
//! the input. Its three entry points differ only in the sink, so they
//! accept and reject exactly the same bytes:
//!
//! * [`read_cells`] fills a [`RowCells`] whose names borrow from the
//!   input, for [`scuba_columnstore::Table::append_cells`] to move into
//!   the builder — what disk recovery and WAL replay translate through;
//! * [`read_record`] builds an owned [`Row`];
//! * [`skip_record`] keeps nothing: coverage scans count records with it.
//!
//! A record's cells land by [`Row::set`]'s rules whichever sink takes
//! them: a `time` cell sets the timestamp, a name written twice keeps its
//! last value, and a string set is sorted and deduplicated.
//!
//! # Record layout
//!
//! ```text
//! u32 record length (bytes after this field)
//! u32 crc32 of the payload
//! payload:
//!   i64 time
//!   u16 column count
//!   per column: u16 name length | name bytes | u8 type code | value
//!     value: Int64/Double = 8 bytes LE; Str = u32 length + bytes
//! ```

use scuba_checksum::crc32;
use scuba_columnstore::{ColumnType, Row, RowCells, Value};

/// Maximum sane record size; larger length prefixes are treated as
/// corruption (a torn length field could otherwise ask for gigabytes).
pub const MAX_RECORD: usize = 64 << 20;

/// Serialize one row as a length-prefixed, checksummed record.
pub fn write_record(row: &Row, out: &mut Vec<u8>) {
    let mut payload = Vec::with_capacity(row.heap_size() + 16);
    payload.extend_from_slice(&row.time().to_le_bytes());
    payload.extend_from_slice(&(row.num_columns() as u16).to_le_bytes());
    for (name, value) in row.columns() {
        payload.extend_from_slice(&(name.len() as u16).to_le_bytes());
        payload.extend_from_slice(name.as_bytes());
        match value {
            Value::Int(v) => {
                payload.push(ColumnType::Int64.code());
                payload.extend_from_slice(&v.to_le_bytes());
            }
            Value::Double(v) => {
                payload.push(ColumnType::Double.code());
                payload.extend_from_slice(&v.to_le_bytes());
            }
            Value::Str(s) => {
                payload.push(ColumnType::Str.code());
                payload.extend_from_slice(&(s.len() as u32).to_le_bytes());
                payload.extend_from_slice(s.as_bytes());
            }
            Value::StrSet(items) => {
                payload.push(ColumnType::StrSet.code());
                payload.extend_from_slice(&(items.len() as u32).to_le_bytes());
                for item in items {
                    payload.extend_from_slice(&(item.len() as u32).to_le_bytes());
                    payload.extend_from_slice(item.as_bytes());
                }
            }
            Value::Null => unreachable!("rows never store nulls"),
        }
    }
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    // Failpoint producing a crash-torn record: full header, truncated
    // payload — what a power cut mid-append leaves in the log. Recovery
    // must detect it by CRC and drop exactly this record.
    if let Some(fault) = scuba_faults::check("diskstore::rowformat::record") {
        let keep = match fault {
            scuba_faults::Fault::ShortWrite(n) => n.min(payload.len()),
            scuba_faults::Fault::Error => 0,
        };
        out.extend_from_slice(&payload[..keep]);
        return;
    }
    out.extend_from_slice(&payload);
}

/// Outcome of reading one record. `T` is what a record yields: a [`Row`]
/// from [`read_record`], nothing from [`read_cells`] (the cells went into
/// the caller's [`RowCells`]) and [`skip_record`].
#[derive(Debug, PartialEq)]
pub enum ReadOutcome<T = Row> {
    /// A full record parsed; cursor advanced past it.
    Record(T),
    /// Clean end of input (no bytes left).
    End,
    /// Truncated or corrupt data at the tail; carries the reason. Callers
    /// treat this as a crash-torn tail and stop (§4.1).
    Torn(String),
}

/// Read one record from `buf` at `*pos` as a [`Row`], advancing `*pos` on
/// success.
pub fn read_record(buf: &[u8], pos: &mut usize) -> ReadOutcome {
    let mut row = Row::at(0);
    match walk_record(buf, pos, &mut row) {
        ReadOutcome::Record(()) => ReadOutcome::Record(row),
        ReadOutcome::End => ReadOutcome::End,
        ReadOutcome::Torn(why) => ReadOutcome::Torn(why),
    }
}

/// How many bytes from the start of `buf` the record there spans, as far
/// as its header says: 8 until the header is whole, then the header plus
/// the payload it names (just the header for a length past
/// [`MAX_RECORD`], which is torn however many bytes follow). A reader
/// holding fewer cannot yet tell a whole record from a torn one.
pub fn record_span(buf: &[u8]) -> usize {
    match buf.get(..4) {
        Some(len) if buf.len() >= 8 => {
            let len = u32::from_le_bytes(len.try_into().unwrap()) as usize;
            if len > MAX_RECORD {
                8
            } else {
                8 + len
            }
        }
        _ => 8,
    }
}

/// Read one record from `buf` at `*pos` into `cells`, advancing `*pos` on
/// success: the names stay borrowed from `buf`, and only values are
/// allocated. Accepts exactly what [`read_record`] accepts, and `cells`
/// then holds that row's columns; after a torn one, whatever the walk read
/// before the tear.
pub fn read_cells<'a>(buf: &'a [u8], pos: &mut usize, cells: &mut RowCells<'a>) -> ReadOutcome<()> {
    walk_record(buf, pos, cells)
}

/// Validate one record at `*pos` and advance past it, allocating nothing
/// for a valid one. Accepts exactly what [`read_record`] accepts, so the
/// records a coverage scan counts are the ones recovery will read.
pub fn skip_record(buf: &[u8], pos: &mut usize) -> ReadOutcome<()> {
    walk_record(buf, pos, &mut ())
}

/// One cell of a record payload, borrowed from it.
#[derive(Clone, Copy)]
enum Cell<'a> {
    Int(i64),
    Double(f64),
    Str(&'a str),
    /// `count` elements, each `u32 length | UTF-8 bytes`, already checked.
    StrSet(usize, &'a [u8]),
}

impl Cell<'_> {
    fn into_value(self) -> Value {
        match self {
            Cell::Int(v) => Value::Int(v),
            Cell::Double(v) => Value::Double(v),
            Cell::Str(s) => Value::Str(s.to_owned()),
            Cell::StrSet(count, items) => {
                let mut items = Cursor { buf: items, pos: 0 };
                Value::set((0..count).map(|_| {
                    items
                        .str("set element")
                        .expect("the walk checked each element")
                }))
            }
        }
    }
}

/// What the payload walk hands a record's timestamp and cells to.
trait CellSink<'a> {
    fn time(&mut self, time: i64);
    fn cell(&mut self, name: &'a str, cell: Cell<'a>);
}

/// No sink: [`skip_record`].
impl CellSink<'_> for () {
    fn time(&mut self, _: i64) {}
    fn cell(&mut self, _: &str, _: Cell<'_>) {}
}

impl CellSink<'_> for Row {
    fn time(&mut self, time: i64) {
        *self = Row::at(time);
    }
    fn cell(&mut self, name: &str, cell: Cell<'_>) {
        self.set(name, cell.into_value());
    }
}

impl<'a> CellSink<'a> for RowCells<'a> {
    fn time(&mut self, time: i64) {
        self.reset(time);
    }
    fn cell(&mut self, name: &'a str, cell: Cell<'a>) {
        self.set(name, cell.into_value());
    }
}

/// Check the frame of the record at `*pos` (length cap, bounds, CRC), walk
/// its payload into `sink`, and advance `*pos` past it.
fn walk_record<'a>(
    buf: &'a [u8],
    pos: &mut usize,
    sink: &mut impl CellSink<'a>,
) -> ReadOutcome<()> {
    let p = *pos;
    if p == buf.len() {
        return ReadOutcome::End;
    }
    if buf.len().saturating_sub(p) < 8 {
        return ReadOutcome::Torn("record header truncated".to_owned());
    }
    let len = u32::from_le_bytes(buf[p..p + 4].try_into().unwrap()) as usize;
    let stored_crc = u32::from_le_bytes(buf[p + 4..p + 8].try_into().unwrap());
    if len > MAX_RECORD {
        return ReadOutcome::Torn(format!("record length {len} exceeds cap"));
    }
    if buf.len() - p - 8 < len {
        return ReadOutcome::Torn("record payload truncated".to_owned());
    }
    let payload = &buf[p + 8..p + 8 + len];
    if crc32(payload) != stored_crc {
        return ReadOutcome::Torn("record checksum mismatch".to_owned());
    }
    match walk_payload(payload, sink) {
        Ok(()) => {
            *pos = p + 8 + len;
            ReadOutcome::Record(())
        }
        Err(reason) => ReadOutcome::Torn(reason),
    }
}

/// The one structural walk of a record payload: every check any reader
/// applies, in one order, handing each cell to `sink` as it is checked.
fn walk_payload<'a>(payload: &'a [u8], sink: &mut impl CellSink<'a>) -> Result<(), String> {
    let mut c = Cursor {
        buf: payload,
        pos: 0,
    };
    sink.time(i64::from_le_bytes(c.array()?));
    let ncols = u16::from_le_bytes(c.array()?);
    for _ in 0..ncols {
        let name_len = usize::from(u16::from_le_bytes(c.array()?));
        let name = utf8(c.take(name_len)?, "column name")?;
        let [code] = c.array()?;
        let ty = ColumnType::from_code(code).ok_or_else(|| format!("bad type code {code}"))?;
        let cell = match ty {
            ColumnType::Int64 => Cell::Int(i64::from_le_bytes(c.array()?)),
            ColumnType::Double => Cell::Double(f64::from_le_bytes(c.array()?)),
            ColumnType::Str => Cell::Str(c.str("string value")?),
            ColumnType::StrSet => {
                let count = c.u32_len()?;
                if count > payload.len() {
                    return Err("set element count exceeds payload".to_owned());
                }
                let start = c.pos;
                for _ in 0..count {
                    c.str("set element")?;
                }
                Cell::StrSet(count, &payload[start..c.pos])
            }
        };
        sink.cell(name, cell);
    }
    if c.pos != payload.len() {
        return Err("trailing bytes in record payload".to_owned());
    }
    Ok(())
}

/// Bounds-checked reads off a record payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.buf.len() - self.pos < n {
            return Err("payload truncated".to_owned());
        }
        self.pos += n;
        Ok(&self.buf[self.pos - n..self.pos])
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], String> {
        Ok(self.take(N)?.try_into().expect("took N bytes"))
    }

    /// A `u32 length | UTF-8 bytes` string; `what` names it in the error.
    fn str(&mut self, what: &str) -> Result<&'a str, String> {
        let len = self.u32_len()?;
        utf8(self.take(len)?, what)
    }

    fn u32_len(&mut self) -> Result<usize, String> {
        Ok(u32::from_le_bytes(self.array()?) as usize)
    }
}

fn utf8<'a>(bytes: &'a [u8], what: &str) -> Result<&'a str, String> {
    std::str::from_utf8(bytes).map_err(|_| format!("{what} is not UTF-8"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_row() -> Row {
        Row::at(1_700_000_123)
            .with("endpoint", "/api/feed")
            .with("status", 200i64)
            .with("latency_ms", 12.75f64)
    }

    /// [`read_cells`] with its cells gathered into a [`Row`], so its result
    /// compares with [`read_record`]'s.
    fn read_via_cells(buf: &[u8], pos: &mut usize) -> ReadOutcome {
        let mut cells = RowCells::default();
        match read_cells(buf, pos, &mut cells) {
            ReadOutcome::Record(()) => {
                let mut row = Row::at(cells.time());
                for (name, value) in cells.columns() {
                    row.set(name, value.clone());
                }
                ReadOutcome::Record(row)
            }
            ReadOutcome::End => ReadOutcome::End,
            ReadOutcome::Torn(why) => ReadOutcome::Torn(why),
        }
    }

    /// Read `buf` record by record through every entry point at once: they
    /// must agree on every outcome and every cursor, [`read_cells`] must
    /// hold [`read_record`]'s row, and an end or a tear must leave the
    /// cursor where the record began. Returns the rows, how it ended, and
    /// the final cursor.
    fn read_all_agreeing(buf: &[u8], what: &str) -> (Vec<Row>, ReadOutcome, usize) {
        let (mut rp, mut cp, mut sp) = (0usize, 0usize, 0usize);
        let mut rows = Vec::new();
        loop {
            let before = rp;
            let r = read_record(buf, &mut rp);
            let c = read_via_cells(buf, &mut cp);
            let s = skip_record(buf, &mut sp);
            assert_eq!(
                r,
                c,
                "{what}: read_cells diverged after {} rows",
                rows.len()
            );
            let same = matches!(
                (&r, &s),
                (ReadOutcome::Record(_), ReadOutcome::Record(()))
                    | (ReadOutcome::End, ReadOutcome::End)
                    | (ReadOutcome::Torn(_), ReadOutcome::Torn(_))
            );
            assert!(same, "{what}: read={r:?} skip={s:?}");
            assert_eq!((rp, rp), (cp, sp), "{what}: cursor divergence");
            match r {
                ReadOutcome::Record(row) => rows.push(row),
                end => {
                    assert_eq!(rp, before, "{what}: cursor moved on {end:?}");
                    return (rows, end, rp);
                }
            }
        }
    }

    /// One record framed by hand: `payload` with its length and CRC.
    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = (payload.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    /// A payload no [`Row`] writes: an unsorted `StrSet` with a repeated
    /// element, a `time` cell, and a name set twice with two types.
    fn hand_built_payload() -> Vec<u8> {
        let mut p = 10i64.to_le_bytes().to_vec();
        p.extend_from_slice(&4u16.to_le_bytes());
        let name = |p: &mut Vec<u8>, n: &str, ty: ColumnType| {
            p.extend_from_slice(&(n.len() as u16).to_le_bytes());
            p.extend_from_slice(n.as_bytes());
            p.push(ty.code());
        };
        name(&mut p, "tags", ColumnType::StrSet);
        p.extend_from_slice(&3u32.to_le_bytes());
        for item in ["zeta", "alpha", "zeta"] {
            p.extend_from_slice(&(item.len() as u32).to_le_bytes());
            p.extend_from_slice(item.as_bytes());
        }
        name(&mut p, "dup", ColumnType::Int64);
        p.extend_from_slice(&7i64.to_le_bytes());
        name(&mut p, "time", ColumnType::Int64);
        p.extend_from_slice(&99i64.to_le_bytes());
        name(&mut p, "dup", ColumnType::Str);
        p.extend_from_slice(&4u32.to_le_bytes());
        p.extend_from_slice(b"last");
        p
    }

    #[test]
    fn record_round_trip() {
        let row = sample_row();
        let mut buf = Vec::new();
        write_record(&row, &mut buf);
        let mut pos = 0;
        match read_record(&buf, &mut pos) {
            ReadOutcome::Record(back) => assert_eq!(back, row),
            other => panic!("unexpected outcome: {other:?}"),
        }
        assert_eq!(pos, buf.len());
        assert_eq!(read_record(&buf, &mut pos), ReadOutcome::End);
        let (rows, end, pos) = read_all_agreeing(&buf, "round trip");
        assert_eq!((rows, end, pos), (vec![row], ReadOutcome::End, buf.len()));
    }

    #[test]
    fn many_records_stream() {
        let mut buf = Vec::new();
        let rows: Vec<Row> = (0..200)
            .map(|i| Row::at(i).with("n", i * 3).with("s", format!("v{i}")))
            .collect();
        for r in &rows {
            write_record(r, &mut buf);
        }
        let mut pos = 0;
        let mut back = Vec::new();
        loop {
            match read_record(&buf, &mut pos) {
                ReadOutcome::Record(r) => back.push(r),
                ReadOutcome::End => break,
                ReadOutcome::Torn(r) => panic!("torn: {r}"),
            }
        }
        assert_eq!(back, rows);
        assert_eq!(read_all_agreeing(&buf, "stream").0, rows);
    }

    /// Every truncation point inside a record tears it, at every entry
    /// point, without moving the cursor.
    #[test]
    fn torn_tail_detected_not_panicking() {
        let mut buf = Vec::new();
        write_record(&sample_row(), &mut buf);
        for cut in 1..buf.len() {
            let (rows, end, pos) = read_all_agreeing(&buf[..cut], &format!("cut={cut}"));
            assert!(rows.is_empty(), "cut={cut}: {rows:?}");
            assert!(matches!(end, ReadOutcome::Torn(_)), "cut={cut}: {end:?}");
            assert_eq!(pos, 0, "cursor must not advance on torn record");
        }
    }

    /// Every single-bit flip past the length word fails the CRC at every
    /// entry point.
    #[test]
    fn bit_flip_detected_by_crc() {
        let mut buf = Vec::new();
        write_record(&sample_row(), &mut buf);
        for i in 8..buf.len() {
            let mut copy = buf.clone();
            copy[i] ^= 0x01;
            let (rows, end, pos) = read_all_agreeing(&copy, &format!("flip@{i}"));
            assert!(
                rows.is_empty() && matches!(end, ReadOutcome::Torn(_)) && pos == 0,
                "flip at {i} undetected"
            );
        }
    }

    #[test]
    fn absurd_length_rejected() {
        let mut buf = vec![0xFF, 0xFF, 0xFF, 0x7F]; // ~2 GB length
        buf.extend_from_slice(&[0u8; 12]);
        let (rows, end, pos) = read_all_agreeing(&buf, "absurd length");
        assert!(rows.is_empty() && matches!(end, ReadOutcome::Torn(_)) && pos == 0);
    }

    /// The entry points agree on every input this suite can construct:
    /// valid streams, every truncation cut, every bit flip.
    #[test]
    fn skip_agrees_with_read_everywhere() {
        let mut buf = Vec::new();
        let rows: Vec<Row> = (0..20)
            .map(|i| {
                Row::at(i)
                    .with("n", i * 3)
                    .with("s", format!("v{i}"))
                    .with("tags", Value::set(vec![format!("a{i}"), "b".to_owned()]))
            })
            .collect();
        for r in &rows {
            write_record(r, &mut buf);
        }
        let (back, end, pos) = read_all_agreeing(&buf, "valid");
        assert_eq!((back, end, pos), (rows, ReadOutcome::End, buf.len()));
        for cut in 0..buf.len() {
            read_all_agreeing(&buf[..cut], &format!("cut={cut}"));
        }
        for i in (0..buf.len()).step_by(7) {
            let mut copy = buf.clone();
            copy[i] ^= 0x10;
            read_all_agreeing(&copy, &format!("flip@{i}"));
        }
    }

    /// The structural walk under inputs whose frame is valid: each cut
    /// and each bit flip of a payload, reframed with a fresh length and
    /// CRC so only the walk can reject it. No entry point may panic, and
    /// each must reject or give `read_record`'s cells.
    #[test]
    fn reframed_cuts_and_flips_reach_the_walk_and_agree() {
        let mut payloads = vec![hand_built_payload()];
        for row in [
            sample_row(),
            Row::at(3).with("tags", Value::set(["b", "a"])),
        ] {
            let mut buf = Vec::new();
            write_record(&row, &mut buf);
            payloads.push(buf[8..].to_vec());
        }
        for payload in &payloads {
            for cut in 0..payload.len() {
                read_all_agreeing(&frame(&payload[..cut]), &format!("reframed cut={cut}"));
            }
            for i in 0..payload.len() {
                for bit in 0..8 {
                    let mut copy = payload.clone();
                    copy[i] ^= 1 << bit;
                    read_all_agreeing(&frame(&copy), &format!("reframed flip@{i}.{bit}"));
                }
            }
        }
    }

    /// What a hand-built record means: `Row::set`'s rules, cell by cell.
    #[test]
    fn hand_built_record_reads_as_row_set_would_build_it() {
        let buf = frame(&hand_built_payload());
        let (rows, end, pos) = read_all_agreeing(&buf, "hand-built");
        assert_eq!((end, pos), (ReadOutcome::End, buf.len()));
        let expected = Row::at(99)
            .with("tags", Value::set(["alpha", "zeta"]))
            .with("dup", "last");
        assert_eq!(rows, vec![expected]);
        let names: Vec<&str> = rows[0].columns().map(|(n, _)| n).collect();
        assert_eq!(
            names,
            ["tags", "dup"],
            "a name set twice keeps its first position"
        );
    }

    #[test]
    fn empty_row_round_trips() {
        let row = Row::at(5);
        let mut buf = Vec::new();
        write_record(&row, &mut buf);
        let mut pos = 0;
        match read_record(&buf, &mut pos) {
            ReadOutcome::Record(back) => {
                assert_eq!(back.time(), 5);
                assert_eq!(back.num_columns(), 0);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(read_all_agreeing(&buf, "empty").0, vec![row]);
    }
}
