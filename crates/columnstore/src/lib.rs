//! Column-store substrate for the Scuba fast-restart reproduction.
//!
//! This crate implements the storage engine described in §2.1 of *Fast
//! Database Restarts at Facebook* (SIGMOD 2014):
//!
//! * a [`Table`] is a vector of [`RowBlock`]s plus a header (Figure 2),
//! * a [`RowBlock`] holds up to 65,536 consecutively-arrived rows (capped at
//!   1 GB pre-compression) and contains a header, a [`Schema`], and one
//!   [`RowBlockColumn`] per column,
//! * a [`RowBlockColumn`] is a single contiguous byte buffer whose internal
//!   pointers are all **offsets from its base address** (Figure 3), so the
//!   whole column moves between heap and shared memory with one `memcpy`,
//! * column data is compressed with at least two of: dictionary encoding,
//!   delta encoding, bit packing, and an LZ77-style byte compressor
//!   (the paper uses lz4; we implement our own, see [`encoding::lz`]).
//!
//! Every row carries a required `time` column holding a unix timestamp; row
//! blocks remember the min/max timestamp they contain so queries can skip
//! blocks without reading them (§2.1).

pub mod builder;
pub mod column;
pub mod encoding;
pub mod error;
pub mod leafmap;
pub mod rbc;
pub mod row;
pub mod rowblock;
pub mod scan;
pub mod schema;
pub mod table;
pub mod types;
pub mod zone;

pub use builder::RowBlockBuilder;
pub use column::ColumnData;
pub use error::{Error, Result};
pub use leafmap::LeafMap;
pub use rbc::{ColumnBytes, RowBlockColumn};
pub use row::{Row, RowCells};
pub use rowblock::{ColdRef, RowBlock, RowBlockHeader};
pub use scan::ColumnView;
pub use schema::Schema;
pub use table::{Table, TableHeader};
pub use types::{ColumnType, Value};
pub use zone::{ZoneMap, ZoneStats};

/// Maximum number of rows in a single row block (§2.1: "Each row block
/// contains 65,536 rows that arrived consecutively").
pub const MAX_ROWS_PER_BLOCK: usize = 65_536;

/// Maximum pre-compression size of a row block in bytes (§2.1: "The row
/// block is capped at 1 GB, pre-compression, even if there are fewer than
/// 65K rows").
pub const MAX_BLOCK_BYTES: usize = 1 << 30;

/// Name of the required timestamp column present in every Scuba row (§2.1).
pub const TIME_COLUMN: &str = "time";
