//! Query engine for the Scuba fast-restart reproduction.
//!
//! Scuba queries are "interactive, ad hoc, analysis queries ... typically
//! run in under a second over GBs of data" (§1): aggregations with
//! filters, almost always carrying a time predicate that drives row-block
//! pruning (§2.1). The engine is split the way Figure 1 splits it:
//!
//! * [`plan`] — shared block selection: time-range pruning plus per-block
//!   zone-map (min/max) pruning on filter columns.
//! * [`exec`] — row-wise leaf-local execution: decode the touched columns
//!   of surviving blocks, filter, group, aggregate. Kept as the
//!   differential oracle for the vectorized path.
//! * [`vectorized`] — the production scan path: columnar filter kernels
//!   over in-place [`scuba_columnstore::ColumnView`]s and selection
//!   vectors, a slot-indexed typed fold (no `Value` per row), and block
//!   headers answering the time range where they can. Its unit is one
//!   block ([`scan_block`] → [`BlockPartial`]); partials merge in block
//!   order ([`PartialMerge`]), in both executors.
//! * [`partial`] — aggregator-side merging: "Scuba can and does return
//!   partial query results when not all servers are available" (§1), so a
//!   merged result carries the fraction of leaves that contributed.

pub mod agg;
pub mod exec;
pub mod expr;
pub mod histogram;
pub mod parse;
pub mod partial;
pub mod plan;
pub mod query;
pub mod vectorized;

pub use agg::{AggSpec, AggState, DistinctValue};
pub use exec::{execute, BlockPartial, LeafQueryResult, PartialMerge};
pub use expr::{CmpOp, Filter};
pub use histogram::LogHistogram;
pub use parse::{parse_query, ParseError};
pub use partial::{merge_partials, MergedResult};
pub use plan::{plan_scan, PlannedBlock, ScanPlan};
pub use query::{GroupKey, Query};
pub use vectorized::{execute_vectorized, scan_block, ScanCounts};
