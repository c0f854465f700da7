//! `snowprune-exec`: a vectorized-ish, pipelining execution engine with the
//! paper's runtime pruning hooks: deferred filter pruning, join pruning via
//! sideways information passing, and boundary-driven top-k pruning, over
//! sequential or shared-pool morsel-parallel (virtual-warehouse style)
//! scans. Every scan runs through the async prefetch pipeline in `scan.rs`
//! (up to `ExecConfig::prefetch_depth` partition loads in flight per lane,
//! with completion-time pruning re-checks that cancel in-flight loads
//! free). See `pool.rs` for the worker model and `session.rs` for the
//! multi-query driver.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod agg;
pub mod config;
pub mod exec;
pub mod pool;
pub mod rows;
pub mod scan;
pub mod session;
pub mod vector;

pub use admission::{Admission, AdmissionRun, TenantId, TenantStats};
pub use config::{
    admission_queue_cap_from_env, batch_rows_from_env, predicate_cache_from_env,
    predicate_cache_mode_from_env, prefetch_depth_from_env, scan_threads_from_env,
    tenant_max_concurrent_from_env, ExecConfig, PredicateCacheMode,
};
pub use exec::{CacheOutcome, ExecReport, Executor, QueryOutput};
pub use pool::{MorselPool, QueryId, ScanJobSpec, ScanTicket};
pub use rows::RowSet;
pub use scan::{CompiledScan, ScanHooks, ScanRunStats};
pub use session::Session;
pub use snowprune_analyze::{CacheReport, CacheShape};
pub use vector::{Batch, BatchChain};
