//! # flexrel-bench
//!
//! Experiment harness for the flexrel reproduction: shared workload
//! construction and table printing used both by the Criterion benches (in
//! `benches/`) and by the `harness` binary that regenerates every experiment
//! row of EXPERIMENTS.md.

pub mod compare;
pub mod driver;
pub mod experiments;
pub mod oracle;
pub mod report;

pub use compare::{compare_dirs, Comparison};
pub use driver::{run_driver, DriverConfig, DriverReport};
pub use report::{Headline, Table};
