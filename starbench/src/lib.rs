//! STAR's end-to-end and per-layer benchmark.
//!
//! Two workloads (see `README.md`), `ycsb-x10` and `tpcc-x50-wal`, each run
//! one in-process `StarEngine`. With tracing off a run reports the
//! end-to-end metrics; a traced run reports per-layer metrics, timed from
//! outside around calls into each layer's public functions and read from
//! process counters, and adds the wire layers measured on a three-node TCP
//! cluster.

#![warn(missing_docs)]

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("starbench reads /proc and calls getrusage with the 64-bit Linux layout");

pub mod cluster;
pub mod deploy;
pub mod inproc;
pub mod layers;
pub mod metrics;
pub mod procfs;
pub mod spans;
pub mod stats;
