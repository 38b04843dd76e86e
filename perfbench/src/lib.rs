//! Host-speed benchmark of the RXL simulator.
//!
//! One workload runs per process (see `README.md` in this directory for
//! every workload and metric). The binary in `main.rs` sets the workload
//! up from `--seed`, times runner passes for `--seconds`, replays one pass
//! serially to check and count it, and prints the metrics as one JSON
//! object on the last line of standard output.

pub mod digest;
pub mod kernels;
pub mod model;
pub mod probe;
pub mod stats;
pub mod trace;
pub mod workload;
