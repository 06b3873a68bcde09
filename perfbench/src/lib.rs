//! Library half of the benchmark, shared by the binary and its tests.

pub mod alloc;
pub mod archive;
pub mod common;
pub mod counting;
pub mod frames;
pub mod ingest;
pub mod monitor;
