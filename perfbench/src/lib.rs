//! The benchmark's parts; `main.rs` is the command line around them.

pub mod check;
pub mod compare;
pub mod gen;
pub mod json;
pub mod ledger;
pub mod maps;
pub mod store;
pub mod trace;
pub mod workload;
