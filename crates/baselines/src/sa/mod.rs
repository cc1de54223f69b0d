//! Suffix-array machinery shared by the CPU baselines.

pub mod doubling;
pub mod lcp;
pub mod sais;

pub use doubling::{compare_suffixes, sort_sampled_suffixes};
pub use lcp::lcp_kasai;
pub use sais::suffix_array_sais;
