//! From-scratch Rust implementations of the four CPU tools the paper
//! compares GPUMEM against (§IV-B):
//!
//! | Tool | Index | Search | Parallel |
//! |---|---|---|---|
//! | [`SparseMem`] | sparse suffix array (sparseness `K`) | depth-`(L−K+1)` interval + LCE extension | τ-thread query partitioning; `K` coupled to τ as in the original tool |
//! | [`EssaMem`] | sparse SA + prefix lookup table | same, table-accelerated | τ-thread query partitioning, `K` fixed |
//! | [`Mummer`] | full suffix array (SA-IS) | depth-`L` interval + LCE extension | sequential, as in Table III/IV |
//! | [`SlaMem`] | FM-index (BWT, Occ, sampled SA) | backward search + locate + LCE extension | sequential |
//!
//! All four produce the *identical canonical MEM set* — verified
//! against the ground-truth [`gpumem_seq::naive_mems`] and against each
//! other by property tests — so Tables III/IV compare equal work.
//!
//! Substrates: [`sa`] (SA-IS, the one full suffix-array builder;
//! sampled suffix sorts; Kasai LCP) and [`fm`] (FM-index).

//! Extensions beyond the tables: [`strands`] adds both-strand matching
//! (the `-b` mode of the original tools) and [`variants`] implements
//! the unique/rare match classes the paper's §V names as future work.

pub mod common;
pub mod essa_mem;
pub mod fm;
pub mod mummer;
pub mod parallel;
pub mod sa;
pub mod sla_mem;
pub mod sparse_mem;
pub mod strands;
pub mod variants;

pub use common::MemFinder;
pub use essa_mem::EssaMem;
pub use mummer::Mummer;
pub use parallel::find_mems_parallel;
pub use sla_mem::SlaMem;
pub use sparse_mem::SparseMem;
pub use strands::{find_mems_both_strands, is_strand_mem_exact};
pub use variants::VariantFilter;
