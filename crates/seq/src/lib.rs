//! Sequence substrate for the GPUMEM reproduction.
//!
//! The paper (§II, §III-A) works on genomic sequences over the alphabet
//! `Σ = {A, C, G, T}` and stores them with 2 bits per base
//! (`A = 00, C = 01, G = 10, T = 11`). This crate provides:
//!
//! * [`Base`] / [`alphabet`] — the 4-letter DNA alphabet and its 2-bit
//!   codes, exactly as the paper defines them.
//! * [`PackedSeq`] — a 2-bit-packed immutable DNA sequence with O(1)
//!   random access, word-level longest-common-extension primitives (the
//!   workhorse of every MEM finder in the workspace), and packed k-mer
//!   (seed) extraction for the lightweight index.
//! * [`fasta`] — a minimal FASTA reader/writer with a configurable policy
//!   for ambiguous (non-ACGT) bases.
//! * [`generate`] — synthetic genome and reference/query pair generation
//!   standing in for the real chromosomes of Table II (see DESIGN.md §2
//!   for why the substitution preserves the workload shape).
//! * [`stats`] — seed-occurrence statistics (Figure 6).

pub mod alphabet;
pub mod fasta;
pub mod generate;
pub mod mem;
pub mod multiseq;
pub mod packed;
pub mod stats;

pub use alphabet::{Base, SeqError};
pub use fasta::{read_fasta, write_fasta, AmbigPolicy, FastaRecord};
pub use generate::{table2_pairs, DatasetPair, GenomeModel, MutationModel, PairSpec};
pub use mem::{
    canonicalize, is_maximal_exact, map_reverse_mem, naive_mems, Mem, Strand, StrandMem,
};
pub use multiseq::{RecordSpan, SeqSet};
pub use packed::PackedSeq;
