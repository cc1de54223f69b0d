//! Minimal FASTA reading and writing.
//!
//! Real MEM tools ingest chromosomes as FASTA. Genomic FASTA routinely
//! contains ambiguity codes (`N` runs at centromeres/telomeres), which a
//! 2-bit alphabet cannot represent; [`AmbigPolicy`] selects what the
//! loader does with them, mirroring the choices real tools make (MUMmer
//! replaces, sparseMEM masks).

use std::io::{BufRead, Write};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::alphabet::{Base, SeqError};
use crate::packed::PackedSeq;

/// What to do with non-ACGT bytes inside FASTA sequence lines. ASCII
/// whitespace is not one of them: it is skipped under every policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AmbigPolicy {
    /// Fail with [`SeqError::InvalidBase`].
    Error,
    /// Drop the byte (shifts downstream coordinates; fine for synthetic
    /// workloads, documented as such).
    Skip,
    /// Replace with a deterministic pseudo-random base drawn from the
    /// given seed. This keeps coordinates intact, like MUMmer's handling.
    Randomize(u64),
}

/// One FASTA record: header (without `>`) plus packed sequence.
#[derive(Clone, Debug)]
pub struct FastaRecord {
    /// Header text after `>` up to the first newline.
    pub header: String,
    /// The packed sequence.
    pub seq: PackedSeq,
}

/// Read all records from a FASTA stream.
pub fn read_fasta<R: BufRead>(
    reader: R,
    policy: AmbigPolicy,
) -> Result<Vec<FastaRecord>, SeqError> {
    let mut records: Vec<FastaRecord> = Vec::new();
    let mut header: Option<String> = None;
    let mut codes: Vec<u8> = Vec::new();
    let mut rng = match policy {
        AmbigPolicy::Randomize(seed) => Some(StdRng::seed_from_u64(seed)),
        _ => None,
    };
    let mut pos = 0usize;

    let flush =
        |header: &mut Option<String>, codes: &mut Vec<u8>, records: &mut Vec<FastaRecord>| {
            if let Some(h) = header.take() {
                records.push(FastaRecord {
                    header: h,
                    seq: PackedSeq::from_codes(codes),
                });
                codes.clear();
            }
        };

    for line in reader.lines() {
        let line = line.map_err(|e| SeqError::MalformedFasta(e.to_string()))?;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(h) = line.strip_prefix('>') {
            flush(&mut header, &mut codes, &mut records);
            header = Some(h.trim().to_string());
        } else {
            if header.is_none() {
                return Err(SeqError::MalformedFasta(
                    "sequence data before any '>' header".into(),
                ));
            }
            for &byte in line.as_bytes() {
                // Whitespace inside a sequence line is layout, not
                // sequence: it neither becomes a base nor counts in `pos`.
                if byte.is_ascii_whitespace() {
                    continue;
                }
                match Base::from_ascii(byte) {
                    Some(base) => codes.push(base.code()),
                    None => match policy {
                        AmbigPolicy::Error => {
                            return Err(SeqError::InvalidBase { pos, byte });
                        }
                        AmbigPolicy::Skip => {}
                        AmbigPolicy::Randomize(_) => {
                            let r = rng.as_mut().expect("rng present for Randomize");
                            codes.push(r.gen_range(0u8..4));
                        }
                    },
                }
                pos += 1;
            }
        }
    }
    flush(&mut header, &mut codes, &mut records);
    Ok(records)
}

/// Write records as FASTA with 70-column sequence lines.
pub fn write_fasta<W: Write>(mut writer: W, records: &[FastaRecord]) -> std::io::Result<()> {
    for record in records {
        writeln!(writer, ">{}", record.header)?;
        let ascii = record.seq.to_ascii();
        for chunk in ascii.chunks(70) {
            writer.write_all(chunk)?;
            writer.write_all(b"\n")?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = ">chr_test description here\nACGTACGT\nacgt\n>second\nTTTT\n";

    #[test]
    fn parses_multiple_records() {
        let records = read_fasta(SAMPLE.as_bytes(), AmbigPolicy::Error).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].header, "chr_test description here");
        assert_eq!(records[0].seq.to_ascii(), b"ACGTACGTACGT");
        assert_eq!(records[1].header, "second");
        assert_eq!(records[1].seq.to_ascii(), b"TTTT");
    }

    #[test]
    fn error_policy_rejects_n() {
        let err = read_fasta(">x\nACGNA\n".as_bytes(), AmbigPolicy::Error).unwrap_err();
        assert!(matches!(err, SeqError::InvalidBase { byte: b'N', .. }));
    }

    #[test]
    fn skip_policy_drops_ambiguous() {
        let records = read_fasta(">x\nACGNNNTA\n".as_bytes(), AmbigPolicy::Skip).unwrap();
        assert_eq!(records[0].seq.to_ascii(), b"ACGTA");
    }

    #[test]
    fn randomize_policy_keeps_length_and_is_deterministic() {
        let a = read_fasta(">x\nACGNNNTA\n".as_bytes(), AmbigPolicy::Randomize(7)).unwrap();
        let b = read_fasta(">x\nACGNNNTA\n".as_bytes(), AmbigPolicy::Randomize(7)).unwrap();
        assert_eq!(a[0].seq.len(), 8);
        assert_eq!(a[0].seq.to_ascii(), b[0].seq.to_ascii());
        assert_eq!(&a[0].seq.to_ascii()[..3], b"ACG");
    }

    #[test]
    fn whitespace_inside_sequence_lines_is_skipped_under_every_policy() {
        let text = ">x\nACGT ACGT\n\tAC\tGT \n";
        for policy in [
            AmbigPolicy::Error,
            AmbigPolicy::Skip,
            AmbigPolicy::Randomize(3),
        ] {
            let records = read_fasta(text.as_bytes(), policy).unwrap();
            assert_eq!(records[0].seq.to_ascii(), b"ACGTACGTACGT", "{policy:?}");
        }
        // Positions count sequence bytes only.
        let err = read_fasta(">x\nAC G\tN\n".as_bytes(), AmbigPolicy::Error).unwrap_err();
        assert!(matches!(err, SeqError::InvalidBase { pos: 3, byte: b'N' }));
    }

    #[test]
    fn data_before_header_is_malformed() {
        let err = read_fasta("ACGT\n>x\nACGT\n".as_bytes(), AmbigPolicy::Error).unwrap_err();
        assert!(matches!(err, SeqError::MalformedFasta(_)));
    }

    #[test]
    fn empty_input_yields_no_records() {
        let records = read_fasta("".as_bytes(), AmbigPolicy::Error).unwrap();
        assert!(records.is_empty());
    }

    #[test]
    fn round_trip_write_read() {
        let records = vec![FastaRecord {
            header: "roundtrip".into(),
            seq: PackedSeq::from_ascii(&(0..200).map(|i| b"ACGT"[i % 4]).collect::<Vec<_>>())
                .unwrap(),
        }];
        let mut buf = Vec::new();
        write_fasta(&mut buf, &records).unwrap();
        let parsed = read_fasta(buf.as_slice(), AmbigPolicy::Error).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].header, "roundtrip");
        assert_eq!(parsed[0].seq.to_ascii(), records[0].seq.to_ascii());
    }
}
