//! Multi-record sequence sets.
//!
//! Real FASTA inputs carry many records (chromosomes, contigs, reads).
//! [`SeqSet`] holds a file's records as one concatenation with each
//! record's name and span. The engine runs each query record on its own
//! ([`SeqSet::record_seq`]), so no match ever spans two records.

use crate::fasta::FastaRecord;
use crate::packed::PackedSeq;

/// One record's placement inside the concatenation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecordSpan {
    /// Record name (FASTA header).
    pub name: String,
    /// Start offset in the concatenated sequence.
    pub start: usize,
    /// Record length.
    pub len: usize,
}

/// A concatenated multi-record sequence with coordinate bookkeeping.
#[derive(Clone, Debug)]
pub struct SeqSet {
    /// The concatenated sequence.
    pub seq: PackedSeq,
    /// Record spans, in concatenation order.
    pub records: Vec<RecordSpan>,
}

impl SeqSet {
    /// Concatenate FASTA records.
    pub fn from_records(records: &[FastaRecord]) -> SeqSet {
        let mut codes = Vec::new();
        let mut spans = Vec::with_capacity(records.len());
        for record in records {
            spans.push(RecordSpan {
                name: record.header.clone(),
                start: codes.len(),
                len: record.seq.len(),
            });
            codes.extend(record.seq.to_codes());
        }
        SeqSet {
            seq: PackedSeq::from_codes(&codes),
            records: spans,
        }
    }

    /// Total concatenated length.
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// `true` when there are no bases.
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }

    /// Extract record `idx` as its own [`PackedSeq`] (the batch engine
    /// runs each query record independently).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn record_seq(&self, idx: usize) -> PackedSeq {
        let span = &self.records[idx];
        self.seq
            .subseq(span.start, span.len)
            .expect("record span lies within the concatenation")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set() -> SeqSet {
        SeqSet::from_records(&[
            FastaRecord {
                header: "chrA".into(),
                seq: "ACGTACGTAC".parse().unwrap(), // 0..10
            },
            FastaRecord {
                header: "chrB".into(),
                seq: "GGGG".parse().unwrap(), // 10..14
            },
            FastaRecord {
                header: "chrC".into(),
                seq: "TTTTTTTT".parse().unwrap(), // 14..22
            },
        ])
    }

    #[test]
    fn concatenation_and_spans() {
        let set = set();
        assert_eq!(set.len(), 22);
        assert_eq!(set.records.len(), 3);
        assert_eq!(set.records[1].start, 10);
        assert_eq!((set.records[2].start, set.records[2].len), (14, 8));
        assert_eq!(set.seq.to_ascii()[10..14].to_vec(), b"GGGG".to_vec());
    }

    #[test]
    fn record_seq_round_trips_each_record() {
        let set = set();
        assert_eq!(set.record_seq(0).to_ascii(), b"ACGTACGTAC".to_vec());
        assert_eq!(set.record_seq(1).to_ascii(), b"GGGG".to_vec());
        assert_eq!(set.record_seq(2).to_ascii(), b"TTTTTTTT".to_vec());
    }

    #[test]
    fn empty_set() {
        let set = SeqSet::from_records(&[]);
        assert!(set.is_empty());
        assert!(set.records.is_empty());
    }
}
