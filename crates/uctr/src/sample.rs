//! Reasoning-sample data model.
//!
//! A [`Sample`] is one training/evaluation instance of a tabular reasoning
//! task: evidence (table and/or context sentences), a natural-language
//! question or claim, and a gold label (an answer string or a verdict).
//! Both the synthetic data UCTR generates and the gold benchmark data from
//! the corpora crate use this type, so models train and evaluate on one
//! representation.

use serde::{Deserialize, Serialize};
use std::fmt;
use tabular::SharedTable;

/// Fact-verification verdicts (paper §II-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Verdict {
    Supported,
    Refuted,
    /// Not enough information (FEVEROUS "NEI" / SEM-TAB-FACTS "Unknown").
    Unknown,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Verdict::Supported => "Supported",
            Verdict::Refuted => "Refuted",
            Verdict::Unknown => "Unknown",
        };
        f.write_str(s)
    }
}

/// Gold output of a sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Label {
    /// Fact verification.
    Verdict(Verdict),
    /// Question answering (normalized answer text).
    Answer(String),
}

impl Label {
    pub fn as_verdict(&self) -> Option<Verdict> {
        match self {
            Label::Verdict(v) => Some(*v),
            Label::Answer(_) => None,
        }
    }

    pub fn as_answer(&self) -> Option<&str> {
        match self {
            Label::Answer(a) => Some(a),
            Label::Verdict(_) => None,
        }
    }
}

/// Which evidence the sample's reasoning needs (paper Table III splits
/// TAT-QA results by this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EvidenceType {
    TableOnly,
    TextOnly,
    TableText,
}

impl fmt::Display for EvidenceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EvidenceType::TableOnly => "Table",
            EvidenceType::TextOnly => "Text",
            EvidenceType::TableText => "Table-Text",
        };
        f.write_str(s)
    }
}

/// The program that generated a synthetic sample (kept for analysis and the
/// Table IX reproduction). Gold samples carry `None`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ProgramKind {
    Sql(String),
    Logic(String),
    Arith(String),
    None,
}

impl ProgramKind {
    /// The serialized program, regardless of kind (`None` for programless
    /// text-only samples).
    pub fn program_text(&self) -> Option<&str> {
        match self {
            ProgramKind::Sql(p) | ProgramKind::Logic(p) | ProgramKind::Arith(p) => Some(p),
            ProgramKind::None => None,
        }
    }
}

/// TAT-QA-style answer kinds, used for per-type metric breakdowns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AnswerKind {
    /// Span(s) copied from the evidence.
    Span,
    /// Counting questions.
    Count,
    /// Arithmetic computation.
    Arithmetic,
    /// Verdict tasks.
    NotApplicable,
}

/// One reasoning instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Table evidence (possibly a sub-table after splitting). Shared:
    /// cloning a sample (or fanning one table out over many samples) bumps
    /// a reference count instead of deep-copying the grid.
    pub table: SharedTable,
    /// Context sentences (surrounding text and/or generated sentences).
    pub context: Vec<String>,
    /// The question or claim.
    pub text: String,
    /// Gold label.
    pub label: Label,
    /// Evidence needed.
    pub evidence: EvidenceType,
    /// Originating program (synthetic samples only).
    pub program: ProgramKind,
    /// Answer kind for QA breakdowns.
    pub answer_kind: AnswerKind,
    /// Topic tag (used by the Figure 1 topic-shift experiment).
    pub topic: String,
}

impl Sample {
    /// A QA sample over a table only.
    pub fn qa(
        table: impl Into<SharedTable>,
        text: impl Into<String>,
        answer: impl Into<String>,
    ) -> Sample {
        Sample {
            table: table.into(),
            context: Vec::new(),
            text: text.into(),
            label: Label::Answer(answer.into()),
            evidence: EvidenceType::TableOnly,
            program: ProgramKind::None,
            answer_kind: AnswerKind::Span,
            topic: String::new(),
        }
    }

    /// A verification sample over a table only.
    pub fn verification(
        table: impl Into<SharedTable>,
        claim: impl Into<String>,
        verdict: Verdict,
    ) -> Sample {
        Sample {
            table: table.into(),
            context: Vec::new(),
            text: claim.into(),
            label: Label::Verdict(verdict),
            evidence: EvidenceType::TableOnly,
            program: ProgramKind::None,
            answer_kind: AnswerKind::NotApplicable,
            topic: String::new(),
        }
    }

    /// Full evidence text (context joined), for text-side feature
    /// extraction.
    pub fn context_text(&self) -> String {
        self.context.join(" ")
    }
}

/// A named collection of samples with train/dev/test splits.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Dataset {
    pub name: String,
    pub train: Vec<Sample>,
    pub dev: Vec<Sample>,
    pub test: Vec<Sample>,
}

impl Dataset {
    pub fn new(name: impl Into<String>) -> Dataset {
        Dataset { name: name.into(), ..Default::default() }
    }

    pub fn len(&self) -> usize {
        self.train.len() + self.dev.len() + self.test.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serializes the dataset to pretty JSON.
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string_pretty(self)
    }

    /// Deserializes a dataset from JSON.
    pub fn from_json(json: &str) -> serde_json::Result<Dataset> {
        serde_json::from_str(json)
    }

    /// Writes the dataset to a JSON file.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let json = self.to_json().map_err(std::io::Error::other)?;
        std::fs::write(path, json)
    }

    /// Loads a dataset from a JSON file.
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Dataset> {
        let json = std::fs::read_to_string(path)?;
        Dataset::from_json(&json).map_err(std::io::Error::other)
    }

    /// Counts samples per evidence type across all splits.
    pub fn evidence_counts(&self) -> [(EvidenceType, usize); 3] {
        let mut table_only = 0;
        let mut text_only = 0;
        let mut both = 0;
        for s in self.train.iter().chain(&self.dev).chain(&self.test) {
            match s.evidence {
                EvidenceType::TableOnly => table_only += 1,
                EvidenceType::TextOnly => text_only += 1,
                EvidenceType::TableText => both += 1,
            }
        }
        [
            (EvidenceType::TableOnly, table_only),
            (EvidenceType::TextOnly, text_only),
            (EvidenceType::TableText, both),
        ]
    }

    /// Counts verdicts across all splits (verification datasets).
    pub fn verdict_counts(&self) -> [(Verdict, usize); 3] {
        let mut sup = 0;
        let mut refuted = 0;
        let mut unk = 0;
        for s in self.train.iter().chain(&self.dev).chain(&self.test) {
            match s.label.as_verdict() {
                Some(Verdict::Supported) => sup += 1,
                Some(Verdict::Refuted) => refuted += 1,
                Some(Verdict::Unknown) => unk += 1,
                None => {}
            }
        }
        [(Verdict::Supported, sup), (Verdict::Refuted, refuted), (Verdict::Unknown, unk)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabular::Table;

    fn t() -> Table {
        Table::from_strings("t", &[vec!["a", "b"], vec!["x", "1"]])
            .unwrap_or_else(|e| panic!("test table: {e:?}"))
    }

    #[test]
    fn constructors() {
        let qa = Sample::qa(t(), "what is b when a is x?", "1");
        assert_eq!(qa.label.as_answer(), Some("1"));
        assert_eq!(qa.evidence, EvidenceType::TableOnly);
        let ver = Sample::verification(t(), "a is x.", Verdict::Supported);
        assert_eq!(ver.label.as_verdict(), Some(Verdict::Supported));
    }

    #[test]
    fn dataset_counts() {
        let mut d = Dataset::new("toy");
        d.train.push(Sample::verification(t(), "c1", Verdict::Supported));
        d.train.push(Sample::verification(t(), "c2", Verdict::Refuted));
        let mut s = Sample::verification(t(), "c3", Verdict::Supported);
        s.evidence = EvidenceType::TableText;
        d.dev.push(s);
        assert_eq!(d.len(), 3);
        let v = d.verdict_counts();
        assert_eq!(v[0].1, 2);
        assert_eq!(v[1].1, 1);
        let e = d.evidence_counts();
        assert_eq!(e[0].1, 2);
        assert_eq!(e[2].1, 1);
    }

    #[test]
    fn serde_roundtrip() {
        let s = Sample::qa(t(), "q?", "a");
        let json = serde_json::to_string(&s).unwrap_or_else(|e| panic!("serialize: {e}"));
        let back: Sample =
            serde_json::from_str(&json).unwrap_or_else(|e| panic!("deserialize: {e}"));
        assert_eq!(back.text, "q?");
        assert_eq!(back.label, Label::Answer("a".into()));
    }

    #[test]
    fn dataset_json_roundtrip() {
        let mut d = Dataset::new("toy");
        d.train.push(Sample::qa(t(), "q1?", "1"));
        d.dev.push(Sample::verification(t(), "c1.", Verdict::Refuted));
        let json = d.to_json().unwrap_or_else(|e| panic!("to_json: {e}"));
        let back = Dataset::from_json(&json).unwrap_or_else(|e| panic!("from_json: {e}"));
        assert_eq!(back.name, "toy");
        assert_eq!(back.train.len(), 1);
        assert_eq!(back.dev[0].label.as_verdict(), Some(Verdict::Refuted));
    }

    #[test]
    fn dataset_file_roundtrip() {
        let mut d = Dataset::new("disk");
        d.test.push(Sample::qa(t(), "q?", "a"));
        let path = std::env::temp_dir().join("uctr_dataset_roundtrip_test.json");
        d.save(&path).unwrap_or_else(|e| panic!("save: {e}"));
        let back = Dataset::load(&path).unwrap_or_else(|e| panic!("load: {e}"));
        assert_eq!(back.test.len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn context_text_joins() {
        let mut s = Sample::qa(t(), "q?", "a");
        s.context = vec!["First.".into(), "Second.".into()];
        assert_eq!(s.context_text(), "First. Second.");
    }

    #[test]
    fn program_text_exposes_source_for_every_kind() {
        assert_eq!(
            ProgramKind::Sql("select c1 from w".into()).program_text(),
            Some("select c1 from w")
        );
        assert_eq!(ProgramKind::Logic("eq { a ; b }".into()).program_text(), Some("eq { a ; b }"));
        assert_eq!(ProgramKind::Arith("add( 1 , 2 )".into()).program_text(), Some("add( 1 , 2 )"));
        assert_eq!(ProgramKind::None.program_text(), None);
    }
}
