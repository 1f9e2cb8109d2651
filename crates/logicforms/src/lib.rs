//! # logicforms — the Logic2Text logical-form DSL for UCTR
//!
//! Parser, evaluator and template machinery for the logical-form programs
//! UCTR uses to synthesize fact-verification claims (paper §II-C, §IV-B):
//! filter / superlative / ordinal / aggregation / majority / unique /
//! comparative operators executed against a [`tabular::Table`], with
//! truth-targeted template instantiation so sampled claims come with gold
//! Supported/Refuted labels.
//!
//! ```
//! use tabular::Table;
//! use logicforms::{parse, evaluate_truth};
//!
//! let t = Table::from_strings("teams", &[
//!     vec!["team", "points"],
//!     vec!["Reds", "77"],
//!     vec!["Blues", "64"],
//! ]).unwrap();
//! let claim = parse("eq { hop { argmax { all_rows ; points } ; team } ; Reds }").unwrap();
//! assert!(evaluate_truth(&claim, &t).unwrap());
//! ```

pub mod absint;
pub mod analysis;
pub mod ast;
pub mod canon;
pub mod exec;
pub mod parser;
pub mod template;

pub use ast::{LfExpr, LfOp, LogicType};
pub use canon::{canonical_expr, canonical_form};
pub use exec::{
    evaluate, evaluate_truth, evaluate_truth_with, evaluate_with, LfError, LfOutcome, LfValue,
};
pub use parser::{parse, LfParseError};
pub use template::{abstract_form, InstantiatedClaim, LfInstantiateError, LfScratch, LfTemplate};
