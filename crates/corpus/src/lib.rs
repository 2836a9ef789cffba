//! # steelworks-corpus
//!
//! The Fig. 1 analysis toolchain: permutation-aware term matching over
//! proceedings text, the thirteen term groups with their published
//! counts, a calibrated synthetic corpus (the real proceedings are
//! copyrighted), and the analyzer that produces the figure's bars. The
//! analyzer runs unchanged on a directory of real paper texts.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analyze;
pub mod matcher;
pub mod synth;
pub mod terms;

/// Convenient glob import.
pub mod prelude {
    pub use crate::analyze::{analyze, analyze_dir, read_corpus_dir, research_gap, GroupCount};
    pub use crate::matcher::{count_group, tokenize, CompileError};
    pub use crate::synth::{generate, SynthPaper};
    pub use crate::terms::{TermGroup, GROUPS};
}
