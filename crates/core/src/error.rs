//! Compilation failures. The scheme is total on the envelope of Appendix A
//! plus a valid array; anything outside is reported, never mis-compiled.

use std::fmt;
use systolic_ir::Violation;
use systolic_synthesis::ArrayError;

#[derive(Clone, Debug)]
pub enum CompileError {
    /// The source program violates Appendix A.
    Source(Vec<Violation>),
    /// The array search found no valid step and place within its bound.
    NoArray,
    /// The systolic array is invalid for the program (Sec. 3.2).
    Array(ArrayError),
    /// The derived `increment` leaves `{-1, 0, +1}^r` (restriction A.2;
    /// the "Note" of Sec. 6.2's general case is future work in the paper
    /// and here).
    IncrementNotUnit { increment: Vec<i64> },
    /// A face system's symbolic solution has non-integer coefficients
    /// (listed as future work in Sec. 8: "non-integer solutions to the
    /// linear equations").
    NonIntegerSolution { face: usize, detail: String },
    /// A symbolic exact division (`//`) failed; indicates an inconsistent
    /// array (should be impossible after validation).
    DivisionFailed {
        what: &'static str,
        stream: Option<usize>,
    },
    /// A stationary stream's loading & recovery vector is unusable (zero,
    /// wrong arity, or not neighbour-bounded).
    BadLoadingVector { stream: usize, vector: Vec<i64> },
    /// `increment_s` is zero for a moving stream, or has a component of
    /// magnitude > 1 so element identities would skip lattice points.
    BadStreamIncrement {
        stream: usize,
        increment_s: Vec<i64>,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Source(vs) => {
                writeln!(f, "source program violates Appendix A:")?;
                for v in vs {
                    writeln!(f, "  - {v}")?;
                }
                Ok(())
            }
            CompileError::NoArray => write!(f, "no valid systolic array within the search bound"),
            CompileError::Array(e) => write!(f, "invalid systolic array: {e:?}"),
            CompileError::IncrementNotUnit { increment } => write!(
                f,
                "derived increment {increment:?} has a component outside {{-1,0,+1}}"
            ),
            CompileError::NonIntegerSolution { face, detail } => {
                write!(f, "face {face}: non-integer symbolic solution ({detail})")
            }
            CompileError::DivisionFailed { what, stream } => match stream {
                Some(s) => write!(f, "exact division failed deriving {what} of stream {s}"),
                None => write!(f, "exact division failed deriving {what}"),
            },
            CompileError::BadLoadingVector { stream, vector } => {
                write!(
                    f,
                    "stream {stream}: unusable loading & recovery vector {vector:?}"
                )
            }
            CompileError::BadStreamIncrement {
                stream,
                increment_s,
            } => {
                write!(f, "stream {stream}: unusable increment_s {increment_s:?}")
            }
        }
    }
}

impl std::error::Error for CompileError {}
