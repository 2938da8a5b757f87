//! The campaign error type: spec parsing, validation, cell and I/O failures,
//! all carrying enough location context to fix the offending line.

use std::fmt;

/// Why a campaign could not be parsed, validated, or executed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignError {
    /// The spec text failed to parse.
    Parse {
        /// Where (`line N`, possibly prefixed with the file path).
        location: String,
        /// What went wrong.
        message: String,
    },
    /// The spec parsed but names a policy, scenario, objective, or
    /// exclusion that does not resolve.
    Validation(String),
    /// A cell could not be run: its workload or policy did not build, or
    /// the simulator refused or could not finish the run.
    Cell {
        /// The cell's [`CellSpec::label`](crate::CellSpec::label).
        label: String,
        /// Why it failed.
        reason: String,
    },
    /// Reading the spec or writing campaign artifacts failed.
    Io {
        /// The path involved.
        path: String,
        /// The underlying error.
        message: String,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Parse { location, message } => {
                write!(f, "campaign spec parse error at {location}: {message}")
            }
            CampaignError::Validation(message) => {
                write!(f, "campaign spec validation error: {message}")
            }
            CampaignError::Cell { label, reason } => {
                write!(f, "campaign cell {label} failed: {reason}")
            }
            CampaignError::Io { path, message } => {
                write!(f, "campaign I/O error on {path}: {message}")
            }
        }
    }
}

impl std::error::Error for CampaignError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_the_location() {
        let e = CampaignError::Parse {
            location: "grid.toml: line 3".to_string(),
            message: "bad value".to_string(),
        };
        assert!(e.to_string().contains("line 3"));
        let e = CampaignError::Validation("unknown policy `pbs`".to_string());
        assert!(e.to_string().contains("pbs"));
        let e = CampaignError::Io {
            path: "/x".to_string(),
            message: "denied".to_string(),
        };
        assert!(e.to_string().contains("/x"));
    }
}
