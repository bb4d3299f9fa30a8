//! The workspace-wide error type.
//!
//! Historically pm-core returned [`ConfigError`], pm-obs returned
//! `String`s, and pm-cli wrapped everything in its own `ArgError`;
//! panics filled the gaps. [`PmError`] unifies the four failure classes
//! the workspace actually has — bad configuration, failed I/O, a breached
//! residual tolerance, and command-line misuse — and pins each to the CLI
//! exit code the standing tooling already documents (1 = tolerance
//! breach, 2 = everything else).

use std::error::Error;
use std::fmt;

use crate::config::ConfigError;

/// Unified workspace error.
#[derive(Debug)]
pub enum PmError {
    /// A scenario or engine configuration is inconsistent.
    Config(ConfigError),
    /// An operating-system I/O operation failed.
    Io {
        /// What was being accessed (usually a path).
        context: String,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// A measured value fell outside its residual tolerance.
    Tolerance(String),
    /// The command line (or a scenario file) was malformed.
    Usage(String),
    /// A device backend (a `pm_engine::IoQueue` implementation) failed while
    /// submitting, completing, or writing block I/O.
    Device {
        /// Backend label (`"memory"`, `"file"`, `"latency"`, `"uring"`).
        backend: &'static str,
        /// What the backend was doing when it failed.
        context: String,
        /// The underlying OS error.
        source: std::io::Error,
    },
}

impl PmError {
    /// Convenience constructor for I/O failures with a context string.
    pub fn io(context: impl Into<String>, source: std::io::Error) -> Self {
        PmError::Io {
            context: context.into(),
            source,
        }
    }

    /// Convenience constructor for device-backend failures.
    pub fn device(
        backend: &'static str,
        context: impl Into<String>,
        source: std::io::Error,
    ) -> Self {
        PmError::Device {
            backend,
            context: context.into(),
            source,
        }
    }

    /// The process exit code the CLI maps this error to: 1 for a
    /// tolerance breach (the run completed but failed validation),
    /// 2 for configuration, I/O, and usage errors.
    #[must_use]
    pub fn exit_code(&self) -> i32 {
        match self {
            PmError::Tolerance(_) => 1,
            PmError::Config(_)
            | PmError::Io { .. }
            | PmError::Usage(_)
            | PmError::Device { .. } => 2,
        }
    }
}

impl fmt::Display for PmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PmError::Config(e) => write!(f, "invalid configuration: {e}"),
            PmError::Io { context, source } => write!(f, "{context}: {source}"),
            PmError::Tolerance(msg) => write!(f, "tolerance breached: {msg}"),
            PmError::Usage(msg) => write!(f, "{msg}"),
            PmError::Device {
                backend,
                context,
                source,
            } => write!(f, "{backend} device: {context}: {source}"),
        }
    }
}

impl Error for PmError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PmError::Config(e) => Some(e),
            PmError::Io { source, .. } | PmError::Device { source, .. } => Some(source),
            PmError::Tolerance(_) | PmError::Usage(_) => None,
        }
    }
}

impl From<ConfigError> for PmError {
    fn from(e: ConfigError) -> Self {
        PmError::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_match_cli_contract() {
        assert_eq!(PmError::Tolerance("x".into()).exit_code(), 1);
        assert_eq!(PmError::Usage("x".into()).exit_code(), 2);
        assert_eq!(
            PmError::Config(ConfigError::ZeroParameter("runs")).exit_code(),
            2
        );
        assert_eq!(PmError::io("f", std::io::Error::other("x")).exit_code(), 2);
        assert_eq!(
            PmError::device("uring", "submit", std::io::Error::other("x")).exit_code(),
            2
        );
    }

    #[test]
    fn device_display_names_the_backend() {
        let e = PmError::device(
            "uring",
            "submit batch of 8",
            std::io::Error::other("ring full"),
        );
        let s = e.to_string();
        assert!(s.contains("uring device"), "{s}");
        assert!(s.contains("submit batch of 8"), "{s}");
        assert!(e.source().is_some());
    }

    #[test]
    fn display_includes_context() {
        let e = PmError::io(
            "manifest.jsonl",
            std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
        );
        assert!(e.to_string().contains("manifest.jsonl"));
        let e: PmError = ConfigError::ZeroDepth.into();
        assert!(e.to_string().contains("invalid configuration"));
    }
}
