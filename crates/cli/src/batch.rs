//! Batch scenario files.
//!
//! `pmerge batch <file>` runs every scenario in a plain-text file and
//! prints one results table. The format is line-based — one scenario per
//! line, a name, a colon, then the same `key=value` options the `simulate`
//! command takes:
//!
//! ```text
//! # k=25 comparison at a 1200-block cache
//! baseline:   runs=25 disks=1 strategy=none
//! intra-10:   runs=25 disks=5 strategy=intra n=10
//! inter-10:   runs=25 disks=5 strategy=inter n=10 cache=1200
//! adaptive:   runs=25 disks=5 strategy=adaptive n=20 cache=1200
//! ```
//!
//! Blank lines and `#` comments are ignored. Flag-like options (`sync`)
//! appear bare.

use pm_core::PmError;

use crate::args::Args;

/// One parsed scenario line: its name and synthesized argument list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchLine {
    /// Scenario name (text before the colon).
    pub name: String,
    /// Option tokens in `Args::parse` form (`--key`, `value`, …).
    pub tokens: Vec<String>,
}

/// Parses a batch file's contents.
///
/// # Errors
///
/// Returns a message naming the offending line.
pub fn parse_batch(contents: &str) -> Result<Vec<BatchLine>, PmError> {
    let mut lines = Vec::new();
    for (lineno, raw) in contents.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let Some((name, rest)) = line.split_once(':') else {
            return Err(PmError::Usage(format!(
                "line {}: expected 'name: key=value ...', got '{line}'",
                lineno + 1
            )));
        };
        let name = name.trim();
        if name.is_empty() {
            return Err(PmError::Usage(format!(
                "line {}: empty scenario name",
                lineno + 1
            )));
        }
        let mut tokens = Vec::new();
        for word in rest.split_whitespace() {
            match word.split_once('=') {
                Some((k, v)) if !k.is_empty() && !v.is_empty() => {
                    tokens.push(format!("--{k}"));
                    tokens.push(v.to_string());
                }
                Some(_) => {
                    return Err(PmError::Usage(format!(
                        "line {}: malformed option '{word}'",
                        lineno + 1
                    )));
                }
                None => tokens.push(format!("--{word}")), // bare flag, e.g. sync
            }
        }
        lines.push(BatchLine {
            name: name.to_string(),
            tokens,
        });
    }
    if lines.is_empty() {
        return Err(PmError::Usage("batch file contains no scenarios".into()));
    }
    Ok(lines)
}

/// Builds the `Args` for one batch line (no subcommand).
///
/// # Errors
///
/// Propagates parse failures with the scenario name attached.
pub fn line_args(line: &BatchLine) -> Result<Args, PmError> {
    Args::parse(line.tokens.iter().cloned())
        .map_err(|e| PmError::Usage(format!("scenario '{}': {e}", line.name)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scenarios_and_skips_comments() {
        let text = "\
# a comment
baseline: runs=25 disks=1 strategy=none

inter: runs=25 disks=5 strategy=inter n=10 cache=1200  # trailing comment
synced: runs=4 disks=2 sync
";
        let lines = parse_batch(text).unwrap();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].name, "baseline");
        assert_eq!(
            lines[1].tokens,
            vec![
                "--runs",
                "25",
                "--disks",
                "5",
                "--strategy",
                "inter",
                "--n",
                "10",
                "--cache",
                "1200"
            ]
        );
        assert_eq!(
            lines[2].tokens,
            vec!["--runs", "4", "--disks", "2", "--sync"]
        );
        let args = line_args(&lines[2]).unwrap();
        assert!(args.flag("sync"));
        assert_eq!(args.get("runs"), Some("4"));
    }

    #[test]
    fn rejects_missing_colon() {
        let err = parse_batch("just words\n").unwrap_err();
        assert!(err.to_string().contains("line 1"));
    }

    #[test]
    fn rejects_empty_name_and_malformed_options() {
        assert!(parse_batch(": runs=4\n")
            .unwrap_err()
            .to_string()
            .contains("empty scenario name"));
        assert!(parse_batch("x: runs=\n")
            .unwrap_err()
            .to_string()
            .contains("malformed option"));
        assert!(parse_batch("x: =4\n")
            .unwrap_err()
            .to_string()
            .contains("malformed option"));
    }

    #[test]
    fn rejects_empty_file() {
        assert!(parse_batch("# only comments\n\n").is_err());
    }
}
