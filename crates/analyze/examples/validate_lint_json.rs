//! Schema check for `sampsim lint --format json` / `sampsim audit
//! --format json` output.
//!
//! Reads JSON-lines diagnostics from stdin and checks every line against
//! the renderer's declared shape ([`diagnostic_schema`]): the exact key
//! set in render order, a registered `SAxxx` code, a known severity, a
//! location tagged by its kind, and non-empty text. Exits non-zero (with
//! the offending line on stderr) on the first violation, so
//! `scripts/check.sh` can pipe lint output straight through it.
//!
//! ```text
//! sampsim lint --format json | cargo run -p sampsim-analyze --example validate_lint_json
//! ```

use sampsim_analyze::diagnostic_schema;
use std::io::Read;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut input = String::new();
    if std::io::stdin().read_to_string(&mut input).is_err() {
        eprintln!("validate_lint_json: stdin is not UTF-8");
        return ExitCode::FAILURE;
    }
    let mut checked = 0usize;
    for line in input.lines().filter(|l| !l.trim().is_empty()) {
        if let Err(why) = diagnostic_schema().parse(line) {
            eprintln!("validate_lint_json: {why}\n  in line: {line}");
            return ExitCode::FAILURE;
        }
        checked += 1;
    }
    println!("validate_lint_json: {checked} diagnostic line(s) conform");
    ExitCode::SUCCESS
}
