//! Human-readable and JSON-lines renderers for [`Report`]s.
//!
//! The JSON renderer emits one object per line (JSON-lines), hand-rolled so
//! the crate stays dependency-free. The shape is stable, golden-tested and
//! declared by [`diagnostic_schema`]:
//!
//! ```json
//! {"code":"SA001","severity":"error","location":{"kind":"workload",
//!  "workload":"505.mcf_r","item":"phase 3"},"message":"...","help":"..."}
//! ```

use crate::diag::{Diagnostic, Location, Report, Rule, Severity};
use sampsim_util::json::{quote, Shape};
use std::fmt::Write;

/// Renders a report in `rustc`-style human-readable form.
pub fn render_human(report: &Report) -> String {
    let mut out = String::new();
    for d in report.diagnostics() {
        let _ = writeln!(out, "{}[{}]: {}", d.severity, d.rule, d.message);
        let _ = writeln!(out, "  --> {}", d.location);
        let _ = writeln!(out, "  help: {}", d.help);
    }
    if !report.is_empty() {
        let _ = writeln!(
            out,
            "{} error(s), {} warning(s), {} note(s)",
            report.count(Severity::Error),
            report.count(Severity::Warning),
            report.count(Severity::Note),
        );
    }
    out
}

/// Renders a report as JSON lines, one diagnostic per line.
pub fn render_json_lines(report: &Report) -> String {
    let mut out = String::new();
    for d in report.diagnostics() {
        out.push_str(&diagnostic_json(d));
        out.push('\n');
    }
    out
}

/// Renders one diagnostic as a single-line JSON object.
pub fn diagnostic_json(d: &Diagnostic) -> String {
    let location = match &d.location {
        Location::Workload { workload, item } => format!(
            "{{\"kind\":\"workload\",\"workload\":{},\"item\":{}}}",
            quote(workload),
            quote(item)
        ),
        Location::Config { field } => format!("{{\"kind\":\"config\",\"field\":{}}}", quote(field)),
        Location::Artifact { path } => {
            format!("{{\"kind\":\"artifact\",\"path\":{}}}", quote(path))
        }
    };
    format!(
        "{{\"code\":{},\"severity\":{},\"location\":{location},\"message\":{},\"help\":{}}}",
        quote(d.rule.code()),
        quote(d.severity.label()),
        quote(&d.message),
        quote(d.help)
    )
}

/// The shape [`diagnostic_json`] renders: a registered rule code, a known
/// severity, a location tagged by its kind, and non-empty text. The
/// `item` of a workload location is empty for the workload itself.
pub const fn diagnostic_schema() -> &'static Shape {
    const SHAPE: Shape = Shape::Object(&[
        ("code", Shape::OneOf(Rule::CODES)),
        ("severity", Shape::OneOf(&["note", "warning", "error"])),
        (
            "location",
            Shape::Tagged {
                tag: "kind",
                variants: &[
                    (
                        "workload",
                        &[("workload", Shape::Text), ("item", Shape::Str)],
                    ),
                    ("config", &[("field", Shape::Text)]),
                    ("artifact", &[("path", Shape::Text)]),
                ],
            },
        ),
        ("message", Shape::Text),
        ("help", Shape::Text),
    ]);
    &SHAPE
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{Location, Rule};

    fn sample() -> Report {
        let mut r = Report::new();
        r.push(Diagnostic::new(
            Rule::DanglingBlockRef,
            Location::workload_item("demo", "phase 0"),
            "block 9 of 1",
        ));
        r.push(Diagnostic::new(
            Rule::UnreachablePhase,
            Location::workload_item("demo", "phase 2"),
            "never scheduled",
        ));
        r
    }

    #[test]
    fn human_rendering_mentions_code_location_help() {
        let text = render_human(&sample());
        assert!(text.contains("error[SA001]: block 9 of 1"));
        assert!(text.contains("--> workload `demo`, phase 0"));
        assert!(text.contains("warning[SA003]"));
        assert!(text.contains("help: "));
        assert!(text.contains("1 error(s), 1 warning(s), 0 note(s)"));
    }

    #[test]
    fn empty_report_renders_empty() {
        assert_eq!(render_human(&Report::new()), "");
        assert_eq!(render_json_lines(&Report::new()), "");
    }

    #[test]
    fn json_lines_one_object_per_diagnostic() {
        let text = render_json_lines(&sample());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"code\":\"SA001\""));
        assert!(lines[0].ends_with("}"));
        assert!(lines[1].contains("\"severity\":\"warning\""));
    }
}
