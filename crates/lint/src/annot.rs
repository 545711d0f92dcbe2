//! Suppression annotations: the escape hatch every rule honours.
//!
//! A violation is only ever acceptable *with a stated reason*, so the
//! grammar makes the reason mandatory:
//!
//! ```text
//! // collie-lint: allow(<rule>, reason = "why this site is legitimate")
//! // collie-lint: begin(<rule>, reason = "why this whole region is")
//! // collie-lint: end(<rule>)
//! ```
//!
//! An `allow` written as a trailing comment covers its own line; written
//! standalone it covers the line of the next code token (so it can sit
//! above the offending statement). `begin`/`end` bracket a region; every
//! line strictly between them is covered for that one rule. Each
//! annotation names exactly one rule — blanket suppressions are not a
//! thing, by design.
//!
//! Annotations are parsed **only from comment tokens**, so an annotation
//! spelled inside a string literal (as the linter's own tests do) is
//! inert data, not a suppression. Malformed annotations — an unknown
//! rule, a missing or empty reason, an unmatched `begin`/`end` — are
//! themselves violations of the `annotation` meta-rule: a suppression
//! that silently failed to parse would otherwise *unsuppress* a site the
//! author believed was covered.

use crate::lexer::{Token, TokenKind};

/// The marker that starts every annotation comment (after trimming).
const MARKER: &str = "collie-lint:";

/// One parsed suppression: `rule` is off for lines `start..=end`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The rule this span suppresses.
    pub rule: String,
    /// First covered line (1-indexed, inclusive).
    pub start: usize,
    /// Last covered line (inclusive).
    pub end: usize,
}

/// A malformed annotation, reported under the `annotation` meta-rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Problem {
    /// Line of the offending comment.
    pub line: usize,
    /// Column of the offending comment.
    pub column: usize,
    /// What was wrong with it.
    pub message: String,
}

/// Every suppression in one file, queryable by rule and line.
#[derive(Debug, Default)]
pub struct Suppressions {
    spans: Vec<Span>,
}

impl Suppressions {
    /// Whether `rule` is suppressed at `line`.
    pub fn covers(&self, rule: &str, line: usize) -> bool {
        self.spans
            .iter()
            .any(|span| span.rule == rule && (span.start..=span.end).contains(&line))
    }

    /// Number of parsed suppression spans (for the report's bookkeeping).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the file has no suppressions at all.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

/// Parse every annotation out of a file's token stream.
///
/// `known_rules` is the engine's rule-name list; an annotation naming
/// anything else is malformed (most likely a typo that would silently
/// suppress nothing).
pub fn parse(tokens: &[Token], known_rules: &[&str]) -> (Suppressions, Vec<Problem>) {
    let mut spans: Vec<Span> = Vec::new();
    let mut problems: Vec<Problem> = Vec::new();
    // Open `begin` regions, in nesting order: (rule, begin line).
    let mut open: Vec<(String, usize, usize)> = Vec::new();

    for (index, token) in tokens.iter().enumerate() {
        if token.kind != TokenKind::Comment {
            continue;
        }
        let body = token.text.trim();
        // Doc comments and prose that merely *mention* the marker (with
        // backticks, in a sentence) are not annotations; only a comment
        // that begins with the bare marker is.
        let Some(rest) = body.strip_prefix(MARKER) else {
            continue;
        };
        let mut problem = |message: String| {
            problems.push(Problem {
                line: token.line,
                column: token.column,
                message,
            });
        };
        let rest = rest.trim();
        let Some((verb, args)) = split_call(rest) else {
            problem(format!(
                "malformed `collie-lint:` annotation: expected \
                 `allow(<rule>, reason = \"…\")`, `begin(<rule>, reason = \"…\")` \
                 or `end(<rule>)`, got `{rest}`"
            ));
            continue;
        };
        match verb {
            "allow" | "begin" => {
                let (rule, reason) = match split_rule_and_reason(args) {
                    Ok(parts) => parts,
                    Err(message) => {
                        problem(message);
                        continue;
                    }
                };
                if !known_rules.contains(&rule) {
                    problem(format!(
                        "annotation names unknown rule `{rule}` (known rules: {})",
                        known_rules.join(", ")
                    ));
                    continue;
                }
                if reason.trim().is_empty() {
                    problem(format!(
                        "suppression of `{rule}` has an empty reason; every \
                         suppression must say why the site is legitimate"
                    ));
                    continue;
                }
                if verb == "allow" {
                    let covered = if token.first_on_line {
                        next_code_line(tokens, index).unwrap_or(token.line)
                    } else {
                        token.line
                    };
                    spans.push(Span {
                        rule: rule.to_string(),
                        start: covered,
                        end: covered,
                    });
                } else {
                    open.push((rule.to_string(), token.line, token.column));
                }
            }
            "end" => {
                let rule = args.trim();
                if rule.is_empty() || rule.contains(',') {
                    problem(format!(
                        "`end(…)` takes exactly one rule name, got `{args}`"
                    ));
                    continue;
                }
                match open.iter().rposition(|(r, _, _)| r == rule) {
                    Some(at) => {
                        let (rule, start, _) = open.remove(at);
                        spans.push(Span {
                            rule,
                            start,
                            end: token.line,
                        });
                    }
                    None => problem(format!("`end({rule})` without a matching `begin({rule})`")),
                }
            }
            other => problem(format!(
                "unknown annotation verb `{other}` (expected `allow`, `begin` or `end`)"
            )),
        }
    }

    for (rule, line, column) in open {
        problems.push(Problem {
            line,
            column,
            message: format!("`begin({rule})` is never closed by an `end({rule})`"),
        });
    }

    (Suppressions { spans }, problems)
}

/// Split `verb(args)` into its parts; `None` when the shape is wrong.
fn split_call(text: &str) -> Option<(&str, &str)> {
    let open = text.find('(')?;
    let close = text.rfind(')')?;
    if close < open {
        return None;
    }
    let verb = text[..open].trim();
    // Trailing prose after the closing paren would be ambiguous — reject.
    if !text[close + 1..].trim().is_empty() || verb.is_empty() {
        return None;
    }
    Some((verb, &text[open + 1..close]))
}

/// Split `<rule>, reason = "…"` into the rule name and the reason text.
fn split_rule_and_reason(args: &str) -> Result<(&str, &str), String> {
    let Some((rule, reason_part)) = args.split_once(',') else {
        return Err(format!(
            "suppression `{args}` is missing its `reason = \"…\"`; every \
             suppression must say why the site is legitimate"
        ));
    };
    let rule = rule.trim();
    let reason_part = reason_part.trim();
    let Some(assigned) = reason_part
        .strip_prefix("reason")
        .map(|rest| rest.trim_start())
        .and_then(|rest| rest.strip_prefix('='))
    else {
        return Err(format!(
            "expected `reason = \"…\"` after the rule name, got `{reason_part}`"
        ));
    };
    let assigned = assigned.trim();
    let reason = assigned
        .strip_prefix('"')
        .and_then(|rest| rest.strip_suffix('"'))
        .ok_or_else(|| format!("the reason must be a quoted string, got `{assigned}`"))?;
    Ok((rule, reason))
}

/// The line of the first non-comment token after `index` (what a
/// standalone `allow` covers).
fn next_code_line(tokens: &[Token], index: usize) -> Option<usize> {
    tokens[index + 1..]
        .iter()
        .find(|t| t.kind != TokenKind::Comment)
        .map(|t| t.line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    const RULES: [&str; 3] = ["wall-clock", "serde-skip", "counter-name"];

    fn parse_src(source: &str) -> (Suppressions, Vec<Problem>) {
        parse(&tokenize(source), &RULES)
    }

    #[test]
    fn trailing_allow_covers_its_own_line() {
        let src = "let a = 1;\nlet t = now(); // collie-lint: allow(wall-clock, reason = \"test\")\nlet b = 2;";
        let (sup, problems) = parse_src(src);
        assert!(problems.is_empty(), "{problems:?}");
        assert!(sup.covers("wall-clock", 2));
        assert!(!sup.covers("wall-clock", 1));
        assert!(!sup.covers("wall-clock", 3));
        assert!(!sup.covers("serde-skip", 2), "suppression is per-rule");
    }

    #[test]
    fn standalone_allow_covers_the_next_code_line() {
        let src = "// collie-lint: allow(wall-clock, reason = \"test\")\n// an unrelated comment in between\nlet t = now();\nlet b = 2;";
        let (sup, problems) = parse_src(src);
        assert!(problems.is_empty(), "{problems:?}");
        assert!(sup.covers("wall-clock", 3));
        assert!(!sup.covers("wall-clock", 4));
    }

    #[test]
    fn begin_end_covers_the_region() {
        let src = "\n// collie-lint: begin(serde-skip, reason = \"test region\")\nlet a = 1;\nlet b = 2;\n// collie-lint: end(serde-skip)\nlet c = 3;";
        let (sup, problems) = parse_src(src);
        assert!(problems.is_empty(), "{problems:?}");
        assert!(sup.covers("serde-skip", 3));
        assert!(sup.covers("serde-skip", 4));
        assert!(!sup.covers("serde-skip", 6));
    }

    #[test]
    fn missing_reason_is_a_problem() {
        let (sup, problems) = parse_src("x(); // collie-lint: allow(wall-clock)");
        assert!(sup.is_empty());
        assert_eq!(problems.len(), 1);
        assert!(problems[0].message.contains("reason"), "{problems:?}");
    }

    #[test]
    fn empty_reason_is_a_problem() {
        let (sup, problems) = parse_src("x(); // collie-lint: allow(wall-clock, reason = \"  \")");
        assert!(sup.is_empty());
        assert!(problems[0].message.contains("empty reason"), "{problems:?}");
    }

    #[test]
    fn unknown_rule_is_a_problem() {
        let (sup, problems) =
            parse_src("x(); // collie-lint: allow(wall-clcok, reason = \"typo\")");
        assert!(sup.is_empty());
        assert!(problems[0].message.contains("unknown rule"), "{problems:?}");
    }

    #[test]
    fn unmatched_begin_and_end_are_problems() {
        let (_, problems) = parse_src(
            "// collie-lint: begin(serde-skip, reason = \"never closed\")\nx();\n// collie-lint: end(counter-name)",
        );
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(problems.iter().any(|p| p.message.contains("never closed")));
        assert!(problems
            .iter()
            .any(|p| p.message.contains("without a matching")));
    }

    #[test]
    fn annotations_inside_strings_are_inert() {
        let src = r##"let s = "// collie-lint: allow(wall-clock, reason = \"in a string\")";"##;
        let (sup, problems) = parse_src(src);
        assert!(sup.is_empty());
        assert!(problems.is_empty());
    }

    #[test]
    fn prose_mentioning_the_marker_is_not_an_annotation() {
        let src = "// the `collie-lint:` marker is described here\nx();";
        let (sup, problems) = parse_src(src);
        assert!(sup.is_empty());
        assert!(problems.is_empty());
    }

    #[test]
    fn garbage_after_the_marker_is_a_problem() {
        let (_, problems) = parse_src("// collie-lint: please ignore this line");
        assert_eq!(problems.len(), 1);
        assert!(problems[0].message.contains("malformed"), "{problems:?}");
    }
}
