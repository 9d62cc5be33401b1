//! A plain-text database format, so applications (and the `mq` CLI) can
//! load data from files.
//!
//! Format: one fact per line, `relation(value, value, ...)`. Values are
//! integers (`42`, `-7`), bare words (`ann`, `GSM_900`) or quoted strings
//! (`"GSM 900"`). Blank lines and `#`- or `%`-prefixed comments are
//! ignored. Relations are created on first occurrence and their arity is
//! fixed by it. Relation names follow the metaquery convention
//! (lowercase-initial recommended so they can be referenced in
//! metaqueries as fixed symbols).
//!
//! ```text
//! # the paper's Figure 1 database
//! usca("John K.", "Omnitel")
//! usca("John K.", "Tim")
//! cate("Tim", "ETACS")
//! ```

use crate::database::Database;
use crate::value::Value;
use std::fmt;

/// Error while parsing a database text file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextError {
    /// 1-based line number.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for TextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TextError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, TextError> {
    Err(TextError {
        line,
        message: message.into(),
    })
}

/// Parse one value token.
fn parse_value(db: &mut Database, token: &str, line: usize) -> Result<Value, TextError> {
    let t = token.trim();
    if t.is_empty() {
        return err(line, "empty value");
    }
    if let Some(stripped) = t.strip_prefix('"') {
        match stripped.strip_suffix('"') {
            Some(inner) => return Ok(db.sym(inner)),
            None => return err(line, "unterminated quoted string"),
        }
    }
    if t.chars()
        .next()
        .is_some_and(|c| c.is_ascii_digit() || c == '-')
    {
        return match t.parse::<i64>() {
            Ok(v) => Ok(Value::Int(v)),
            Err(_) => err(line, format!("invalid integer `{t}`")),
        };
    }
    Ok(db.sym(t))
}

/// Split the argument list of a fact, honoring quotes.
fn split_args(body: &str, line: usize) -> Result<Vec<String>, TextError> {
    let mut args = Vec::new();
    let mut current = String::new();
    let mut in_quotes = false;
    for c in body.chars() {
        match c {
            '"' => {
                in_quotes = !in_quotes;
                current.push(c);
            }
            ',' if !in_quotes => {
                args.push(current.trim().to_string());
                current.clear();
            }
            _ => current.push(c),
        }
    }
    if in_quotes {
        return err(line, "unterminated quoted string");
    }
    args.push(current.trim().to_string());
    Ok(args)
}

/// Parse a database from its text form.
pub fn parse_database(input: &str) -> Result<Database, TextError> {
    let mut db = Database::new();
    for (i, raw_line) in input.lines().enumerate() {
        let lineno = i + 1;
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let open = match line.find('(') {
            Some(p) => p,
            None => return err(lineno, "expected `relation(values...)`"),
        };
        if !line.ends_with(')') {
            return err(lineno, "expected closing `)`");
        }
        let name = line[..open].trim();
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '\'')
            || !name.chars().next().is_some_and(|c| c.is_ascii_alphabetic())
        {
            return err(lineno, format!("invalid relation name `{name}`"));
        }
        let body = &line[open + 1..line.len() - 1];
        let tokens = split_args(body, lineno)?;
        let mut row = Vec::with_capacity(tokens.len());
        for t in &tokens {
            row.push(parse_value(&mut db, t, lineno)?);
        }
        let rel = match db.rel_id(name) {
            Some(rel) => {
                if db.relation(rel).arity() != row.len() {
                    return err(
                        lineno,
                        format!(
                            "relation `{name}` used with arity {} but declared with {}",
                            row.len(),
                            db.relation(rel).arity()
                        ),
                    );
                }
                rel
            }
            None => db.add_relation(name, row.len()),
        };
        db.insert(rel, row.into_boxed_slice());
    }
    Ok(db)
}

/// Render a database back to the text format (round-trips through
/// [`parse_database`]).
pub fn render_database(db: &Database) -> String {
    let mut out = String::new();
    for rel in db.relations() {
        for row in rel.to_rows() {
            let cells: Vec<String> = row
                .iter()
                .map(|v| match v {
                    Value::Int(x) => x.to_string(),
                    Value::Sym(s) => format!("\"{}\"", db.resolve(*s)),
                })
                .collect();
            out.push_str(&format!("{}({})\n", rel.name(), cells.join(", ")));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ints;

    #[test]
    fn parse_basic() {
        let db = parse_database(
            "# comment\n\
             edge(1, 2)\n\
             edge(2, 3)\n\
             \n\
             name(1, ann)\n\
             name(2, \"Bob B.\")\n",
        )
        .unwrap();
        assert_eq!(db.rel("edge").len(), 2);
        assert_eq!(db.rel("name").len(), 2);
        assert!(db.rel("edge").contains(&ints(&[1, 2])));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let e = parse_database("edge(1, 2)\nedge(1, 2, 3)\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("arity"));
    }

    #[test]
    fn bad_lines_rejected() {
        assert!(parse_database("edge 1 2").is_err());
        assert!(parse_database("edge(1, 2").is_err());
        assert!(parse_database("3dge(1)").is_err());
        assert!(parse_database("edge(\"oops)").is_err());
    }

    #[test]
    fn negative_integers_and_quotes_with_commas() {
        let db = parse_database("t(-5, \"a, b\", x)\n").unwrap();
        let rel = db.rel("t");
        assert_eq!(rel.arity(), 3);
        let row = &rel.to_rows()[0];
        assert_eq!(row[0], Value::Int(-5));
        assert_eq!(db.resolve(row[1].as_sym().unwrap()), "a, b");
        assert_eq!(db.resolve(row[2].as_sym().unwrap()), "x");
    }

    #[test]
    fn roundtrip() {
        let text = "edge(1, 2)\nname(1, \"A B\")\n";
        let db = parse_database(text).unwrap();
        let rendered = render_database(&db);
        let db2 = parse_database(&rendered).unwrap();
        assert_eq!(db.rel("edge").len(), db2.rel("edge").len());
        assert_eq!(db.rel("name").len(), db2.rel("name").len());
        // semantic equality of the name relation's symbol
        let s1 = db.rel("name").to_rows()[0][1];
        let s2 = db2.rel("name").to_rows()[0][1];
        assert_eq!(
            db.resolve(s1.as_sym().unwrap()),
            db2.resolve(s2.as_sym().unwrap())
        );
    }

    #[test]
    fn comments_and_percent() {
        let db = parse_database("% prolog style\n# hash style\nf(1)\n").unwrap();
        assert_eq!(db.rel("f").len(), 1);
    }
}
