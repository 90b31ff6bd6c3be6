//! Line-oriented parser for the SiliconCompiler Python subset.
//!
//! Real SiliconCompiler scripts are short, flat Python programs; this parser
//! handles exactly that shape: imports, one `Chip(...)` construction, and a
//! sequence of method calls on the chip variable. Anything else is a syntax
//! error with a line number, which the evaluation harness uses the same way
//! it uses yosys output for Verilog.

use crate::ast::{ScStmt, ScValue, Script};
use std::error::Error;
use std::fmt;

/// A script parse failure.
#[derive(Debug, Clone, PartialEq)]
pub struct ScParseError {
    /// 1-based line number.
    pub line: u32,
    /// Description.
    pub message: String,
}

impl fmt::Display for ScParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: SyntaxError: {}", self.line, self.message)
    }
}

impl Error for ScParseError {}

/// Parses SiliconCompiler script text.
///
/// # Errors
///
/// Returns [`ScParseError`] on malformed lines (unbalanced parentheses,
/// unterminated strings, statements that are not imports, assignment of a
/// `Chip`, or chip method calls).
///
/// ```
/// let script = dda_scscript::parse(
///     "import siliconcompiler\n\
///      chip = siliconcompiler.Chip('gcd')\n\
///      chip.input('gcd.v')\n\
///      chip.load_target('skywater130_demo')\n\
///      chip.run()\n\
///      chip.summary()\n",
/// ).unwrap();
/// assert_eq!(script.design(), Some("gcd"));
/// ```
pub fn parse(src: &str) -> Result<Script, ScParseError> {
    let mut script = Script::default();
    for (i, raw) in src.lines().enumerate() {
        let lineno = (i + 1) as u32;
        let line = strip_comment(raw).trim().to_owned();
        if line.is_empty() {
            continue;
        }
        let stmt = parse_stmt(&line, lineno, &mut script.var)?;
        script.stmts.push(stmt);
    }
    Ok(script)
}

fn strip_comment(line: &str) -> &str {
    let mut in_str: Option<char> = None;
    for (i, c) in line.char_indices() {
        match in_str {
            Some(q) => {
                if c == q {
                    in_str = None;
                }
            }
            None => match c {
                '\'' | '"' => in_str = Some(c),
                '#' => return &line[..i],
                _ => {}
            },
        }
    }
    line
}

fn parse_stmt(line: &str, lineno: u32, var: &mut String) -> Result<ScStmt, ScParseError> {
    let err = |m: &str| ScParseError {
        line: lineno,
        message: m.to_owned(),
    };
    // Imports.
    if let Some(rest) = line.strip_prefix("import ") {
        return Ok(ScStmt::Import {
            symbol: rest.trim().to_owned(),
        });
    }
    if let Some(rest) = line.strip_prefix("from ") {
        let Some((module, symbol)) = rest.split_once(" import ") else {
            return Err(err("expected `from <module> import <name>`"));
        };
        if module.trim() != "siliconcompiler" {
            return Err(err("only siliconcompiler imports are supported"));
        }
        return Ok(ScStmt::Import {
            symbol: symbol.trim().to_owned(),
        });
    }
    // Chip construction: `chip = siliconcompiler.Chip('gcd')` or `chip = Chip('gcd')`.
    if let Some(eq) = find_top_level(line, '=') {
        let lhs = line[..eq].trim();
        let rhs = line[eq + 1..].trim();
        if !is_ident(lhs) {
            return Err(err("expected a variable name before `=`"));
        }
        let call = parse_call(rhs, lineno)?;
        if call.path.last().map(String::as_str) != Some("Chip") {
            return Err(err("expected a Chip(...) construction"));
        }
        let design = call
            .args
            .first()
            .and_then(|(n, v)| if n.is_none() { v.as_str() } else { None })
            .ok_or_else(|| err("Chip() requires a design name string"))?
            .to_owned();
        *var = lhs.to_owned();
        return Ok(ScStmt::NewChip {
            var: lhs.to_owned(),
            design,
        });
    }
    // Method call on the chip variable.
    let call = parse_call(line, lineno)?;
    if call.path.len() < 2 {
        return Err(err("expected a chip method call"));
    }
    let receiver = &call.path[0];
    if !var.is_empty() && receiver != var {
        return Err(err(&format!("name '{receiver}' is not defined")));
    }
    let method = call.path[1].clone();
    let positional: Vec<&ScValue> = call
        .args
        .iter()
        .filter_map(|(n, v)| if n.is_none() { Some(v) } else { None })
        .collect();
    let named = |key: &str| -> Option<&ScValue> {
        call.args
            .iter()
            .find(|(n, _)| n.as_deref() == Some(key))
            .map(|(_, v)| v)
    };
    match method.as_str() {
        "input" => {
            let file = positional
                .first()
                .and_then(|v| v.as_str())
                .ok_or_else(|| err("input() requires a file path string"))?;
            Ok(ScStmt::Input {
                file: file.to_owned(),
            })
        }
        "clock" => {
            let pin = positional
                .first()
                .and_then(|v| v.as_str())
                .or_else(|| named("pin").and_then(|v| v.as_str()))
                .ok_or_else(|| err("clock() requires a pin name"))?
                .to_owned();
            let period = named("period")
                .and_then(|v| v.as_num())
                .or_else(|| positional.get(1).and_then(|v| v.as_num()))
                .ok_or_else(|| err("clock() requires period=<ns>"))?;
            Ok(ScStmt::Clock { pin, period })
        }
        "set" => {
            if call.args.len() < 2 {
                return Err(err("set() requires a keypath and a value"));
            }
            let n = call.args.len();
            let mut keypath = Vec::new();
            for (name, v) in &call.args[..n - 1] {
                if name.is_some() {
                    return Err(err("set() keypath must be positional strings"));
                }
                let Some(s) = v.as_str() else {
                    return Err(err("set() keypath must be strings"));
                };
                keypath.push(s.to_owned());
            }
            Ok(ScStmt::Set {
                keypath,
                value: call.args[n - 1].1.clone(),
            })
        }
        "load_target" | "use" => {
            let target = positional
                .first()
                .map(|v| match v {
                    ScValue::Str(s) => s.clone(),
                    other => other.to_python(),
                })
                .ok_or_else(|| err("load_target() requires a target"))?;
            Ok(ScStmt::LoadTarget { target })
        }
        "run" => Ok(ScStmt::Run),
        "summary" => Ok(ScStmt::Summary),
        "show" => Ok(ScStmt::Show),
        other => Ok(ScStmt::Unknown {
            method: other.to_owned(),
            line: line.to_owned(),
        }),
    }
}

struct Call {
    /// Dotted path, e.g. `["chip", "input"]` or `["siliconcompiler", "Chip"]`.
    path: Vec<String>,
    /// Arguments: optional keyword name + value.
    args: Vec<(Option<String>, ScValue)>,
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        && !s.chars().next().expect("nonempty").is_ascii_digit()
}

fn find_top_level(line: &str, target: char) -> Option<usize> {
    let mut depth = 0i32;
    let mut in_str: Option<char> = None;
    let chars: Vec<char> = line.chars().collect();
    for (i, &c) in chars.iter().enumerate() {
        match in_str {
            Some(q) => {
                if c == q {
                    in_str = None;
                }
            }
            None => match c {
                '\'' | '"' => in_str = Some(c),
                '(' | '[' => depth += 1,
                ')' | ']' => depth -= 1,
                c2 if c2 == target && depth == 0 => {
                    // `==` must not match as `=`.
                    if target == '=' {
                        let prev = if i > 0 { chars[i - 1] } else { ' ' };
                        let next = chars.get(i + 1).copied().unwrap_or(' ');
                        if prev == '=' || next == '=' || prev == '!' || prev == '<' || prev == '>' {
                            continue;
                        }
                    }
                    return Some(i);
                }
                _ => {}
            },
        }
    }
    None
}

fn parse_call(text: &str, lineno: u32) -> Result<Call, ScParseError> {
    let err = |m: &str| ScParseError {
        line: lineno,
        message: m.to_owned(),
    };
    let open = text.find('(').ok_or_else(|| err("expected a call"))?;
    if !text.trim_end().ends_with(')') {
        return Err(err("unbalanced parentheses"));
    }
    let path_text = text[..open].trim();
    let path: Vec<String> = path_text.split('.').map(|p| p.trim().to_owned()).collect();
    if path.iter().any(|p| !is_ident(p)) {
        return Err(err(&format!("invalid name `{path_text}`")));
    }
    let inner = &text[open + 1..text.trim_end().len() - 1];
    let mut args = Vec::new();
    for part in split_top_level(inner) {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        if let Some(eq) = find_top_level(part, '=') {
            let name = part[..eq].trim();
            if is_ident(name) {
                let v = parse_value(part[eq + 1..].trim(), lineno)?;
                args.push((Some(name.to_owned()), v));
                continue;
            }
        }
        args.push((None, parse_value(part, lineno)?));
    }
    Ok(Call { path, args })
}

fn split_top_level(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut in_str: Option<char> = None;
    let mut cur = String::new();
    for c in text.chars() {
        match in_str {
            Some(q) => {
                cur.push(c);
                if c == q {
                    in_str = None;
                }
            }
            None => match c {
                '\'' | '"' => {
                    in_str = Some(c);
                    cur.push(c);
                }
                '(' | '[' => {
                    depth += 1;
                    cur.push(c);
                }
                ')' | ']' => {
                    depth -= 1;
                    cur.push(c);
                }
                ',' if depth == 0 => {
                    out.push(std::mem::take(&mut cur));
                }
                _ => cur.push(c),
            },
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur);
    }
    out
}

fn parse_value(text: &str, lineno: u32) -> Result<ScValue, ScParseError> {
    let err = |m: &str| ScParseError {
        line: lineno,
        message: m.to_owned(),
    };
    let t = text.trim();
    if t.is_empty() {
        return Err(err("empty value"));
    }
    if (t.starts_with('\'') && t.ends_with('\'') && t.len() >= 2)
        || (t.starts_with('"') && t.ends_with('"') && t.len() >= 2)
    {
        return Ok(ScValue::Str(t[1..t.len() - 1].to_owned()));
    }
    if t.starts_with('\'') || t.starts_with('"') {
        return Err(err("unterminated string literal"));
    }
    if t == "True" {
        return Ok(ScValue::Bool(true));
    }
    if t == "False" {
        return Ok(ScValue::Bool(false));
    }
    if t.starts_with('(') && t.ends_with(')') {
        let inner = &t[1..t.len() - 1];
        let parts = split_top_level(inner);
        let mut vs = Vec::new();
        for p in parts {
            vs.push(parse_value(&p, lineno)?);
        }
        return Ok(ScValue::Tuple(vs));
    }
    if t.starts_with('[') && t.ends_with(']') {
        let inner = &t[1..t.len() - 1];
        let parts = split_top_level(inner);
        let mut vs = Vec::new();
        for p in parts {
            vs.push(parse_value(&p, lineno)?);
        }
        return Ok(ScValue::List(vs));
    }
    t.parse::<f64>()
        .map(ScValue::Num)
        .map_err(|_| err(&format!("cannot parse value `{t}`")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::ScStmt;

    const GOOD: &str = "\
import siliconcompiler
# build the gcd design
chip = siliconcompiler.Chip('gcd')
chip.input('gcd.v')
chip.clock('clk', period=10)
chip.set('constraint', 'outline', [(0, 0), (100.13, 100.2)])
chip.load_target('skywater130_demo')
chip.run()
chip.summary()
";

    #[test]
    fn parses_reference_script() {
        let s = parse(GOOD).unwrap();
        assert_eq!(s.var, "chip");
        assert_eq!(s.stmts.len(), 8);
        assert_eq!(s.design(), Some("gcd"));
        assert!(matches!(&s.stmts[3], ScStmt::Clock { pin, period }
            if pin == "clk" && *period == 10.0));
        let ScStmt::Set { keypath, value } = &s.stmts[4] else {
            panic!("expected set");
        };
        assert_eq!(keypath, &["constraint", "outline"]);
        assert!(matches!(value, crate::ast::ScValue::List(v) if v.len() == 2));
    }

    #[test]
    fn round_trips_through_to_python() {
        let s = parse(GOOD).unwrap();
        let py = s.to_python();
        let s2 = parse(&py).unwrap();
        assert_eq!(s.stmts, s2.stmts);
    }

    #[test]
    fn rejects_unbalanced_parens() {
        let e = parse("chip = siliconcompiler.Chip('gcd'").unwrap_err();
        assert!(e.message.contains("parenthes"), "{e}");
    }

    #[test]
    fn rejects_unterminated_string() {
        let e = parse("import siliconcompiler\nchip = siliconcompiler.Chip('gcd)\n");
        assert!(e.is_err());
    }

    #[test]
    fn rejects_wrong_variable() {
        let e = parse("chip = siliconcompiler.Chip('gcd')\nboard.run()\n").unwrap_err();
        assert!(e.message.contains("not defined"), "{e}");
        assert_eq!(e.line, 2);
    }

    #[test]
    fn keyword_and_positional_clock() {
        let s =
            parse("chip = siliconcompiler.Chip('x')\nchip.clock(pin='clk', period=5)\n").unwrap();
        assert!(matches!(&s.stmts[1], ScStmt::Clock { pin, period }
            if pin == "clk" && *period == 5.0));
        let s = parse("chip = siliconcompiler.Chip('x')\nchip.clock('clk', 5)\n").unwrap();
        assert!(matches!(&s.stmts[1], ScStmt::Clock { period, .. } if *period == 5.0));
    }

    #[test]
    fn unknown_method_is_kept() {
        let s = parse("chip = siliconcompiler.Chip('x')\nchip.fly_to_the_moon()\n").unwrap();
        assert!(
            matches!(&s.stmts[1], ScStmt::Unknown { method, .. } if method == "fly_to_the_moon")
        );
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let s = parse("# hello\n\nimport siliconcompiler\n").unwrap();
        assert_eq!(s.stmts.len(), 1);
    }

    #[test]
    fn from_import_form() {
        let s = parse("from siliconcompiler import Chip\n").unwrap();
        assert!(matches!(&s.stmts[0], ScStmt::Import { symbol } if symbol == "Chip"));
        assert!(parse("from numpy import array\n").is_err());
    }
}
