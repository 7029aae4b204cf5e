//! The parser's error text, pinned: one malformed spec per error branch
//! of `parser.rs`, each with the exact line and message it reports. A
//! change to the lexer or parser that keeps the grammar must keep every
//! row; tenants and tools match on these messages.

use udc_spec::{parse_app, SpecError};

/// `(input, line, message)`.
const CASES: &[(&str, usize, &str)] = &[
    // Lexer branches.
    ("app a { task T - }", 1, "unexpected `-`"),
    ("app a {\n task T \"oops \n }", 2, "unterminated string"),
    ("app a { task T \"oops", 1, "unterminated string"),
    (
        "app a { task T { work = 99999999999999999999 } }",
        1,
        "number out of range: 99999999999999999999",
    ),
    ("app a { task T @ }", 1, "unexpected character '@'"),
    ("app a {\n task T }\n é", 3, "unexpected character 'Ã'"),
    // Document structure.
    ("", 0, "expected identifier, found end of input"),
    (
        "   \n  # just a comment\n",
        2,
        "expected identifier, found end of input",
    ),
    (
        "application a { }",
        1,
        "expected `app`, found `application`",
    ),
    ("app \"a\" { }", 1, "expected identifier, found Str(\"a\")"),
    ("app", 1, "expected identifier, found end of input"),
    ("app a x", 1, "expected LBrace, found Ident(\"x\")"),
    ("app a", 1, "expected LBrace, found end of input"),
    ("app a { = }", 1, "unexpected Eq in app body"),
    (
        "app a {\n task T\n",
        2,
        "unexpected end of input in app body",
    ),
    ("app a { task T } extra", 1, "trailing input after app body"),
    // Statements.
    ("app a { teleport T }", 1, "unknown statement `teleport`"),
    (
        "app a { task T\n task U\n edge T U }",
        3,
        "expected Arrow, found Ident(\"U\")",
    ),
    (
        "app a { task T\n data S\n access T -> S [speed = 1] }",
        3,
        "unknown access attribute `speed`",
    ),
    (
        "app a { task T\n data S\n access T -> S [consistency = psychic] }",
        3,
        "unknown consistency `psychic`",
    ),
    (
        "app a { task T\n data S\n access T -> S [protect = secrecy] }",
        3,
        "unknown protection flag `secrecy`",
    ),
    // Module bodies.
    (
        "app a {\n  task T {\n    bogus = 1\n  }\n}",
        3,
        "unknown module attribute `bogus`",
    ),
    (
        "app a { task T { 5 } }",
        1,
        "unexpected Num(5) in module body",
    ),
    (
        "app a { task T {",
        1,
        "unexpected end of input in module body",
    ),
    (
        "app a { task T { work 5 } }",
        1,
        "expected Eq, found Num(5)",
    ),
    (
        "app a { task T { work = x } }",
        1,
        "expected number, found Ident(\"x\")",
    ),
    (
        "app a { task T { work = } }",
        1,
        "expected number, found RBrace",
    ),
    // Resource block.
    (
        "app a { task T { resource { goal = slowest } } }",
        1,
        "unknown goal `slowest`",
    ),
    (
        "app a { task T { resource { demand = 4qpu } } }",
        1,
        "unknown resource kind `qpu`",
    ),
    (
        "app a { task T { resource { candidates = cpu, tpu } } }",
        1,
        "unknown resource kind `tpu`",
    ),
    (
        "app a { task T { resource { speed = 3 } } }",
        1,
        "unknown resource attribute `speed`",
    ),
    (
        "app a { task T { resource = 3 } }",
        1,
        "expected LBrace, found Eq",
    ),
    // Exec block.
    (
        "app a { task T { exec { isolation = total } } }",
        1,
        "unknown isolation `total`",
    ),
    (
        "app a { task T { exec { tenancy = private } } }",
        1,
        "unknown tenancy `private`",
    ),
    (
        "app a { task T { exec { tee_if_cpu = maybe } } }",
        1,
        "expected bool, found `maybe`",
    ),
    (
        "app a { task T { exec { speed = fast } } }",
        1,
        "unknown exec attribute `speed`",
    ),
    // Dist block.
    (
        "app a { data S { dist { replication = 5000000000 } } }",
        1,
        "replication 5000000000 out of range",
    ),
    (
        "app a { data S { dist { consistency = psychic } } }",
        1,
        "unknown consistency `psychic`",
    ),
    (
        "app a { data S { dist { preference = both } } }",
        1,
        "unknown preference `both`",
    ),
    (
        "app a { task T { dist { failure = retry } } }",
        1,
        "unknown failure mode `retry`",
    ),
    (
        "app a { task T { dist { failure = checkpoint(500 } } }",
        1,
        "expected RParen, found RBrace",
    ),
    (
        "app a { task T { dist { domain = 5 } } }",
        1,
        "expected domain name",
    ),
    (
        "app a { task T { dist { speed = 1 } } }",
        1,
        "unknown dist attribute `speed`",
    ),
];

#[test]
fn every_parse_error_keeps_its_line_and_message() {
    let mut wrong = Vec::new();
    for &(input, line, message) in CASES {
        match parse_app(input) {
            Err(SpecError::Parse {
                line: got_line,
                message: got,
            }) if (got_line, got.as_str()) == (line, message) => {}
            other => wrong.push(format!(
                "{input:?}: want line {line} {message:?}, got {other:?}"
            )),
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
