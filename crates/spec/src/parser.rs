//! Parser for the `.udc` declarative text format.
//!
//! The format is the concrete syntax for Design Principle 2: the IT team
//! "specif\[ies\] aspects in a declarative way", decoupled from their
//! realization. Grammar (informal):
//!
//! ```text
//! app <name> {
//!   task <id> ["description"] { <aspect-blocks and attrs> }
//!   data <id> ["description"] { <aspect-blocks and attrs> }
//!   edge <id> -> <id>
//!   access <id> -> <id> [ consistency = <level>; protect = <flags> ]
//!   colocate <id> <id>
//!   affinity <id> <id>
//! }
//!
//! aspect-blocks:
//!   resource { goal = fastest|cheapest; demand = 4cpu+2048dram; candidates = cpu,gpu }
//!   exec { isolation = weak|medium|strong|strongest; tenancy = shared|single_tenant;
//!          tee_if_cpu = true; protect = confidentiality,integrity,replay }
//!   dist { replication = 2; consistency = sequential; preference = reader;
//!          failure = reexecute | checkpoint(500); domain = "d0" }
//! attrs: work = 100   bytes = 4096
//! ```
//!
//! Statements inside `{}` are separated by newlines or `;`. `#` starts a
//! line comment. [`crate::printer::print_app`] emits the canonical form;
//! `parse(print(app)) == app` is property-tested.

use crate::aspect::{
    ConsistencyLevel, DataProtection, DistributedAspect, ExecEnvAspect, FailureHandling, Goal,
    IsolationLevel, OpPreference, ResourceAspect, ResourceKind, ResourceVector, Tenancy,
};
use crate::dag::{AppSpec, EdgeKind, ModuleKind, ModuleSpec};
use crate::error::{SpecError, SpecResult};
use crate::ids::ModuleId;
use std::collections::BTreeMap;

/// A token borrowing its text from the input: lexing allocates nothing
/// but the token list, and the parser copies out only the names and
/// strings the [`AppSpec`] keeps.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Tok<'a> {
    Ident(&'a str),
    Str(&'a str),
    Num(u64),
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    LParen,
    RParen,
    Eq,
    Comma,
    Plus,
    Arrow,
    Semi,
}

#[derive(Debug, Clone, Copy)]
struct SpannedTok<'a> {
    tok: Tok<'a>,
    line: usize,
}

fn lex(input: &str) -> SpecResult<Vec<SpannedTok<'_>>> {
    let mut toks = Vec::new();
    let mut line = 1usize;
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let single = match c {
            // Newlines act as statement separators inside blocks.
            '\n' => Some(Tok::Semi),
            '{' => Some(Tok::LBrace),
            '}' => Some(Tok::RBrace),
            '[' => Some(Tok::LBracket),
            ']' => Some(Tok::RBracket),
            '(' => Some(Tok::LParen),
            ')' => Some(Tok::RParen),
            '=' => Some(Tok::Eq),
            ',' => Some(Tok::Comma),
            '+' => Some(Tok::Plus),
            ';' => Some(Tok::Semi),
            _ => None,
        };
        if let Some(tok) = single {
            toks.push(SpannedTok { tok, line });
            line += usize::from(c == '\n');
            i += 1;
            continue;
        }
        match c {
            ' ' | '\t' | '\r' => i += 1,
            '#' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '-' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'>' {
                    toks.push(SpannedTok {
                        tok: Tok::Arrow,
                        line,
                    });
                    i += 2;
                } else {
                    // Part of an identifier like `pre-process`; handled in
                    // the identifier branch, so a bare `-` is an error.
                    return Err(SpecError::Parse {
                        line,
                        message: "unexpected `-`".into(),
                    });
                }
            }
            '"' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'"' {
                    if bytes[j] == b'\n' {
                        return Err(SpecError::Parse {
                            line,
                            message: "unterminated string".into(),
                        });
                    }
                    j += 1;
                }
                if j >= bytes.len() {
                    return Err(SpecError::Parse {
                        line,
                        message: "unterminated string".into(),
                    });
                }
                toks.push(SpannedTok {
                    tok: Tok::Str(&input[start..j]),
                    line,
                });
                i = j + 1;
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                // `4cpu` lexes as Num(4) + Ident(cpu): if a letter
                // follows, stop the number here.
                let n: u64 = input[start..i].parse().map_err(|_| SpecError::Parse {
                    line,
                    message: format!("number out of range: {}", &input[start..i]),
                })?;
                toks.push(SpannedTok {
                    tok: Tok::Num(n),
                    line,
                });
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() {
                    let b = bytes[i];
                    if b.is_ascii_alphanumeric() || b == b'_' {
                        i += 1;
                    } else if b == b'-' && i + 1 < bytes.len() && bytes[i + 1] != b'>' {
                        // Hyphen inside an identifier, but not the start
                        // of `->`.
                        i += 1;
                    } else {
                        break;
                    }
                }
                toks.push(SpannedTok {
                    tok: Tok::Ident(&input[start..i]),
                    line,
                });
            }
            other => {
                return Err(SpecError::Parse {
                    line,
                    message: format!("unexpected character {other:?}"),
                })
            }
        }
    }
    Ok(toks)
}

struct Parser<'a> {
    toks: Vec<SpannedTok<'a>>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<Tok<'a>> {
        self.toks.get(self.pos).map(|t| t.tok)
    }

    fn line(&self) -> usize {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map(|t| t.line)
            .unwrap_or(0)
    }

    fn err(&self, message: impl Into<String>) -> SpecError {
        SpecError::Parse {
            line: self.line(),
            message: message.into(),
        }
    }

    fn next(&mut self) -> Option<Tok<'a>> {
        let t = self.peek();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn skip_semis(&mut self) {
        while matches!(self.peek(), Some(Tok::Semi)) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: Tok<'_>) -> SpecResult<()> {
        match self.next() {
            Some(t) if t == want => Ok(()),
            Some(t) => Err(self.err(format!("expected {want:?}, found {t:?}"))),
            None => Err(self.err(format!("expected {want:?}, found end of input"))),
        }
    }

    fn expect_ident(&mut self) -> SpecResult<&'a str> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            Some(t) => Err(self.err(format!("expected identifier, found {t:?}"))),
            None => Err(self.err("expected identifier, found end of input")),
        }
    }

    fn expect_num(&mut self) -> SpecResult<u64> {
        match self.next() {
            Some(Tok::Num(n)) => Ok(n),
            Some(t) => Err(self.err(format!("expected number, found {t:?}"))),
            None => Err(self.err("expected number, found end of input")),
        }
    }
}

/// Parses a `.udc` document into an [`AppSpec`].
///
/// The returned spec is *not* validated; call [`AppSpec::validate`]
/// afterwards (the parser only enforces syntax, mirroring the paper's
/// split between writing a spec and the cloud checking it).
pub fn parse_app(input: &str) -> SpecResult<AppSpec> {
    let toks = lex(input)?;
    let mut p = Parser { toks, pos: 0 };
    p.skip_semis();
    let kw = p.expect_ident()?;
    if kw != "app" {
        return Err(p.err(format!("expected `app`, found `{kw}`")));
    }
    let name = p.expect_ident()?;
    let mut app = match crate::ids::AppName::new(name) {
        Some(name) => AppSpec {
            name,
            modules: BTreeMap::new(),
            edges: Vec::new(),
            hints: Vec::new(),
        },
        None => return Err(p.err(format!("invalid app name `{name}`"))),
    };
    p.expect(Tok::LBrace)?;
    loop {
        p.skip_semis();
        match p.peek() {
            Some(Tok::RBrace) => {
                p.pos += 1;
                break;
            }
            Some(Tok::Ident(_)) => parse_statement(&mut p, &mut app)?,
            Some(t) => return Err(p.err(format!("unexpected {t:?} in app body"))),
            None => return Err(p.err("unexpected end of input in app body")),
        }
    }
    p.skip_semis();
    if p.peek().is_some() {
        return Err(p.err("trailing input after app body"));
    }
    Ok(app)
}

fn parse_statement(p: &mut Parser, app: &mut AppSpec) -> SpecResult<()> {
    let kw = p.expect_ident()?;
    match kw {
        "task" | "data" => parse_module(p, app, kw),
        "edge" => {
            let from = p.expect_ident()?;
            p.expect(Tok::Arrow)?;
            let to = p.expect_ident()?;
            app.add_edge(from, to, EdgeKind::Dependency)
        }
        "access" => {
            let from = p.expect_ident()?;
            p.expect(Tok::Arrow)?;
            let to = p.expect_ident()?;
            let mut consistency = None;
            let mut protection = None;
            if matches!(p.peek(), Some(Tok::LBracket)) {
                p.pos += 1;
                loop {
                    p.skip_semis();
                    if matches!(p.peek(), Some(Tok::RBracket)) {
                        p.pos += 1;
                        break;
                    }
                    let key = p.expect_ident()?;
                    p.expect(Tok::Eq)?;
                    match key {
                        "consistency" => {
                            let v = p.expect_ident()?;
                            consistency = Some(
                                ConsistencyLevel::from_name(v)
                                    .ok_or_else(|| p.err(format!("unknown consistency `{v}`")))?,
                            );
                        }
                        "protect" => protection = Some(parse_protection(p)?),
                        other => return Err(p.err(format!("unknown access attribute `{other}`"))),
                    }
                }
            }
            app.add_access_with(from, to, consistency, protection)
        }
        "colocate" => {
            let a = p.expect_ident()?;
            let b = p.expect_ident()?;
            app.colocate(a, b)
        }
        "affinity" => {
            let a = p.expect_ident()?;
            let b = p.expect_ident()?;
            app.affinity(a, b)
        }
        other => Err(p.err(format!("unknown statement `{other}`"))),
    }
}

fn parse_module(p: &mut Parser, app: &mut AppSpec, kind: &str) -> SpecResult<()> {
    let id = p.expect_ident()?;
    let description = match p.peek() {
        Some(Tok::Str(s)) => {
            p.pos += 1;
            Some(s.to_string())
        }
        _ => None,
    };
    let Some(id) = ModuleId::new(id) else {
        return Err(p.err(format!("invalid module id `{id}`")));
    };

    let mut resource = ResourceAspect::default();
    let mut exec_env = ExecEnvAspect::default();
    let mut dist = DistributedAspect::default();
    let mut work_units = None;
    let mut bytes = None;

    if matches!(p.peek(), Some(Tok::LBrace)) {
        p.pos += 1;
        loop {
            p.skip_semis();
            match p.peek() {
                Some(Tok::RBrace) => {
                    p.pos += 1;
                    break;
                }
                Some(Tok::Ident(_)) => {
                    let key = p.expect_ident()?;
                    match key {
                        "resource" => resource = parse_resource_block(p)?,
                        "exec" => exec_env = parse_exec_block(p)?,
                        "dist" => dist = parse_dist_block(p)?,
                        "work" => {
                            p.expect(Tok::Eq)?;
                            work_units = Some(p.expect_num()?);
                        }
                        "bytes" => {
                            p.expect(Tok::Eq)?;
                            bytes = Some(p.expect_num()?);
                        }
                        other => return Err(p.err(format!("unknown module attribute `{other}`"))),
                    }
                }
                Some(t) => return Err(p.err(format!("unexpected {t:?} in module body"))),
                None => return Err(p.err("unexpected end of input in module body")),
            }
        }
    }

    let kind = if kind == "task" {
        ModuleKind::Task
    } else {
        ModuleKind::Data
    };
    let mut spec = ModuleSpec::blank(id, kind);
    spec.description = description;
    spec.resource = resource;
    spec.exec_env = exec_env;
    spec.dist = dist;
    spec.work_units = work_units;
    spec.bytes = bytes;
    app.add_module(spec);
    Ok(())
}

fn parse_resource_block(p: &mut Parser) -> SpecResult<ResourceAspect> {
    let mut aspect = ResourceAspect::default();
    p.expect(Tok::LBrace)?;
    loop {
        p.skip_semis();
        match p.peek() {
            Some(Tok::RBrace) => {
                p.pos += 1;
                break;
            }
            _ => {
                let key = p.expect_ident()?;
                p.expect(Tok::Eq)?;
                match key {
                    "goal" => {
                        let v = p.expect_ident()?;
                        aspect.goal = Some(
                            Goal::from_name(v)
                                .ok_or_else(|| p.err(format!("unknown goal `{v}`")))?,
                        );
                    }
                    "demand" => aspect.demand = parse_resource_vector(p)?,
                    "candidates" => loop {
                        let v = p.expect_ident()?;
                        let k = ResourceKind::from_name(v)
                            .ok_or_else(|| p.err(format!("unknown resource kind `{v}`")))?;
                        if !aspect.candidates.contains(&k) {
                            aspect.candidates.push(k);
                        }
                        if matches!(p.peek(), Some(Tok::Comma)) {
                            p.pos += 1;
                        } else {
                            break;
                        }
                    },
                    other => return Err(p.err(format!("unknown resource attribute `{other}`"))),
                }
            }
        }
    }
    Ok(aspect)
}

fn parse_resource_vector(p: &mut Parser) -> SpecResult<ResourceVector> {
    let mut v = ResourceVector::new();
    loop {
        let n = p.expect_num()?;
        let kind_name = p.expect_ident()?;
        let kind = ResourceKind::from_name(kind_name)
            .ok_or_else(|| p.err(format!("unknown resource kind `{kind_name}`")))?;
        v.set(kind, v.get(kind).saturating_add(n));
        if matches!(p.peek(), Some(Tok::Plus)) {
            p.pos += 1;
        } else {
            break;
        }
    }
    Ok(v)
}

fn parse_protection(p: &mut Parser) -> SpecResult<DataProtection> {
    let mut prot = DataProtection::NONE;
    loop {
        let flag = p.expect_ident()?;
        match flag {
            "confidentiality" => prot.confidentiality = true,
            "integrity" => prot.integrity = true,
            "replay" => prot.replay = true,
            "none" => {}
            other => return Err(p.err(format!("unknown protection flag `{other}`"))),
        }
        if matches!(p.peek(), Some(Tok::Comma)) {
            p.pos += 1;
        } else {
            break;
        }
    }
    Ok(prot)
}

fn parse_exec_block(p: &mut Parser) -> SpecResult<ExecEnvAspect> {
    let mut aspect = ExecEnvAspect::default();
    p.expect(Tok::LBrace)?;
    loop {
        p.skip_semis();
        match p.peek() {
            Some(Tok::RBrace) => {
                p.pos += 1;
                break;
            }
            _ => {
                let key = p.expect_ident()?;
                p.expect(Tok::Eq)?;
                match key {
                    "isolation" => {
                        let v = p.expect_ident()?;
                        aspect.isolation = Some(
                            IsolationLevel::from_name(v)
                                .ok_or_else(|| p.err(format!("unknown isolation `{v}`")))?,
                        );
                    }
                    "tenancy" => {
                        let v = p.expect_ident()?;
                        aspect.tenancy = Some(match v {
                            "shared" => Tenancy::Shared,
                            "single_tenant" => Tenancy::SingleTenant,
                            other => return Err(p.err(format!("unknown tenancy `{other}`"))),
                        });
                    }
                    "tee_if_cpu" => {
                        let v = p.expect_ident()?;
                        aspect.tee_if_cpu = match v {
                            "true" => true,
                            "false" => false,
                            other => return Err(p.err(format!("expected bool, found `{other}`"))),
                        };
                    }
                    "protect" => aspect.protection = Some(parse_protection(p)?),
                    other => return Err(p.err(format!("unknown exec attribute `{other}`"))),
                }
            }
        }
    }
    Ok(aspect)
}

fn parse_dist_block(p: &mut Parser) -> SpecResult<DistributedAspect> {
    let mut aspect = DistributedAspect::default();
    p.expect(Tok::LBrace)?;
    loop {
        p.skip_semis();
        match p.peek() {
            Some(Tok::RBrace) => {
                p.pos += 1;
                break;
            }
            _ => {
                let key = p.expect_ident()?;
                p.expect(Tok::Eq)?;
                match key {
                    "replication" => {
                        let n = p.expect_num()?;
                        aspect.replication = u32::try_from(n)
                            .map_err(|_| p.err(format!("replication {n} out of range")))?;
                    }
                    "consistency" => {
                        let v = p.expect_ident()?;
                        aspect.consistency = Some(
                            ConsistencyLevel::from_name(v)
                                .ok_or_else(|| p.err(format!("unknown consistency `{v}`")))?,
                        );
                    }
                    "preference" => {
                        let v = p.expect_ident()?;
                        aspect.preference = OpPreference::from_name(v)
                            .ok_or_else(|| p.err(format!("unknown preference `{v}`")))?;
                    }
                    "failure" => {
                        let v = p.expect_ident()?;
                        aspect.failure = Some(match v {
                            "reexecute" => FailureHandling::Reexecute,
                            "checkpoint" => {
                                p.expect(Tok::LParen)?;
                                let interval_ms = p.expect_num()?;
                                p.expect(Tok::RParen)?;
                                FailureHandling::Checkpoint { interval_ms }
                            }
                            other => return Err(p.err(format!("unknown failure mode `{other}`"))),
                        });
                    }
                    "domain" => {
                        let v = match p.next() {
                            Some(Tok::Str(s) | Tok::Ident(s)) => s,
                            _ => return Err(p.err("expected domain name")),
                        };
                        aspect.failure_domain = Some(v.to_string());
                    }
                    other => return Err(p.err(format!("unknown dist attribute `{other}`"))),
                }
            }
        }
    }
    Ok(aspect)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# Medical pipeline fragment (Fig. 2).
app medical {
  task A1 "preprocess" {
    resource { goal = fastest }
    exec { isolation = strong; tee_if_cpu = true }
    work = 10
  }
  task A2 "cnn-inference" {
    resource { demand = 1gpu+4096dram; candidates = gpu }
    exec { tenancy = single_tenant }
    dist { failure = checkpoint(500) }
  }
  data S1 "records" {
    resource { demand = 8192ssd }
    exec { protect = confidentiality, integrity }
    dist { replication = 3; consistency = sequential }
    bytes = 1048576
  }
  edge A1 -> A2
  access A2 -> S1 [consistency = sequential]
  colocate A1 A2
  affinity A2 S1
}
"#;

    #[test]
    fn parses_sample() {
        let app = parse_app(SAMPLE).unwrap();
        assert_eq!(app.name.as_str(), "medical");
        assert_eq!(app.len(), 3);
        let a2 = app.module(&"A2".into()).unwrap();
        assert_eq!(a2.resource.demand.get(ResourceKind::Gpu), 1);
        assert_eq!(a2.resource.demand.get(ResourceKind::Dram), 4096);
        assert_eq!(a2.exec_env.tenancy, Some(Tenancy::SingleTenant));
        assert_eq!(
            a2.dist.failure,
            Some(FailureHandling::Checkpoint { interval_ms: 500 })
        );
        let s1 = app.module(&"S1".into()).unwrap();
        assert_eq!(s1.dist.replication, 3);
        assert_eq!(s1.dist.consistency, Some(ConsistencyLevel::Sequential));
        assert_eq!(
            s1.exec_env.protection,
            Some(DataProtection::ENCRYPT_AND_INTEGRITY)
        );
        assert_eq!(s1.bytes, Some(1048576));
        assert_eq!(app.edges.len(), 2);
        assert_eq!(app.hints.len(), 2);
        app.validate().unwrap();
    }

    #[test]
    fn description_is_optional() {
        let app = parse_app("app a { task T }").unwrap();
        assert!(app.module(&"T".into()).unwrap().description.is_none());
    }

    #[test]
    fn module_without_body() {
        let app = parse_app("app a { task T \"t\" \n data S }").unwrap();
        assert_eq!(app.len(), 2);
    }

    #[test]
    fn error_reports_line() {
        let input = "app a {\n  task T {\n    bogus = 1\n  }\n}";
        match parse_app(input) {
            Err(SpecError::Parse { line, message }) => {
                assert_eq!(line, 3, "{message}");
                assert!(message.contains("bogus"));
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn unterminated_string_rejected() {
        assert!(matches!(
            parse_app("app a { task T \"oops \n }"),
            Err(SpecError::Parse { .. })
        ));
    }

    #[test]
    fn unknown_statement_rejected() {
        assert!(parse_app("app a { teleport T }").is_err());
    }

    #[test]
    fn edge_to_unknown_module_rejected() {
        assert!(matches!(
            parse_app("app a { task T \n edge T -> U }"),
            Err(SpecError::UnknownModule(_))
        ));
    }

    #[test]
    fn demand_repeated_kind_accumulates() {
        let app = parse_app("app a { task T { resource { demand = 2cpu+3cpu } } }").unwrap();
        assert_eq!(
            app.module(&"T".into())
                .unwrap()
                .resource
                .demand
                .get(ResourceKind::Cpu),
            5
        );
    }

    #[test]
    fn access_requirements_parsed() {
        let app = parse_app(
            "app a { task T \n data S \n access T -> S [consistency = release; protect = integrity, replay] }",
        )
        .unwrap();
        let e = &app.edges[0];
        assert_eq!(e.require_consistency, Some(ConsistencyLevel::Release));
        let p = e.require_protection.unwrap();
        assert!(p.integrity && p.replay && !p.confidentiality);
    }

    #[test]
    fn hyphenated_identifiers() {
        let app = parse_app("app my-app { task pre-process }").unwrap();
        assert!(app.module(&"pre-process".into()).is_some());
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse_app("app a { task T } extra").is_err());
    }

    #[test]
    fn empty_input_rejected() {
        assert!(parse_app("").is_err());
        assert!(parse_app("   \n  # just a comment\n").is_err());
    }
}
