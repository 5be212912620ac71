//! Text syntax for programs, in the style the paper writes its rules
//! (§3–4):
//!
//! ```text
//! % facts
//! edge(a, b).  edge(b, c).
//! % rules
//! tc(X, Y) :- edge(X, Y).
//! tc(X, Y) :- tc(X, Z), edge(Z, Y).
//! % negation, comparison, arithmetic
//! root(X) :- node(X), not haspred(X), X != sentinel.
//! succ(X, Y) :- node(X), Y = X + 1.
//! % grouping aggregation (Example 3 syntax: count{VA[VB] : R(VA,VB)})
//! card(B, N) :- N = count{ A [B] : r(A, B) }.
//! ```
//!
//! Identifiers starting with a lowercase letter are constants/predicates;
//! identifiers starting with an uppercase letter or `_` are variables
//! (`_` alone is a fresh anonymous variable each time). Strings in double
//! quotes are constants. `%` and `//` start line comments.
//!
//! Function terms, parenthesised expressions and aggregates nest at most
//! [`MAX_NESTING`] levels deep; deeper input is a parse error, not a
//! stack overflow.

use crate::atom::{AggFunc, Aggregate, Atom, BodyItem, CmpOp, Expr};
use crate::error::{DatalogError, Result};
use crate::interner::Interner;
use crate::rule::Rule;
use crate::term::{Term, Var};
use std::collections::HashMap;

/// How deep function terms, parenthesised expressions and aggregates may
/// nest (shared with the FL parser). Real rules nest a handful of levels;
/// the cap keeps untrusted text from exhausting the parser's stack.
pub const MAX_NESTING: usize = 128;

/// A parsed clause: either a ground fact or a rule.
#[derive(Debug, Clone)]
pub enum Clause {
    /// A ground fact.
    Fact(Atom),
    /// A compiled rule.
    Rule(Rule),
}

/// Parses a whole program into clauses, interning symbols into `syms`.
pub fn parse_program(src: &str, syms: &mut Interner) -> Result<Vec<Clause>> {
    let mut p = Parser::new(src, syms);
    let mut out = Vec::new();
    loop {
        p.skip_ws();
        if p.at_end() {
            return Ok(out);
        }
        out.push(p.clause()?);
    }
}

/// Parses a single atom (e.g. a query pattern `tc(a, X)`), interning
/// symbols into `syms`. Returns the atom and the number of distinct
/// variables.
pub fn parse_atom(src: &str, syms: &mut Interner) -> Result<(Atom, u32)> {
    let mut p = Parser::new(src, syms);
    p.skip_ws();
    let atom = p.atom()?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.err("trailing input after atom"));
    }
    Ok((atom, p.nvars()))
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
    syms: &'a mut Interner,
    vars: HashMap<String, Var>,
    var_names: Vec<String>,
    /// Current nesting depth (see [`MAX_NESTING`]).
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str, syms: &'a mut Interner) -> Self {
        Parser {
            src: src.as_bytes(),
            pos: 0,
            syms,
            vars: HashMap::new(),
            var_names: Vec::new(),
            depth: 0,
        }
    }

    /// Goes one nesting level deeper, failing past [`MAX_NESTING`].
    fn deepen(&mut self) -> Result<()> {
        if self.depth >= MAX_NESTING {
            return Err(self.err(&format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    /// Runs `f` one nesting level deeper, failing past [`MAX_NESTING`].
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        self.deepen()?;
        let out = f(self);
        self.depth -= 1;
        out
    }

    fn nvars(&self) -> u32 {
        self.var_names.len() as u32
    }

    fn err(&self, msg: &str) -> DatalogError {
        let line = 1 + self.src[..self.pos.min(self.src.len())]
            .iter()
            .filter(|&&b| b == b'\n')
            .count();
        DatalogError::Parse {
            offset: self.pos,
            line,
            message: msg.to_string(),
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.src.len()
    }

    fn peek(&self) -> u8 {
        self.src.get(self.pos).copied().unwrap_or(0)
    }

    fn peek2(&self) -> u8 {
        self.src.get(self.pos + 1).copied().unwrap_or(0)
    }

    fn bump(&mut self) -> u8 {
        let b = self.peek();
        self.pos += 1;
        b
    }

    fn skip_ws(&mut self) {
        loop {
            while !self.at_end() && self.peek().is_ascii_whitespace() {
                self.pos += 1;
            }
            if self.peek() == b'%' || (self.peek() == b'/' && self.peek2() == b'/') {
                while !self.at_end() && self.peek() != b'\n' {
                    self.pos += 1;
                }
            } else {
                return;
            }
        }
    }

    fn eat(&mut self, s: &str) -> bool {
        self.skip_ws();
        if self.src[self.pos..].starts_with(s.as_bytes()) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, s: &str) -> Result<()> {
        if self.eat(s) {
            Ok(())
        } else {
            Err(self.err(&format!("expected `{s}`")))
        }
    }

    fn ident(&mut self) -> Option<String> {
        self.skip_ws();
        let start = self.pos;
        if !(self.peek().is_ascii_alphabetic() || self.peek() == b'_') {
            return None;
        }
        while self.peek().is_ascii_alphanumeric() || self.peek() == b'_' {
            self.pos += 1;
        }
        Some(String::from_utf8_lossy(&self.src[start..self.pos]).into_owned())
    }

    fn var(&mut self, name: String) -> Var {
        if name == "_" {
            let v = Var(self.nvars());
            self.var_names.push(format!("_{}", v.0));
            return v;
        }
        if let Some(&v) = self.vars.get(&name) {
            return v;
        }
        let v = Var(self.nvars());
        self.vars.insert(name.clone(), v);
        self.var_names.push(name);
        v
    }

    fn string_lit(&mut self) -> Result<String> {
        // Caller consumed the opening quote.
        let mut s = String::new();
        loop {
            if self.at_end() {
                return Err(self.err("unterminated string literal"));
            }
            match self.bump() {
                b'"' => return Ok(s),
                b'\\' => match self.bump() {
                    b'"' => s.push('"'),
                    b'\\' => s.push('\\'),
                    b'n' => s.push('\n'),
                    b't' => s.push('\t'),
                    c => return Err(self.err(&format!("bad escape \\{}", c as char))),
                },
                c => s.push(c as char),
            }
        }
    }

    fn integer(&mut self) -> Result<i64> {
        self.skip_ws();
        let start = self.pos;
        if self.peek() == b'-' {
            self.pos += 1;
        }
        if !self.peek().is_ascii_digit() {
            self.pos = start;
            return Err(self.err("expected integer"));
        }
        while self.peek().is_ascii_digit() {
            self.pos += 1;
        }
        std::str::from_utf8(&self.src[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| self.err("integer out of range"))
    }

    /// term := VAR | INT | STRING | ident [ '(' term, .. ')' ]
    fn term(&mut self) -> Result<Term> {
        self.skip_ws();
        if self.peek() == b'"' {
            self.pos += 1;
            let s = self.string_lit()?;
            return Ok(Term::Const(self.syms.intern(&s)));
        }
        if self.peek().is_ascii_digit() || (self.peek() == b'-' && self.peek2().is_ascii_digit()) {
            return self.integer().map(Term::Int);
        }
        let Some(name) = self.ident() else {
            return Err(self.err("expected term"));
        };
        if name.starts_with(|c: char| c.is_ascii_uppercase()) || name.starts_with('_') {
            return Ok(Term::Var(self.var(name)));
        }
        if self.eat("(") {
            let args = self.nested(|p| {
                let mut args = vec![p.term()?];
                while p.eat(",") {
                    args.push(p.term()?);
                }
                p.expect(")")?;
                Ok(args)
            })?;
            Ok(Term::func(self.syms.intern(&name), args))
        } else {
            Ok(Term::Const(self.syms.intern(&name)))
        }
    }

    /// atom := ident [ '(' term, .. ')' ]
    fn atom(&mut self) -> Result<Atom> {
        self.skip_ws();
        let Some(name) = self.ident() else {
            return Err(self.err("expected predicate name"));
        };
        if name.starts_with(|c: char| c.is_ascii_uppercase()) || name.starts_with('_') {
            return Err(self.err("predicate names must start lowercase"));
        }
        let pred = self.syms.intern(&name);
        let mut args = Vec::new();
        if self.eat("(") {
            args.push(self.term()?);
            while self.eat(",") {
                args.push(self.term()?);
            }
            self.expect(")")?;
        }
        Ok(Atom::new(pred, args))
    }

    /// expr := mul (('+'|'-') mul)*
    ///
    /// Every operator deepens the left-leaning tree by one level, so it
    /// counts against [`MAX_NESTING`] until the whole expression is parsed.
    fn expr(&mut self) -> Result<Expr> {
        let depth = self.depth;
        let out = self.expr_sum();
        self.depth = depth;
        out
    }

    fn expr_sum(&mut self) -> Result<Expr> {
        let mut lhs = self.expr_mul()?;
        loop {
            self.skip_ws();
            let add = if self.eat("+") {
                true
            } else if self.peek() == b'-' {
                self.pos += 1;
                false
            } else {
                return Ok(lhs);
            };
            self.deepen()?;
            let (l, r) = (Box::new(lhs), Box::new(self.expr_mul()?));
            lhs = if add {
                Expr::Add(l, r)
            } else {
                Expr::Sub(l, r)
            };
        }
    }

    /// mul := prim (('*'|'/') prim)*
    fn expr_mul(&mut self) -> Result<Expr> {
        let mut lhs = self.expr_prim()?;
        loop {
            self.skip_ws();
            let mul = if self.eat("*") {
                true
            } else if self.peek() == b'/' && self.peek2() != b'/' {
                self.pos += 1;
                false
            } else {
                return Ok(lhs);
            };
            self.deepen()?;
            let (l, r) = (Box::new(lhs), Box::new(self.expr_prim()?));
            lhs = if mul {
                Expr::Mul(l, r)
            } else {
                Expr::Div(l, r)
            };
        }
    }

    fn expr_prim(&mut self) -> Result<Expr> {
        self.skip_ws();
        if self.eat("(") {
            let e = self.nested(Self::expr)?;
            self.expect(")")?;
            return Ok(e);
        }
        self.term().map(Expr::Term)
    }

    fn cmp_op(&mut self) -> Option<CmpOp> {
        self.skip_ws();
        for (tok, op) in [
            ("!=", CmpOp::Ne),
            ("<=", CmpOp::Le),
            (">=", CmpOp::Ge),
            ("<", CmpOp::Lt),
            (">", CmpOp::Gt),
            ("=", CmpOp::Eq),
        ] {
            let bytes = tok.as_bytes();
            if self.src[self.pos..].starts_with(bytes) {
                // Don't confuse `=` with `:-`-like constructs; `=` alone
                // is fine here because `:-` is consumed before bodies.
                self.pos += bytes.len();
                return Some(op);
            }
        }
        None
    }

    fn agg_func(name: &str) -> Option<AggFunc> {
        match name {
            "count" => Some(AggFunc::Count),
            "sum" => Some(AggFunc::Sum),
            "min" => Some(AggFunc::Min),
            "max" => Some(AggFunc::Max),
            _ => None,
        }
    }

    /// aggregate := func '{' term [ '[' var,.. ']' ] (':'|';') body '}'
    fn aggregate(&mut self, func: AggFunc, result: Var) -> Result<BodyItem> {
        self.expect("{")?;
        let value = self.term()?;
        let mut group_by = Vec::new();
        if self.eat("[") {
            loop {
                let Some(name) = self.ident() else {
                    return Err(self.err("expected grouping variable"));
                };
                if !(name.starts_with(|c: char| c.is_ascii_uppercase()) || name.starts_with('_')) {
                    return Err(self.err("grouping names must be variables"));
                }
                group_by.push(self.var(name));
                if !self.eat(",") {
                    break;
                }
            }
            self.expect("]")?;
        }
        self.skip_ws();
        if !self.eat(":") && !self.eat(";") {
            return Err(self.err("expected `:` or `;` in aggregate"));
        }
        let mut body = vec![self.body_item()?];
        while self.eat(",") {
            body.push(self.body_item()?);
        }
        self.expect("}")?;
        Ok(BodyItem::Agg(Aggregate {
            func,
            value,
            group_by,
            body,
            result,
        }))
    }

    fn body_item(&mut self) -> Result<BodyItem> {
        self.skip_ws();
        // `not atom`
        let save = self.pos;
        if let Some(word) = self.ident() {
            if word == "not" {
                return Ok(BodyItem::Neg(self.atom()?));
            }
            self.pos = save;
        }
        let lhs = self.expr()?;
        if let Some(op) = self.cmp_op() {
            // `V = agg{...}`?
            if op == CmpOp::Eq {
                let save2 = self.pos;
                if let Some(word) = self.ident() {
                    if let Some(func) = Self::agg_func(&word) {
                        self.skip_ws();
                        if self.peek() == b'{' {
                            let Expr::Term(Term::Var(result)) = lhs else {
                                return Err(self.err("aggregate result must be a single variable"));
                            };
                            return self.nested(|p| p.aggregate(func, result));
                        }
                    }
                    self.pos = save2;
                }
                // `term = expr` is an assignment when lhs is a plain term.
                if let Expr::Term(t) = lhs {
                    let rhs = self.expr()?;
                    return Ok(BodyItem::Assign(t, rhs));
                }
            }
            let rhs = self.expr()?;
            return Ok(BodyItem::Cmp(op, lhs, rhs));
        }
        // Otherwise it must be a positive atom: a constant (0-ary) or a
        // function-shaped call reinterpreted as a predicate.
        match lhs {
            Expr::Term(Term::Const(pred)) => Ok(BodyItem::Pos(Atom::new(pred, Vec::new()))),
            Expr::Term(Term::Func(pred, args)) => Ok(BodyItem::Pos(Atom::new(pred, args.to_vec()))),
            _ => Err(self.err("expected atom, comparison, or assignment")),
        }
    }

    fn clause(&mut self) -> Result<Clause> {
        self.vars.clear();
        self.var_names.clear();
        let head = self.atom()?;
        self.skip_ws();
        if self.eat(".") {
            if !head.is_ground() {
                return Err(self.err("facts must be ground"));
            }
            return Ok(Clause::Fact(head));
        }
        self.expect(":-")?;
        let mut body = vec![self.body_item()?];
        while self.eat(",") {
            body.push(self.body_item()?);
        }
        self.expect(".")?;
        let rule = Rule::compile_named(
            head,
            body,
            self.nvars(),
            std::mem::take(&mut self.var_names),
            self.syms,
        )?;
        Ok(Clause::Rule(rule))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> (Vec<Clause>, Interner) {
        let mut syms = Interner::new();
        let clauses = parse_program(src, &mut syms).unwrap();
        (clauses, syms)
    }

    #[test]
    fn parses_facts_and_rules() {
        let (cs, _) = parse_ok(
            "edge(a,b). edge(b,c).\n\
             tc(X,Y) :- edge(X,Y).\n\
             tc(X,Y) :- tc(X,Z), edge(Z,Y).",
        );
        assert_eq!(cs.len(), 4);
        assert!(matches!(cs[0], Clause::Fact(_)));
        assert!(matches!(cs[2], Clause::Rule(_)));
    }

    #[test]
    fn parses_negation_and_comparison() {
        let (cs, _) = parse_ok("p(X) :- q(X), not r(X), X != a.");
        let Clause::Rule(r) = &cs[0] else { panic!() };
        assert_eq!(r.body.len(), 3);
    }

    #[test]
    fn parses_strings_and_integers() {
        let (cs, syms) = parse_ok(r#"loc("Purkinje Cell", -3)."#);
        let Clause::Fact(f) = &cs[0] else { panic!() };
        assert_eq!(f.args[0], Term::Const(syms.get("Purkinje Cell").unwrap()));
        assert_eq!(f.args[1], Term::Int(-3));
    }

    #[test]
    fn parses_aggregate_with_grouping() {
        let (cs, _) = parse_ok("card(B,N) :- N = count{ A [B] : r(A,B) }, N != 1.");
        let Clause::Rule(r) = &cs[0] else { panic!() };
        assert!(r
            .body
            .iter()
            .any(|b| matches!(b, BodyItem::Agg(a) if a.group_by.len() == 1)));
        assert!(r.body.iter().any(|b| matches!(b, BodyItem::Cmp(..))));
    }

    #[test]
    fn parses_paper_semicolon_aggregate() {
        let (cs, _) = parse_ok("w(VB,N) :- N = count{ VA [VB] ; r(VA,VB) }.");
        assert_eq!(cs.len(), 1);
    }

    #[test]
    fn parses_arithmetic_assignment() {
        let (cs, _) = parse_ok("p(X,Y) :- n(X), Y = X * 2 + 1.");
        let Clause::Rule(r) = &cs[0] else { panic!() };
        assert!(r.body.iter().any(|b| matches!(b, BodyItem::Assign(..))));
    }

    #[test]
    fn parses_function_terms() {
        let (cs, syms) = parse_ok("p(f(a, g(b))) :- q(a).");
        let Clause::Rule(r) = &cs[0] else { panic!() };
        let Term::Func(f, args) = &r.head.args[0] else {
            panic!()
        };
        assert_eq!(syms.resolve(*f), "f");
        assert_eq!(args.len(), 2);
    }

    #[test]
    fn anonymous_vars_are_fresh() {
        let (cs, _) = parse_ok("p(X) :- q(X, _), r(X, _).");
        let Clause::Rule(r) = &cs[0] else { panic!() };
        assert_eq!(r.nvars, 3); // X plus two distinct anonymous vars
    }

    #[test]
    fn rejects_nonground_fact() {
        let mut syms = Interner::new();
        assert!(parse_program("p(X).", &mut syms).is_err());
    }

    #[test]
    fn rejects_unsafe_rule() {
        let mut syms = Interner::new();
        let err = parse_program("p(Y) :- q(X).", &mut syms).unwrap_err();
        assert!(matches!(err, DatalogError::UnsafeRule { .. }));
    }

    #[test]
    fn comments_are_skipped() {
        let (cs, _) = parse_ok("% header\np(a). // trailing\n% footer");
        assert_eq!(cs.len(), 1);
    }

    #[test]
    fn zero_ary_atoms() {
        let (cs, _) = parse_ok("flag. p(X) :- q(X), flag.");
        assert_eq!(cs.len(), 2);
        let Clause::Rule(r) = &cs[1] else { panic!() };
        assert!(r
            .body
            .iter()
            .any(|b| matches!(b, BodyItem::Pos(a) if a.args.is_empty())));
    }

    #[test]
    fn parse_atom_pattern() {
        let mut syms = Interner::new();
        let (a, nv) = parse_atom("tc(a, X)", &mut syms).unwrap();
        assert_eq!(a.args.len(), 2);
        assert_eq!(nv, 1);
    }

    /// `p(f(f(...f(a)...)))` with `depth` nested `f(`.
    fn nested_fact(depth: usize) -> String {
        format!("p({}a{}).", "f(".repeat(depth), ")".repeat(depth))
    }

    #[test]
    fn nesting_at_the_limit_parses() {
        let (cs, _) = parse_ok(&nested_fact(MAX_NESTING));
        assert_eq!(cs.len(), 1);
        let rule = format!(
            "q(Y) :- r(X), Y = {}X{}.",
            "(".repeat(MAX_NESTING),
            ")".repeat(MAX_NESTING)
        );
        assert_eq!(parse_ok(&rule).0.len(), 1);
        let chain = format!("q(Y) :- r(X), Y = X{}.", "+1".repeat(MAX_NESTING));
        assert_eq!(parse_ok(&chain).0.len(), 1);
    }

    #[test]
    fn nesting_past_the_limit_is_a_parse_error() {
        let mut syms = Interner::new();
        for depth in [MAX_NESTING + 1, 100_000] {
            let err = parse_program(&nested_fact(depth), &mut syms).unwrap_err();
            assert!(matches!(err, DatalogError::Parse { .. }), "{err:?}");
            let pattern = format!("p({}a{})", "f(".repeat(depth), ")".repeat(depth));
            assert!(parse_atom(&pattern, &mut syms).is_err());
            let rule = format!(
                "q(Y) :- r(X), Y = {}X{}.",
                "(".repeat(depth),
                ")".repeat(depth)
            );
            assert!(parse_program(&rule, &mut syms).is_err());
            // A long operator chain builds an equally deep tree.
            let chain = format!("q(Y) :- r(X), Y = X{}.", "*2".repeat(depth));
            assert!(parse_program(&chain, &mut syms).is_err());
        }
    }

    #[test]
    fn error_has_line_numbers() {
        let mut syms = Interner::new();
        let err = parse_program("p(a).\nq(", &mut syms).unwrap_err();
        let DatalogError::Parse { line, .. } = err else {
            panic!()
        };
        assert_eq!(line, 2);
    }
}
