//! Recursive-descent parser for the OCL-like language.

use crate::ast::{BinOp, Expr, UnOp};
use crate::lexer::{lex, LexError, Token, TokenKind};
use std::fmt;

/// Deepest expression tree [`parse`] accepts. Evaluation, printing and
/// dropping an [`Expr`] all recurse over the tree, and constraint bodies
/// can come from outside the program (an imported XMI file), so the
/// parser refuses anything deeper instead of letting a later walk
/// overflow the stack. Left-associative chains (`a + b + c`,
/// `x.f.g`) count one level per link; a parenthesised group counts as
/// a level of nesting too.
pub const MAX_DEPTH: usize = 256;

/// Parsing failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// The lexer failed first.
    Lex(LexError),
    /// An unexpected token was found.
    Unexpected {
        /// What was found.
        found: String,
        /// What the parser wanted.
        expected: String,
        /// Byte offset of the offending token.
        offset: usize,
    },
    /// Input continued after a complete expression.
    TrailingInput {
        /// Byte offset of the first extra token.
        offset: usize,
    },
    /// The expression nests deeper than [`MAX_DEPTH`].
    TooDeep {
        /// Byte offset of the token that crossed the limit.
        offset: usize,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Lex(e) => write!(f, "{e}"),
            ParseError::Unexpected { found, expected, offset } => {
                write!(f, "expected {expected}, found `{found}` at offset {offset}")
            }
            ParseError::TrailingInput { offset } => {
                write!(f, "trailing input at offset {offset}")
            }
            ParseError::TooDeep { offset } => {
                write!(f, "expression nests deeper than {MAX_DEPTH} levels at offset {offset}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError::Lex(e)
    }
}

/// Parses a complete expression.
///
/// # Errors
/// Returns a [`ParseError`] on malformed input, trailing tokens, or a
/// tree deeper than [`MAX_DEPTH`].
pub fn parse(source: &str) -> Result<Expr, ParseError> {
    let tokens = lex(source)?;
    let mut p = Parser { tokens, pos: 0, nesting: 0 };
    let node = p.expression()?;
    if !matches!(p.peek().kind, TokenKind::Eof) {
        return Err(ParseError::TrailingInput { offset: p.peek().offset });
    }
    Ok(node.expr)
}

/// A parsed subtree and its height (a leaf is 1).
struct Node {
    expr: Expr,
    height: usize,
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Open [`Parser::descend`] calls: bounds the parser's own
    /// recursion, which parentheses deepen without adding tree nodes.
    nesting: usize,
}

impl Parser {
    fn too_deep(&self) -> ParseError {
        ParseError::TooDeep { offset: self.peek().offset }
    }

    /// Builds a node over children whose highest is `children` high,
    /// refusing it when the tree would exceed [`MAX_DEPTH`]. Every
    /// inner node goes through here, so no deeper tree is ever built.
    fn node(&self, expr: Expr, children: usize) -> Result<Node, ParseError> {
        if children >= MAX_DEPTH {
            return Err(self.too_deep());
        }
        Ok(Node { expr, height: children + 1 })
    }

    /// Runs `rule` one nesting level down. Every recursive call goes
    /// through here, so input nested past [`MAX_DEPTH`] is refused
    /// before it can exhaust the stack.
    fn descend(
        &mut self,
        rule: fn(&mut Self) -> Result<Node, ParseError>,
    ) -> Result<Node, ParseError> {
        if self.nesting >= MAX_DEPTH {
            return Err(self.too_deep());
        }
        self.nesting += 1;
        let result = rule(self);
        self.nesting -= 1;
        result
    }

    /// The node `lhs op rhs`.
    fn binary(&self, op: BinOp, lhs: Node, rhs: Node) -> Result<Node, ParseError> {
        let children = lhs.height.max(rhs.height);
        self.node(Expr::Binary { op, lhs: Box::new(lhs.expr), rhs: Box::new(rhs.expr) }, children)
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, kind: &TokenKind, what: &str) -> Result<(), ParseError> {
        if &self.peek().kind == kind {
            self.bump();
            Ok(())
        } else {
            Err(self.unexpected(what))
        }
    }

    fn unexpected(&self, expected: &str) -> ParseError {
        ParseError::Unexpected {
            found: self.peek().kind.to_string(),
            expected: expected.to_owned(),
            offset: self.peek().offset,
        }
    }

    fn ident(&mut self, what: &str) -> Result<String, ParseError> {
        match &self.peek().kind {
            TokenKind::Ident(name) => {
                let n = name.clone();
                self.bump();
                Ok(n)
            }
            _ => Err(self.unexpected(what)),
        }
    }

    fn expression(&mut self) -> Result<Node, ParseError> {
        match self.peek().kind {
            TokenKind::Let => {
                self.bump();
                let var = self.ident("let variable name")?;
                self.expect(&TokenKind::Eq, "`=` in let binding")?;
                let value = self.descend(Self::expression)?;
                self.expect(&TokenKind::In, "`in` after let binding")?;
                let body = self.descend(Self::expression)?;
                let children = value.height.max(body.height);
                self.node(
                    Expr::Let { var, value: Box::new(value.expr), body: Box::new(body.expr) },
                    children,
                )
            }
            TokenKind::If => {
                self.bump();
                let cond = self.descend(Self::expression)?;
                self.expect(&TokenKind::Then, "`then`")?;
                let then_branch = self.descend(Self::expression)?;
                self.expect(&TokenKind::Else, "`else`")?;
                let else_branch = self.descend(Self::expression)?;
                self.expect(&TokenKind::Endif, "`endif`")?;
                let children = cond.height.max(then_branch.height).max(else_branch.height);
                self.node(
                    Expr::If {
                        cond: Box::new(cond.expr),
                        then_branch: Box::new(then_branch.expr),
                        else_branch: Box::new(else_branch.expr),
                    },
                    children,
                )
            }
            _ => self.implies(),
        }
    }

    fn implies(&mut self) -> Result<Node, ParseError> {
        let lhs = self.or_expr()?;
        // `implies` is right-associative.
        if matches!(self.peek().kind, TokenKind::Implies) {
            self.bump();
            let rhs = self.descend(Self::implies)?;
            return self.binary(BinOp::Implies, lhs, rhs);
        }
        Ok(lhs)
    }

    fn or_expr(&mut self) -> Result<Node, ParseError> {
        let mut lhs = self.and_expr()?;
        loop {
            let op = match self.peek().kind {
                TokenKind::Or => BinOp::Or,
                TokenKind::Xor => BinOp::Xor,
                _ => break,
            };
            self.bump();
            let rhs = self.and_expr()?;
            lhs = self.binary(op, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Node, ParseError> {
        let mut lhs = self.comparison()?;
        while matches!(self.peek().kind, TokenKind::And) {
            self.bump();
            let rhs = self.comparison()?;
            lhs = self.binary(BinOp::And, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn comparison(&mut self) -> Result<Node, ParseError> {
        let lhs = self.additive()?;
        let op = match self.peek().kind {
            TokenKind::Eq => BinOp::Eq,
            TokenKind::Ne => BinOp::Ne,
            TokenKind::Lt => BinOp::Lt,
            TokenKind::Le => BinOp::Le,
            TokenKind::Gt => BinOp::Gt,
            TokenKind::Ge => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.additive()?;
        self.binary(op, lhs, rhs)
    }

    fn additive(&mut self) -> Result<Node, ParseError> {
        let mut lhs = self.multiplicative()?;
        loop {
            let op = match self.peek().kind {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.multiplicative()?;
            lhs = self.binary(op, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn multiplicative(&mut self) -> Result<Node, ParseError> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek().kind {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                TokenKind::Mod => BinOp::Mod,
                _ => break,
            };
            self.bump();
            let rhs = self.unary()?;
            lhs = self.binary(op, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Node, ParseError> {
        let op = match self.peek().kind {
            TokenKind::Minus => UnOp::Neg,
            TokenKind::Not => UnOp::Not,
            _ => return self.postfix(),
        };
        self.bump();
        let operand = self.descend(Self::unary)?;
        self.node(Expr::Unary { op, operand: Box::new(operand.expr) }, operand.height)
    }

    fn postfix(&mut self) -> Result<Node, ParseError> {
        let mut node = self.primary()?;
        loop {
            match self.peek().kind {
                TokenKind::Dot => {
                    self.bump();
                    let name = self.ident("property or method name")?;
                    let recv = Box::new(node.expr);
                    node = if matches!(self.peek().kind, TokenKind::LParen) {
                        self.bump();
                        let (args, height) = self.arguments()?;
                        self.node(
                            Expr::MethodCall { recv, method: name, args },
                            node.height.max(height),
                        )?
                    } else {
                        self.node(Expr::Property { recv, prop: name }, node.height)?
                    };
                }
                TokenKind::Arrow => {
                    self.bump();
                    let name = self.ident("collection operation name")?;
                    self.expect(&TokenKind::LParen, "`(` after collection operation")?;
                    // Iterator form: `ident |` lookahead.
                    let is_iter = matches!(self.peek().kind, TokenKind::Ident(_))
                        && matches!(
                            self.tokens.get(self.pos + 1).map(|t| &t.kind),
                            Some(TokenKind::Pipe)
                        );
                    let recv = Box::new(node.expr);
                    node = if is_iter {
                        let var = self.ident("iterator variable")?;
                        self.expect(&TokenKind::Pipe, "`|`")?;
                        let body = self.descend(Self::expression)?;
                        self.expect(&TokenKind::RParen, "`)`")?;
                        self.node(
                            Expr::Iterate { recv, op: name, var, body: Box::new(body.expr) },
                            node.height.max(body.height),
                        )?
                    } else {
                        let (args, height) = self.arguments()?;
                        self.node(
                            Expr::CollectionCall { recv, op: name, args },
                            node.height.max(height),
                        )?
                    };
                }
                _ => break,
            }
        }
        Ok(node)
    }

    /// A call's arguments after its `(`, with the height of the highest.
    fn arguments(&mut self) -> Result<(Vec<Expr>, usize), ParseError> {
        let mut args = Vec::new();
        let mut height = 0;
        if matches!(self.peek().kind, TokenKind::RParen) {
            self.bump();
            return Ok((args, height));
        }
        loop {
            let arg = self.descend(Self::expression)?;
            height = height.max(arg.height);
            args.push(arg.expr);
            match self.peek().kind {
                TokenKind::Comma => {
                    self.bump();
                }
                TokenKind::RParen => {
                    self.bump();
                    break;
                }
                _ => return Err(self.unexpected("`,` or `)`")),
            }
        }
        Ok((args, height))
    }

    fn primary(&mut self) -> Result<Node, ParseError> {
        let t = self.peek().clone();
        let leaf = match t.kind {
            TokenKind::Int(i) => Expr::Int(i),
            TokenKind::Real(r) => Expr::Real(r),
            TokenKind::Str(s) => Expr::Str(s),
            TokenKind::Bool(b) => Expr::Bool(b),
            TokenKind::SelfKw => Expr::SelfRef,
            TokenKind::Ident(name) => Expr::Var(name),
            TokenKind::LParen => {
                self.bump();
                let e = self.descend(Self::expression)?;
                self.expect(&TokenKind::RParen, "`)`")?;
                return Ok(e);
            }
            _ => return Err(self.unexpected("an expression")),
        };
        self.bump();
        Ok(Node { expr: leaf, height: 1 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_precedence() {
        let e = parse("1 + 2 * 3").unwrap();
        assert_eq!(e.to_string(), "1 + 2 * 3");
        let e = parse("(1 + 2) * 3").unwrap();
        assert_eq!(e.to_string(), "(1 + 2) * 3");
        let e = parse("not a and b").unwrap();
        // `not` binds tighter than `and`.
        assert_eq!(e.to_string(), "not a and b");
    }

    #[test]
    fn parses_implies_right_assoc() {
        let e = parse("a implies b implies c").unwrap();
        match e {
            Expr::Binary { op: BinOp::Implies, rhs, .. } => {
                assert!(matches!(*rhs, Expr::Binary { op: BinOp::Implies, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_navigation_chain() {
        let e = parse("self.owner.name").unwrap();
        assert_eq!(e.to_string(), "self.owner.name");
    }

    #[test]
    fn parses_iterators_and_calls() {
        let e = parse("self.operations->forAll(o | o.parameters->size() <= 4)").unwrap();
        assert_eq!(e.to_string(), "self.operations->forAll(o | o.parameters->size() <= 4)");
        let e = parse("Class.allInstances()->select(c | c.name = 'Bank')->size() = 1").unwrap();
        assert!(matches!(e, Expr::Binary { op: BinOp::Eq, .. }));
    }

    #[test]
    fn parses_let_and_if() {
        let e = parse("let n = self.name in if n = 'x' then 1 else 2 endif").unwrap();
        assert_eq!(e.to_string(), "let n = self.name in if n = 'x' then 1 else 2 endif");
    }

    #[test]
    fn parses_method_calls_with_args() {
        let e = parse("self.taggedValue('key')").unwrap();
        assert!(matches!(e, Expr::MethodCall { .. }));
        let e = parse("s.concat('a', 'b')").unwrap();
        match e {
            Expr::MethodCall { args, .. } => assert_eq!(args.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_trailing_input_and_bad_tokens() {
        assert!(matches!(parse("1 2"), Err(ParseError::TrailingInput { .. })));
        assert!(matches!(parse("1 +"), Err(ParseError::Unexpected { .. })));
        assert!(matches!(parse("let = 3 in x"), Err(ParseError::Unexpected { .. })));
        assert!(matches!(parse("if a then b else c"), Err(ParseError::Unexpected { .. })));
        assert!(matches!(parse("#"), Err(ParseError::Lex(_))));
    }

    /// Far past the limit: each of these overflowed the stack (in the
    /// parser, or in evaluating, printing or dropping the tree it built)
    /// before the depth bound existed.
    const HOSTILE: usize = 100_000;

    fn too_deep(source: &str) -> bool {
        matches!(parse(source), Err(ParseError::TooDeep { .. }))
    }

    /// Runs `f` on a thread with a main thread's 8 MiB stack: the
    /// harness's 2 MiB test threads are too small for an unoptimized
    /// parser at [`MAX_DEPTH`].
    fn on_main_sized_stack(f: impl FnOnce() + Send + 'static) {
        std::thread::Builder::new()
            .stack_size(8 << 20)
            .spawn(f)
            .expect("thread spawns")
            .join()
            .expect("assertions hold");
    }

    #[test]
    fn deeply_nested_input_is_rejected() {
        on_main_sized_stack(|| {
            let n = HOSTILE;
            assert!(too_deep(&format!("{}1{}", "(".repeat(n), ")".repeat(n))));
            assert!(too_deep(&format!("{}true", "not ".repeat(n))));
            assert!(too_deep(&format!("{}1", "- ".repeat(n))));
            assert!(too_deep(&format!("{}true", "true implies ".repeat(n))));
            assert!(too_deep(&format!("{}1", "let x = 1 in ".repeat(n))));
            assert!(too_deep(&format!(
                "{}1{}",
                "if true then ".repeat(n),
                " else 2 endif".repeat(n)
            )));
            assert!(too_deep(&format!("{}1{}", "x.f(".repeat(n), ")".repeat(n))));
            assert!(too_deep(&format!(
                "s->forAll(x | {}true{})",
                "s->exists(y | ".repeat(n),
                ")".repeat(n)
            )));
        });
    }

    #[test]
    fn long_left_associative_chains_are_rejected() {
        on_main_sized_stack(|| {
            let n = HOSTILE;
            assert!(too_deep(&format!("1{}", " + 1".repeat(n))));
            assert!(too_deep(&format!("1{}", " * 1".repeat(n))));
            assert!(too_deep(&format!("true{}", " and true".repeat(n))));
            assert!(too_deep(&format!("true{}", " or true".repeat(n))));
            assert!(too_deep(&format!("self{}", ".owner".repeat(n))));
            assert!(too_deep(&format!("s{}", "->size()".repeat(n))));
            let err = parse(&format!("1{}", " + 1".repeat(n))).unwrap_err();
            assert!(err.to_string().contains(&format!("deeper than {MAX_DEPTH} levels")), "{err}");
        });
    }

    #[test]
    fn trees_at_the_limit_parse_and_evaluate() {
        on_main_sized_stack(|| {
            let chain = format!("1{}", " + 1".repeat(MAX_DEPTH - 1));
            let model = comet_model::Model::new("m");
            let ctx = crate::Context::for_model(&model);
            assert_eq!(crate::evaluate(&chain, &ctx).unwrap(), crate::Value::Int(MAX_DEPTH as i64));
            assert_eq!(parse(&parse(&chain).unwrap().to_string()).unwrap(), parse(&chain).unwrap());
            assert!(too_deep(&format!("{chain} + 1")));
            let negations = format!("{}true", "not ".repeat(MAX_DEPTH - 1));
            assert_eq!(crate::evaluate(&negations, &ctx).unwrap(), crate::Value::Bool(false));
            assert!(too_deep(&format!("not {negations}")));
            let parens = MAX_DEPTH - 1;
            assert!(parse(&format!("{}1{}", "(".repeat(parens), ")".repeat(parens))).is_ok());
        });
    }

    #[test]
    fn pretty_print_reparses_identically() {
        for src in [
            "1 + 2 * 3 - 4 / 5 mod 6",
            "self.operations->forAll(o | o.name <> '' and o.parameters->size() >= 0)",
            "a implies b or c and not d",
            "let x = 1 + 1 in x * x",
            "if a = b then 'yes' else 'no' endif",
            "self.taggedValue('k') = 'v'",
            "-3 + -x",
        ] {
            let e1 = parse(src).unwrap();
            let printed = e1.to_string();
            let e2 = parse(&printed).unwrap();
            assert_eq!(e1, e2, "round-trip failed for `{src}` -> `{printed}`");
        }
    }
}
