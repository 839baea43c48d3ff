//! The Java-like code IR. These are passive, compound data structures in
//! the C spirit; fields are public by design so that generators, weavers
//! and the interpreter can pattern-match freely.

use std::collections::BTreeMap;
use std::fmt;

/// A complete generated program: a set of classes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Program (artifact) name.
    pub name: String,
    /// Top-level classes.
    pub classes: Vec<ClassDecl>,
}

impl Program {
    /// Creates an empty program.
    pub fn new(name: impl Into<String>) -> Self {
        Program { name: name.into(), classes: Vec::new() }
    }

    /// Finds a class by name.
    pub fn find_class(&self, name: &str) -> Option<&ClassDecl> {
        self.classes.iter().find(|c| c.name == name)
    }

    /// Finds a class by name, mutably.
    pub fn find_class_mut(&mut self, name: &str) -> Option<&mut ClassDecl> {
        self.classes.iter_mut().find(|c| c.name == name)
    }

    /// Finds a method `class::method`.
    pub fn find_method(&self, class: &str, method: &str) -> Option<&MethodDecl> {
        self.find_class(class)?.methods.iter().find(|m| m.name == method)
    }

    /// Total number of statements across all method bodies (a size metric
    /// used by the E5 generator-ablation experiment).
    pub fn statement_count(&self) -> usize {
        self.classes.iter().flat_map(|c| &c.methods).map(|m| m.body.statement_count()).sum()
    }
}

/// An annotation attached to a class or method; generated from model
/// stereotypes, matched by pointcuts.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Annotation {
    /// Annotation name, e.g. `Transactional`.
    pub name: String,
    /// Named parameters.
    pub params: BTreeMap<String, String>,
}

impl Annotation {
    /// Creates a parameterless annotation.
    pub fn new(name: impl Into<String>) -> Self {
        Annotation { name: name.into(), params: BTreeMap::new() }
    }

    /// Adds a parameter, builder style.
    pub fn with_param(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.params.insert(key.into(), value.into());
        self
    }
}

/// Types of the code IR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrType {
    /// 64-bit integer.
    Int,
    /// 64-bit float.
    Real,
    /// Boolean.
    Bool,
    /// String.
    Str,
    /// No value (method return only).
    Void,
    /// Reference to a class by name.
    Object(String),
    /// Homogeneous list.
    List(Box<IrType>),
}

impl fmt::Display for IrType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrType::Int => write!(f, "long"),
            IrType::Real => write!(f, "double"),
            IrType::Bool => write!(f, "boolean"),
            IrType::Str => write!(f, "String"),
            IrType::Void => write!(f, "void"),
            IrType::Object(n) => write!(f, "{n}"),
            IrType::List(t) => write!(f, "List<{t}>"),
        }
    }
}

/// A class declaration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClassDecl {
    /// Class name.
    pub name: String,
    /// Annotations (from stereotypes and concern marks).
    pub annotations: Vec<Annotation>,
    /// Fields.
    pub fields: Vec<FieldDecl>,
    /// Methods.
    pub methods: Vec<MethodDecl>,
    /// Documentation comment.
    pub doc: String,
}

impl ClassDecl {
    /// Creates an empty class.
    pub fn new(name: impl Into<String>) -> Self {
        ClassDecl { name: name.into(), ..ClassDecl::default() }
    }

    /// Returns true when the class carries the named annotation.
    pub fn has_annotation(&self, name: &str) -> bool {
        self.annotations.iter().any(|a| a.name == name)
    }

    /// Returns the named annotation, if present.
    pub fn annotation(&self, name: &str) -> Option<&Annotation> {
        self.annotations.iter().find(|a| a.name == name)
    }

    /// Finds a method by name.
    pub fn find_method(&self, name: &str) -> Option<&MethodDecl> {
        self.methods.iter().find(|m| m.name == name)
    }

    /// Finds a method by name, mutably.
    pub fn find_method_mut(&mut self, name: &str) -> Option<&mut MethodDecl> {
        self.methods.iter_mut().find(|m| m.name == name)
    }
}

/// A field declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldDecl {
    /// Field name.
    pub name: String,
    /// Field type.
    pub ty: IrType,
    /// Optional initializer.
    pub init: Option<Expr>,
}

impl FieldDecl {
    /// Creates a field without initializer.
    pub fn new(name: impl Into<String>, ty: IrType) -> Self {
        FieldDecl { name: name.into(), ty, init: None }
    }
}

/// A method parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Parameter type.
    pub ty: IrType,
}

impl Param {
    /// Creates a parameter.
    pub fn new(name: impl Into<String>, ty: IrType) -> Self {
        Param { name: name.into(), ty }
    }
}

/// A method declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodDecl {
    /// Method name.
    pub name: String,
    /// Parameters in order.
    pub params: Vec<Param>,
    /// Return type.
    pub ret: IrType,
    /// Body.
    pub body: Block,
    /// Annotations (from stereotypes and concern marks).
    pub annotations: Vec<Annotation>,
    /// Static (class-level) method.
    pub is_static: bool,
}

impl MethodDecl {
    /// Creates a `void` method with an empty body.
    pub fn new(name: impl Into<String>) -> Self {
        MethodDecl {
            name: name.into(),
            params: Vec::new(),
            ret: IrType::Void,
            body: Block::default(),
            annotations: Vec::new(),
            is_static: false,
        }
    }

    /// Returns true when the method carries the named annotation.
    pub fn has_annotation(&self, name: &str) -> bool {
        self.annotations.iter().any(|a| a.name == name)
    }

    /// Returns the named annotation, if present.
    pub fn annotation(&self, name: &str) -> Option<&Annotation> {
        self.annotations.iter().find(|a| a.name == name)
    }
}

/// A statement block.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
}

impl Block {
    /// Creates a block from statements.
    pub fn of(stmts: Vec<Stmt>) -> Self {
        Block { stmts }
    }

    /// Counts statements recursively (blocks, branches, handlers).
    pub fn statement_count(&self) -> usize {
        self.stmts.iter().map(Stmt::statement_count).sum()
    }
}

impl FromIterator<Stmt> for Block {
    fn from_iter<I: IntoIterator<Item = Stmt>>(iter: I) -> Self {
        Block { stmts: iter.into_iter().collect() }
    }
}

/// Assignment targets.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// A local variable or parameter.
    Var(String),
    /// A field of an object.
    Field {
        /// Receiver expression.
        recv: Expr,
        /// Field name.
        name: String,
    },
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Local variable declaration.
    Local {
        /// Variable name.
        name: String,
        /// Declared type.
        ty: IrType,
        /// Optional initializer.
        init: Option<Expr>,
    },
    /// Assignment.
    Assign {
        /// Target.
        target: LValue,
        /// Value.
        value: Expr,
    },
    /// Expression statement (usually a call).
    Expr(Expr),
    /// Conditional.
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then_block: Block,
        /// Optional else branch.
        else_block: Option<Block>,
    },
    /// Loop.
    While {
        /// Condition.
        cond: Expr,
        /// Body.
        body: Block,
    },
    /// Return, optionally with a value.
    Return(Option<Expr>),
    /// Throw an exception value.
    Throw(Expr),
    /// Try/catch(/finally).
    TryCatch {
        /// Protected body.
        body: Block,
        /// Exception variable bound in the handler.
        var: String,
        /// Handler block.
        handler: Block,
        /// Optional finally block.
        finally: Option<Block>,
    },
    /// Nested block (scoping).
    Block(Block),
}

impl Stmt {
    /// Counts this statement plus statements nested inside it.
    pub fn statement_count(&self) -> usize {
        match self {
            Stmt::If { then_block, else_block, .. } => {
                1 + then_block.statement_count()
                    + else_block.as_ref().map_or(0, Block::statement_count)
            }
            Stmt::While { body, .. } => 1 + body.statement_count(),
            Stmt::TryCatch { body, handler, finally, .. } => {
                1 + body.statement_count()
                    + handler.statement_count()
                    + finally.as_ref().map_or(0, Block::statement_count)
            }
            Stmt::Block(b) => 1 + b.statement_count(),
            _ => 1,
        }
    }

    /// Shorthand for `Stmt::Return(Some(e))`.
    pub fn ret(e: Expr) -> Stmt {
        Stmt::Return(Some(e))
    }

    /// Shorthand for a local with initializer.
    pub fn local(name: impl Into<String>, ty: IrType, init: Expr) -> Stmt {
        Stmt::Local { name: name.into(), ty, init: Some(init) }
    }

    /// Shorthand for assigning to a field of `this`.
    pub fn set_this_field(name: impl Into<String>, value: Expr) -> Stmt {
        Stmt::Assign { target: LValue::Field { recv: Expr::This, name: name.into() }, value }
    }

    /// Shorthand for assigning to a variable.
    pub fn set_var(name: impl Into<String>, value: Expr) -> Stmt {
        Stmt::Assign { target: LValue::Var(name.into()), value }
    }
}

/// Literals.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// Integer.
    Int(i64),
    /// Real.
    Real(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
    /// Null reference.
    Null,
}

/// Binary operators of the IR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IrBinOp {
    /// `+` (numeric addition or string concatenation).
    Add,
    /// `-`.
    Sub,
    /// `*`.
    Mul,
    /// `/`.
    Div,
    /// `%`.
    Rem,
    /// `==`.
    Eq,
    /// `!=`.
    Ne,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
    /// `&&` (short-circuit).
    And,
    /// `||` (short-circuit).
    Or,
}

impl IrBinOp {
    /// Java surface syntax.
    pub fn symbol(self) -> &'static str {
        match self {
            IrBinOp::Add => "+",
            IrBinOp::Sub => "-",
            IrBinOp::Mul => "*",
            IrBinOp::Div => "/",
            IrBinOp::Rem => "%",
            IrBinOp::Eq => "==",
            IrBinOp::Ne => "!=",
            IrBinOp::Lt => "<",
            IrBinOp::Le => "<=",
            IrBinOp::Gt => ">",
            IrBinOp::Ge => ">=",
            IrBinOp::And => "&&",
            IrBinOp::Or => "||",
        }
    }
}

/// Unary operators of the IR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IrUnOp {
    /// Numeric negation.
    Neg,
    /// Boolean not.
    Not,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal value.
    Lit(Literal),
    /// Local variable or parameter reference.
    Var(String),
    /// The receiver object.
    This,
    /// Field read.
    Field {
        /// Receiver expression.
        recv: Box<Expr>,
        /// Field name.
        name: String,
    },
    /// Method call. `recv = None` calls a method on `this`.
    Call {
        /// Receiver, or `None` for `this`.
        recv: Option<Box<Expr>>,
        /// Method name.
        method: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// Object construction.
    New {
        /// Class name.
        class: String,
        /// Constructor arguments (assigned to fields positionally by the
        /// interpreter when no constructor method exists).
        args: Vec<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: IrBinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: IrUnOp,
        /// Operand.
        operand: Box<Expr>,
    },
    /// Call into the runtime/middleware, e.g. `tx.begin`. The set of
    /// intrinsic names is defined by `comet-interp`.
    Intrinsic {
        /// Intrinsic name, e.g. `"tx.begin"`.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// Placeholder for the original join point inside *around* advice;
    /// replaced by the weaver, never executed directly.
    Proceed(Vec<Expr>),
    /// List literal.
    ListLit(Vec<Expr>),
}

impl Expr {
    /// Integer literal shorthand.
    pub fn int(i: i64) -> Expr {
        Expr::Lit(Literal::Int(i))
    }

    /// String literal shorthand.
    pub fn str(s: impl Into<String>) -> Expr {
        Expr::Lit(Literal::Str(s.into()))
    }

    /// Boolean literal shorthand.
    pub fn bool(b: bool) -> Expr {
        Expr::Lit(Literal::Bool(b))
    }

    /// Null literal shorthand.
    pub fn null() -> Expr {
        Expr::Lit(Literal::Null)
    }

    /// Variable reference shorthand.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var(name.into())
    }

    /// Field-of-`this` shorthand.
    pub fn this_field(name: impl Into<String>) -> Expr {
        Expr::Field { recv: Box::new(Expr::This), name: name.into() }
    }

    /// Call-on-`this` shorthand.
    pub fn call_this(method: impl Into<String>, args: Vec<Expr>) -> Expr {
        Expr::Call { recv: None, method: method.into(), args }
    }

    /// Call-on-receiver shorthand.
    pub fn call(recv: Expr, method: impl Into<String>, args: Vec<Expr>) -> Expr {
        Expr::Call { recv: Some(Box::new(recv)), method: method.into(), args }
    }

    /// Intrinsic call shorthand.
    pub fn intrinsic(name: impl Into<String>, args: Vec<Expr>) -> Expr {
        Expr::Intrinsic { name: name.into(), args }
    }

    /// Binary operation shorthand.
    pub fn binary(op: IrBinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_lookup() {
        let mut p = Program::new("app");
        let mut c = ClassDecl::new("A");
        c.methods.push(MethodDecl::new("f"));
        p.classes.push(c);
        assert!(p.find_class("A").is_some());
        assert!(p.find_method("A", "f").is_some());
        assert!(p.find_method("A", "g").is_none());
        assert!(p.find_class("B").is_none());
    }

    #[test]
    fn statement_count_recurses() {
        let b = Block::of(vec![
            Stmt::Expr(Expr::int(1)),
            Stmt::If {
                cond: Expr::bool(true),
                then_block: Block::of(vec![Stmt::Return(None)]),
                else_block: Some(Block::of(vec![Stmt::Expr(Expr::int(2)), Stmt::Return(None)])),
            },
            Stmt::TryCatch {
                body: Block::of(vec![Stmt::Expr(Expr::int(3))]),
                var: "e".into(),
                handler: Block::of(vec![Stmt::Throw(Expr::var("e"))]),
                finally: None,
            },
        ]);
        assert_eq!(b.statement_count(), 1 + (1 + 1 + 2) + (1 + 1 + 1));
    }

    #[test]
    fn annotations() {
        let mut c = ClassDecl::new("A");
        c.annotations.push(Annotation::new("Remote").with_param("node", "n1"));
        assert!(c.has_annotation("Remote"));
        assert_eq!(c.annotation("Remote").unwrap().params["node"], "n1");
        assert!(!c.has_annotation("Secured"));
    }

    #[test]
    fn type_display() {
        assert_eq!(IrType::Int.to_string(), "long");
        assert_eq!(IrType::Object("A".into()).to_string(), "A");
        assert_eq!(IrType::List(Box::new(IrType::Str)).to_string(), "List<String>");
    }
}
