//! **UDF compilation**: one-time translation of pure scalar `Expr` closures
//! into slot-resolved [`CompiledUdf`] programs, so the lowering phase's
//! per-record UDFs stop paying the tree-walking interpreter's per-`Var`
//! string hashing and per-`Let` environment cloning.
//!
//! The interpreter ([`crate::lower::eval_pure`]) evaluates a UDF body
//! against a `HashMap<String, Value>` for *every record*: each variable
//! reference hashes a string, and each `let`/loop binding mutates a map.
//! Flare (Essertel et al., OSDI '18) showed that once operator plumbing is
//! zero-copy, compiling UDFs out of that interpretive layer is the next big
//! lever — and Labyrinth-style lifted loops re-execute their UDFs every
//! iteration, multiplying the win. This module is that lever for the IR
//! layer:
//!
//! 1. **Slot resolution** — every variable is resolved at compile time to
//!    a parameter or to a local slot. Each `let` and loop binder gets a fresh
//!    local. Shadowing is resolved lexically, so no runtime lookup ever
//!    happens.
//! 2. **Arguments in place** — parameters are read straight from the
//!    caller's `&Value`s (for a lifted closure, the components of its
//!    combined tuple), never copied into a frame. Only locals need storage:
//!    a thread-local `Vec<Value>` reused across records, which a UDF without
//!    locals never touches. Locals are def-before-use by construction (a
//!    binder's slot is written before its body runs), so the buffer never
//!    needs clearing between records.
//! 3. **Constant folding** — capture-only subexpressions (closure constants
//!    are inlined as literals at compile time) fold to single constants,
//!    guarded so that folding can never turn a lazily-avoided runtime error
//!    or a debug-mode overflow panic into a compile-time one.
//! 4. **Pair-bound record parameters** — over a keyed bag, whose records
//!    are native `(key, value)` pairs, the record parameter `kv` is bound to
//!    two arguments ([`CompiledUdf::with_pair_param`], [`Record::Pair`]):
//!    `kv.0` and `kv.1` read them in place, deeper paths walk from them, and
//!    only a bare `kv` builds a tuple. A body that is a literal pair can
//!    return its two components without a tuple
//!    ([`CompiledUdf::eval_record_kv`]).
//! 5. **Shape fast paths** — operators read constants, parameters and
//!    projection chains off a parameter (`v.0.1`, walked with
//!    [`crate::Value::proj_ref`]) by reference; statically `Long`/`Double`
//!    arithmetic (typed via [`ScalarKind`], the type-checker's scalar
//!    refinement) skips the dynamic dispatch, and a chain of `Double`
//!    arithmetic and `toDouble` computes in unboxed `f64`; and
//!    `if a < b then .. else ..` compares straight into the branch without
//!    materializing a boolean `Value`.
//!
//! Compilation is **total** and **semantics-preserving**: unsupported nodes
//! (bag operations in a scalar context, unbound names) compile to ops that
//! reproduce the interpreter's exact runtime error *if and when they are
//! reached* — an `if` whose untaken branch contains a bag op behaves
//! identically in both engines. `eval_pure` stays as the differential-
//! testing oracle (`crates/ir/tests/compiled_udf.rs` pins compiled ==
//! interpreted over hundreds of seeded random expression trees), and
//! `MatryoshkaConfig::interpret_udfs` forces the interpreted path for the
//! `udf_eval` bench ablation. See `docs/ANALYSIS.md`, "UDF compilation".

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use crate::analyze::ScalarKind;
use crate::ast::{BinOp, Expr, UnOp};
use crate::error::{IrError, IrResult};
use crate::lower::{apply_bin, apply_un, eval_pure_mut};
use crate::value::Value;

type PureEnv = HashMap<String, Value>;

/// A pure scalar UDF, compiled once and evaluated per record.
///
/// Construct with [`CompiledUdf::new`], or with
/// [`CompiledUdf::with_pair_param`] for a UDF over keyed records; evaluate
/// with [`CompiledUdf::eval1`] (one-parameter UDFs), [`CompiledUdf::eval2`]
/// (combiners), [`CompiledUdf::eval_with_combined`] (lifted
/// `mapWithClosure` shapes where the closure values arrive as one combined
/// tuple per tag), or the [`Record`]-taking entry points.
pub struct CompiledUdf {
    /// Parameter names, in order.
    params: Vec<String>,
    /// The parameter bound to a keyed record's key and value: it takes two
    /// argument positions, and every later parameter shifts by one.
    pair: Option<usize>,
    mode: Mode,
}

/// One record handed to a UDF's record parameter.
#[derive(Debug, Clone, Copy)]
pub enum Record<'v> {
    /// A row: the record is one value.
    Row(&'v Value),
    /// A keyed record's key and value, for a UDF whose record parameter is
    /// pair-bound ([`CompiledUdf::with_pair_param`]).
    Pair(&'v Value, &'v Value),
}

impl<'v> Record<'v> {
    /// Argument 0 and the pair's value ([`UNIT`] for a row).
    fn args(self) -> (&'v Value, &'v Value) {
        match self {
            Record::Row(v) => (v, &UNIT),
            Record::Pair(k, v) => (k, v),
        }
    }
}

enum Mode {
    /// The compiled program and the number of local slots it binds.
    Compiled { code: Op, locals: usize },
    /// The ablation/debug path: per-record `eval_pure` interpretation, with
    /// the same per-record cost profile the lowering had before compilation
    /// (fresh capture-env clone + name insertion per record).
    Interpreted { body: Arc<Expr>, captures: PureEnv },
}

/// Where a variable lives while a UDF runs. Arguments are the caller's
/// values, read in place and never copied.
#[derive(Clone, Copy)]
enum Slot {
    /// Argument `i`: 0 is the record (a pair-bound record's key), or the
    /// first parameter; the other parameters follow in order.
    Arg(usize),
    /// A pair-bound record's value.
    Second,
    /// Local `i` of the frame: a `let` or `loop` binder.
    Local(usize),
}

/// What a name in scope stands for at compile time.
#[derive(Clone, Copy)]
enum Bind {
    /// A variable in one slot.
    Slot(Slot),
    /// The pair-bound parameter: argument 0 and [`Slot::Second`].
    Pair,
}

/// A compiled scalar operation.
enum Op {
    /// A literal (also: inlined closure captures and folded constants).
    Const(Value),
    /// Read a variable.
    Slot(Slot),
    /// Projection chain rooted at a variable: walk by reference.
    ProjPath(Slot, Box<[usize]>),
    /// Generic projection.
    Proj(Box<Op>, usize),
    /// Tuple construction.
    Tuple(Vec<Op>),
    /// Generic binary operator (delegates to [`apply_bin`]).
    Bin(BinOp, Box<Op>, Box<Op>),
    /// `Eq`/`Lt`/`Gt` inlined (byte-for-byte [`apply_bin`] semantics:
    /// ordering compares through `as_f64`, equality is structural). As the
    /// condition of an `if` or a `loop` it feeds the branch directly, without
    /// materializing a `Bool`.
    Cmp(BinOp, Box<Op>, Box<Op>),
    /// `Add`/`Sub`/`Mul` with both operands statically `Long`.
    LongArith(BinOp, Box<Op>, Box<Op>),
    /// `Add`/`Sub`/`Mul`/`Div` guaranteed to take the `f64` path (at least
    /// one operand statically `Double`, or the operator is `Div`, which
    /// divides the `f64` conversions even of two `Long`s).
    DoubleArith(BinOp, Box<Op>, Box<Op>),
    /// Generic unary operator (delegates to [`apply_un`]).
    Un(UnOp, Box<Op>),
    /// Write a local, then run the body (no restore needed: locals are unique
    /// per binder, so shadowing is resolved at compile time).
    Let(usize, Box<Op>, Box<Op>),
    /// Conditional.
    If(Box<Op>, Box<Op>, Box<Op>),
    /// A scalar `while` loop (boxed: rare, and large).
    While(Box<Loop>),
    /// A node that errors when (and only when) evaluation reaches it —
    /// preserves the interpreter's lazy error behaviour for unbound names
    /// and bag operations in scalar contexts.
    Fail(Box<IrError>),
}

/// Bind the `init` locals in order, then while `cond` holds re-assign all
/// of them simultaneously from `step`.
struct Loop {
    init: Vec<(usize, Op)>,
    cond: Op,
    step: Vec<Op>,
    /// The first of `step.len()` locals that stage the simultaneous
    /// assignment.
    stage: usize,
    result: Op,
}

/// The state of one call: the arguments, borrowed from the caller for the
/// whole call, and the local slots.
struct Frame<'v> {
    /// Argument 0: the record (a pair-bound record's key), or the first
    /// parameter.
    first: &'v Value,
    /// A pair-bound record's value.
    second: &'v Value,
    /// Arguments `1..`: the parameters after the record — `eval2`'s second
    /// argument, a fold step's accumulator, or the components of the
    /// combined closure tuple.
    rest: &'v [Value],
    /// `let`/`loop` binders. Slots are def-before-use by construction (a
    /// binder's slot is written before its body runs), so they are never
    /// cleared between calls.
    locals: &'v mut [Value],
}

/// Filler for [`Frame::second`] when the record is not a pair.
static UNIT: Value = Value::Unit;

impl<'v> Frame<'v> {
    /// Argument `i`, borrowed for the whole call.
    fn arg(&self, i: usize) -> &'v Value {
        if i == 0 {
            self.first
        } else {
            &self.rest[i - 1]
        }
    }

    fn get(&self, s: Slot) -> &Value {
        match s {
            Slot::Arg(i) => self.arg(i),
            Slot::Second => self.second,
            Slot::Local(i) => &self.locals[i],
        }
    }
}

/// The argument of parameter `i`, or `None` for the pair-bound parameter
/// `pair`: the record parameter (`pair`, else parameter 0) is argument 0,
/// and the others follow in order.
fn param_arg(pair: Option<usize>, i: usize) -> Option<usize> {
    let record = pair.unwrap_or(0);
    match i.cmp(&record) {
        std::cmp::Ordering::Equal => pair.is_none().then_some(0),
        std::cmp::Ordering::Less => Some(i + 1),
        std::cmp::Ordering::Greater => Some(i),
    }
}

thread_local! {
    /// Per-thread local slots, reused across records and across UDFs (they
    /// only grow; def-before-use slotting makes stale values unreachable).
    /// UDFs that bind no local never touch it.
    static LOCALS: RefCell<Vec<Value>> = const { RefCell::new(Vec::new()) };
}

/// Run `code` on the caller's arguments with `locals` local slots.
fn call(
    code: &Op,
    locals: usize,
    first: &Value,
    second: &Value,
    rest: &[Value],
) -> IrResult<Value> {
    if locals == 0 {
        return code.run(&mut Frame { first, second, rest, locals: &mut [] });
    }
    LOCALS.with(|cell| match cell.try_borrow_mut() {
        Ok(mut buf) => {
            if buf.len() < locals {
                buf.resize(locals, Value::Unit);
            }
            code.run(&mut Frame { first, second, rest, locals: &mut buf })
        }
        // A re-entrant call: the buffer is in use further up this thread's
        // stack, so this call gets a fresh one instead of a panic.
        Err(_) => {
            code.run(&mut Frame { first, second, rest, locals: &mut vec![Value::Unit; locals] })
        }
    })
}

/// A pair value as its two components.
fn split_pair(v: Value) -> IrResult<(Value, Value)> {
    match v {
        Value::Tuple(items) if items.len() == 2 => Ok((items[0].clone(), items[1].clone())),
        other => Err(IrError::Type(format!("expected a pair, got {other}"))),
    }
}

/// Walk a projection path by reference.
fn walk<'a>(mut cur: &'a Value, path: &[usize]) -> IrResult<&'a Value> {
    for &i in path {
        cur = cur.proj_ref(i)?;
    }
    Ok(cur)
}

impl CompiledUdf {
    /// Compile `body` with the given parameter names (slot order) and
    /// closure captures (inlined as constants). When `interpret` is set the
    /// UDF instead evaluates through the [`crate::eval_pure`] interpreter —
    /// the `udf_eval` ablation arm. Never fails: shapes the compiler cannot
    /// translate become ops that reproduce the interpreter's behaviour.
    pub fn new(body: &Arc<Expr>, params: &[&str], captures: PureEnv, interpret: bool) -> Self {
        Self::build(body, params, None, captures, interpret)
    }

    /// [`CompiledUdf::new`] for a UDF over keyed records: parameter `pair`
    /// is bound to a keyed record's key and value, passed as
    /// [`Record::Pair`]. `kv.0` and `kv.1` read them in place, deeper paths
    /// walk from them, and only a bare `kv` builds the tuple `(key, value)`,
    /// so every result and error equals the interpreter's over that tuple.
    pub fn with_pair_param(
        body: &Arc<Expr>,
        params: &[&str],
        pair: usize,
        captures: PureEnv,
        interpret: bool,
    ) -> Self {
        debug_assert!(pair < params.len());
        Self::build(body, params, Some(pair), captures, interpret)
    }

    fn build(
        body: &Arc<Expr>,
        params: &[&str],
        pair: Option<usize>,
        captures: PureEnv,
        interpret: bool,
    ) -> Self {
        let params_owned: Vec<String> = params.iter().map(|p| p.to_string()).collect();
        if interpret {
            return CompiledUdf {
                params: params_owned,
                pair,
                mode: Mode::Interpreted { body: Arc::clone(body), captures },
            };
        }
        let scope = (0..params.len())
            .map(|i| match param_arg(pair, i) {
                None => (params[i].to_string(), Bind::Pair, ScalarKind::Tuple),
                Some(a) => (params[i].to_string(), Bind::Slot(Slot::Arg(a)), ScalarKind::Any),
            })
            .collect();
        let mut c = Compiler { captures: &captures, scope, next_local: 0 };
        let (code, _) = c.compile(body);
        CompiledUdf {
            params: params_owned,
            pair,
            mode: Mode::Compiled { code, locals: c.next_local },
        }
    }

    /// Number of parameters.
    pub fn arity(&self) -> usize {
        self.params.len()
    }

    /// Evaluate a UDF without parameters (a fold's zero).
    pub fn eval0(&self) -> IrResult<Value> {
        debug_assert!(self.params.is_empty());
        match &self.mode {
            Mode::Compiled { code, locals } => call(code, *locals, &UNIT, &UNIT, &[]),
            Mode::Interpreted { body, captures } => self.interpret(body, captures, &[], &[]),
        }
    }

    /// Evaluate a one-parameter UDF on one record.
    pub fn eval1(&self, v: &Value) -> IrResult<Value> {
        debug_assert!(self.params.len() == 1 && self.pair.is_none());
        self.eval_record(Record::Row(v), None)
    }

    /// Evaluate a two-parameter UDF (a `reduceByKey`/`fold` combiner).
    pub fn eval2(&self, a: &Value, b: &Value) -> IrResult<Value> {
        debug_assert!(self.params.len() == 2 && self.pair.is_none());
        let rest = std::slice::from_ref(b);
        match &self.mode {
            Mode::Compiled { code, locals } => call(code, *locals, a, &UNIT, rest),
            Mode::Interpreted { body, captures } => self.interpret(body, captures, &[a], rest),
        }
    }

    /// Evaluate a lifted-closure UDF: parameter 0 is the record, parameters
    /// `1..` receive the components of the per-tag `combined` closure tuple
    /// (the single tag-joined `mapWithClosure` argument of paper Sec. 5.1).
    pub fn eval_with_combined(&self, v: &Value, combined: &Value) -> IrResult<Value> {
        self.eval_record(Record::Row(v), Some(combined))
    }

    /// Evaluate a record UDF: parameter 0 is the record (a [`Record::Pair`]
    /// exactly when it is pair-bound), and `combined`, when given, carries
    /// parameters `1..` as in [`CompiledUdf::eval_with_combined`].
    pub fn eval_record(&self, rec: Record<'_>, combined: Option<&Value>) -> IrResult<Value> {
        let rest = self.closure_args(&rec, combined);
        let (first, second) = rec.args();
        match &self.mode {
            Mode::Compiled { code, locals } => call(code, *locals, first, second, rest),
            Mode::Interpreted { body, captures } => {
                self.interpret(body, captures, &[first, second], rest)
            }
        }
    }

    /// [`CompiledUdf::eval_record`] for a UDF whose value is a pair, returned
    /// as its two components. A body that is a literal pair `(a, b)` computes
    /// `a` and `b` without building the tuple; any other body's value is
    /// split, and a value that is not a pair is an error.
    pub fn eval_record_kv(
        &self,
        rec: Record<'_>,
        combined: Option<&Value>,
    ) -> IrResult<(Value, Value)> {
        let rest = self.closure_args(&rec, combined);
        let (first, second) = rec.args();
        match &self.mode {
            // The two items of a literal pair are separate expressions: each
            // runs on its own frame, and no tuple is built.
            Mode::Compiled { code: Op::Tuple(items), locals } if items.len() == 2 => Ok((
                call(&items[0], *locals, first, second, rest)?,
                call(&items[1], *locals, first, second, rest)?,
            )),
            Mode::Compiled { code, locals } => {
                split_pair(call(code, *locals, first, second, rest)?)
            }
            Mode::Interpreted { body, captures } => {
                split_pair(self.interpret(body, captures, &[first, second], rest)?)
            }
        }
    }

    /// Evaluate a fold step: parameter 0 is the accumulator, parameter 1 the
    /// record (a [`Record::Pair`] exactly when it is pair-bound).
    pub fn eval_fold(&self, acc: &Value, rec: Record<'_>) -> IrResult<Value> {
        debug_assert_eq!(self.params.len(), 2);
        debug_assert_eq!(matches!(rec, Record::Pair(..)), self.pair == Some(1));
        match rec {
            Record::Row(v) => self.eval2(acc, v),
            // The pair-bound record is argument 0; the accumulator follows.
            Record::Pair(k, v) => {
                let rest = std::slice::from_ref(acc);
                match &self.mode {
                    Mode::Compiled { code, locals } => call(code, *locals, k, v, rest),
                    Mode::Interpreted { body, captures } => {
                        self.interpret(body, captures, &[k, v], rest)
                    }
                }
            }
        }
    }

    /// The parameters after a record UDF's record: the components of the
    /// combined closure tuple, or none.
    fn closure_args<'v>(&self, rec: &Record<'_>, combined: Option<&'v Value>) -> &'v [Value] {
        debug_assert_eq!(matches!(rec, Record::Pair(..)), self.pair == Some(0));
        let Some(combined) = combined else {
            debug_assert_eq!(self.params.len(), 1);
            return &[];
        };
        debug_assert!(self.params.len() >= 2);
        let n = self.params.len() - 1;
        match combined {
            Value::Tuple(items) if items.len() >= n => items.as_slice(),
            // Not a tuple, or too short: the missing component's projection
            // error, as a panic.
            other => {
                other.proj_ref(n - 1).expect("combined closure arity");
                unreachable!("projection of a missing component succeeded")
            }
        }
    }

    /// The interpreted path: bind every parameter in a fresh copy of the
    /// captures and evaluate the body. `head` holds argument 0 and a
    /// pair-bound record's value, `rest` arguments `1..`.
    #[inline(never)]
    fn interpret(
        &self,
        body: &Expr,
        captures: &PureEnv,
        head: &[&Value],
        rest: &[Value],
    ) -> IrResult<Value> {
        let mut env = captures.clone();
        for (i, name) in self.params.iter().enumerate() {
            let v = match param_arg(self.pair, i) {
                Some(0) => head[0].clone(),
                Some(a) => rest[a - 1].clone(),
                None => Value::tuple(vec![head[0].clone(), head[1].clone()]),
            };
            env.insert(name.clone(), v);
        }
        eval_pure_mut(body, &mut env)
    }

    /// Is this UDF actually compiled (vs. the interpreted ablation path)?
    pub fn is_compiled(&self) -> bool {
        matches!(self.mode, Mode::Compiled { .. })
    }
}

/// Why a numeric operand produced no `f64`: its evaluation failed, or its
/// value is not a number. The interpreter evaluates both operands of an
/// arithmetic operator before it converts either, so the two kinds of error
/// are raised at different points.
enum NumErr {
    Eval(IrError),
    NotNumber(IrError),
}

impl From<NumErr> for IrError {
    fn from(e: NumErr) -> IrError {
        match e {
            NumErr::Eval(e) | NumErr::NotNumber(e) => e,
        }
    }
}

impl Op {
    fn run<'v>(&'v self, f: &mut Frame<'v>) -> IrResult<Value> {
        Ok(match self {
            Op::Const(v) => v.clone(),
            Op::Slot(s) => f.get(*s).clone(),
            Op::ProjPath(s, path) => walk(f.get(*s), path)?.clone(),
            Op::Proj(x, i) => x.run(f)?.proj(*i)?,
            Op::Tuple(items) => run_tuple(items, f)?,
            Op::Bin(op, a, b) => {
                let (av, bv) = (a.operand(f)?, b.operand(f)?);
                apply_bin(*op, &av, &bv)?
            }
            Op::Cmp(op, a, b) => Value::Bool(compare(*op, a, b, f)?),
            Op::LongArith(op, a, b) => {
                let (av, bv) = (a.operand(f)?, b.operand(f)?);
                match (&*av, &*bv) {
                    (Value::Long(x), Value::Long(y)) => Value::Long(match op {
                        BinOp::Add => x + y,
                        BinOp::Sub => x - y,
                        _ => x * y,
                    }),
                    // The static `Long` guarantee is belt-and-braces: fall
                    // back to the generic operator so a refinement bug can
                    // only cost speed, never change a result.
                    _ => apply_bin(*op, &av, &bv)?,
                }
            }
            Op::DoubleArith(..) | Op::Un(UnOp::ToDouble, _) => Value::Double(self.run_f64(f)?),
            Op::Un(op, a) => {
                let av = a.operand(f)?;
                apply_un(*op, &av)?
            }
            Op::Let(slot, v, b) => {
                f.locals[*slot] = v.run(f)?;
                b.run(f)?
            }
            Op::If(c, t, e) => {
                if c.run_bool(f)? {
                    t.run(f)?
                } else {
                    e.run(f)?
                }
            }
            Op::While(l) => l.run(f)?,
            Op::Fail(e) => return Err((**e).clone()),
        })
    }

    /// This op's value, borrowed where it already exists for the whole call
    /// (constants, arguments and projections of arguments); locals and
    /// computed values are owned.
    #[inline(always)]
    fn operand<'v>(&'v self, f: &mut Frame<'v>) -> IrResult<Cow<'v, Value>> {
        Ok(match self {
            Op::Const(v) => Cow::Borrowed(v),
            Op::Slot(Slot::Arg(i)) => Cow::Borrowed(f.arg(*i)),
            Op::Slot(Slot::Second) => Cow::Borrowed(f.second),
            Op::Slot(Slot::Local(i)) => Cow::Owned(f.locals[*i].clone()),
            Op::ProjPath(Slot::Arg(i), path) => Cow::Borrowed(walk(f.arg(*i), path)?),
            Op::ProjPath(Slot::Second, path) => Cow::Borrowed(walk(f.second, path)?),
            _ => Cow::Owned(self.run(f)?),
        })
    }

    /// `self.run(f)?.as_f64()`, computed without boxing: a chain of
    /// `DoubleArith`/`ToDouble` ops stays in `f64` down to its leaves.
    fn run_f64<'v>(&'v self, f: &mut Frame<'v>) -> Result<f64, NumErr> {
        let value = match self {
            Op::Const(v) => v,
            Op::Slot(s) => f.get(*s),
            Op::ProjPath(s, path) => walk(f.get(*s), path).map_err(NumErr::Eval)?,
            // The value of `toDouble(a)` and of `DoubleArith` is a `Double`;
            // any failure inside is a failure to evaluate it.
            Op::Un(UnOp::ToDouble, a) => return a.run_f64(f).map_err(|e| NumErr::Eval(e.into())),
            Op::DoubleArith(op, a, b) => {
                let (x, y) = f64_pair(a, b, f).map_err(NumErr::Eval)?;
                return Ok(match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    BinOp::Mul => x * y,
                    _ => x / y,
                });
            }
            _ => return self.run(f).map_err(NumErr::Eval)?.as_f64().map_err(NumErr::NotNumber),
        };
        value.as_f64().map_err(NumErr::NotNumber)
    }

    /// `self.run(f)?.as_bool()`, without a `Bool` in between for comparisons.
    fn run_bool<'v>(&'v self, f: &mut Frame<'v>) -> IrResult<bool> {
        match self {
            Op::Cmp(op, a, b) => compare(*op, a, b, f),
            _ => self.run(f)?.as_bool(),
        }
    }

    fn as_const(&self) -> Option<&Value> {
        match self {
            Op::Const(v) => Some(v),
            _ => None,
        }
    }

    /// A constant or a variable: evaluating it cannot fail.
    fn is_leaf(&self) -> bool {
        matches!(self, Op::Const(_) | Op::Slot(_))
    }
}

impl Loop {
    #[inline(never)]
    fn run<'v>(&'v self, f: &mut Frame<'v>) -> IrResult<Value> {
        for (slot, op) in &self.init {
            f.locals[*slot] = op.run(f)?;
        }
        while self.cond.run_bool(f)? {
            for (k, op) in self.step.iter().enumerate() {
                f.locals[self.stage + k] = op.run(f)?;
            }
            for (k, (slot, _)) in self.init.iter().enumerate() {
                f.locals.swap(*slot, self.stage + k);
            }
        }
        self.result.run(f)
    }
}

// `Loop::run` and `run_tuple` stay out of line: they are rare, and
// inlined they would enlarge the stack frame of every `Op::run` call.
#[inline(never)]
fn run_tuple<'v>(items: &'v [Op], f: &mut Frame<'v>) -> IrResult<Value> {
    Ok(Value::tuple(items.iter().map(|x| x.run(f)).collect::<IrResult<_>>()?))
}

/// Both operands as `f64`, with the interpreter's error order: `a` is
/// evaluated, then `b`, and only then is either converted.
fn f64_pair<'v>(a: &'v Op, b: &'v Op, f: &mut Frame<'v>) -> IrResult<(f64, f64)> {
    let x = match a.run_f64(f) {
        Ok(x) => Ok(x),
        Err(NumErr::Eval(e)) => return Err(e),
        Err(NumErr::NotNumber(e)) => Err(e),
    };
    let y = match b.run_f64(f) {
        Ok(y) => y,
        Err(NumErr::Eval(e)) => return Err(e),
        Err(NumErr::NotNumber(e)) => return Err(x.err().unwrap_or(e)),
    };
    Ok((x?, y))
}

/// `Eq`/`Lt`/`Gt` with [`apply_bin`]'s semantics.
fn compare<'v>(op: BinOp, a: &'v Op, b: &'v Op, f: &mut Frame<'v>) -> IrResult<bool> {
    Ok(match op {
        BinOp::Lt => {
            let (x, y) = f64_pair(a, b, f)?;
            x < y
        }
        BinOp::Gt => {
            let (x, y) = f64_pair(a, b, f)?;
            x > y
        }
        _ => {
            let av = a.operand(f)?;
            av == b.operand(f)?
        }
    })
}

/// Compile-time state: the capture environment (inlined as constants) and
/// the lexical scope mapping names to bindings with their static kinds.
struct Compiler<'a> {
    captures: &'a PureEnv,
    /// Innermost binding last; resolved back-to-front.
    scope: Vec<(String, Bind, ScalarKind)>,
    next_local: usize,
}

/// Folding a `Long` arithmetic constant is only safe when it provably
/// cannot overflow (a debug-build overflow must keep panicking at *run*
/// time, per record, exactly like the interpreter — not at compile time,
/// where even a never-evaluated UDF over an empty bag would trip it).
fn fold_safe_long(v: &Value) -> bool {
    match v {
        Value::Long(x) => x.unsigned_abs() < (1 << 31),
        _ => true,
    }
}

/// Fold an op whose operands are all constants into a constant, unless
/// evaluation fails (keep the op: the error must stay lazy) or a `Long`
/// operand is large enough that debug-overflow semantics could differ.
fn try_fold(op: Op) -> Op {
    let foldable = match &op {
        Op::Tuple(items) => items.iter().all(|x| x.as_const().is_some()),
        Op::Proj(x, _) => x.as_const().is_some(),
        Op::Bin(b, x, y) | Op::Cmp(b, x, y) | Op::LongArith(b, x, y) | Op::DoubleArith(b, x, y) => {
            let arith = matches!(b, BinOp::Add | BinOp::Sub | BinOp::Mul);
            match (x.as_const(), y.as_const()) {
                (Some(xv), Some(yv)) => !arith || (fold_safe_long(xv) && fold_safe_long(yv)),
                _ => false,
            }
        }
        Op::Un(u, x) => match x.as_const() {
            Some(xv) => !matches!(u, UnOp::Neg) || fold_safe_long(xv),
            None => false,
        },
        _ => false,
    };
    if foldable {
        // Constant operands only: the frame is never read.
        let frame = &mut Frame { first: &UNIT, second: &UNIT, rest: &[], locals: &mut [] };
        if let Ok(v) = op.run(frame) {
            return Op::Const(v);
        }
    }
    op
}

impl Compiler<'_> {
    fn fresh_local(&mut self) -> usize {
        let s = self.next_local;
        self.next_local += 1;
        s
    }

    /// The static result kind of an already-compiled op (post-fold).
    fn kind_of_const(op: &Op) -> Option<ScalarKind> {
        op.as_const().map(ScalarKind::of_value)
    }

    fn compile(&mut self, e: &Expr) -> (Op, ScalarKind) {
        match e {
            Expr::Spanned(_, inner) => self.compile(inner),
            Expr::Const(v) => (Op::Const(v.clone()), ScalarKind::of_value(v)),
            Expr::Var(n) => {
                if let Some((_, bind, kind)) =
                    self.scope.iter().rev().find(|(name, _, _)| name == n)
                {
                    let op = match *bind {
                        Bind::Slot(s) => Op::Slot(s),
                        // A bare pair-bound parameter: the one place its
                        // tuple is built.
                        Bind::Pair => {
                            Op::Tuple(vec![Op::Slot(Slot::Arg(0)), Op::Slot(Slot::Second)])
                        }
                    };
                    return (op, *kind);
                }
                match self.captures.get(n) {
                    Some(v) => (Op::Const(v.clone()), ScalarKind::of_value(v)),
                    None => (Op::Fail(Box::new(IrError::Unbound(n.clone()))), ScalarKind::Any),
                }
            }
            Expr::Tuple(items) => {
                let ops = items.iter().map(|x| self.compile(x).0).collect();
                let op = try_fold(Op::Tuple(ops));
                (op, ScalarKind::Tuple)
            }
            Expr::Proj(x, i) => {
                let (xo, _) = self.compile(x);
                let op = match xo {
                    // A component of a tuple of leaves (`kv.0` of a
                    // pair-bound `kv`) is that leaf: no tuple is built.
                    Op::Tuple(items) if *i < items.len() && items.iter().all(Op::is_leaf) => {
                        items.into_iter().nth(*i).expect("index checked")
                    }
                    Op::Slot(s) => Op::ProjPath(s, Box::new([*i])),
                    Op::ProjPath(s, path) => {
                        let mut p = path.into_vec();
                        p.push(*i);
                        Op::ProjPath(s, p.into_boxed_slice())
                    }
                    other => try_fold(Op::Proj(Box::new(other), *i)),
                };
                let kind = Self::kind_of_const(&op).unwrap_or(ScalarKind::Any);
                (op, kind)
            }
            Expr::Bin(op, a, b) => {
                let (ao, ak) = self.compile(a);
                let (bo, bk) = self.compile(b);
                let (a, b) = (Box::new(ao), Box::new(bo));
                let (compiled, kind) = match op {
                    BinOp::Add | BinOp::Sub | BinOp::Mul => {
                        if ak == ScalarKind::Long && bk == ScalarKind::Long {
                            (Op::LongArith(*op, a, b), ScalarKind::Long)
                        } else if ak == ScalarKind::Double || bk == ScalarKind::Double {
                            (Op::DoubleArith(*op, a, b), ScalarKind::Double)
                        } else {
                            let k = if ak.is_numeric() && bk.is_numeric() {
                                ScalarKind::Double
                            } else {
                                ScalarKind::Any
                            };
                            (Op::Bin(*op, a, b), k)
                        }
                    }
                    BinOp::Div => (Op::DoubleArith(*op, a, b), ScalarKind::Double),
                    BinOp::Eq | BinOp::Lt | BinOp::Gt => (Op::Cmp(*op, a, b), ScalarKind::Bool),
                    BinOp::And | BinOp::Or => (Op::Bin(*op, a, b), ScalarKind::Bool),
                };
                let folded = try_fold(compiled);
                let kind = Self::kind_of_const(&folded).unwrap_or(kind);
                (folded, kind)
            }
            Expr::Un(op, a) => {
                let (ao, ak) = self.compile(a);
                let kind = match op {
                    UnOp::Not => ScalarKind::Bool,
                    UnOp::ToDouble => ScalarKind::Double,
                    UnOp::Neg => match ak {
                        ScalarKind::Long => ScalarKind::Long,
                        ScalarKind::Double => ScalarKind::Double,
                        _ => ScalarKind::Any,
                    },
                };
                let folded = try_fold(Op::Un(*op, Box::new(ao)));
                let kind = Self::kind_of_const(&folded).unwrap_or(kind);
                (folded, kind)
            }
            Expr::Let(n, v, b) => {
                let (vo, vk) = self.compile(v);
                let slot = self.fresh_local();
                self.scope.push((n.clone(), Bind::Slot(Slot::Local(slot)), vk));
                let (bo, bk) = self.compile(b);
                self.scope.pop();
                // A fully-folded body with a constant (side-effect-free)
                // binding needs neither the binding nor the slot write.
                if bo.as_const().is_some() && vo.as_const().is_some() {
                    return (bo, bk);
                }
                (Op::Let(slot, Box::new(vo), Box::new(bo)), bk)
            }
            Expr::If(c, t, el) => {
                let (co, _) = self.compile(c);
                // A constant boolean condition selects its branch at compile
                // time (the condition is pure, so eliding it is invisible).
                if let Some(Value::Bool(cv)) = co.as_const() {
                    let cv = *cv;
                    return if cv { self.compile(t) } else { self.compile(el) };
                }
                let (to, tk) = self.compile(t);
                let (eo, ek) = self.compile(el);
                (Op::If(Box::new(co), Box::new(to), Box::new(eo)), tk.join(ek))
            }
            Expr::Loop { init, cond, step, result } => {
                // Loop variables are re-assigned from `step` every
                // iteration, so a sound static kind is the *loop invariant*:
                // the join of the initializer's kind with the step's kind
                // under that same assumption. Solve by fixpoint — kinds only
                // widen on the flat `ScalarKind` lattice, so this converges
                // in at most `init.len() + 1` passes. Each pass rewinds the
                // slot counter so the final code sees a stable numbering.
                let scope_base = self.scope.len();
                let slot_base = self.next_local;
                let mut kinds: Option<Vec<ScalarKind>> = None;
                loop {
                    self.scope.truncate(scope_base);
                    self.next_local = slot_base;
                    // Initializers see the loop variables bound so far (the
                    // interpreter binds them progressively).
                    let mut init_ops = Vec::with_capacity(init.len());
                    let mut assigned = Vec::with_capacity(init.len());
                    for (idx, (n, x)) in init.iter().enumerate() {
                        let (xo, xk) = self.compile(x);
                        let slot = self.fresh_local();
                        let k = kinds.as_ref().map_or(xk, |ks| ks[idx].join(xk));
                        self.scope.push((n.clone(), Bind::Slot(Slot::Local(slot)), k));
                        init_ops.push((slot, xo));
                        assigned.push(k);
                    }
                    let cond_op = self.compile(cond).0;
                    let steps: Vec<(Op, ScalarKind)> =
                        step.iter().map(|x| self.compile(x)).collect();
                    let widened: Vec<ScalarKind> =
                        assigned.iter().zip(steps.iter()).map(|(k, (_, sk))| k.join(*sk)).collect();
                    if widened != assigned {
                        kinds = Some(widened);
                        continue;
                    }
                    let stage = self.next_local;
                    self.next_local += steps.len();
                    let (result_op, rk) = self.compile(result);
                    self.scope.truncate(scope_base);
                    return (
                        Op::While(Box::new(Loop {
                            init: init_ops,
                            cond: cond_op,
                            step: steps.into_iter().map(|(o, _)| o).collect(),
                            stage,
                            result: result_op,
                        })),
                        rk,
                    );
                }
            }
            // A materialization hint on a scalar is the identity, exactly as
            // in the interpreter.
            Expr::Cache(x) => self.compile(x),
            other => (
                // Bag operations in a scalar-only context: the interpreter
                // errors when evaluation *reaches* the node — reproduce that
                // lazily, with the same message.
                Op::Fail(Box::new(IrError::Unsupported(format!(
                    "bag operation in a scalar-only context: {other:?}"
                )))),
                ScalarKind::Any,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Lambda;
    use crate::lower::eval_pure;

    fn compile1(body: Expr, captures: PureEnv) -> CompiledUdf {
        CompiledUdf::new(&Arc::new(body), &["v"], captures, false)
    }

    fn oracle(body: &Expr, captures: &PureEnv, v: &Value) -> IrResult<Value> {
        let mut env = captures.clone();
        env.insert("v".to_string(), v.clone());
        eval_pure(body, &env)
    }

    #[test]
    fn slots_resolve_params_lets_and_shadowing() {
        // let a = v + 1 in let a = a * 2 in a + v
        let body = Expr::let_(
            "a",
            Expr::bin(BinOp::Add, Expr::var("v"), Expr::long(1)),
            Expr::let_(
                "a",
                Expr::bin(BinOp::Mul, Expr::var("a"), Expr::long(2)),
                Expr::bin(BinOp::Add, Expr::var("a"), Expr::var("v")),
            ),
        );
        let c = compile1(body.clone(), PureEnv::new());
        for x in [0i64, 5, -3] {
            let v = Value::Long(x);
            assert_eq!(c.eval1(&v).unwrap(), oracle(&body, &PureEnv::new(), &v).unwrap());
        }
        assert_eq!(c.eval1(&Value::Long(5)).unwrap(), Value::Long(17));
    }

    #[test]
    fn captures_inline_and_fold() {
        // v < n * 2 + 1  with n captured: the right side folds to one const.
        let captures = PureEnv::from([("n".to_string(), Value::Long(10))]);
        let body = Expr::bin(
            BinOp::Lt,
            Expr::var("v"),
            Expr::bin(
                BinOp::Add,
                Expr::bin(BinOp::Mul, Expr::var("n"), Expr::long(2)),
                Expr::long(1),
            ),
        );
        let c = compile1(body.clone(), captures.clone());
        assert_eq!(c.eval1(&Value::Long(20)).unwrap(), Value::Bool(true));
        assert_eq!(c.eval1(&Value::Long(21)).unwrap(), Value::Bool(false));
        assert_eq!(
            c.eval1(&Value::Long(21)).unwrap(),
            oracle(&body, &captures, &Value::Long(21)).unwrap()
        );
    }

    #[test]
    fn projection_chains_walk_by_reference() {
        // v.1.0 over ((..), (x, y))
        let body = Expr::proj(Expr::proj(Expr::var("v"), 1), 0);
        let c = compile1(body, PureEnv::new());
        let v = Value::tuple(vec![
            Value::Long(1),
            Value::tuple(vec![Value::str("inner"), Value::Long(2)]),
        ]);
        assert_eq!(c.eval1(&v).unwrap(), Value::str("inner"));
        // Error parity with the interpreter on a non-tuple.
        let e = c.eval1(&Value::Long(3)).unwrap_err();
        assert!(e.to_string().contains("projection"), "{e}");
    }

    #[test]
    fn while_loops_run_on_slots() {
        // loop (i = v, acc = 0) while i > 0 do (i - 1, acc + i) yield acc
        let body = Expr::Loop {
            init: vec![("i".into(), Expr::var("v")), ("acc".into(), Expr::long(0))],
            cond: Box::new(Expr::bin(BinOp::Gt, Expr::var("i"), Expr::long(0))),
            step: vec![
                Expr::bin(BinOp::Sub, Expr::var("i"), Expr::long(1)),
                Expr::bin(BinOp::Add, Expr::var("acc"), Expr::var("i")),
            ],
            result: Box::new(Expr::var("acc")),
        };
        let c = compile1(body.clone(), PureEnv::new());
        for x in [0i64, 1, 10] {
            let v = Value::Long(x);
            assert_eq!(c.eval1(&v).unwrap(), oracle(&body, &PureEnv::new(), &v).unwrap());
        }
        assert_eq!(c.eval1(&Value::Long(10)).unwrap(), Value::Long(55));
    }

    #[test]
    fn untaken_branches_stay_lazy() {
        // if v > 0 then v else count(source(xs)) — the interpreter only
        // errors when the else-branch is reached; compiled must match.
        let body = Expr::If(
            Box::new(Expr::bin(BinOp::Gt, Expr::var("v"), Expr::long(0))),
            Box::new(Expr::var("v")),
            Box::new(Expr::Count(Box::new(Expr::Source("xs".into())))),
        );
        let c = compile1(body.clone(), PureEnv::new());
        assert_eq!(c.eval1(&Value::Long(3)).unwrap(), Value::Long(3));
        let compiled_err = c.eval1(&Value::Long(-1)).unwrap_err();
        let interp_err = oracle(&body, &PureEnv::new(), &Value::Long(-1)).unwrap_err();
        assert_eq!(compiled_err.to_string(), interp_err.to_string());
    }

    #[test]
    fn unbound_names_fail_lazily_with_interpreter_error() {
        let body = Expr::If(
            Box::new(Expr::Const(Value::Bool(true))),
            Box::new(Expr::long(1)),
            Box::new(Expr::var("nope")),
        );
        let c = compile1(body, PureEnv::new());
        assert_eq!(c.eval1(&Value::Long(0)).unwrap(), Value::Long(1));
        let body2 = Expr::var("nope");
        let c2 = compile1(body2.clone(), PureEnv::new());
        assert_eq!(
            c2.eval1(&Value::Long(0)).unwrap_err().to_string(),
            oracle(&body2, &PureEnv::new(), &Value::Long(0)).unwrap_err().to_string()
        );
    }

    #[test]
    fn overflow_prone_constants_do_not_fold_at_compile_time() {
        // (big * big) would overflow; compilation must not evaluate it.
        let big = i64::MAX / 2;
        let body = Expr::If(
            Box::new(Expr::bin(BinOp::Gt, Expr::var("v"), Expr::long(0))),
            Box::new(Expr::long(1)),
            Box::new(Expr::bin(BinOp::Mul, Expr::long(big), Expr::long(big))),
        );
        let c = compile1(body, PureEnv::new()); // must not panic here
        assert_eq!(c.eval1(&Value::Long(5)).unwrap(), Value::Long(1));
    }

    #[test]
    fn interpreted_mode_matches_compiled() {
        let body = Arc::new(Expr::let_(
            "a",
            Expr::bin(BinOp::Mul, Expr::var("v"), Expr::long(3)),
            Expr::bin(BinOp::Add, Expr::var("a"), Expr::var("n")),
        ));
        let captures = PureEnv::from([("n".to_string(), Value::Long(4))]);
        let compiled = CompiledUdf::new(&body, &["v"], captures.clone(), false);
        let interp = CompiledUdf::new(&body, &["v"], captures, true);
        assert!(compiled.is_compiled() && !interp.is_compiled());
        for x in [-2i64, 0, 9] {
            let v = Value::Long(x);
            assert_eq!(compiled.eval1(&v).unwrap(), interp.eval1(&v).unwrap());
        }
    }

    #[test]
    fn eval2_and_combined_entry_points() {
        // Combiner: (a, b) => a + b.
        let comb = CompiledUdf::new(
            &Arc::new(Expr::bin(BinOp::Add, Expr::var("a"), Expr::var("b"))),
            &["a", "b"],
            PureEnv::new(),
            false,
        );
        assert_eq!(comb.arity(), 2);
        assert_eq!(comb.eval2(&Value::Long(2), &Value::Long(5)).unwrap(), Value::Long(7));
        // mapWithClosure shape: param v plus lifted names (m, k) delivered
        // as one combined tuple.
        let c = CompiledUdf::new(
            &Arc::new(Expr::bin(
                BinOp::Add,
                Expr::bin(BinOp::Mul, Expr::var("v"), Expr::var("m")),
                Expr::var("k"),
            )),
            &["v", "m", "k"],
            PureEnv::new(),
            false,
        );
        let combined = Value::tuple(vec![Value::Long(10), Value::Long(3)]);
        assert_eq!(c.eval_with_combined(&Value::Long(7), &combined).unwrap(), Value::Long(73));
    }

    #[test]
    fn double_and_comparison_fast_paths_preserve_semantics() {
        // if v > 2.5 then v / 2.0 else v * 4  (mixes Long/Double per record)
        let body = Expr::If(
            Box::new(Expr::bin(BinOp::Gt, Expr::var("v"), Expr::Const(Value::Double(2.5)))),
            Box::new(Expr::bin(BinOp::Div, Expr::var("v"), Expr::Const(Value::Double(2.0)))),
            Box::new(Expr::bin(BinOp::Mul, Expr::var("v"), Expr::long(4))),
        );
        let c = compile1(body.clone(), PureEnv::new());
        for v in [Value::Long(10), Value::Long(1), Value::Double(3.5), Value::Double(-1.0)] {
            assert_eq!(c.eval1(&v).unwrap(), oracle(&body, &PureEnv::new(), &v).unwrap());
        }
        // Non-numeric operand: same error either way.
        assert_eq!(
            c.eval1(&Value::str("x")).unwrap_err().to_string(),
            oracle(&body, &PureEnv::new(), &Value::str("x")).unwrap_err().to_string()
        );
    }

    #[test]
    fn reentrant_calls_get_a_fresh_frame() {
        // let a = v * 2 in loop (i = a, acc = 0) while i > 0 do (i - 1, acc + i) yield acc
        let with_locals = compile1(
            Expr::let_(
                "a",
                Expr::bin(BinOp::Mul, Expr::var("v"), Expr::long(2)),
                Expr::Loop {
                    init: vec![("i".into(), Expr::var("a")), ("acc".into(), Expr::long(0))],
                    cond: Box::new(Expr::bin(BinOp::Gt, Expr::var("i"), Expr::long(0))),
                    step: vec![
                        Expr::bin(BinOp::Sub, Expr::var("i"), Expr::long(1)),
                        Expr::bin(BinOp::Add, Expr::var("acc"), Expr::var("i")),
                    ],
                    result: Box::new(Expr::var("acc")),
                },
            ),
            PureEnv::new(),
        );
        let no_locals =
            compile1(Expr::bin(BinOp::Add, Expr::var("v"), Expr::long(1)), PureEnv::new());
        let Mode::Compiled { locals, .. } = &with_locals.mode else { panic!("not compiled") };
        assert_eq!(*locals, 5, "a, i, acc and two staging slots");
        let warm = with_locals.eval1(&Value::Long(3)).unwrap();
        assert_eq!(warm, Value::Long(21));
        // While this thread's buffer is borrowed (as by an evaluation further
        // up the stack), calls still succeed: a UDF with locals on a fresh
        // frame, one without locals on no frame at all.
        LOCALS.with(|cell| {
            let held = cell.borrow_mut();
            assert_eq!(with_locals.eval1(&Value::Long(3)).unwrap(), warm);
            assert_eq!(with_locals.eval1(&Value::Long(4)).unwrap(), Value::Long(36));
            assert_eq!(no_locals.eval1(&Value::Long(4)).unwrap(), Value::Long(5));
            drop(held);
        });
        // Afterwards the shared buffer is usable again and has been sized.
        assert_eq!(with_locals.eval1(&Value::Long(1)).unwrap(), Value::Long(3));
        assert!(LOCALS.with(|cell| cell.borrow().len()) >= 5);
    }

    #[test]
    fn lambda_bodies_from_the_surface_syntax_compile() {
        // The bounce-rate leaf UDFs, via the text front-end.
        let p = crate::parse_program("map(source(xs), ip => (ip, 1))").unwrap();
        let Expr::Map(_, Lambda { param, body }) = p.strip_spans() else {
            panic!("expected a map")
        };
        let c = CompiledUdf::new(&body, &[&param], PureEnv::new(), false);
        assert_eq!(
            c.eval1(&Value::Long(9)).unwrap(),
            Value::tuple(vec![Value::Long(9), Value::Long(1)])
        );
    }
}
